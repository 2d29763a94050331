import math

import numpy as np
import pytest

from femin import (
    ComplexityPenalty,
    FiniteDistribution,
    FreeEnergyProblem,
    LearningProblem,
    LossVector,
    brute_force_minimize,
    coverage_experiment,
    dv_check,
    free_energy,
    generalized_posterior,
    gibbs_posterior,
    kl_divergence,
    pac_bayes_bound,
    total_variation,
    training_losses,
)
from femin import pac_bayes
from femin.errors import EmptyData
from femin.pac_bayes import CoverageReport
from femin.pac_bayes import test_losses as exact_test_losses
from femin.simplex import SUPPORT_EPS

# frozen from the bound formula: sqrt((b-a)^2/(2m) * (kl + log(1/delta)))
BOUND_KL0_M100_D05 = 0.12238734153404082
BOUND_KL1_M100_D05 = 0.14134589264555922


def small_problem(rng=None, n_h=3, n_z=4, a=0.0, b=1.0):
    rng = rng or np.random.default_rng(0)
    table = rng.uniform(a, b, size=(n_h, n_z))
    prior = FiniteDistribution(rng.dirichlet(np.ones(n_h)) * 0.9 + 0.1 / n_h)
    data_model = FiniteDistribution(rng.dirichlet(np.ones(n_z)))
    return LearningProblem(table, a, b, prior, data_model)


def zero_one_problem(n_h=8, n_z=6, seed=123):
    rng = np.random.default_rng(seed)
    table = (rng.random((n_h, n_z)) < 0.5).astype(float)
    table[0] = 0.0  # ensure both loss values appear
    table[1] = 1.0
    prior = FiniteDistribution.uniform(n_h)
    data_model = FiniteDistribution(rng.dirichlet(np.ones(n_z)))
    return LearningProblem(table, 0.0, 1.0, prior, data_model)


class TestLossEvaluation:
    def test_constant_loss(self):
        problem = LearningProblem(
            np.full((2, 3), 0.4), 0.0, 1.0, FiniteDistribution.uniform(2), FiniteDistribution.uniform(3)
        )
        assert training_losses(problem, [0, 1, 2, 0])[0] == pytest.approx(0.4, abs=1e-15)

    def test_zero_one_counting(self):
        table = np.zeros((1, 2))
        table[0, 1] = 1.0
        problem = LearningProblem(
            table, 0.0, 1.0, FiniteDistribution.uniform(1), FiniteDistribution.uniform(2)
        )
        s = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]  # 3 mistakes out of 10
        assert training_losses(problem, s)[0] == pytest.approx(0.3, abs=1e-15)

    def test_single_sample(self):
        problem = small_problem()
        assert training_losses(problem, [2])[1] == problem.loss_table[1, 2]

    def test_empty_training_set(self):
        with pytest.raises(EmptyData):
            training_losses(small_problem(), [])

    def test_non_integral_symbols_rejected(self):
        problem = small_problem()
        for s in ([0.7, 1.9], [0.0, np.nan], [np.inf]):
            with pytest.raises(ValueError, match="must be integers"):
                training_losses(problem, s)
        assert np.array_equal(training_losses(problem, [0.0, 3.0]), training_losses(problem, [0, 3]))

    def test_test_loss_point_mass(self):
        table = np.array([[0.1, 0.9]])
        problem = LearningProblem(
            table, 0.0, 1.0, FiniteDistribution.uniform(1), FiniteDistribution([0.0, 1.0])
        )
        assert exact_test_losses(problem)[0] == pytest.approx(0.9, abs=1e-15)

    def test_test_loss_uniform_average(self):
        table = np.array([[0.0, 1.0]])
        problem = LearningProblem(
            table, 0.0, 1.0, FiniteDistribution.uniform(1), FiniteDistribution.uniform(2)
        )
        assert exact_test_losses(problem)[0] == pytest.approx(0.5, abs=1e-15)

    def test_test_loss_weighted_sum(self):
        table = np.array([[0.2, 0.5, 0.8]])
        data_model = FiniteDistribution([0.5, 0.3, 0.2])
        problem = LearningProblem(table, 0.0, 1.0, FiniteDistribution.uniform(1), data_model)
        assert exact_test_losses(problem)[0] == pytest.approx(0.2 * 0.5 + 0.5 * 0.3 + 0.8 * 0.2, abs=1e-15)


class TestGibbsPosterior:
    def test_tiny_beta_returns_prior(self):
        problem = small_problem()
        post = gibbs_posterior(problem, [0, 1, 2], beta=1e-9)
        assert total_variation(post, problem.prior) <= 1e-6

    def test_large_beta_concentrates_on_erm(self):
        problem = small_problem(np.random.default_rng(9))
        s = [0, 1, 3, 2, 0]
        erm = int(np.argmin(training_losses(problem, s)))
        post = gibbs_posterior(problem, s, beta=1e4)
        assert post.probs[erm] >= 1.0 - 1e-3

    def test_direct_arithmetic_two_hypotheses(self):
        table = np.array([[0.0, 0.0], [math.log(3.0), math.log(3.0)]])
        problem = LearningProblem(
            table, 0.0, 2.0, FiniteDistribution.uniform(2), FiniteDistribution.uniform(2)
        )
        post = gibbs_posterior(problem, [0], beta=1.0)
        assert np.allclose(post.probs, [0.75, 0.25], atol=1e-12)

    def test_optimality_against_grid(self):
        # Grid step 1e-3 up to 3 hypotheses; 4 hypotheses at 1e-2 (the finer
        # grid would need ~1.7e8 points there).
        rng = np.random.default_rng(21)
        cases = [(2, 1e-3), (3, 1e-3), (2, 1e-3), (3, 1e-3), (4, 1e-2), (4, 1e-2)]
        for n_h, step in cases:
            problem = small_problem(rng, n_h=n_h)
            s = rng.integers(0, problem.n_outcomes, size=12)
            beta = float(rng.uniform(0.5, 4.0))
            post = gibbs_posterior(problem, s, beta)
            fe = FreeEnergyProblem(
                LossVector(training_losses(problem, s)),
                1.0 / beta,
                ComplexityPenalty.kl_to_prior(problem.prior),
            )
            oracle = brute_force_minimize(fe, step)
            assert free_energy(fe, post) <= oracle.j_opt + 1e-6

    def test_bitwise_equal_to_generalized_posterior(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            problem = small_problem(rng, n_h=int(rng.integers(2, 9)), a=2.0, b=3.0)
            s = rng.integers(0, problem.n_outcomes, size=int(rng.integers(1, 20)))
            train = LossVector(training_losses(problem, s))
            for beta in (float(rng.uniform(0.1, 30.0)), 1e306, 1e308):
                expected = generalized_posterior(problem.prior, train, 1.0 / beta)
                assert np.array_equal(gibbs_posterior(problem, s, beta).probs, expected.probs)

    def test_loss_shift_leaves_posterior_unchanged(self):
        rng = np.random.default_rng(25)
        problem = small_problem(rng)
        shifted = LearningProblem(
            problem.loss_table + 0.7, 0.7, 1.7, problem.prior, problem.data_model
        )
        s = [0, 2, 1, 1]
        q1 = gibbs_posterior(problem, s, beta=2.0)
        q2 = gibbs_posterior(shifted, s, beta=2.0)
        assert total_variation(q1, q2) <= 1e-12


class TestDvCheck:
    def test_prior_case_is_jensen(self):
        problem = small_problem(np.random.default_rng(31))
        lhs, rhs = dv_check(problem, problem.prior, [0, 1, 2, 3], beta=2.5)
        assert lhs <= rhs + 1e-9

    def test_equality_at_tilted_prior(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            problem = small_problem(rng)
            s = rng.integers(0, problem.n_outcomes, size=6)
            beta = float(rng.uniform(0.2, 3.0))
            gaps = exact_test_losses(problem) - training_losses(problem, s)
            q = FiniteDistribution.normalized(problem.prior.probs * np.exp(beta * gaps))
            lhs, rhs = dv_check(problem, q, s, beta)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_inequality_over_random_cases(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            problem = small_problem(rng)
            s = rng.integers(0, problem.n_outcomes, size=int(rng.integers(1, 20)))
            q = FiniteDistribution(rng.dirichlet(np.ones(problem.n_hypotheses)))
            beta = float(rng.uniform(0.1, 5.0))
            lhs, rhs = dv_check(problem, q, s, beta)
            assert lhs <= rhs + 1e-9

    def test_beta_validated(self):
        problem = small_problem(np.random.default_rng(39))
        for beta in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="beta must be finite and > 0"):
                dv_check(problem, problem.prior, [0, 1], beta)


class TestPacBayesBound:
    def test_frozen_arithmetic(self):
        assert pac_bayes_bound(0.0, 100, 0.05, 0.0, 1.0) == pytest.approx(BOUND_KL0_M100_D05, abs=1e-12)
        assert pac_bayes_bound(1.0, 100, 0.05, 0.0, 1.0) == pytest.approx(BOUND_KL1_M100_D05, abs=1e-12)

    def test_quadrupling_m_halves_the_bound(self):
        b1 = pac_bayes_bound(0.3, 50, 0.1, 0.0, 1.0)
        b4 = pac_bayes_bound(0.3, 200, 0.1, 0.0, 1.0)
        assert b4 == pytest.approx(0.5 * b1, abs=1e-12)

    def test_monotonicity_sweeps(self):
        ms = [10, 20, 50, 100, 400]
        assert all(
            pac_bayes_bound(0.5, m1, 0.05, 0.0, 1.0) >= pac_bayes_bound(0.5, m2, 0.05, 0.0, 1.0)
            for m1, m2 in zip(ms, ms[1:])
        )
        deltas = [0.01, 0.05, 0.1, 0.5, 0.9]
        assert all(
            pac_bayes_bound(0.5, 50, d1, 0.0, 1.0) >= pac_bayes_bound(0.5, 50, d2, 0.0, 1.0)
            for d1, d2 in zip(deltas, deltas[1:])
        )
        kls = [0.0, 0.1, 1.0, 5.0]
        assert all(
            pac_bayes_bound(k1, 50, 0.05, 0.0, 1.0) <= pac_bayes_bound(k2, 50, 0.05, 0.0, 1.0)
            for k1, k2 in zip(kls, kls[1:])
        )
        assert pac_bayes_bound(0.5, 50, 0.05, 0.0, 2.0) >= pac_bayes_bound(0.5, 50, 0.05, 0.0, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pac_bayes_bound(-0.1, 10, 0.05, 0.0, 1.0)
        with pytest.raises(ValueError):
            pac_bayes_bound(0.0, 0, 0.05, 0.0, 1.0)
        with pytest.raises(ValueError):
            pac_bayes_bound(0.0, 10, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            pac_bayes_bound(0.0, 10, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            pac_bayes_bound(0.0, 10, 0.05, 1.0, 1.0)

    def test_non_integral_m_rejected(self):
        for m in (2.7, 0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="m must be an integer"):
                pac_bayes_bound(0.1, m, 0.05, 0.0, 1.0)
            with pytest.raises(ValueError, match="m must be an integer"):
                coverage_experiment(small_problem(), 1.0, m, 0.05, trials=100, seed=0)
        assert pac_bayes_bound(0.1, 2.0, 0.05, 0.0, 1.0) == pac_bayes_bound(0.1, 2, 0.05, 0.0, 1.0)
        assert pac_bayes_bound(0.1, np.int64(7), 0.05, 0.0, 1.0) == pac_bayes_bound(0.1, 7, 0.05, 0.0, 1.0)

    def test_negative_a_accepted(self):
        # only the width b - a matters
        assert pac_bayes_bound(0.0, 100, 0.05, -0.5, 0.5) == pytest.approx(
            BOUND_KL0_M100_D05, abs=1e-12
        )


def reference_coverage(problem, beta, m, delta, trials, seed):
    """coverage_experiment as one public call per step of each trial."""
    test_vec = exact_test_losses(problem)
    n_violations, gap_total, bound_total = 0, 0.0, 0.0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        s = rng.choice(problem.n_outcomes, size=m, p=problem.data_model.probs)
        q = gibbs_posterior(problem, s, beta)
        gap = float(q.probs @ (test_vec - training_losses(problem, s)))
        bound = pac_bayes_bound(kl_divergence(q, problem.prior), m, delta, problem.a, problem.b)
        n_violations += gap > bound
        gap_total += gap
        bound_total += bound
    return CoverageReport(
        n_violations / trials, gap_total / trials, bound_total / trials,
        n_violations, trials, seed, float(beta), m, float(delta),
    )


class TestCoverageExperiment:
    def test_matches_the_per_trial_reference(self):
        rng = np.random.default_rng(41)
        cases = [(zero_one_problem(), 2.0, 50, 0.05, 7), (zero_one_problem(seed=5), 0.3, 5, 0.2, 1)]
        for seed in range(4):
            problem = small_problem(rng, n_h=int(rng.integers(2, 9)), n_z=int(rng.integers(2, 7)))
            cases.append((problem, float(rng.uniform(0.1, 30.0)), int(rng.integers(1, 60)), 0.1, seed))
        for problem, beta, m, delta, seed in cases:
            expected = reference_coverage(problem, beta, m, delta, 100, seed)
            assert coverage_experiment(problem, beta, m, delta, 100, seed) == expected

    @pytest.mark.parametrize("n_h", [8, 9, 33])
    def test_matches_the_reference_at_pairwise_sum_widths(self, n_h):
        # numpy sums a row of 8 or more entries pairwise: 8 partial sums, then the rest
        rng = np.random.default_rng(n_h)
        for m in (1, 9, 40):
            problem = small_problem(rng, n_h=n_h, n_z=int(rng.integers(2, 12)))
            beta = float(rng.uniform(0.5, 50.0))
            expected = reference_coverage(problem, beta, m, 0.1, 100, m)
            assert coverage_experiment(problem, beta, m, 0.1, 100, m) == expected

    def test_matches_the_reference_one_trial_past_a_block(self):
        problem = small_problem(np.random.default_rng(45), n_h=8, n_z=5)
        block = pac_bayes._BLOCK_CELLS // (5 * 8)  # trials per block at m = 5 on 8 hypotheses
        report = coverage_experiment(problem, 3.0, 5, 0.05, block + 1, 2)
        assert report == reference_coverage(problem, 3.0, 5, 0.05, block + 1, 2)

    def test_matches_the_reference_on_point_mass_posteriors(self):
        # at beta = 1e308 every q is a point mass (or nearly): the KL kernel's masked sum
        rng = np.random.default_rng(49)
        for n_h, a, b in ((3, 2.0, 3.0), (9, 0.0, 1.0), (33, -1e150, 1e150)):
            problem = small_problem(rng, n_h=n_h, n_z=4, a=a, b=b)
            for beta in (1e308, 1e3):
                expected = reference_coverage(problem, beta, 7, 0.05, 150, 1)
                assert coverage_experiment(problem, beta, 7, 0.05, 150, 1) == expected

    def test_matches_the_reference_on_masked_posteriors(self):
        # 10 hypotheses: the 5 with losses near 1 get q = 0 (exp underflows), the 5 near 0 keep
        # q > SUPPORT_EPS, so each row's KL adds masked zeros among 8 or more pairwise-summed entries
        rng = np.random.default_rng(53)
        table = np.vstack([rng.uniform(0.0, 0.005, (5, 6)), rng.uniform(0.95, 1.0, (5, 6))])
        prior = FiniteDistribution(rng.dirichlet(np.ones(10)) * 0.9 + 0.01)
        problem = LearningProblem(table, 0.0, 1.0, prior, FiniteDistribution(rng.dirichlet(np.ones(6))))
        for seed in range(3):
            s = np.random.default_rng((seed, 0)).choice(6, size=20, p=problem.data_model.probs)
            q = gibbs_posterior(problem, s, 1000.0).probs
            assert np.sum(q == 0.0) == 5 and np.sum(q > SUPPORT_EPS) == 5
            assert coverage_experiment(problem, 1000.0, 20, 0.05, 200, seed) == reference_coverage(
                problem, 1000.0, 20, 0.05, 200, seed
            )

    def test_matches_the_reference_with_a_zero_data_model_entry(self):
        rng = np.random.default_rng(51)
        problem = small_problem(rng, n_h=6, n_z=5)
        probs = problem.data_model.probs.copy()
        probs[[0, 3]] = 0.0
        problem = LearningProblem(problem.loss_table, 0.0, 1.0, problem.prior, FiniteDistribution.normalized(probs))
        report = coverage_experiment(problem, 2.0, 30, 0.05, 200, 4)
        assert report == reference_coverage(problem, 2.0, 30, 0.05, 200, 4)

    def test_tiny_beta_keeps_the_prior(self):
        # q within rounding of the prior: its KL must not round below zero
        problem = small_problem(np.random.default_rng(43), n_h=8, n_z=5)
        report = coverage_experiment(problem, beta=1e-9, m=20, delta=0.05, trials=200, seed=0)
        assert report.n_violations == 0
        assert report.mean_bound == pytest.approx(pac_bayes_bound(0.0, 20, 0.05, 0.0, 1.0), abs=1e-12)

    def test_deterministic_loss_never_violates(self):
        table = np.tile(np.array([[0.2], [0.8]]), (1, 3))  # loss independent of z
        problem = LearningProblem(
            table, 0.0, 1.0, FiniteDistribution.uniform(2), FiniteDistribution.uniform(3)
        )
        report = coverage_experiment(problem, beta=2.0, m=10, delta=0.05, trials=100, seed=1)
        assert report.violation_rate == 0.0
        assert report.mean_gap == pytest.approx(0.0, abs=1e-15)

    def test_zero_one_coverage_within_slack(self):
        problem = zero_one_problem()
        report = coverage_experiment(problem, beta=2.0, m=50, delta=0.05, trials=200, seed=7)
        slack = 2.0 * math.sqrt(0.05 * 0.95 / 200)
        assert report.violation_rate <= 0.05 + slack
        assert report.seed == 7

    def test_bounded_real_loss_coverage(self):
        problem = small_problem(np.random.default_rng(2), n_h=5, n_z=5)
        report = coverage_experiment(problem, beta=1.0, m=30, delta=0.1, trials=200, seed=11)
        slack = 2.0 * math.sqrt(0.1 * 0.9 / 200)
        assert report.violation_rate <= 0.1 + slack

    def test_reproducible_for_fixed_seed(self):
        problem = zero_one_problem()
        r1 = coverage_experiment(problem, beta=1.5, m=20, delta=0.05, trials=120, seed=3)
        r2 = coverage_experiment(problem, beta=1.5, m=20, delta=0.05, trials=120, seed=3)
        assert r1 == r2

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            coverage_experiment(small_problem(), 1.0, 10, 0.05, trials=50, seed=0)

    def test_trial_count_and_seed_not_truncated(self):
        problem = small_problem()
        for trials in (150.9, np.nan, np.inf):
            with pytest.raises(ValueError, match="trials must be an integer"):
                coverage_experiment(problem, 1.0, 10, 0.05, trials=trials, seed=0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            coverage_experiment(problem, 1.0, 10, 0.05, trials=100, seed=1.5)
        integral = coverage_experiment(problem, 1.0, 10, 0.05, trials=150.0, seed=2.0)
        assert integral == coverage_experiment(problem, 1.0, 10, 0.05, trials=150, seed=2)


def test_cdf_search_is_numpys_weighted_choice():
    """coverage_experiment draws a training set as cdf.searchsorted(rng.random(m),
    side="right"), with cdf = cumsum(p) / its last entry: numpy's own
    Generator.choice(n, size=m, p=p). A numpy that samples otherwise fails here."""
    rng = np.random.default_rng(53)
    for n in range(1, 34):
        for variant in ("dirichlet", "zeros", "off by 5e-10"):
            p = rng.dirichlet(np.ones(n))
            if variant == "zeros" and n > 1:
                p[rng.permutation(n)[: max(1, n // 3)]] = 0.0
                p /= p.sum()
            elif variant == "off by 5e-10":
                p *= 1.0 + 5e-10  # FiniteDistribution accepts a sum 1e-9 from 1
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            for m in (1, 20, 257):
                for seed in range(8):
                    draws = cdf.searchsorted(np.random.default_rng((seed, m)).random(m), side="right")
                    expected = np.random.default_rng((seed, m)).choice(n, size=m, p=p)
                    assert draws.dtype == expected.dtype and np.array_equal(draws, expected), (n, variant, m, seed)


class TestProblemValidation:
    def test_loss_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            LearningProblem(
                np.array([[0.0, 1.5]]), 0.0, 1.0, FiniteDistribution.uniform(1), FiniteDistribution.uniform(2)
            )

    def test_prior_must_be_strictly_positive(self):
        from femin import NonPositivePrior

        with pytest.raises(NonPositivePrior):
            LearningProblem(
                np.zeros((2, 2)), -1.0, 1.0, FiniteDistribution([1.0, 0.0]), FiniteDistribution.uniform(2)
            )
