import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femin import (
    AlphabetTooLarge,
    ComplexityPenalty,
    FiniteDistribution,
    FreeEnergyProblem,
    LossVector,
    NonPositivePrior,
    brute_force_minimize,
    fenchel_young_gap,
    free_energy,
    kl_divergence,
    minimize_closed_form,
    solve_tau,
    total_variation,
)
from femin.free_energy import HALF_SQ_L2, KL_TO_PRIOR, NEG_ENTROPY, _grid_points, _simplex_grid


def neg_entropy_problem(losses, t=1.0):
    return FreeEnergyProblem(LossVector(losses), t, ComplexityPenalty.neg_entropy())


def kl_problem(losses, prior, t=1.0):
    return FreeEnergyProblem(LossVector(losses), t, ComplexityPenalty.kl_to_prior(FiniteDistribution(prior)))


def l2_problem(losses, prior, t=1.0):
    return FreeEnergyProblem(
        LossVector(losses), t, ComplexityPenalty.half_sq_l2_to_prior(FiniteDistribution(prior))
    )


def bisection_tau(v):
    # oracle: binary search on the monotone residual sum((v - tau)^+) - 1
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, None).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_problem(rng, n, kind):
    losses = rng.uniform(-1.0, 1.0, n)
    t = float(rng.uniform(0.5, 2.0))
    if kind == NEG_ENTROPY:
        return neg_entropy_problem(losses, t)
    prior = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n  # keep strictly positive
    prior /= prior.sum()
    if kind == KL_TO_PRIOR:
        return kl_problem(losses, prior, t)
    return l2_problem(losses, prior, t)


class TestFreeEnergyValue:
    def test_zero_loss_max_entropy(self):
        problem = neg_entropy_problem([0.0, 0.0])
        assert free_energy(problem, FiniteDistribution.uniform(2)) == pytest.approx(
            -math.log(2), abs=1e-12
        )

    def test_direct_summation(self):
        problem = neg_entropy_problem([0.0, math.log(3)])
        q = FiniteDistribution([0.75, 0.25])
        expected = 0.25 * math.log(3) - (-(0.75 * math.log(0.75) + 0.25 * math.log(0.25)))
        assert free_energy(problem, q) == pytest.approx(expected, abs=1e-12)

    def test_constant_loss_at_prior(self):
        prior = [0.3, 0.7]
        problem = kl_problem([1.0, 1.0], prior, t=2.0)
        assert free_energy(problem, FiniteDistribution(prior)) == pytest.approx(1.0, abs=1e-12)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            neg_entropy_problem([0.0, 1.0], t=0.0)
        with pytest.raises(ValueError):
            neg_entropy_problem([0.0, 1.0], t=-1.0)


class TestSolveTau:
    def test_zero_loss_projects_prior_to_itself(self):
        p = FiniteDistribution([0.2, 0.3, 0.5])
        assert solve_tau(p, LossVector([0.0, 0.0, 0.0]), 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_hand_solved_vertex_case(self):
        tau = solve_tau(FiniteDistribution([0.5, 0.5]), LossVector([0.0, 1.0]), 1.0)
        assert tau == pytest.approx(-0.5, abs=1e-14)

    def test_interior_case(self):
        p = FiniteDistribution([0.5, 0.5])
        l = LossVector([0.1, -0.1])
        assert solve_tau(p, l, 1.0) == pytest.approx(0.0, abs=1e-14)
        sol = minimize_closed_form(l2_problem([0.1, -0.1], [0.5, 0.5]))
        assert np.allclose(sol.q_opt.probs, [0.4, 0.6], atol=1e-12)

    def test_residual_and_bisection_agreement(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            p = FiniteDistribution(rng.dirichlet(np.ones(n)))
            l = LossVector(rng.normal(scale=3.0, size=n))
            t = float(rng.uniform(0.2, 5.0))
            tau = solve_tau(p, l, t)
            v = p.probs - l.losses / t
            assert abs(np.clip(v - tau, 0.0, None).sum() - 1.0) <= 1e-12
            assert tau == pytest.approx(bisection_tau(v), abs=1e-10)


class TestClosedForms:
    def test_gibbs_two_symbols(self):
        sol = minimize_closed_form(neg_entropy_problem([0.0, math.log(3)]))
        assert np.allclose(sol.q_opt.probs, [0.75, 0.25], atol=1e-12)
        assert sol.j_opt == pytest.approx(-math.log(4.0 / 3.0), abs=1e-12)
        oracle = brute_force_minimize(neg_entropy_problem([0.0, math.log(3)]), 1e-4)
        assert sol.j_opt == pytest.approx(oracle.j_opt, abs=1e-6)
        assert total_variation(sol.q_opt, oracle.q_opt) <= 1e-4

    def test_constant_loss_gives_uniform(self):
        c = 0.37
        for n in (2, 3, 4):
            sol = minimize_closed_form(neg_entropy_problem([c] * n))
            assert total_variation(sol.q_opt, FiniteDistribution.uniform(n)) <= 1e-12
            assert sol.j_opt == pytest.approx(c - math.log(n), abs=1e-12)

    def test_l2_hand_projection(self):
        sol = minimize_closed_form(l2_problem([0.0, 1.0], [0.5, 0.5]))
        assert sol.tau == pytest.approx(-0.5, abs=1e-14)
        assert np.allclose(sol.q_opt.probs, [1.0, 0.0], atol=1e-14)
        oracle = brute_force_minimize(l2_problem([0.0, 1.0], [0.5, 0.5]), 1e-3)
        assert sol.j_opt <= oracle.j_opt + 1e-12
        assert total_variation(sol.q_opt, oracle.q_opt) <= 1e-3

    def test_kl_prior_tilting(self):
        sol = minimize_closed_form(kl_problem([0.0, math.log(3)], [0.5, 0.5]))
        assert np.allclose(sol.q_opt.probs, [0.75, 0.25], atol=1e-12)
        assert sol.j_opt == pytest.approx(-math.log(2.0 / 3.0), abs=1e-12)

    def test_solution_value_consistency(self):
        rng = np.random.default_rng(23)
        for kind in (NEG_ENTROPY, KL_TO_PRIOR, HALF_SQ_L2):
            for _ in range(20):
                problem = random_problem(rng, int(rng.integers(2, 5)), kind)
                sol = minimize_closed_form(problem)
                assert free_energy(problem, sol.q_opt) == pytest.approx(sol.j_opt, abs=1e-9)

    def test_huge_losses_do_not_overflow(self):
        sol = minimize_closed_form(neg_entropy_problem([0.0, 1e3, -1e3]))
        assert np.all(np.isfinite(sol.q_opt.probs))
        assert sol.j_opt == pytest.approx(-1e3, abs=1e-9)

    def test_zero_prior_entry_rejected_for_kl(self):
        with pytest.raises(NonPositivePrior):
            ComplexityPenalty.kl_to_prior(FiniteDistribution([1.0, 0.0]))

    def test_penalty_shape_validation(self):
        with pytest.raises(ValueError):
            ComplexityPenalty(NEG_ENTROPY, FiniteDistribution.uniform(2))
        with pytest.raises(ValueError):
            ComplexityPenalty(KL_TO_PRIOR)


class TestBruteForceOracle:
    def test_zero_loss_recovers_uniform(self):
        sol = brute_force_minimize(neg_entropy_problem([0.0, 0.0]), 1e-3)
        assert total_variation(sol.q_opt, FiniteDistribution.uniform(2)) <= 1e-3

    def test_low_temperature_concentrates_on_argmin(self):
        problem = neg_entropy_problem([0.0, 10.0], t=0.1)
        sol = brute_force_minimize(problem, 1e-3)
        assert sol.q_opt.probs[0] >= 1.0 - 1e-3
        closed = minimize_closed_form(problem)
        assert abs(closed.j_opt - sol.j_opt) <= 1e-4

    def test_alphabet_cap(self):
        with pytest.raises(AlphabetTooLarge):
            brute_force_minimize(neg_entropy_problem([0.0] * 6), 1e-2)

    def test_grid_step_validation(self):
        problem = neg_entropy_problem([0.0, 1.0])
        with pytest.raises(ValueError):
            brute_force_minimize(problem, 0.5)
        with pytest.raises(ValueError):
            brute_force_minimize(problem, 0.0)


def recursive_simplex_grid(total, parts):
    """Reference builder: first coordinate 0..total, each followed by the
    grid of what is left on one symbol fewer."""
    if parts == 1:
        out = np.array([[total]], dtype=np.int64)
    else:
        blocks = []
        for first in range(total + 1):
            rest = recursive_simplex_grid(total - first, parts - 1)
            head = np.full((rest.shape[0], 1), first, dtype=np.int64)
            blocks.append(np.hstack([head, rest]))
        out = np.vstack(blocks)
    out.setflags(write=False)
    return out


class TestSimplexGrid:
    @pytest.mark.parametrize(
        "shape", [(7, 1), (0, 1), (0, 3), (200, 2), (200, 3), (40, 4), (20, 5)], ids=lambda s: f"{s[0]}-{s[1]}"
    )
    def test_matches_recursive_builder(self, shape):
        expected, grid = recursive_simplex_grid(*shape), _simplex_grid(*shape)
        assert grid.dtype == np.int64
        assert np.array_equal(grid, expected)
        assert not grid.flags.writeable and not expected.flags.writeable

    def test_one_build_per_shape(self):
        # the cache is keyed on the top-level shape only, so switching shapes
        # must not evict the other grid
        _grid_points.cache_clear()
        for _ in range(4):
            for n in (2, 3):
                brute_force_minimize(neg_entropy_problem(np.linspace(0.0, 1.0, n)), 1.0 / 200.0)
        info = _grid_points.cache_info()
        assert (info.misses, info.hits) == (2, 6)
        assert not _grid_points(200, 3).flags.writeable


@st.composite
def grid_cases(draw):
    """A problem with losses in [-1, 1], T in [0.5, 2] and a strictly
    positive prior; on 4 symbols the grid has the coarsest step allowed."""
    n, step = draw(st.sampled_from([(2, 1.0 / 200.0), (3, 1.0 / 200.0), (4, 1.0 / 100.0)]))
    losses = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    t = draw(st.floats(0.5, 2.0))
    prior = FiniteDistribution.normalized(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from([NEG_ENTROPY, KL_TO_PRIOR, HALF_SQ_L2]))
    penalty = ComplexityPenalty(kind, None if kind == NEG_ENTROPY else prior)
    return FreeEnergyProblem(LossVector(losses), t, penalty), step


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_closed_form_never_above_grid(case):
    problem, step = case
    grid = brute_force_minimize(problem, step)
    assert minimize_closed_form(problem).j_opt <= grid.j_opt + 1e-12
    assert abs(grid.j_opt - free_energy(problem, grid.q_opt)) <= 1e-12


class TestFenchelYoungGap:
    def test_zero_at_optimum(self):
        problem = neg_entropy_problem([0.0, math.log(3)])
        q_opt = minimize_closed_form(problem).q_opt
        assert abs(fenchel_young_gap(problem, q_opt)) <= 1e-12

    def test_positive_off_optimum(self):
        problem = neg_entropy_problem([0.0, math.log(3)])
        gap = fenchel_young_gap(problem, FiniteDistribution.uniform(2))
        expected = free_energy(problem, FiniteDistribution.uniform(2)) + math.log(4.0 / 3.0)
        assert gap == pytest.approx(expected, abs=1e-12)
        assert gap > 0.0

    def test_nonnegative_over_random_pairs(self):
        rng = np.random.default_rng(29)
        for kind in (NEG_ENTROPY, KL_TO_PRIOR, HALF_SQ_L2):
            for _ in range(100):
                n = int(rng.integers(2, 5))
                problem = random_problem(rng, n, kind)
                q = FiniteDistribution(rng.dirichlet(np.ones(n)))
                assert fenchel_young_gap(problem, q) >= -1e-9

    def test_gap_equals_scaled_kl_to_optimum(self):
        # algebraic identity for the entropy and KL penalties
        rng = np.random.default_rng(31)
        for kind in (NEG_ENTROPY, KL_TO_PRIOR):
            for _ in range(25):
                n = int(rng.integers(2, 5))
                problem = random_problem(rng, n, kind)
                q = FiniteDistribution(rng.dirichlet(np.ones(n)))
                q_opt = minimize_closed_form(problem).q_opt
                expected = problem.temperature * kl_divergence(q, q_opt)
                assert fenchel_young_gap(problem, q) == pytest.approx(expected, abs=1e-9)


class TestGibbsInvariances:
    def test_loss_shift_moves_value_not_minimizer(self):
        rng = np.random.default_rng(37)
        for kind in (NEG_ENTROPY, KL_TO_PRIOR):
            for _ in range(20):
                n = int(rng.integers(2, 5))
                problem = random_problem(rng, n, kind)
                c = float(rng.normal(scale=5.0))
                shifted = FreeEnergyProblem(
                    LossVector(problem.loss.losses + c), problem.temperature, problem.penalty
                )
                sol, sol_shifted = minimize_closed_form(problem), minimize_closed_form(shifted)
                assert total_variation(sol.q_opt, sol_shifted.q_opt) <= 1e-12
                assert sol_shifted.j_opt - sol.j_opt == pytest.approx(c, abs=1e-10)

    def test_high_temperature_approaches_uniform(self):
        problem = neg_entropy_problem([0.3, -0.8, 0.5], t=1e4)
        sol = minimize_closed_form(problem)
        assert total_variation(sol.q_opt, FiniteDistribution.uniform(3)) <= 1e-3

    def test_low_temperature_concentrates(self):
        problem = neg_entropy_problem([0.3, 0.9, 0.1], t=1e-4)
        sol = minimize_closed_form(problem)
        assert sol.q_opt.probs[2] >= 1.0 - 1e-6


def test_problem_json_round_trip():
    problem = kl_problem([0.0, 2.0], [0.25, 0.75], t=1.5)
    data = problem.to_dict()
    assert data["penalty"] == {"kind": "kl", "prior": [0.25, 0.75]}
    again = FreeEnergyProblem.from_dict(data)
    assert np.array_equal(again.loss.losses, problem.loss.losses)
    assert again.temperature == problem.temperature
    assert again.penalty.kind == problem.penalty.kind

    sol = minimize_closed_form(problem)
    payload = sol.to_dict()
    assert set(payload) == {"q_opt", "j_opt"}

    l2 = minimize_closed_form(l2_problem([0.0, 1.0], [0.5, 0.5]))
    assert set(l2.to_dict()) == {"q_opt", "j_opt", "tau"}
