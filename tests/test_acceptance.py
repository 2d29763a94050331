"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS line when it holds. Run with -s to see the lines.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import femin as fm
from femin.figure1 import figure1_table
from femin.free_energy import HALF_SQ_L2, KL_TO_PRIOR, NEG_ENTROPY
from femin.kl_estimate import fit_dv
from femin.pac_bayes import test_losses as exact_test_losses
from femin.pac_bayes import training_losses

PENALTY_KINDS = (NEG_ENTROPY, KL_TO_PRIOR, HALF_SQ_L2)

# frozen from the bound formula sqrt((b-a)^2/(2m) * (kl + log(1/delta)))
BOUND_KL1_M100_D05 = 0.14134589264555922


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:02d}] PASS: {text}")


def random_problem(rng, n, kind):
    losses = fm.LossVector(rng.uniform(-1.0, 1.0, n))
    t = float(rng.uniform(0.5, 2.0))
    if kind == NEG_ENTROPY:
        return fm.FreeEnergyProblem(losses, t, fm.ComplexityPenalty.neg_entropy())
    prior = fm.FiniteDistribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
    if kind == KL_TO_PRIOR:
        return fm.FreeEnergyProblem(losses, t, fm.ComplexityPenalty.kl_to_prior(prior))
    return fm.FreeEnergyProblem(losses, t, fm.ComplexityPenalty.half_sq_l2_to_prior(prior))


def test_criterion_01_closed_forms_match_grid_oracle():
    rng = np.random.default_rng(101)
    for kind in PENALTY_KINDS:
        for n in (2, 3):
            for _ in range(50):
                problem = random_problem(rng, n, kind)
                closed = fm.minimize_closed_form(problem)
                oracle = fm.brute_force_minimize(problem, 1e-3)
                assert abs(closed.j_opt - oracle.j_opt) <= 5e-3
                assert fm.total_variation(closed.q_opt, oracle.q_opt) <= 5e-3 * n
    report(1, "closed forms match the 1e-3 simplex-grid oracle on 300 random problems")


def test_criterion_02_fenchel_young_gap():
    rng = np.random.default_rng(102)
    for case in range(500):
        kind = PENALTY_KINDS[case % 3]
        n = int(rng.integers(2, 5))
        problem = random_problem(rng, n, kind)
        q = fm.FiniteDistribution(rng.dirichlet(np.ones(n)))
        assert fm.fenchel_young_gap(problem, q) >= -1e-9
        if case % 10 == 0:
            q_opt = fm.minimize_closed_form(problem).q_opt
            assert abs(fm.fenchel_young_gap(problem, q_opt)) <= 1e-9
    report(2, "gap >= -1e-9 on 500 randomized pairs and <= 1e-9 at the minimizer")


def test_criterion_03_maxent():
    result = fm.solve_maxent([fm.MomentConstraint([0.0, 1.0], 0.3)], 2, tol=1e-10)
    assert np.abs(result.q.probs - np.array([0.7, 0.3])).max() <= 1e-8
    assert abs(result.lambdas[0] - math.log(3.0 / 7.0)) <= 1e-8

    rng = np.random.default_rng(103)
    grid_cache = {}

    def simplex_grid(n):
        if n not in grid_cache:
            from femin.free_energy import _simplex_grid

            grid_cache[n] = _simplex_grid(1000, n).astype(float) / 1000.0
        return grid_cache[n]

    for _ in range(12):
        n = int(rng.integers(2, 4))
        feature = rng.normal(size=n)
        feature /= np.abs(feature).max()
        lam0 = float(rng.uniform(-0.9, 0.9))
        member = np.exp(lam0 * feature)
        member /= member.sum()
        target = float(feature @ member)
        solved = fm.solve_maxent([fm.MomentConstraint(feature, target)], n, tol=1e-10)
        assert solved.residual <= 1e-8
        assert abs(float(feature @ solved.q.probs) - target) <= 1e-8
        grid = simplex_grid(n)
        feasible = grid[np.abs(grid @ feature - target) <= 1e-3]
        assert feasible.size > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            h_grid = (-np.where(feasible > 0, feasible * np.log(feasible), 0.0).sum(axis=1)).max()
        assert fm.entropy(solved.q) >= h_grid - 1e-3
    report(3, "binary-constraint closed form within 1e-8; residuals <= 1e-8; beats grid entropy within 1e-3")


def test_criterion_04_elbo():
    rng = np.random.default_rng(104)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        model = fm.UnnormalizedModel(rng.normal(scale=2.0, size=n))
        q = fm.FiniteDistribution(rng.dirichlet(np.ones(n)))
        log_z = fm.log_partition(model)
        bound = fm.elbo(model, q)
        assert bound <= log_z + 1e-9
        assert log_z - bound == pytest.approx(
            fm.kl_divergence(q, fm.posterior(model)), abs=1e-9
        )
        assert abs(fm.elbo(model, fm.posterior(model)) - log_z) <= 1e-9
    report(4, "elbo <= log Z + 1e-9 on 200 models, equality at the posterior, gap equals the KL")


def test_criterion_05_em():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        gdata = np.concatenate([rng.normal(-2, 1, 60), rng.normal(2, 1.5, 40)])
        ginit = fm.default_init(gdata, 2, fm.GAUSSIAN1D, seed=seed)
        _, gtrace = fm.em_fit(ginit, gdata, tol=1e-12, max_iter=80)
        assert np.all(np.diff(gtrace) >= -1e-10)

        true_cat = fm.MixtureModel.categorical(
            fm.FiniteDistribution([0.6, 0.4]), [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]
        )
        comps = rng.choice(2, size=150, p=true_cat.weights.probs)
        cdata = np.array([rng.choice(3, p=true_cat.emissions[k]) for k in comps])
        cinit = fm.default_init(cdata, 2, fm.CATEGORICAL, seed=seed, n_symbols=3)
        _, ctrace = fm.em_fit(cinit, cdata, tol=1e-12, max_iter=80)
        assert np.all(np.diff(ctrace) >= -1e-10)

    data = np.array([0.4, 1.6, 2.2, 5.1, -0.7])
    init = fm.MixtureModel.gaussian1d(fm.FiniteDistribution([1.0]), [10.0], [4.0])
    fitted, trace = fm.em_fit(init, data, tol=1e-12, max_iter=1)
    assert fitted.means[0] == pytest.approx(data.mean(), abs=1e-12)
    assert fitted.variances[0] == pytest.approx(data.var(), abs=1e-12)
    assert len(trace) == 1

    rng = np.random.default_rng(4)
    sep = np.concatenate([rng.normal(-5, 1, 500), rng.normal(5, 1, 500)])
    init = fm.MixtureModel.gaussian1d(fm.FiniteDistribution([0.5, 0.5]), [-1.0, 1.0], [1.0, 1.0])
    recovered, _ = fm.em_fit(init, sep, tol=1e-10, max_iter=300)
    assert np.abs(np.sort(recovered.means) - np.array([-5.0, 5.0])).max() <= 0.2
    report(5, "monotone traces over 20 seeds x 2 families; one-step MLE; separated means recovered")


def test_criterion_06_dv_inequality():
    rng = np.random.default_rng(106)
    for case in range(500):
        n_h = int(rng.integers(2, 6))
        n_z = int(rng.integers(2, 6))
        table = rng.uniform(0.0, 1.0, size=(n_h, n_z))
        problem = fm.LearningProblem(
            table,
            0.0,
            1.0,
            fm.FiniteDistribution(rng.dirichlet(np.ones(n_h)) * 0.9 + 0.1 / n_h),
            fm.FiniteDistribution(rng.dirichlet(np.ones(n_z))),
        )
        s = rng.integers(0, n_z, size=int(rng.integers(1, 25)))
        beta = float(rng.uniform(0.1, 5.0))
        q = fm.FiniteDistribution(rng.dirichlet(np.ones(n_h)))
        lhs, rhs = fm.dv_check(problem, q, s, beta)
        assert lhs <= rhs + 1e-9
        if case % 10 == 0:
            gaps = exact_test_losses(problem) - training_losses(problem, s)
            tilted = fm.FiniteDistribution.normalized(problem.prior.probs * np.exp(beta * gaps))
            lhs_t, rhs_t = fm.dv_check(problem, tilted, s, beta)
            assert abs(lhs_t - rhs_t) <= 1e-9
    report(6, "lhs <= rhs + 1e-9 on 500 cases with equality at the tilted prior")


def test_criterion_07_pac_bayes_coverage():
    assert fm.pac_bayes_bound(1.0, 100, 0.05, 0.0, 1.0) == pytest.approx(
        BOUND_KL1_M100_D05, abs=1e-6
    )

    rng = np.random.default_rng(777)
    table = (rng.random((8, 10)) < 0.5).astype(float)
    table[0] = 0.0
    table[1] = 1.0
    problem = fm.LearningProblem(
        table, 0.0, 1.0, fm.FiniteDistribution.uniform(8), fm.FiniteDistribution(rng.dirichlet(np.ones(10)))
    )
    report_05 = fm.coverage_experiment(problem, beta=2.0, m=50, delta=0.05, trials=2000, seed=7)
    slack_05 = 2.0 * math.sqrt(0.05 * 0.95 / 2000)
    assert report_05.violation_rate <= 0.05 + slack_05

    report_50 = fm.coverage_experiment(problem, beta=2.0, m=50, delta=0.5, trials=2000, seed=7)
    slack_50 = 2.0 * math.sqrt(0.5 * 0.5 / 2000)
    assert report_50.violation_rate <= 0.5 + slack_50
    assert report_50.mean_bound < report_05.mean_bound
    report(
        7,
        f"violation rate {report_05.violation_rate:.4f} <= {0.05 + slack_05:.4f} over 2000 trials; "
        "bound arithmetic matches",
    )


def test_criterion_08_kl_estimation():
    rng = np.random.default_rng(108)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        p = fm.FiniteDistribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        q = fm.FiniteDistribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        opt = fm.exact_dv_optimum(p, q)
        assert fm.dv_objective_population(opt, p, q) == pytest.approx(
            fm.kl_divergence(p, q), abs=1e-12
        )

    p = np.array([0.6, 0.3, 0.1])
    q = np.array([0.2, 0.3, 0.5])
    sampler = np.random.default_rng(208)
    samples = fm.SamplePair(
        sampler.choice(3, size=100_000, p=p), sampler.choice(3, size=100_000, p=q)
    )
    fit = fit_dv(fm.TabularFunction.zeros(3), samples, steps=300, learning_rate=0.5)
    true_kl = fm.kl_divergence(fm.FiniteDistribution(p), fm.FiniteDistribution(q))
    assert abs(fit.kl_estimate - true_kl) <= 0.02

    same = np.array([0.3, 0.45, 0.25])
    sampler = np.random.default_rng(308)
    equal_samples = fm.SamplePair(
        sampler.choice(3, size=10_000, p=same), sampler.choice(3, size=10_000, p=same)
    )
    null_fit = fit_dv(fm.TabularFunction.zeros(3), equal_samples, steps=300, learning_rate=0.5)
    assert abs(null_fit.kl_estimate) <= 0.05
    report(8, f"population optimum exact to 1e-12; sample fit off by {abs(fit.kl_estimate - true_kl):.4f} <= 0.02")


def test_criterion_09_mirror_descent():
    rng = np.random.default_rng(109)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        prior = fm.FiniteDistribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
        losses = rng.normal(scale=2.0, size=n)
        t = float(rng.uniform(0.2, 3.0))
        stepped = fm.neg_step(prior, losses, 1.0 / t)
        closed = fm.minimize_closed_form(
            fm.FreeEnergyProblem(fm.LossVector(losses), t, fm.ComplexityPenalty.kl_to_prior(prior))
        )
        assert fm.total_variation(stepped, closed.q_opt) <= 1e-12

    oracle = fm.make_oracle("linear", [0.0, 1.0])
    trace = fm.run_descent(
        oracle, fm.FiniteDistribution.uniform(2), method="neg", step_size=1.0, max_iter=25, tol=0.0
    )
    for i, point in enumerate(trace.iterates):
        assert abs(point.probs[0] - 1.0 / (1.0 + math.exp(-i))) <= 1e-9
        assert abs(point.probs.sum() - 1.0) <= 1e-9
        assert np.all(point.probs >= 0)
    report(9, "one-step bridge to the KL closed form at 1e-12; linear recursion exact to 1e-9; iterates on-simplex")


def test_criterion_10_temperature_sweep_behavior():
    high = figure1_table(-4.0, 4.0, 41, [10.0], loss="bimodal")
    tv_uniform = fm.total_variation(
        high.solutions[(NEG_ENTROPY, 10.0)], fm.FiniteDistribution.uniform(41)
    )
    tv_prior = fm.total_variation(high.solutions[(KL_TO_PRIOR, 10.0)], high.prior)
    assert tv_uniform <= 0.05
    assert tv_prior <= 0.05

    # the default double-well loss has two global minimizers, so the 0.99
    # concentration check runs on the built-in single-well loss
    low = figure1_table(-4.0, 4.0, 41, [0.01], loss="quadratic")
    argmin = int(np.argmin(low.loss))
    for kind in PENALTY_KINDS:
        q = low.solutions[(kind, 0.01)]
        assert q.probs[max(0, argmin - 3) : argmin + 4].sum() >= 0.99
    report(
        10,
        f"T=10: TV to uniform {tv_uniform:.4f}, TV to prior {tv_prior:.4f} (<= 0.05); "
        "T=0.01: >= 0.99 mass within 3 cells of the argmin",
    )


def test_criterion_11_gradients_and_cli_determinism(tmp_path):
    # maxent dual gradient vs central differences
    rng = np.random.default_rng(111)
    features = rng.normal(size=(2, 5))
    targets = features @ (rng.dirichlet(np.ones(5)) * 0.9 + 0.1 / 5)

    def dual(lam):
        return float(lam @ targets - fm.log_sum_exp(lam @ features))

    for _ in range(10):
        lam = rng.normal(size=2)
        q = np.exp(lam @ features - fm.log_sum_exp(lam @ features))
        grad = targets - features @ q
        h = 1e-6
        for k in range(2):
            bump = np.zeros(2)
            bump[k] = h
            fd = (dual(lam + bump) - dual(lam - bump)) / (2 * h)
            assert abs(grad[k] - fd) / max(1.0, abs(fd)) <= 1e-4

    # divergence-estimator gradient vs central differences
    samples = fm.SamplePair(rng.integers(0, 4, 200), rng.integers(0, 4, 300))
    from femin.kl_estimate import _ascent_terms

    p_hat = np.bincount(samples.samples_p, minlength=4) / samples.samples_p.size
    log_q_counts = np.log(np.bincount(samples.samples_q, minlength=4))
    log_n_q = float(np.log(samples.samples_q.size))
    for _ in range(5):
        fn = fm.TabularFunction(rng.normal(size=4))
        value, grad = _ascent_terms(fn.neg_values(), samples.samples_p, p_hat, log_q_counts, log_n_q)
        assert abs(value - fm.dv_objective(fn, samples)) <= 1e-12
        for k in range(4):
            bump = np.zeros(4)
            bump[k] = 1e-6
            up = fm.dv_objective(fm.TabularFunction(fn.values + bump), samples)
            down = fm.dv_objective(fm.TabularFunction(fn.values - bump), samples)
            fd = (up - down) / 2e-6
            assert abs(grad[k] - fd) / max(1.0, abs(fd)) <= 1e-4

    # registry oracles pass their finite-difference validation
    fm.make_oracle("linear", [0.2, -0.3, 0.5])
    fm.make_oracle("quadratic-to-target", [0.3, 0.3, 0.4])
    fm.make_oracle("entropy-regularized-linear", [0.0, 1.0], 0.3)

    # CLI byte-determinism under fixed seeds
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps(
            {
                "loss_table": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]],
                "a": 0.0,
                "b": 1.0,
                "prior": [1 / 3, 1 / 3, 1 / 3],
                "data_model": [0.4, 0.6],
            }
        )
    )

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "femin", *[str(a) for a in argv]],
            capture_output=True,
            text=True,
        )

    commands = [
        ("pacbayes", "--problem", problem, "--beta", 2.0, "--m", 15, "--delta", 0.05,
         "--trials", 150, "--seed", 13),
        ("figure1", "--n-points", 21, "--temperatures", "10,0.5"),
        ("solve", "--problem", None),  # placeholder replaced below
    ]
    solve_problem = tmp_path / "fe.json"
    solve_problem.write_text(
        json.dumps({"losses": [0.0, 0.5], "temperature": 1.0, "penalty": {"kind": "neg_entropy"}})
    )
    commands[2] = ("solve", "--problem", solve_problem)
    for argv in commands:
        first, second = run(*argv), run(*argv)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
    report(11, "solver gradients match central differences at 1e-4; CLI outputs byte-identical")
