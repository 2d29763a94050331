import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import femin.maxent
from femin import (
    ComplexityPenalty,
    FiniteDistribution,
    FreeEnergyProblem,
    Infeasible,
    LossVector,
    MomentConstraint,
    NotConverged,
    check_feasibility,
    entropy,
    minimize_closed_form,
    solve_maxent,
    total_variation,
)
from femin.free_energy import _simplex_grid


def simplex_grid(n, step):
    return _simplex_grid(round(1.0 / step), n).astype(float) * step


class TestCheckFeasibility:
    def test_interior_target(self):
        report = check_feasibility([MomentConstraint([0.0, 1.0], 0.3)])
        assert report.feasible
        assert report.marginal_ok == (True,)
        assert report.violated == ()

    def test_target_outside_range(self):
        report = check_feasibility([MomentConstraint([0.0, 1.0], 1.5)])
        assert not report.feasible
        assert report.violated == (0,)

    @pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
    def test_target_must_be_finite(self, target):
        with pytest.raises(ValueError, match="target must be finite"):
            MomentConstraint([0.0, 1.0], target)

    def test_boundary_target_excluded(self):
        report = check_feasibility([MomentConstraint([0.0, 1.0], 1.0)])
        assert not report.feasible

    def test_jointly_infeasible_pair(self):
        # alpha_1 = 2 forces all mass on symbol 3, where f_2 = 1 != 0
        constraints = [MomentConstraint([0.0, 1.0, 2.0], 2.0), MomentConstraint([1.0, 0.0, 1.0], 0.0)]
        report = check_feasibility(constraints)
        assert not report.feasible

        # grid oracle: no simplex point gets close to both targets at once
        grid = simplex_grid(3, 1e-2)
        f = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        moments = grid @ f.T
        near = (np.abs(moments[:, 0] - 2.0) <= 1e-3) & (np.abs(moments[:, 1]) <= 1e-3)
        assert not near.any()

    def test_jointly_feasible_pair(self):
        constraints = [MomentConstraint([0.0, 1.0, 2.0], 1.0), MomentConstraint([1.0, 0.0, 1.0], 0.5)]
        report = check_feasibility(constraints)
        assert report.feasible

    def test_empty_list(self):
        assert check_feasibility([]).feasible

    def test_mismatched_alphabet_sizes_rejected(self):
        constraints = [MomentConstraint([0, 1, 2], 1.0), MomentConstraint([0, 1], 0.5)]
        with pytest.raises(ValueError, match="all features must share the alphabet size"):
            check_feasibility(constraints)
        with pytest.raises(ValueError, match="all features must share the alphabet size"):
            solve_maxent(constraints, 3)


class TestSolveMaxent:
    def test_binary_indicator_constraint(self):
        # closed form for a binary alphabet: q = [0.7, 0.3], lambda = log(0.3/0.7)
        result = solve_maxent([MomentConstraint([0.0, 1.0], 0.3)], 2, tol=1e-10)
        assert np.allclose(result.q.probs, [0.7, 0.3], atol=1e-10)
        assert result.lambdas[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-10)
        assert result.residual <= 1e-10

        # constrained grid-search oracle agrees
        grid = simplex_grid(2, 1e-3)
        feasible = grid[np.abs(grid[:, 1] - 0.3) <= 1e-3]
        h_grid = np.max([-np.where(r > 0, r * np.log(np.where(r > 0, r, 1.0)), 0.0).sum() for r in feasible])
        assert entropy(result.q) >= h_grid - 1e-3

    def test_no_constraints_gives_uniform(self):
        result = solve_maxent([], 4)
        assert total_variation(result.q, FiniteDistribution.uniform(4)) == 0.0
        assert result.lambdas.size == 0
        assert result.iterations == 0

    def test_boundary_target_is_infeasible(self):
        with pytest.raises(Infeasible):
            solve_maxent([MomentConstraint([0.0, 1.0], 1.0)], 2)

    def test_outside_target_is_infeasible(self):
        with pytest.raises(Infeasible) as err:
            solve_maxent([MomentConstraint([0.0, 1.0], 1.5)], 2)
        assert err.value.report.violated == (0,)

    def test_as_many_constraints_as_symbols_solve(self):
        # f and 1 - f: dependent rows, met by the uniform q
        constraints = [MomentConstraint([0.0, 1.0], 0.5), MomentConstraint([1.0, 0.0], 0.5)]
        result = solve_maxent(constraints, 2)
        assert np.allclose(result.q.probs, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("extra", [0, 2])
    def test_m_of_n_or_more_constraints(self, extra):
        """m = n + extra random features have an affine hull of dimension at
        most n - 1 in R^m: a mixture of the f(x) solves, a target pushed off
        it is Infeasible with a certificate."""
        rng = np.random.default_rng(24 + extra)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            features = rng.normal(size=(n + extra, n))
            targets = features @ (rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
            result = solve_maxent([MomentConstraint(f, t) for f, t in zip(features, targets)], n)
            assert np.abs(features @ result.q.probs - targets).max() <= 1e-8
            pushed = targets + rng.normal(scale=0.5, size=n + extra)
            with pytest.raises(Infeasible) as err:
                solve_maxent([MomentConstraint(f, t) for f, t in zip(features, pushed)], n)
            assert_certificate(err.value.report, features, pushed)

    def test_moment_matching_random_problems(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(3, n - 1) + 1))
            features = rng.normal(size=(m, n))
            mix = FiniteDistribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
            targets = features @ mix.probs  # interior by construction
            constraints = [MomentConstraint(features[k], targets[k]) for k in range(m)]
            result = solve_maxent(constraints, n, tol=1e-8)
            assert result.residual <= 1e-8
            moments = features @ result.q.probs
            assert np.abs(moments - targets).max() <= 1e-8

    def test_entropy_beats_grid_feasible_points(self):
        # Targets come from exponential-family members with |lambda| <= 0.9 so
        # the entropy a grid point can gain by bending the constraint within
        # its 1e-3 feasibility slack stays below the 1e-3 comparison slack.
        rng = np.random.default_rng(43)
        grid = simplex_grid(3, 1e-3)
        for _ in range(5):
            feature = rng.normal(size=3)
            feature /= np.abs(feature).max()
            lam0 = float(rng.uniform(-0.9, 0.9))
            member = np.exp(lam0 * feature)
            member /= member.sum()
            target = float(feature @ member)
            result = solve_maxent([MomentConstraint(feature, target)], 3, tol=1e-10)
            feasible = grid[np.abs(grid @ feature - target) <= 1e-3]
            assert feasible.size > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                h_grid = (-np.where(feasible > 0, feasible * np.log(feasible), 0.0).sum(axis=1)).max()
            assert entropy(result.q) >= h_grid - 1e-3

    def test_matches_free_energy_view(self):
        # the fitted q is the entropy-penalized minimizer of loss -sum_k lambda_k f_k
        result = solve_maxent([MomentConstraint([0.0, 1.0, 2.0], 0.8)], 3, tol=1e-12)
        losses = -(result.lambdas[0] * np.array([0.0, 1.0, 2.0]))
        fe = FreeEnergyProblem(LossVector(losses), 1.0, ComplexityPenalty.neg_entropy())
        assert total_variation(result.q, minimize_closed_form(fe).q_opt) <= 1e-9

    def test_dual_trace_nondecreasing(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = 5
            features = rng.normal(size=(2, n))
            mix = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
            targets = features @ mix
            result = solve_maxent(
                [MomentConstraint(features[k], targets[k]) for k in range(2)], n, tol=1e-10
            )
            assert np.all(np.diff(result.dual_trace) >= -1e-12)

    def test_iteration_count_not_truncated(self):
        constraints = [MomentConstraint([0.0, 1.0], 0.3)]
        for bad, message in ((2.5, "an integer"), (np.nan, "an integer"), (-1, ">= 0")):
            with pytest.raises(ValueError, match=f"max_iter must be {message}"):
                solve_maxent(constraints, 2, max_iter=bad)
        assert solve_maxent(constraints, 2, max_iter=50.0).iterations == solve_maxent(constraints, 2, max_iter=50).iterations

    def test_newton_step_below_the_dual_rounding_is_taken(self):
        # The fourth Newton step gains about 1e-16, below one ulp of the dual
        # (about -1.28), so halving until the dual rises cannot accept it.
        constraints = [MomentConstraint([0, 1, 2, 3], 1.2), MomentConstraint([1, 0, 1, 0], 0.4)]
        result = solve_maxent(constraints, 4, tol=1e-8)
        assert result.iterations == 4
        assert result.residual <= 1e-15
        assert np.abs(result.q.probs - [0.28, 0.42, 0.12, 0.18]).max() <= 1e-15
        assert np.all(np.diff(result.dual_trace) >= -1e-15)

    def test_dependent_features_take_newton_steps(self):
        # Cov_q of [f, 2f] is singular at every q: Newton on its range, not a gradient crawl
        f = np.array([0.0, 1.0, 2.0, 3.0])
        single = solve_maxent([MomentConstraint(f, 1.2)], 4, tol=1e-12)
        for tol, iterations in ((1e-8, 3), (1e-12, 7)):
            result = solve_maxent([MomentConstraint(f, 1.2), MomentConstraint(2 * f, 2.4)], 4, tol=tol)
            assert result.iterations <= iterations and result.residual <= tol
            assert np.abs(result.q.probs - single.q.probs).max() <= 1e-8

    def test_no_gain_at_any_halving_is_not_converged(self, monkeypatch):
        # a dual one below its true value off lambda = 0: no step along any direction gains
        true_gibbs = femin.maxent.gibbs

        def gibbs_with_raised_log_z(v):
            q, log_z = true_gibbs(v)
            return q, log_z + float(np.any(v != 0.0))

        monkeypatch.setattr(femin.maxent, "gibbs", gibbs_with_raised_log_z)
        with pytest.raises(NotConverged, match="no halving of the Newton step raises the dual") as err:
            solve_maxent([MomentConstraint([0.0, 1.0, 2.0], 0.5)], 3)
        assert err.value.iterations == 0
        assert err.value.residual == pytest.approx(0.5)

    def test_feature_with_a_large_offset_keeps_its_spread(self):
        # in f's own coordinates the spread 1e-3 is lost against the offset 1e6
        result = solve_maxent([MomentConstraint([1e6, 1e6 + 1e-3, 1e6], 1e6 + 1e-4)], 3)
        assert result.iterations <= 5 and result.residual <= 1e-8
        assert abs(result.q.probs @ [0.0, 1e-3, 0.0] - 1e-4) <= 1e-8

    def test_features_whose_squares_are_zero_give_uniform(self):
        for constraints in ([MomentConstraint([0.0, 0.0, 0.0], 0.0)], [MomentConstraint([0.0, 5e-324, 0.0], 0.0)]):
            result = solve_maxent(constraints, 3)
            assert result.iterations == 0 and np.array_equal(result.q.probs, np.full(3, 1 / 3))
            assert check_feasibility(constraints).feasible

    def test_not_converged_reports_diagnostics(self):
        with pytest.raises(NotConverged) as err:
            solve_maxent([MomentConstraint([0.0, 1.0], 0.499)], 2, tol=1e-14, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual is not None


def assert_certificate(report, features, targets, tol=1e-8):
    """The Infeasible certificate test, computed here from its documented form."""
    d = np.asarray(report.certificate)
    assert d.shape == (len(targets),)
    assert abs(np.linalg.norm(d) - 1.0) <= 1e-12
    g = d @ (np.asarray(features, dtype=float) - np.asarray(targets, dtype=float)[:, None])
    eps = tol * (1.0 + np.abs(features).max())
    assert g.max() <= eps and g.min() < -eps


def lp_interior_margin(features, targets):
    """LP oracle: the largest t with some q >= t, F q = alpha, sum q = 1,
    or None when no q >= 0 meets the targets."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = features.shape
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    a_eq = np.zeros((m + 1, n + 1))
    a_eq[:m, :n] = features
    a_eq[m, :n] = 1.0
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    res = linprog(
        cost, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=np.append(targets, 1.0),
        bounds=[(0.0, 1.0)] * n + [(None, 1.0)], method="highs",
    )
    assert res.status in (0, 2), res.message
    return -res.fun if res.status == 0 else None


def affinely_independent_features(rng):
    n = int(rng.integers(3, 9))
    m = int(rng.integers(2, min(4, n - 1) + 1))
    while True:
        if rng.random() < 0.5:
            features = rng.integers(-3, 4, size=(m, n)).astype(float)
        else:
            features = rng.normal(size=(m, n))
        if np.linalg.matrix_rank(np.vstack([features, np.ones(n)])) == m + 1:
            return features


def random_target(rng, features):
    """An interior mixture, a mixture over a random subset of the symbols
    (often on a face of the hull), or a mixture pushed off by noise."""
    m, n = features.shape
    kind = int(rng.integers(3))
    mix = rng.dirichlet(np.ones(n))
    if kind == 1:
        mix[rng.random(n) < 0.5] = 0.0
        mix[int(rng.integers(n))] += 1.0
        mix /= mix.sum()
    target = features @ mix
    return target + rng.normal(scale=0.5, size=m) if kind == 2 else target


class TestJointFeasibilityAgainstLP:
    def test_seeded_instances_agree_with_the_lp(self):
        rng = np.random.default_rng(2020)
        seen = {"interior": 0, "infeasible": 0, "boundary": 0}
        for _ in range(600):
            features = affinely_independent_features(rng)
            targets = random_target(rng, features)
            m, n = features.shape
            constraints = [MomentConstraint(features[k], targets[k]) for k in range(m)]
            margin = lp_interior_margin(features, targets)
            if margin is not None and margin > 1e-6:
                result = solve_maxent(constraints, n)
                assert np.all(result.q.probs > 0.0)
                assert np.abs(features @ result.q.probs - targets).max() <= 1e-8
                report = check_feasibility(constraints)
                assert report.feasible and report.certificate is None
                seen["interior"] += 1
            elif margin is None:
                centre = features.mean(axis=1)
                inward = targets + 1e-6 * (centre - targets) / np.linalg.norm(centre - targets)
                if lp_interior_margin(features, inward) is not None:
                    continue  # within 1e-6 of the hull: the band where either answer may come
                with pytest.raises(Infeasible) as err:
                    solve_maxent(constraints, n)
                assert_certificate(err.value.report, features, targets)
                report = check_feasibility(constraints)
                assert not report.feasible and report.certificate is not None
                seen["infeasible"] += 1
            elif margin <= 1e-12:
                with pytest.raises((Infeasible, NotConverged)) as err:
                    solve_maxent(constraints, n)
                if isinstance(err.value, Infeasible):
                    assert_certificate(err.value.report, features, targets)
                seen["boundary"] += 1
        assert min(seen.values()) >= 60, seen


class TestCertificates:
    triangle = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def constraints(self, targets):
        return [MomentConstraint(f, t) for f, t in zip(self.triangle, targets)]

    def test_jointly_infeasible_pair_is_separated(self):
        # each target is inside its interval, but 0.6 + 0.6 > 1 leaves the triangle
        with pytest.raises(Infeasible) as err:
            solve_maxent(self.constraints([0.6, 0.6]), 3)
        assert "violated constraints: []" in str(err.value)
        assert err.value.report.violated == ()
        assert_certificate(err.value.report, np.array(self.triangle), [0.6, 0.6])
        report = check_feasibility(self.constraints([0.6, 0.6]))
        assert not report.jointly_feasible and report.marginal_ok == (True, True)
        assert_certificate(report, np.array(self.triangle), [0.6, 0.6])

    def test_boundary_target_is_never_solved(self):
        with pytest.raises((Infeasible, NotConverged)) as err:
            solve_maxent(self.constraints([0.5, 0.5]), 3)
        if isinstance(err.value, Infeasible):
            assert_certificate(err.value.report, np.array(self.triangle), [0.5, 0.5])
            assert np.allclose(err.value.report.certificate, [0.5**0.5, 0.5**0.5])

    def test_inconsistent_targets_on_dependent_features(self):
        f = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(Infeasible) as err:
            solve_maxent([MomentConstraint(f, 1.2), MomentConstraint(2 * f, 2.5)], 4)
        assert_certificate(err.value.report, np.array([f, 2 * f]), [1.2, 2.5])
        assert np.allclose(err.value.report.certificate, np.array([-2.0, 1.0]) / 5**0.5, rtol=0.0, atol=1e-3)

    def test_interval_failures_carry_a_unit_vector(self):
        for target, sign in ((1.5, 1.0), (1.0, 1.0), (0.0, -1.0), (-2.0, -1.0)):
            constraints = [MomentConstraint([0.0, 1.0, 2.0], 1.0), MomentConstraint([0.0, 1.0, 0.0], target)]
            report = check_feasibility(constraints)
            assert report.violated == (1,) and report.certificate == (0.0, sign)
            with pytest.raises(Infeasible) as err:
                solve_maxent(constraints, 3)
            assert err.value.report == report

    def test_one_constraint_near_an_end_still_solves(self):
        # the interval check is exact for one constraint, so no band applies
        for target in (1e-9, 1.0 - 1e-9):
            result = solve_maxent([MomentConstraint([0.0, 1.0], target)], 2)
            assert abs(result.q.probs[1] - target) <= 1e-8
            assert check_feasibility([MomentConstraint([0.0, 1.0], target)]).certificate is None

    def test_feasible_report_has_no_certificate(self):
        report = check_feasibility(self.constraints([0.2, 0.3]))
        assert report.feasible and report.certificate is None

    def test_constant_feature_at_its_value_is_met_by_every_q(self):
        # d @ (f - alpha) is 0 at every symbol, so no certificate can name this constraint
        constant, moment = MomentConstraint([1.0, 1.0, 1.0], 1.0), MomentConstraint([0.0, 1.0, 2.0], 0.8)
        for constraints in ([constant], [constant, moment], [moment, constant]):
            report = check_feasibility(constraints)
            assert report.feasible and report.certificate is None, report
        alone = solve_maxent([moment], 3, tol=1e-8).q.probs
        for constraints in ([constant, moment], [moment, constant]):
            assert np.abs(solve_maxent(constraints, 3, tol=1e-8).q.probs - alone).max() <= 1e-8
        assert solve_maxent([constant], 3).q.probs.tolist() == [1 / 3] * 3

    @pytest.mark.parametrize(
        ("feature", "target"), [([0.1 + 0.2] * 3, 0.3), ([1.0, 1.0 + 1e-10, 1.0], 1.0 + 1e-10)], ids=["0.3", "1e-10"]
    )
    def test_feature_within_eps_of_its_target_is_met(self, feature, target):
        # off the target by less than eps at every symbol: +-e_k fails the certificate's test
        near, moment = MomentConstraint(feature, target), MomentConstraint([0.0, 1.0, 2.0], 0.8)
        for constraints in ([near], [near, moment], [moment, near]):
            report = check_feasibility(constraints)
            features, targets = np.array([c.feature for c in constraints]), [c.target for c in constraints]
            if report.certificate is not None:
                assert_certificate(report, features, targets)
            q = solve_maxent(constraints, 3, tol=1e-8).q.probs
            assert np.abs(features @ q - targets).max() <= 1e-8

    @pytest.mark.parametrize("value", [1.0, 0.1 + 0.2, -3.0])
    @pytest.mark.parametrize("offset", [-1.0, -0.1, 0.1, 2.0])
    def test_constant_feature_off_its_value_is_separated(self, value, offset):
        features = np.array([[value] * 3, [0.0, 1.0, 2.0]])
        targets = [value + offset, 0.8]
        constraints = [MomentConstraint(f, t) for f, t in zip(features, targets)]
        report = check_feasibility(constraints)
        assert report.violated == (0,)
        assert_certificate(report, features, targets)
        with pytest.raises(Infeasible) as err:
            solve_maxent(constraints, 3)
        assert_certificate(err.value.report, features, targets)


def dependent_features(rng, n, m, n_dependent):
    """m random feature rows on n symbols, the last n_dependent each a random
    combination of the rows above plus an offset, so Cov_q(f) is singular."""
    features = rng.normal(size=(m, n))
    for k in range(m - n_dependent, m):
        features[k] = rng.normal(size=k) @ features[:k] + rng.normal()
    return features


def seeded_problem(seed, push=True):
    """(features, targets): 2-4 scaled features with dependent rows on 3-8
    symbols, and an interior mixture of them as targets, pushed off by noise
    for half the seeds when push is set."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = min(int(rng.integers(2, 5)), n - 1)
    n_dependent = min(int(rng.integers(0, 4)), m - 1)
    pushed = bool(rng.integers(2)) and push
    features = dependent_features(rng, n, m, n_dependent) * 10.0 ** int(rng.integers(-3, 4))
    targets = features @ (rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
    if pushed:
        targets += rng.normal(scale=0.5, size=m)
    return features, targets


# The examples are seeds whose last Newton decrement lies between one and two
# roundings of the dual, where halving cannot show the gain.
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(3184)
@example(15209)
@example(18574)
@example(22081)
def test_solution_or_certificate(seed):
    """On scaled features with dependent rows and targets inside or pushed off
    the hull: q > 0 meeting every moment within tol along a nondecreasing dual,
    or Infeasible with a certificate that passes the module docstring's test."""
    features, targets = seeded_problem(seed)
    constraints = [MomentConstraint(f, t) for f, t in zip(features, targets)]
    try:
        result = solve_maxent(constraints, features.shape[1])
    except Infeasible as err:
        assert_certificate(err.report, features, targets)
        return
    assert np.all(result.q.probs > 0.0)
    assert np.abs(features @ result.q.probs - targets).max() <= 1e-8
    assert np.all(np.diff(result.dual_trace) >= -1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.sampled_from([-1.0, 1.0]))
@example(360, 2, -1.0)
@example(398, 2, -1.0)
def test_common_offset_leaves_the_solution(seed, j, sign):
    """Adding c = +-10^j max|f| to every feature and its target leaves the
    feasible problem, and its q, as it was: the dual only sees f - alpha."""
    features, targets = seeded_problem(seed, push=False)
    c = sign * 10.0**j * np.abs(features).max()
    n = features.shape[1]
    plain = solve_maxent([MomentConstraint(f, t) for f, t in zip(features, targets)], n)
    offset = solve_maxent([MomentConstraint(f, t) for f, t in zip(features + c, targets + c)], n)
    assert np.abs(offset.q.probs - plain.q.probs).max() <= 1e-9


def test_maxent_runs_without_scipy(tmp_path):
    constraints = tmp_path / "constraints.json"
    constraints.write_text(json.dumps({"features": [[0, 1, 2, 3], [1, 0, 1, 0]], "targets": [1.5, 0.5]}))
    script = (
        "import sys\n"
        "from femin import MomentConstraint, check_feasibility\n"
        "from femin.cli import main\n"
        "assert main(['maxent', '--constraints', sys.argv[1]]) == 0\n"
        "report = check_feasibility([MomentConstraint([0, 1, 0], 0.6), MomentConstraint([0, 0, 1], 0.6)])\n"
        "assert not report.feasible\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run([sys.executable, "-c", script, str(constraints)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
