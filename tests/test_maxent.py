import math

import numpy as np
import pytest

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

    def test_too_many_constraints_rejected(self):
        constraints = [MomentConstraint([0.0, 1.0], 0.5), MomentConstraint([1.0, 0.0], 0.5)]
        with pytest.raises(ValueError):
            solve_maxent(constraints, 2)

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

    def test_not_converged_reports_diagnostics(self):
        with pytest.raises(NotConverged) as err:
            solve_maxent([MomentConstraint([0.0, 1.0], 0.499)], 2, tol=1e-14, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual is not None
