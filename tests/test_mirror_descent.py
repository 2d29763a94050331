import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femin import (
    ComplexityPenalty,
    FiniteDistribution,
    FlooringWarning,
    FreeEnergyProblem,
    LossVector,
    NonFinite,
    ObjectiveOracle,
    ZeroCoordinate,
    gibbs,
    make_oracle,
    minimize_closed_form,
    neg_step,
    project_to_simplex,
    run_descent,
    total_variation,
    validate_gradient,
)
from femin.free_energy import _projection_pivot


class TestNegStep:
    def test_constant_gradient_leaves_q_unchanged(self):
        q = FiniteDistribution([0.3, 0.7])
        out = neg_step(q, np.array([2.0, 2.0]), 0.7)
        assert total_variation(out, q) <= 1e-15

    def test_direct_arithmetic(self):
        out = neg_step(FiniteDistribution.uniform(2), np.array([0.0, 1.0]), np.log(3.0))
        assert np.allclose(out.probs, [0.75, 0.25], atol=1e-14)

    def test_matches_kl_penalized_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            q = FiniteDistribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
            grad = rng.normal(scale=2.0, size=n)
            alpha = float(rng.uniform(0.1, 3.0))
            stepped = neg_step(q, grad, alpha)
            fe = FreeEnergyProblem(
                LossVector(grad), 1.0 / alpha, ComplexityPenalty.kl_to_prior(q)
            )
            assert total_variation(stepped, minimize_closed_form(fe).q_opt) <= 1e-12

    def test_entrywise_equal_to_kl_closed_form(self):
        # a step is the kl tilt at T = 1/alpha, bit for bit, up to the largest alphas
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            q = FiniteDistribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
            grad = rng.normal(scale=2.0, size=n)
            for alpha in (float(rng.uniform(0.1, 3.0)), 1e300, 1e308):
                fe = FreeEnergyProblem(LossVector(grad), 1.0 / alpha, ComplexityPenalty.kl_to_prior(q))
                closed = minimize_closed_form(fe).q_opt.probs
                assert np.array_equal(neg_step(q, grad, alpha).probs, closed)

    def test_step_size_must_be_positive_and_finite(self):
        for bad in (0.0, -0.3, np.nan, np.inf):
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                neg_step(FiniteDistribution.uniform(2), np.zeros(2), bad)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ZeroCoordinate):
            neg_step(FiniteDistribution([1.0, 0.0]), np.zeros(2), 0.1)

    def test_gradient_must_match_the_iterate(self):
        with pytest.raises(ValueError, match=r"grad has shape \(3,\), expected \(2,\)"):
            neg_step(FiniteDistribution.uniform(2), np.zeros(3), 0.1)


class TestProjection:
    def test_already_on_simplex(self):
        q = project_to_simplex(np.array([0.2, 0.3, 0.5]))
        assert np.allclose(q.probs, [0.2, 0.3, 0.5], atol=1e-12)

    def test_projects_outside_points(self):
        q = project_to_simplex(np.array([1.5, -0.5]))
        assert np.allclose(q.probs, [1.0, 0.0], atol=1e-12)

    def test_matches_clip_and_normalize_bitwise(self):
        # the projection ignores a common shift, and project_to_simplex projects v - max v
        rng = np.random.default_rng(47)
        for _ in range(200):
            v = rng.normal(scale=float(rng.uniform(0.1, 5.0)), size=int(rng.integers(1, 12)))
            shifted = v - v.max()
            ref = FiniteDistribution.normalized(np.clip(shifted - _projection_pivot(shifted), 0.0, None))
            assert np.array_equal(project_to_simplex(v).probs, ref.probs)

    def test_shift_moves_only_last_digits(self):
        assert project_to_simplex([0.2, 0.8]).probs.tolist() == [0.19999999999999996, 0.8]

    @pytest.mark.parametrize(("v", "probs"), [([1e300, 1e300], [0.5, 0.5]), ([1e308, -1e308], [1.0, 0.0])])
    def test_huge_magnitudes(self, v, probs):
        # under filterwarnings = error a numpy warning fails the test
        assert project_to_simplex(v).probs.tolist() == probs

    @pytest.mark.parametrize(
        ("v", "message"),
        [
            ([np.nan, 1.0], "v must be finite"),
            ([np.inf, 1.0], "v must be finite"),
            ([], "v must have at least one entry"),
            ([[1.0, 2.0]], r"v must be one-dimensional, got shape \(1, 2\)"),
        ],
        ids=["nan", "inf", "empty", "table"],
    )
    def test_rejects_non_finite_or_malformed_input(self, v, message):
        with pytest.raises(ValueError, match=message):
            project_to_simplex(v)


class TestOracles:
    def test_builtin_oracles_pass_gradient_validation(self):
        validate_gradient(make_oracle("linear", [0.0, 1.0, -0.5]))
        validate_gradient(make_oracle("quadratic-to-target", [0.2, 0.3, 0.5]))
        validate_gradient(make_oracle("entropy-regularized-linear", [0.0, 1.0], 0.2))

    def test_wrong_gradient_is_caught(self):
        def evaluate(x):
            return float(x @ x), 3.0 * x  # gradient should be 2x

        with pytest.raises(ValueError):
            validate_gradient(ObjectiveOracle(3, evaluate, "broken"))

    def test_entropy_regularized_at_the_simplex_edge(self):
        # 0 log 0 = 0 in the value, log 0 = -inf in the gradient, and no numpy warning
        value, grad = make_oracle("entropy-regularized-linear", [0.0, 5.0], 0.1).evaluate(np.array([1.0, 0.0]))
        assert value == 0.0 and grad[0] == 0.1 and grad[1] == -np.inf
        with pytest.raises(ValueError, match="reg must be finite and > 0, got 0.0"):
            make_oracle("entropy-regularized-linear", [0.0, 5.0], 0.0)

    def test_entropy_regularized_interior_bits(self):
        l, reg = np.array([0.3, -1.2, 2.0]), 0.25
        x = np.array([0.2, 0.5, 0.3])
        value, grad = make_oracle("entropy-regularized-linear", l, reg).evaluate(x)
        assert value == float(l @ x + reg * (x * np.log(x)).sum())
        assert np.array_equal(grad, l + reg * (1.0 + np.log(x)))

    @pytest.mark.parametrize("x0", [None, FiniteDistribution([1.0, 0.0])])
    def test_entropy_regularized_euclidean_step_to_the_edge_is_non_finite(self, x0):
        oracle = make_oracle("entropy-regularized-linear", [0.0, 5.0])
        x0 = FiniteDistribution.uniform(2) if x0 is None else x0
        with pytest.raises(NonFinite):
            run_descent(oracle, x0, "euclidean", 0.1, max_iter=200)

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError):
            make_oracle("no-such-oracle")


class TestRunDescent:
    def test_linear_neg_closed_recursion(self):
        # multiplicative updates on g(q) = q(2) from uniform with alpha=1:
        # q_i(1) = 1 / (1 + exp(-i))
        oracle = make_oracle("linear", [0.0, 1.0])
        trace = run_descent(
            oracle, FiniteDistribution.uniform(2), method="neg", step_size=1.0, max_iter=30, tol=0.0
        )
        assert len(trace.iterates) == 31
        for i, point in enumerate(trace.iterates):
            assert point[0] == pytest.approx(1.0 / (1.0 + np.exp(-i)), abs=1e-9)
        assert np.all(np.diff(trace.values) < 0)

    def test_both_methods_reach_interior_quadratic_optimum(self):
        target = np.array([0.5, 0.3, 0.2])
        oracle = make_oracle("quadratic-to-target", target)
        for method in ("neg", "euclidean"):
            trace = run_descent(
                oracle,
                FiniteDistribution.uniform(3),
                method=method,
                step_size=0.5,
                max_iter=10_000,
                tol=1e-16,
            )
            assert np.abs(trace.iterates[-1] - target).max() <= 1e-6

    def test_backtracking_evaluates_each_point_once(self):
        quadratic = make_oracle("quadratic-to-target", [0.6, 0.3, 0.1])
        evaluated = []

        def evaluate(x):
            evaluated.append(np.array(x).tobytes())
            return quadratic.evaluate(x)

        oracle = ObjectiveOracle(3, evaluate, "counted")
        trace = run_descent(
            oracle, FiniteDistribution([0.1, 0.2, 0.7]), step_size=50.0, schedule="backtracking", max_iter=40
        )
        assert np.any(trace.step_sizes < 50.0)  # some steps were halved
        assert len(evaluated) == len(set(evaluated))

    def test_stationary_start_gives_unit_trace(self):
        target = np.array([0.25, 0.25, 0.5])
        oracle = make_oracle("quadratic-to-target", target)
        for method in ("neg", "euclidean"):
            trace = run_descent(oracle, FiniteDistribution(target), method=method, step_size=0.5)
            assert len(trace.iterates) == 1
            assert trace.step_sizes.size == 0

    def test_neg_iterates_stay_on_simplex_and_positive(self):
        oracle = make_oracle("linear", [0.3, -0.2, 0.8])
        trace = run_descent(
            oracle, FiniteDistribution.uniform(3), method="neg", step_size=0.5, max_iter=200, tol=0.0
        )
        for point in trace.iterates:
            assert abs(point.sum() - 1.0) <= 1e-9
            assert np.all(point > 0)

    def test_descent_property_at_safe_step(self):
        # quadratic has gradient Lipschitz constant 1; alpha = 1 is safe
        oracle = make_oracle("quadratic-to-target", [0.6, 0.3, 0.1])
        for method in ("neg", "euclidean"):
            trace = run_descent(
                oracle, FiniteDistribution.uniform(3), method=method, step_size=1.0, max_iter=500, tol=0.0
            )
            assert np.all(np.diff(trace.values) <= 1e-10)

    def test_schedules(self):
        oracle = make_oracle("quadratic-to-target", [0.5, 0.5])
        for schedule in ("constant", "inv_sqrt", "backtracking"):
            trace = run_descent(
                oracle,
                FiniteDistribution([0.9, 0.1]),
                method="euclidean",
                step_size=1.0,
                schedule=schedule,
                max_iter=300,
                tol=1e-14,
            )
            assert trace.values[-1] <= trace.values[0]
            assert np.abs(trace.iterates[-1] - 0.5).max() <= 1e-4

    def test_inv_sqrt_steps_recorded(self):
        oracle = make_oracle("linear", [0.0, 1.0])
        trace = run_descent(
            oracle,
            FiniteDistribution.uniform(2),
            method="neg",
            step_size=1.0,
            schedule="inv_sqrt",
            max_iter=4,
            tol=0.0,
        )
        assert np.allclose(trace.step_sizes, 1.0 / np.sqrt([1, 2, 3, 4]), atol=1e-15)

    def test_subnormal_step_sizes_leave_the_start_without_a_warning(self):
        # T = 1/alpha overflows to inf: the tilt is the base point itself
        oracle = make_oracle("linear", [1.0, 2.0, 1.0])
        for method in ("neg", "euclidean"):
            for schedule in ("constant", "inv_sqrt"):
                trace = run_descent(oracle, FiniteDistribution.uniform(3), method, 1e-320, schedule, max_iter=5, tol=0.0)
                assert trace.iterates.shape == (6, 3) and np.all(trace.iterates == 1.0 / 3.0)

    def test_long_multiplicative_run_floors_coordinates(self):
        oracle = make_oracle("linear", [0.0, 1.0])
        with pytest.warns(FlooringWarning):
            trace = run_descent(
                oracle,
                FiniteDistribution.uniform(2),
                method="neg",
                step_size=1.0,
                max_iter=800,
                tol=0.0,
            )
        assert np.all(trace.iterates[-1] > 0)

    def test_zero_start_rejected_for_neg(self):
        oracle = make_oracle("linear", [0.0, 1.0])
        with pytest.raises(ZeroCoordinate):
            run_descent(oracle, FiniteDistribution([1.0, 0.0]), method="neg")

    def test_argument_validation(self):
        oracle = make_oracle("linear", [0.0, 1.0])
        with pytest.raises(ValueError):
            run_descent(oracle, FiniteDistribution.uniform(2), method="newton")
        with pytest.raises(ValueError):
            run_descent(oracle, FiniteDistribution.uniform(2), schedule="warmup")
        for bad in (-0.3, 0.0, np.nan, np.inf, -np.inf):
            for method in ("neg", "euclidean"):
                with pytest.raises(ValueError, match="step_size must be finite and > 0"):
                    run_descent(oracle, FiniteDistribution.uniform(2), method=method, step_size=bad)

    def test_iteration_count_not_truncated(self):
        oracle = make_oracle("linear", [0.0, 1.0])
        x0 = FiniteDistribution.uniform(2)
        with pytest.raises(ValueError, match="max_iter must be >= 0, got -5"):
            run_descent(oracle, x0, max_iter=-5)
        for bad in (2.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                run_descent(oracle, x0, max_iter=bad)
        assert np.array_equal(run_descent(oracle, x0, max_iter=3.0).values, run_descent(oracle, x0, max_iter=3).values)

    def test_backtracking_rejects_the_last_failed_candidate(self):
        # Near the optimum every candidate fails sufficient decrease; the one
        # left after 30 halvings used to be accepted even when it raised the value.
        oracle = make_oracle("quadratic-to-target", [0.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FlooringWarning)
            trace = run_descent(oracle, FiniteDistribution.uniform(2), "neg", 7.0, "backtracking", max_iter=60, tol=0.0)
        assert np.all(np.diff(trace.values) <= 0.0)
        assert trace.values.size < 61

    def test_non_finite_trace_holds_distributions(self):
        def evaluate(x):
            value = float(x[0]) if x[0] > 0.3 else np.inf
            return value, np.array([1.0, 0.0])

        oracle = ObjectiveOracle(2, evaluate, "cliff")
        with pytest.raises(NonFinite) as err:
            run_descent(oracle, FiniteDistribution([0.5, 0.5]), step_size=0.1, max_iter=50, tol=0.0)
        trace = err.value.trace
        assert len(trace.iterates) == trace.values.size == trace.step_sizes.size + 1 >= 2
        assert np.all(trace.iterates >= 0) and np.allclose(trace.iterates.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        assert np.allclose(trace.iterates[:, 0], trace.values, atol=0.0)


def dataclass_run_descent(oracle, x0, method, step_size, schedule, max_iter, tol, shifted=True):
    """Reference loop: a FiniteDistribution per candidate (flooring warning left out).
    A step is the tilt at T = 1/alpha, base + (min g - g)/T; with shifted=False
    it is base - alpha * g, the unshifted arithmetic of earlier versions."""

    def advance(point, g, alpha):
        step = (g.min() - g) / (1.0 / alpha) if shifted else -alpha * g
        if method == "euclidean":
            v = point.probs + step
            return FiniteDistribution.normalized(np.clip(v - _projection_pivot(v), 0.0, None))
        probs = gibbs(np.log(point.probs) + step)[0]
        return FiniteDistribution.normalized(np.maximum(probs, 1e-300))

    current = x0
    value, grad = oracle.evaluate(current.probs)
    iterates, values, step_sizes = [current], [float(value)], []
    for iteration in range(1, max_iter + 1):
        alpha = step_size / np.sqrt(iteration) if schedule == "inv_sqrt" else step_size
        candidate = advance(current, grad, alpha)
        cand_value, cand_grad = oracle.evaluate(candidate.probs)
        if schedule == "backtracking":
            grad_sq = float(np.asarray(grad) @ np.asarray(grad))
            for _ in range(30):
                if cand_value <= value - 1e-4 * alpha * grad_sq:
                    break
                alpha *= 0.5
                candidate = advance(current, grad, alpha)
                cand_value, cand_grad = oracle.evaluate(candidate.probs)
            else:
                if cand_value > value:
                    break  # the candidate left after 30 halvings raises the value: rejected, and the descent stops
        if abs(cand_value - value) < tol:
            break
        current, value, grad = candidate, float(cand_value), cand_grad
        iterates.append(current)
        values.append(value)
        step_sizes.append(alpha)
    return iterates, np.array(values), np.array(step_sizes)


class TestArrayLoopDescent:
    """run_descent keeps its iterates as arrays; it must reproduce the
    dataclass loop bit for bit, and the unshifted steps of earlier versions
    to 1e-12 with as many iterations."""

    ORACLES = [
        ("linear", ([0.3, -0.2, 0.8, 0.1, 1.0],)),
        ("quadratic-to-target", ([0.5, 0.3, 0.0, 0.2, 0.0],)),
        ("entropy-regularized-linear", ([0.0, 1.0, 0.4, -0.3, 0.2], 0.2)),
    ]

    @pytest.mark.parametrize("schedule", ["constant", "inv_sqrt", "backtracking"])
    @pytest.mark.parametrize("method", ["neg", "euclidean"])
    def test_bitwise(self, method, schedule):
        rng = np.random.default_rng(53)
        for name, args in self.ORACLES:
            if method == "euclidean" and name == "entropy-regularized-linear":
                continue  # that oracle needs strictly positive points
            oracle = make_oracle(name, *args)
            for step_size in (0.05, 0.7, 4.0):
                x0 = FiniteDistribution(rng.dirichlet(np.ones(5)) * 0.9 + 0.02)
                trace = run_descent(oracle, x0, method, step_size, schedule, max_iter=150, tol=1e-13)
                iterates, values, step_sizes = dataclass_run_descent(
                    oracle, x0, method, step_size, schedule, max_iter=150, tol=1e-13
                )
                assert len(trace.iterates) == len(iterates)
                assert np.array_equal(trace.iterates, [ref.probs for ref in iterates])
                assert np.array_equal(trace.values, values)
                assert np.array_equal(trace.step_sizes, step_sizes)
                unshifted = dataclass_run_descent(
                    oracle, x0, method, step_size, schedule, max_iter=150, tol=1e-13, shifted=False
                )[0]
                assert len(unshifted) == len(iterates)
                assert np.abs(trace.iterates - [ref.probs for ref in unshifted]).max() <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=8),
    st.sampled_from(["neg", "euclidean"]),
    st.floats(0.01, 50.0),
)
def test_backtracking_values_nonincreasing(target, method, step_size):
    oracle = make_oracle("quadratic-to-target", target)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FlooringWarning)  # far targets drive neg coordinates to the floor
        trace = run_descent(
            oracle, FiniteDistribution.uniform(len(target)), method, step_size, "backtracking", max_iter=60, tol=0.0
        )
    assert np.all(np.diff(trace.values) <= 0.0)
