import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femin import (
    EmptySamples,
    FiniteDistribution,
    LinearFeaturesFunction,
    NonFinite,
    SamplePair,
    SupportViolation,
    TabularFunction,
    dv_objective,
    dv_objective_population,
    exact_dv_optimum,
    fit_dv,
    gibbs,
    kl_divergence,
)


def draw_pair(rng, p, q, n_p, n_q):
    return SamplePair(
        rng.choice(p.size, size=n_p, p=p),
        rng.choice(q.size, size=n_q, p=q),
    )


class TestDvObjective:
    def test_zero_function_is_exactly_zero(self):
        samples = SamplePair([0, 1, 0], [1, 1, 0, 2])
        assert dv_objective(TabularFunction.zeros(3), samples) == 0.0

    def test_constant_function_cancels(self):
        samples = SamplePair([0, 1, 0], [1, 1, 0])
        fn = TabularFunction([2.7, 2.7])
        assert dv_objective(fn, samples) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_multiset(self):
        # p-samples {0,0,1,0}, q-samples {0,1}, L = [0, -log 3]:
        #   mean_p[-L] = log(3)/4, log mean_q[exp(-L)] = log((1+3)/2) = log 2
        fn = TabularFunction([0.0, -math.log(3.0)])
        samples = SamplePair([0, 0, 1, 0], [0, 1])
        expected = math.log(3.0) / 4.0 - math.log(2.0)
        assert dv_objective(fn, samples) == pytest.approx(expected, abs=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        samples = SamplePair(rng.integers(0, 4, 50), rng.integers(0, 4, 70))
        fn = TabularFunction(rng.normal(size=4))
        base = dv_objective(fn, samples)
        for c in (-5.0, 0.3, 17.0):
            shifted = TabularFunction(fn.values + c)
            assert dv_objective(shifted, samples) == pytest.approx(base, abs=1e-12)

    def test_empty_samples_rejected(self):
        with pytest.raises(EmptySamples):
            SamplePair([], [0])
        with pytest.raises(EmptySamples):
            SamplePair([0], [])

    def test_non_integral_symbols_rejected(self):
        for bad in ([0.5, 1.5], [0.0, np.nan]):
            with pytest.raises(ValueError, match="must be integers"):
                SamplePair(bad, [0])
        samples = SamplePair([0.0, 1.0], [1])
        assert samples.samples_p.dtype == np.int64
        assert samples.samples_p.tolist() == [0, 1]

    def test_symbol_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dv_objective(TabularFunction.zeros(2), SamplePair([0, 2], [0]))


class TestDvObjectivePopulation:
    def test_exact_optimum_attains_kl(self):
        p = FiniteDistribution([0.75, 0.25])
        q = FiniteDistribution([0.5, 0.5])
        fn = exact_dv_optimum(p, q)
        assert dv_objective_population(fn, p, q) == pytest.approx(kl_divergence(p, q), abs=1e-12)

    def test_equal_distributions_bounded_by_zero(self):
        rng = np.random.default_rng(7)
        p = FiniteDistribution([0.4, 0.6])
        for _ in range(20):
            fn = TabularFunction(rng.normal(size=2))
            assert dv_objective_population(fn, p, p) <= 1e-12
        assert dv_objective_population(TabularFunction([1.0, 1.0]), p, p) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_lower_bound_property(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            p = FiniteDistribution(rng.dirichlet(np.ones(n)))
            q = FiniteDistribution(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)
            fn = TabularFunction(rng.normal(scale=2.0, size=n))
            assert dv_objective_population(fn, p, q) <= kl_divergence(p, q) + 1e-12

    def test_shift_invariance(self):
        p = FiniteDistribution([0.8, 0.2])
        q = FiniteDistribution([0.5, 0.5])
        fn = TabularFunction([0.4, -1.1])
        base = dv_objective_population(fn, p, q)
        shifted = TabularFunction(fn.values + 100.0)
        assert dv_objective_population(shifted, p, q) == pytest.approx(base, abs=1e-12)


class TestExactDvOptimum:
    def test_equal_distributions_give_zero_function(self):
        p = FiniteDistribution([0.3, 0.7])
        fn = exact_dv_optimum(p, p)
        assert np.allclose(fn.values, 0.0, atol=1e-15)

    def test_direct_arithmetic(self):
        fn = exact_dv_optimum(FiniteDistribution([0.75, 0.25]), FiniteDistribution([0.5, 0.5]))
        assert np.allclose(fn.values, [-math.log(1.5), -math.log(0.5)], atol=1e-14)

    def test_zero_mass_symbol_is_excluded(self):
        p = FiniteDistribution([0.0, 1.0])
        q = FiniteDistribution([0.5, 0.5])
        fn = exact_dv_optimum(p, q)
        assert fn.excluded is not None and bool(fn.excluded[0])
        assert dv_objective_population(fn, p, q) == pytest.approx(kl_divergence(p, q), abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            exact_dv_optimum(FiniteDistribution([0.5, 0.5]), FiniteDistribution([1.0, 0.0]))


class TestFitDv:
    def test_equal_distributions_estimate_near_zero(self):
        rng = np.random.default_rng(19)
        p = np.array([0.3, 0.45, 0.25])
        samples = draw_pair(rng, p, p, 10_000, 10_000)
        result = fit_dv(TabularFunction.zeros(3), samples, steps=300, learning_rate=0.5)
        assert abs(result.kl_estimate) <= 0.05

    def test_recovers_known_divergence(self):
        rng = np.random.default_rng(23)
        p = np.array([0.6, 0.3, 0.1])
        q = np.array([0.2, 0.3, 0.5])
        samples = draw_pair(rng, p, q, 100_000, 100_000)
        result = fit_dv(TabularFunction.zeros(3), samples, steps=300, learning_rate=0.5)
        true_kl = kl_divergence(FiniteDistribution(p), FiniteDistribution(q))
        assert result.kl_estimate == pytest.approx(true_kl, abs=0.02)

    def test_trace_is_nondecreasing(self):
        rng = np.random.default_rng(29)
        p = np.array([0.5, 0.2, 0.3])
        q = np.array([0.25, 0.5, 0.25])
        samples = draw_pair(rng, p, q, 2000, 2000)
        result = fit_dv(TabularFunction.zeros(3), samples, steps=100, learning_rate=2.0)
        assert np.all(np.diff(result.trace) >= -1e-9)

    def test_linear_class_with_indicator_features_matches_tabular(self):
        rng = np.random.default_rng(31)
        p = np.array([0.5, 0.2, 0.3])
        q = np.array([0.25, 0.5, 0.25])
        samples = draw_pair(rng, p, q, 5000, 5000)
        tab = fit_dv(TabularFunction.zeros(3), samples, steps=200, learning_rate=0.5)
        lin = fit_dv(
            LinearFeaturesFunction.zeros(np.eye(3)), samples, steps=200, learning_rate=0.5
        )
        pd = FiniteDistribution(p)
        qd = FiniteDistribution(q)
        pop_tab = dv_objective_population(tab.function, pd, qd)
        pop_lin = dv_objective_population(lin.function, pd, qd)
        assert pop_lin == pytest.approx(pop_tab, abs=1e-6)
        assert lin.kl_estimate == pytest.approx(tab.kl_estimate, abs=1e-9)

    def test_mutual_information_via_product_alphabet(self):
        rng = np.random.default_rng(37)
        joint = np.array([[0.30, 0.10, 0.10], [0.05, 0.15, 0.30]])
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        info = kl_divergence(
            FiniteDistribution(joint.ravel()), FiniteDistribution(np.outer(px, py).ravel())
        )
        n = 100_000
        flat_joint = rng.choice(6, size=n, p=joint.ravel())
        xs = rng.choice(2, size=n, p=px)
        ys = rng.choice(3, size=n, p=py)
        samples = SamplePair(flat_joint, xs * 3 + ys)
        result = fit_dv(TabularFunction.zeros(6), samples, steps=300, learning_rate=0.5)
        assert result.kl_estimate == pytest.approx(info, abs=0.02)

    def test_non_finite_initial_objective_raises(self):
        samples = SamplePair([0, 1], [0, 1])
        huge = TabularFunction([1e308, 1e308])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFinite) as err:
                fit_dv(huge, samples, steps=5, learning_rate=0.1)
        assert err.value.trace is not None

    def test_diverging_parameters_raise_non_finite(self):
        samples = SamplePair([0, 0, 1], [1, 1, 0])
        init = LinearFeaturesFunction.zeros([[1e300], [-1e300]])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFinite, match="parameters diverged") as err:
                fit_dv(init, samples, steps=5, learning_rate=1e10)
        assert err.value.trace.size == 1

    def test_parameter_validation(self):
        samples = SamplePair([0], [0])
        with pytest.raises(ValueError):
            fit_dv(TabularFunction.zeros(1), samples, steps=0)
        with pytest.raises(ValueError):
            fit_dv(TabularFunction.zeros(1), samples, learning_rate=0.0)

    def test_seed_recorded(self):
        samples = SamplePair([0, 1], [1, 0])
        result = fit_dv(TabularFunction.zeros(2), samples, steps=5, seed=42)
        assert result.seed == 42


def dataclass_fit_dv(init, samples, steps, learning_rate):
    """Reference loop: a function object and a dv_objective call per
    candidate, and a separate Gibbs pass for each gradient."""
    tabular = isinstance(init, TabularFunction)
    n = init.alphabet_size
    p_hat = np.bincount(samples.samples_p, minlength=n) / samples.samples_p.size
    with np.errstate(divide="ignore"):
        log_q_counts = np.log(np.bincount(samples.samples_q, minlength=n))

    def rebuild(params):
        return TabularFunction(params, init.excluded) if tabular else LinearFeaturesFunction(init.features, params)

    fn = init
    objective = dv_objective(fn, samples)
    trace = [objective]
    for _ in range(steps):
        symbol_grad = gibbs(log_q_counts + fn.neg_values())[0] - p_hat
        grad = symbol_grad if tabular else fn.features.T @ symbol_grad
        params = fn.values if tabular else fn.weights
        step = learning_rate
        accepted = None
        for _ in range(60):
            candidate = rebuild(params + step * grad)
            value = dv_objective(candidate, samples)
            if np.isfinite(value) and value >= objective - 1e-12:
                accepted = (candidate, value)
                break
            step *= 0.5
        if accepted is None:
            break
        fn, objective = accepted
        trace.append(objective)
    return fn, np.array(trace)


class TestArrayLoopFitDv:
    """fit_dv reads the q-term off the gradient's Gibbs call; it must stay
    within 1e-12 of the loop that evaluates dv_objective per candidate."""

    @staticmethod
    def assert_close(init, samples, steps, learning_rate):
        result = fit_dv(init, samples, steps=steps, learning_rate=learning_rate)
        ref_fn, ref_trace = dataclass_fit_dv(init, samples, steps, learning_rate)
        assert result.trace.size == ref_trace.size
        assert np.allclose(result.trace, ref_trace, rtol=1e-12, atol=1e-12)
        assert abs(result.kl_estimate - ref_trace[-1]) <= 1e-12
        ours = result.function.values if isinstance(init, TabularFunction) else result.function.weights
        ref = ref_fn.values if isinstance(init, TabularFunction) else ref_fn.weights
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)
        assert type(result.function) is type(init)

    @pytest.mark.parametrize("seed", range(10))
    def test_tabular_matches_reference(self, seed):
        rng = np.random.default_rng(400 + seed)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6)) * 0.5 + 0.5 / 6
        samples = draw_pair(rng, p, q, 300, 300)
        self.assert_close(TabularFunction.zeros(6), samples, steps=200, learning_rate=0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_matches_reference(self, seed):
        rng = np.random.default_rng(500 + seed)
        samples = draw_pair(rng, rng.dirichlet(np.ones(5)), np.full(5, 0.2), 400, 400)
        features = rng.normal(size=(5, 3))
        self.assert_close(LinearFeaturesFunction.zeros(features), samples, steps=150, learning_rate=0.3)

    def test_excluded_symbols_match_reference(self):
        rng = np.random.default_rng(601)
        samples = draw_pair(rng, np.array([0.0, 0.5, 0.5]), np.array([0.3, 0.3, 0.4]), 500, 500)
        init = TabularFunction([0.0, 0.1, -0.2], excluded=[True, False, False])
        self.assert_close(init, samples, steps=100, learning_rate=1.0)
        assert fit_dv(init, samples, steps=5).function.excluded.tolist() == [True, False, False]

    def test_missing_q_symbols_match_reference(self):
        # symbols absent from the q-sample carry log n_q = -inf in the Gibbs call
        samples = SamplePair([0, 1, 1, 2, 2, 2], [0, 0, 1, 3])
        self.assert_close(TabularFunction.zeros(4), samples, steps=50, learning_rate=0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 80), st.integers(1, 80), st.floats(0.05, 5.0))
def test_fit_dv_trace_and_bound(seed, n, n_p, n_q, learning_rate):
    rng = np.random.default_rng(seed)
    samples = SamplePair(rng.integers(0, n, n_p), rng.integers(0, n, n_q))
    result = fit_dv(TabularFunction.zeros(n), samples, steps=40, learning_rate=learning_rate)
    assert np.all(np.diff(result.trace) >= -1e-12)
    p_hat = np.bincount(samples.samples_p, minlength=n) / n_p
    q_hat = np.bincount(samples.samples_q, minlength=n) / n_q
    if np.all(q_hat[p_hat > 0] > 0):
        kl_hat = kl_divergence(FiniteDistribution(p_hat), FiniteDistribution(q_hat))
        assert result.kl_estimate <= kl_hat + 1e-9
