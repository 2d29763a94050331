import math

import numpy as np
import pytest

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
