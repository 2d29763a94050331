import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femin import (
    CATEGORICAL,
    GAUSSIAN1D,
    DegenerateComponentWarning,
    EmptyData,
    FiniteDistribution,
    MixtureModel,
    UnnormalizedModel,
    default_init,
    e_step,
    elbo,
    em_fit,
    gibbs,
    m_step,
    marginal_log_likelihood,
)


def two_gaussians(mu, var=(1.0, 1.0), weights=(0.5, 0.5)):
    return MixtureModel.gaussian1d(FiniteDistribution(list(weights)), list(mu), list(var))


def sample_categorical(rng, model, n):
    comps = rng.choice(model.n_components, size=n, p=model.weights.probs)
    return np.array([rng.choice(model.n_symbols, p=model.emissions[k]) for k in comps])


class TestMarginalLogLikelihood:
    def test_single_standard_normal_at_zero(self):
        model = MixtureModel.gaussian1d(FiniteDistribution([1.0]), [0.0], [1.0])
        expected = math.log(1.0 / math.sqrt(2.0 * math.pi))
        assert marginal_log_likelihood(model, [0.0]) == pytest.approx(expected, abs=1e-12)

    def test_duplicated_component_matches_single(self):
        data = [0.3, -1.2, 0.8]
        single = MixtureModel.gaussian1d(FiniteDistribution([1.0]), [0.5], [2.0])
        double = two_gaussians((0.5, 0.5), (2.0, 2.0))
        assert marginal_log_likelihood(double, data) == pytest.approx(
            marginal_log_likelihood(single, data), abs=1e-12
        )

    def test_categorical_direct_arithmetic(self):
        model = MixtureModel.categorical(
            FiniteDistribution([0.5, 0.5]), [[1.0, 0.0], [0.0, 1.0]]
        )
        assert marginal_log_likelihood(model, [0]) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_empty_data_rejected(self):
        model = two_gaussians((0.0, 1.0))
        with pytest.raises(EmptyData):
            marginal_log_likelihood(model, [])

    def test_non_integral_symbols_rejected(self):
        model = MixtureModel.categorical(FiniteDistribution([0.5, 0.5]), [[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match="must be integers"):
            em_fit(model, [0.5, 1.0])
        assert marginal_log_likelihood(model, [0.0, 1.0]) == marginal_log_likelihood(model, [0, 1])
        with pytest.raises(ValueError, match="must be integers"):
            default_init([0.7, 1.9, 1.2], 2, CATEGORICAL, n_symbols=2)


class TestEStep:
    def test_identical_components_give_uniform_rows(self):
        model = two_gaussians((0.5, 0.5), (2.0, 2.0))
        resp = e_step(model, [0.1, -0.7, 1.3])
        assert np.allclose(resp, 0.5, atol=1e-14)

    def test_well_separated_gaussians(self):
        model = two_gaussians((-10.0, 10.0))
        resp = e_step(model, [10.0])
        assert resp[0, 1] >= 1.0 - 1e-8

    def test_disjoint_categorical_support(self):
        model = MixtureModel.categorical(FiniteDistribution([0.5, 0.5]), [[1.0, 0.0], [0.0, 1.0]])
        resp = e_step(model, [1])
        assert np.allclose(resp[0], [0.0, 1.0], atol=0.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        model = two_gaussians((-1.0, 2.0), (1.0, 0.5), (0.3, 0.7))
        resp = e_step(model, rng.normal(size=200))
        assert np.abs(resp.sum(axis=1) - 1.0).max() <= 1e-12

    def test_impossible_observation_rejected(self):
        model = MixtureModel.categorical(FiniteDistribution([0.5, 0.5]), [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            e_step(model, [1])


class TestMStep:
    def test_single_component_reduces_to_mle(self):
        data = np.array([1.0, 2.0, 3.0, 6.0])
        model = MixtureModel.gaussian1d(FiniteDistribution([1.0]), [0.0], [1.0])
        resp = np.ones((4, 1))
        fitted = m_step(model, data, resp)
        assert fitted.means[0] == pytest.approx(data.mean(), abs=1e-12)
        assert fitted.variances[0] == pytest.approx(data.var(), abs=1e-12)  # biased MLE form

    def test_hard_assignment_gives_per_cluster_parameters(self):
        data = np.array([0.0, 0.2, 10.0, 10.4])
        model = two_gaussians((0.0, 10.0))
        resp = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        fitted = m_step(model, data, resp)
        assert np.allclose(fitted.weights.probs, [0.5, 0.5], atol=1e-12)
        assert np.allclose(fitted.means, [0.1, 10.2], atol=1e-12)
        assert np.allclose(fitted.variances, [0.01, 0.04], atol=1e-12)

    def test_categorical_weighted_counts(self):
        data = np.array([0, 0, 1, 2])
        model = MixtureModel.categorical(
            FiniteDistribution([0.5, 0.5]), [[0.4, 0.3, 0.3], [0.2, 0.4, 0.4]]
        )
        resp = np.array([[1, 0], [1, 0], [1, 0], [0, 1]], dtype=float)
        fitted = m_step(model, data, resp)
        assert np.allclose(fitted.emissions[0], [2 / 3, 1 / 3, 0.0], atol=1e-12)
        assert np.allclose(fitted.emissions[1], [0.0, 0.0, 1.0], atol=1e-12)

    def test_degenerate_component_keeps_parameters(self):
        data = np.array([1.0, 2.0])
        model = two_gaussians((0.0, 7.0), (1.0, 3.0))
        resp = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.warns(DegenerateComponentWarning):
            fitted = m_step(model, data, resp)
        assert fitted.means[1] == 7.0
        assert fitted.variances[1] == 3.0
        assert fitted.weights.probs[1] <= 1e-11

    def test_responsibility_checks(self):
        model = two_gaussians((0.0, 7.0))
        data = np.array([1.0, 2.0])
        bad = {
            "shape": np.ones((2, 1)),
            "finite and nonnegative": np.array([[1.5, -0.5], [0.5, 0.5]]),
            "sum to 1": np.array([[0.5, 0.4], [0.5, 0.5]]),
        }
        for message, resp in bad.items():
            with pytest.raises(ValueError, match=message):
                m_step(model, data, resp)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            m_step(model, data, np.array([[np.nan, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="shape"):
            m_step(model, data, np.full(2, 0.5))

    def test_variance_floor(self):
        data = np.array([5.0, 5.0, 5.0])
        model = MixtureModel.gaussian1d(FiniteDistribution([1.0]), [0.0], [1.0])
        fitted = m_step(model, data, np.ones((3, 1)))
        assert fitted.variances[0] == 1e-6


class TestEmFit:
    def test_fixed_point_converges_in_one_iteration(self):
        data = np.array([1.0, 2.0, 3.0])
        mle = MixtureModel.gaussian1d(
            FiniteDistribution([1.0]), [data.mean()], [max(data.var(), 1e-6)]
        )
        _, trace = em_fit(mle, data, tol=1e-8)
        assert len(trace) == 1

    def test_monotone_log_likelihood_both_families(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            gdata = np.concatenate([rng.normal(-2, 1, 60), rng.normal(2, 1.5, 40)])
            ginit = default_init(gdata, 2, GAUSSIAN1D, seed=seed)
            _, gtrace = em_fit(ginit, gdata, tol=1e-10, max_iter=60)
            assert np.all(np.diff(gtrace) >= -1e-10)

            true_cat = MixtureModel.categorical(
                FiniteDistribution([0.6, 0.4]), [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]
            )
            cdata = sample_categorical(rng, true_cat, 150)
            cinit = default_init(cdata, 2, CATEGORICAL, seed=seed, n_symbols=3)
            _, ctrace = em_fit(cinit, cdata, tol=1e-10, max_iter=60)
            assert np.all(np.diff(ctrace) >= -1e-10)

    def test_reaches_generating_categorical_likelihood(self):
        true_model = MixtureModel.categorical(
            FiniteDistribution([0.5, 0.5]), [[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]]
        )
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = sample_categorical(rng, true_model, 500)
            init = default_init(data, 2, CATEGORICAL, seed=seed, n_symbols=3)
            fitted, trace = em_fit(init, data, tol=1e-10, max_iter=300)
            assert trace[-1] >= marginal_log_likelihood(true_model, data) - 1e-9

    def test_recovers_separated_gaussian_means(self):
        rng = np.random.default_rng(4)
        data = np.concatenate([rng.normal(-5, 1, 500), rng.normal(5, 1, 500)])
        init = two_gaussians((-1.0, 1.0))
        fitted, _ = em_fit(init, data, tol=1e-10, max_iter=200)
        assert np.abs(np.sort(fitted.means) - np.array([-5.0, 5.0])).max() <= 0.2

    def test_elbo_sandwich_after_e_step(self):
        rng = np.random.default_rng(13)
        model = two_gaussians((-1.0, 1.5), (1.0, 0.7), (0.4, 0.6))
        data = rng.normal(size=25)
        resp = e_step(model, data)
        log_w = np.log(model.weights.probs)
        for i, y in enumerate(data):
            log_joint = log_w - 0.5 * (
                np.log(2 * np.pi * model.variances) + (y - model.means) ** 2 / model.variances
            )
            per_datum = elbo(UnnormalizedModel(log_joint), FiniteDistribution(resp[i]))
            assert per_datum == pytest.approx(marginal_log_likelihood(model, [y]), abs=1e-9)

    def test_label_equivariance(self):
        rng = np.random.default_rng(17)
        data = np.concatenate([rng.normal(-3, 1, 80), rng.normal(3, 1, 80)])
        init = two_gaussians((-1.0, 1.0), (1.0, 2.0), (0.4, 0.6))
        swapped = two_gaussians((1.0, -1.0), (2.0, 1.0), (0.6, 0.4))
        fitted, _ = em_fit(init, data, tol=1e-12, max_iter=100)
        fitted_swapped, _ = em_fit(swapped, data, tol=1e-12, max_iter=100)
        assert np.allclose(fitted.means, fitted_swapped.means[::-1], atol=1e-9)
        assert np.allclose(fitted.weights.probs, fitted_swapped.weights.probs[::-1], atol=1e-9)


def three_pass_em_fit(init, data, tol, max_iter):
    """Reference loop: an E-step, an M-step, then a separate log-likelihood pass."""
    model = init
    previous = marginal_log_likelihood(model, data)
    trace = []
    for _ in range(max_iter):
        model = m_step(model, data, e_step(model, data))
        current = marginal_log_likelihood(model, data)
        trace.append(current)
        if abs(current - previous) < tol:
            break
        previous = current
    return model, np.array(trace)


class TestSinglePassEm:
    """em_fit reads the log-likelihood off its E-step; the result must match
    the loop that computes it in a separate pass."""

    @staticmethod
    def assert_same_fit(init, data):
        model, trace = em_fit(init, data, tol=1e-10, max_iter=200)
        ref_model, ref_trace = three_pass_em_fit(init, data, tol=1e-10, max_iter=200)
        assert trace.size == ref_trace.size
        assert np.allclose(trace, ref_trace, rtol=1e-12, atol=0.0)
        assert np.allclose(model.weights.probs, ref_model.weights.probs, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_gaussian_matches_three_pass_loop(self, seed):
        rng = np.random.default_rng(seed)
        data = np.concatenate([rng.normal(-4, 1, 100), rng.normal(0, 0.7, 100), rng.normal(4, 1.2, 100)])
        self.assert_same_fit(default_init(data, 3, GAUSSIAN1D, seed=seed), data)

    @pytest.mark.parametrize("seed", range(10))
    def test_categorical_matches_three_pass_loop(self, seed):
        rng = np.random.default_rng(100 + seed)
        true_cat = MixtureModel.categorical(
            FiniteDistribution([0.6, 0.4]), [[0.7, 0.2, 0.1, 0.0], [0.1, 0.3, 0.4, 0.2]]
        )
        data = sample_categorical(rng, true_cat, 200)
        self.assert_same_fit(default_init(data, 2, CATEGORICAL, seed=seed, n_symbols=4), data)

    def test_impossible_observation_under_init_rejected(self):
        init = MixtureModel.categorical(FiniteDistribution([0.5, 0.5]), [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="zero probability under every component"):
            em_fit(init, np.array([0, 1, 0]))


def _ref_log_joint(model, y):
    with np.errstate(divide="ignore"):
        log_w = np.log(model.weights.probs)
        if model.kind == CATEGORICAL:
            log_dens = np.log(model.emissions[:, y]).T
        else:
            diff = y[:, None] - model.means[None, :]
            log_dens = -0.5 * (np.log(2.0 * np.pi) + np.log(model.variances)[None, :]) - diff**2 / (
                2.0 * model.variances[None, :]
            )
    return log_w[None, :] + log_dens


def _ref_m_step(model, y, r):
    mass = r.sum(axis=0)
    degenerate = mass < 1e-12
    if degenerate.any():
        warnings.warn("degenerate", DegenerateComponentWarning)
    weights = FiniteDistribution.normalized(np.maximum(mass, 1e-12))
    safe_mass = np.where(degenerate, 1.0, mass)
    if model.kind == CATEGORICAL:
        one_hot = np.zeros((y.size, model.n_symbols))
        one_hot[np.arange(y.size), y] = 1.0
        emissions = (r.T @ one_hot) / safe_mass[:, None]
        emissions[degenerate] = model.emissions[degenerate]
        return MixtureModel.categorical(weights, emissions)
    means = (r * y[:, None]).sum(axis=0) / safe_mass
    sq = (r * (y[:, None] - means[None, :]) ** 2).sum(axis=0) / safe_mass
    variances = np.maximum(sq, 1e-6)
    means = np.where(degenerate, model.means, means)
    variances = np.where(degenerate, model.variances, variances)
    return MixtureModel.gaussian1d(weights, means, variances)


def dataclass_em_fit(init, y, tol, max_iter):
    """Reference loop: a MixtureModel and a normalized FiniteDistribution per iteration."""
    model = init
    probs, row_log_lik = gibbs(_ref_log_joint(model, y))
    previous = float(row_log_lik.sum())
    trace = []
    for _ in range(max_iter):
        model = _ref_m_step(model, y, probs)
        probs, row_log_lik = gibbs(_ref_log_joint(model, y))
        current = float(row_log_lik.sum())
        trace.append(current)
        if abs(current - previous) < tol:
            break
        previous = current
    return model, np.array(trace)


class TestArrayLoopEm:
    """em_fit loops on arrays; it must reproduce the dataclass loop bit for bit."""

    @staticmethod
    def assert_bitwise(init, data, max_iter=200):
        model, trace = em_fit(init, data, tol=1e-10, max_iter=max_iter)
        ref_model, ref_trace = dataclass_em_fit(init, np.asarray(data), tol=1e-10, max_iter=max_iter)
        assert np.array_equal(trace, ref_trace)
        assert model.kind == ref_model.kind
        assert np.array_equal(model.weights.probs, ref_model.weights.probs)
        for field in ("emissions", "means", "variances"):
            ours, ref = getattr(model, field), getattr(ref_model, field)
            assert (ours is None and ref is None) or np.array_equal(ours, ref)

    @pytest.mark.parametrize("seed", range(10))
    def test_gaussian_bitwise(self, seed):
        rng = np.random.default_rng(200 + seed)
        data = np.concatenate([rng.normal(-4, 1, 120), rng.normal(0, 0.7, 90), rng.normal(4, 1.2, 90)])
        self.assert_bitwise(default_init(data, 3, GAUSSIAN1D, seed=seed), data)

    @pytest.mark.parametrize("seed", range(10))
    def test_categorical_bitwise(self, seed):
        rng = np.random.default_rng(300 + seed)
        true_cat = MixtureModel.categorical(
            FiniteDistribution([0.5, 0.3, 0.2]),
            [[0.7, 0.2, 0.1, 0.0, 0.0], [0.1, 0.3, 0.4, 0.2, 0.0], [0.0, 0.1, 0.1, 0.3, 0.5]],
        )
        data = sample_categorical(rng, true_cat, 250)
        self.assert_bitwise(default_init(data, 3, CATEGORICAL, seed=seed, n_symbols=5), data)

    def test_degenerate_component_bitwise(self):
        data = np.array([0.1, -0.3, 0.4, 0.2])
        init = two_gaussians((0.0, 1e3), (1.0, 1.0))
        with pytest.warns(DegenerateComponentWarning):
            self.assert_bitwise(init, data, max_iter=5)

    def test_zero_iterations_return_the_start(self):
        init = two_gaussians((-1.0, 1.0))
        model, trace = em_fit(init, [0.5, -0.5], max_iter=0)
        assert trace.size == 0
        assert np.array_equal(model.weights.probs, init.weights.probs)
        assert np.array_equal(model.means, init.means) and np.array_equal(model.variances, init.variances)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(5, 120),
    st.sampled_from([GAUSSIAN1D, CATEGORICAL]),
)
def test_em_trace_nondecreasing(seed, k, n, kind):
    rng = np.random.default_rng(seed)
    if kind == GAUSSIAN1D:
        data = rng.normal(rng.normal(0.0, 4.0, k)[rng.integers(0, k, n)], rng.uniform(0.3, 2.0))
        init = default_init(data, k, GAUSSIAN1D, seed=seed)
    else:
        data = rng.integers(0, 4, n)
        init = default_init(data, k, CATEGORICAL, seed=seed, n_symbols=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateComponentWarning)
        _, trace = em_fit(init, data, tol=0.0, max_iter=40)
    assert np.all(np.diff(trace) >= -1e-10 * np.abs(trace[:-1]))


class TestModelValidation:
    def test_emission_rows_must_be_distributions(self):
        with pytest.raises(ValueError):
            MixtureModel.categorical(FiniteDistribution([0.5, 0.5]), [[0.9, 0.2], [0.5, 0.5]])

    def test_variance_floor_enforced_at_construction(self):
        with pytest.raises(ValueError):
            MixtureModel.gaussian1d(FiniteDistribution([1.0]), [0.0], [1e-9])

    def test_json_round_trip_both_families(self):
        cat = MixtureModel.categorical(FiniteDistribution([0.3, 0.7]), [[0.2, 0.8], [0.9, 0.1]])
        assert cat.to_dict()["family"] == "categorical"
        again = MixtureModel.from_dict(cat.to_dict())
        assert np.array_equal(again.emissions, cat.emissions)

        gauss = two_gaussians((0.0, 1.0), (1.0, 2.0))
        payload = gauss.to_dict()
        assert payload["emissions"] == {"means": [0.0, 1.0], "vars": [1.0, 2.0]}
        again = MixtureModel.from_dict(payload)
        assert np.array_equal(again.means, gauss.means)
