import math

import numpy as np
import pytest

from femin import (
    ComplexityPenalty,
    FiniteDistribution,
    FreeEnergyProblem,
    LossVector,
    UnnormalizedModel,
    elbo,
    generalized_posterior,
    kl_divergence,
    log_partition,
    mean_field_coordinate_ascent,
    minimize_closed_form,
    posterior,
    total_variation,
)


class TestLogPartition:
    def test_two_equal_weights(self):
        assert log_partition(UnnormalizedModel([0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-15)

    def test_direct_arithmetic(self):
        assert log_partition(UnnormalizedModel([0.0, math.log(3)])) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_normalized_input_gives_zero(self):
        model = UnnormalizedModel(np.log([0.25, 0.75]))
        assert log_partition(model) == pytest.approx(0.0, abs=1e-12)

    def test_free_energy_identity(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            log_tp = rng.normal(scale=3.0, size=int(rng.integers(2, 7)))
            model = UnnormalizedModel(log_tp)
            fe = FreeEnergyProblem(LossVector(-log_tp), 1.0, ComplexityPenalty.neg_entropy())
            assert log_partition(model) == pytest.approx(-minimize_closed_form(fe).j_opt, abs=1e-12)

    def test_rejects_non_finite_log_weights(self):
        with pytest.raises(ValueError):
            UnnormalizedModel([0.0, -np.inf])


class TestPosterior:
    def test_direct_arithmetic(self):
        assert np.allclose(posterior(UnnormalizedModel([0.0, math.log(3)])).probs, [0.25, 0.75], atol=1e-14)

    def test_constant_weights_give_uniform(self):
        assert np.allclose(posterior(UnnormalizedModel([2.0, 2.0, 2.0])).probs, 1.0 / 3.0, atol=1e-14)

    def test_joint_table_bayes_rule(self):
        # p(x, y=obs) = [0.1, 0.3] -> posterior over x is [0.25, 0.75]
        model = UnnormalizedModel(np.log([0.1, 0.3]))
        assert np.allclose(posterior(model).probs, [0.25, 0.75], atol=1e-12)

    def test_matches_closed_form_minimizer(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            log_tp = rng.normal(scale=2.0, size=int(rng.integers(2, 6)))
            fe = FreeEnergyProblem(LossVector(-log_tp), 1.0, ComplexityPenalty.neg_entropy())
            assert total_variation(posterior(UnnormalizedModel(log_tp)), minimize_closed_form(fe).q_opt) <= 1e-12


class TestElbo:
    def test_equality_at_posterior(self):
        model = UnnormalizedModel([0.3, -1.2, 2.0])
        assert elbo(model, posterior(model)) == pytest.approx(log_partition(model), abs=1e-9)

    def test_uniform_q_direct_arithmetic(self):
        model = UnnormalizedModel([0.0, math.log(3)])
        value = elbo(model, FiniteDistribution.uniform(2))
        assert value == pytest.approx(0.5 * math.log(3) + math.log(2), abs=1e-12)
        assert value < log_partition(model)

    def test_point_mass_on_argmax(self):
        model = UnnormalizedModel([0.0, math.log(3)])
        value = elbo(model, FiniteDistribution([0.0, 1.0]))
        assert value == pytest.approx(math.log(3), abs=1e-12)
        assert value <= log_partition(model)

    def test_never_exceeds_log_partition(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            model = UnnormalizedModel(rng.normal(scale=2.0, size=n))
            q = FiniteDistribution(rng.dirichlet(np.ones(n)))
            assert elbo(model, q) <= log_partition(model) + 1e-9

    def test_gap_is_kl_to_posterior(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            model = UnnormalizedModel(rng.normal(scale=2.0, size=n))
            q = FiniteDistribution(rng.dirichlet(np.ones(n)))
            gap = log_partition(model) - elbo(model, q)
            assert gap == pytest.approx(kl_divergence(q, posterior(model)), abs=1e-9)


class TestGeneralizedPosterior:
    def test_recovers_bayes_posterior(self):
        log_tp = np.array([0.2, -0.5, 1.0])
        prior = FiniteDistribution.uniform(3)
        losses = LossVector(-(log_tp - np.log(prior.probs)))
        q = generalized_posterior(prior, losses, 1.0)
        assert total_variation(q, posterior(UnnormalizedModel(log_tp))) <= 1e-12

    def test_constant_loss_returns_prior(self):
        prior = FiniteDistribution([0.2, 0.5, 0.3])
        q = generalized_posterior(prior, LossVector([3.0, 3.0, 3.0]), 0.7)
        assert total_variation(q, prior) <= 1e-12

    def test_direct_arithmetic(self):
        q = generalized_posterior(
            FiniteDistribution([0.5, 0.5]), LossVector([0.0, math.log(3)]), 1.0
        )
        assert np.allclose(q.probs, [0.75, 0.25], atol=1e-12)


class TestMeanFieldCoordinateAscent:
    def test_elbo_nondecreasing_per_sweep(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            log_joint = rng.normal(scale=2.0, size=(2, 2))
            _, _, trace = mean_field_coordinate_ascent(log_joint, sweeps=15)
            assert np.all(np.diff(trace) >= -1e-10)

    def test_product_model_is_recovered_exactly(self):
        # when the model factorizes, the mean-field optimum closes the gap
        a = np.log([0.3, 0.7])
        b = np.log([0.6, 0.4])
        log_joint = a[:, None] + b[None, :]
        q1, q2, trace = mean_field_coordinate_ascent(log_joint, sweeps=10)
        assert np.allclose(q1.probs, [0.3, 0.7], atol=1e-12)
        assert np.allclose(q2.probs, [0.6, 0.4], atol=1e-12)
        assert trace[-1] == pytest.approx(log_partition(UnnormalizedModel(log_joint.ravel())), abs=1e-12)

    def test_trace_is_the_elbo_of_the_product_joint(self):
        rng = np.random.default_rng(73)
        for shape in ((2, 2), (3, 5), (9, 4)):
            log_joint = rng.normal(scale=3.0, size=shape)
            model = UnnormalizedModel(log_joint.ravel())
            for sweeps in range(4):
                q1, q2, trace = mean_field_coordinate_ascent(log_joint, sweeps=sweeps)
                joint = FiniteDistribution.normalized(np.outer(q1.probs, q2.probs).ravel())
                assert abs(trace[-1] - elbo(model, joint)) <= 1e-12

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            mean_field_coordinate_ascent(np.zeros(4))
        with pytest.raises(ValueError):
            mean_field_coordinate_ascent(np.array([[np.inf, 0.0], [0.0, 0.0]]))
