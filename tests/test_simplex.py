import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from femin import (
    DimensionMismatch,
    FiniteDistribution,
    LossVector,
    SupportViolation,
    entropy,
    gibbs,
    half_sq_l2,
    kl_divergence,
    log_sum_exp,
    total_variation,
)


def direct_entropy(probs):
    # oracle: plain-Python summation, no numpy
    return -sum(p * math.log(p) for p in probs if p > 0)


def direct_kl(q, p):
    return sum(qi * math.log(qi / pi) for qi, pi in zip(q, p) if qi > 0)


def random_simplex(rng, n):
    return FiniteDistribution(rng.dirichlet(np.ones(n)))


class TestFiniteDistribution:
    def test_valid_construction(self):
        d = FiniteDistribution([0.25, 0.75])
        assert d.alphabet_size == 2
        assert d.probs.sum() == pytest.approx(1.0)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            FiniteDistribution([1.1, -0.1])

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            FiniteDistribution([0.5, 0.5 + 1e-6])

    def test_accepts_tiny_normalization_error(self):
        FiniteDistribution([0.5, 0.5 + 1e-10])

    def test_rejects_nan_and_empty(self):
        with pytest.raises(ValueError):
            FiniteDistribution([np.nan, 1.0])
        with pytest.raises(ValueError):
            FiniteDistribution([])

    def test_normalized_rescales_by_sum(self):
        d = FiniteDistribution.normalized([2.0, 6.0])
        assert np.allclose(d.probs, [0.25, 0.75])
        with pytest.raises(ValueError):
            FiniteDistribution.normalized([0.0, 0.0])

    def test_probs_are_readonly(self):
        d = FiniteDistribution.uniform(3)
        with pytest.raises(ValueError):
            d.probs[0] = 0.5

    def test_json_round_trip(self):
        d = FiniteDistribution([0.1, 0.2, 0.7])
        assert d.to_dict() == {"probs": [0.1, 0.2, 0.7]}
        assert np.array_equal(FiniteDistribution.from_dict(d.to_dict()).probs, d.probs)

    def test_loss_vector_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LossVector([1.0, np.inf])
        assert LossVector([1.0, -2.0]).to_dict() == {"losses": [1.0, -2.0]}


class TestEntropy:
    def test_uniform_two_symbols(self):
        assert entropy(FiniteDistribution.uniform(2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_point_mass_is_zero(self):
        assert entropy(FiniteDistribution([1.0, 0.0, 0.0])) == 0.0

    def test_against_direct_summation(self):
        probs = [0.75, 0.25]
        expected = direct_entropy(probs)  # = 0.5623351446188083
        assert expected == pytest.approx(0.5623351446188083, abs=1e-15)
        assert entropy(FiniteDistribution(probs)) == pytest.approx(expected, abs=1e-12)

    def test_bounds_and_uniform_maximum(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 11):
            h_max = math.log(n)
            for _ in range(50):
                h = entropy(random_simplex(rng, n))
                assert -1e-12 <= h <= h_max + 1e-12
            assert entropy(FiniteDistribution.uniform(n)) == pytest.approx(h_max, abs=1e-12)


class TestKlDivergence:
    def test_identical_distributions(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = random_simplex(rng, 4)
            assert kl_divergence(q, q) == 0.0

    def test_point_mass_vs_uniform(self):
        q = FiniteDistribution([1.0, 0.0, 0.0, 0.0])
        p = FiniteDistribution.uniform(4)
        assert kl_divergence(q, p) == pytest.approx(math.log(4), abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            kl_divergence(FiniteDistribution([0.5, 0.5]), FiniteDistribution([1.0, 0.0]))

    def test_zero_mass_symbols_are_fine(self):
        q = FiniteDistribution([0.0, 1.0])
        p = FiniteDistribution([0.5, 0.5])
        assert kl_divergence(q, p) == pytest.approx(math.log(2), abs=1e-12)

    def test_nonnegative_with_equality_iff_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(2, 6))
            q, p = random_simplex(rng, n), random_simplex(rng, n)
            val = kl_divergence(q, p)
            assert val >= 0.0
            assert val == pytest.approx(direct_kl(q.probs, p.probs), abs=1e-12)
            if total_variation(q, p) > 1e-3:
                assert val > 0.0

    def test_rounding_below_zero_gives_zero(self):
        # q is within rounding of p; the terms sum to about -1e-16
        p = FiniteDistribution(
            [0.29927266982747547, 0.4487766273694334, 0.008717921248874971, 0.000998846282454981, 0.2422339352717613]
        )
        q = FiniteDistribution(
            [0.2992726698176441, 0.44877662777762, 0.008717921253692801, 0.0009988462813580671, 0.24223393486968506]
        )
        assert kl_divergence(q, p) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_divergence(FiniteDistribution.uniform(2), FiniteDistribution.uniform(3))


class TestHalfSqL2:
    def test_identical(self):
        q = FiniteDistribution([0.4, 0.6])
        assert half_sq_l2(q, q) == 0.0

    def test_opposite_point_masses(self):
        assert half_sq_l2(FiniteDistribution([1.0, 0.0]), FiniteDistribution([0.0, 1.0])) == 1.0

    def test_direct_arithmetic(self):
        q = FiniteDistribution([0.7, 0.3])
        p = FiniteDistribution([0.5, 0.5])
        assert half_sq_l2(q, p) == pytest.approx(0.04, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            half_sq_l2(FiniteDistribution.uniform(2), FiniteDistribution.uniform(3))


class TestLogSumExp:
    def test_two_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-15)

    def test_no_overflow_at_magnitude_1000(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2), abs=1e-12)
        assert log_sum_exp([-1000.0, -1000.0]) == pytest.approx(-1000.0 + math.log(2), abs=1e-12)

    def test_direct_arithmetic(self):
        assert log_sum_exp([0.0, -math.log(3)]) == pytest.approx(math.log(4.0 / 3.0), abs=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 8))
            c = float(rng.normal(scale=100.0))
            assert log_sum_exp(v + c) == pytest.approx(log_sum_exp(v) + c, abs=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_neg_inf_entries_carry_no_weight(self):
        assert log_sum_exp([0.0, -np.inf]) == pytest.approx(0.0, abs=1e-15)
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf
        with pytest.raises(ValueError):
            log_sum_exp([np.inf, 0.0])


def reference_gibbs(v):
    # oracle: softmax and log-sum-exp over the finite entries only, shifted
    # by their mean (not their max), in math.fsum
    finite = [x for x in v if x != -math.inf]
    if not finite:
        return [math.nan] * len(v), -math.inf
    c = math.fsum(finite) / len(finite)
    weights = [math.exp(x - c) if x != -math.inf else 0.0 for x in v]
    total = math.fsum(weights)
    return [w / total for w in weights], c + math.log(total)


# Logits of magnitude up to 1e3 with -inf entries mixed in; the spread of the
# finite entries stays below ~700 so the mean-shifted oracle cannot overflow.
_logit = st.one_of(st.floats(-350.0, 350.0), st.just(-math.inf))
_offset = st.floats(-650.0, 650.0)


class TestGibbs:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, st.integers(1, 12), elements=_logit), _offset)
    def test_matches_reference_softmax(self, v, offset):
        v = v + offset
        probs, log_z = gibbs(v)
        ref_probs, ref_log_z = reference_gibbs(v.tolist())
        if ref_log_z == -math.inf:
            assert log_z == -np.inf
            assert np.all(np.isnan(probs))
            return
        assert log_z == pytest.approx(ref_log_z, rel=1e-13, abs=1e-12)
        assert np.allclose(probs, ref_probs, rtol=1e-9, atol=1e-15)
        assert np.all(probs[v == -np.inf] == 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert log_sum_exp(v) == log_z

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=_logit))
    def test_rows_match_separate_calls(self, table):
        probs, log_z = gibbs(table)
        assert probs.shape == table.shape and log_z.shape == table.shape[:1]
        for i, row in enumerate(table):
            row_probs, row_log_z = gibbs(row)
            assert np.array_equal(probs[i], row_probs, equal_nan=True)
            assert np.array_equal(log_z[i], row_log_z)

    @given(st.integers(1, 6))
    def test_all_neg_inf_slice(self, n):
        probs, log_z = gibbs(np.full(n, -np.inf))
        assert log_z == -np.inf and np.all(np.isnan(probs))
        probs, log_z = gibbs(np.array([[0.0] * n, [-np.inf] * n]))
        assert log_z[0] == pytest.approx(math.log(n), abs=1e-15) and log_z[1] == -np.inf
        assert np.allclose(probs[0], 1.0 / n, atol=1e-16)

    @given(hnp.arrays(float, st.integers(1, 8), elements=_logit), st.sampled_from([math.inf, math.nan]), st.data())
    def test_pos_inf_and_nan_rejected(self, v, bad, data):
        v[data.draw(st.integers(0, v.size - 1))] = bad
        with pytest.raises(ValueError):
            gibbs(v)
        with pytest.raises(ValueError):
            gibbs(np.vstack([np.zeros_like(v), v]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gibbs([])


def test_total_variation_basics():
    q = FiniteDistribution([1.0, 0.0])
    p = FiniteDistribution([0.0, 1.0])
    assert total_variation(q, p) == 1.0
    assert total_variation(q, q) == 0.0
