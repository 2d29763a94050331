import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from femin import (
    ComplexityPenalty,
    DimensionMismatch,
    FiniteDistribution,
    FreeEnergyProblem,
    LearningProblem,
    LossVector,
    MomentConstraint,
    SupportViolation,
    UnnormalizedModel,
    default_init,
    em_fit,
    entropy,
    gibbs,
    gibbs_posterior,
    half_sq_l2,
    kl_divergence,
    log_sum_exp,
    m_step,
    mean_field_coordinate_ascent,
    minimize_closed_form,
    neg_step,
    posterior,
    project_to_simplex,
    solve_maxent,
    total_variation,
)
from femin.cli import _read_distribution, _read_problem
from femin.figure1 import grid_prior
from femin.simplex import _check_count


def direct_entropy(probs):
    # oracle: plain-Python summation, no numpy
    return -sum(p * math.log(p) for p in probs if p > 0)


def direct_kl(q, p):
    return sum(qi * math.log(qi / pi) for qi, pi in zip(q, p) if qi > 0)


def random_simplex(rng, n):
    return FiniteDistribution(rng.dirichlet(np.ones(n)))


class TestCheckCount:
    def test_integral_values_pass_as_int(self):
        for value in (3, np.int64(3), 3.0, np.float64(3.0)):
            count = _check_count(value, "steps", 1)
            assert count == 3 and type(count) is int
        assert _check_count(2**60 + 1, "seed", 0) == 2**60 + 1  # exact, not through a float
        assert _check_count(0, "max_iter", 0) == 0

    @pytest.mark.parametrize("value", [2.9, 150.9, -0.5, np.nan, np.inf, -np.inf])
    def test_non_integral_rejected_by_name(self, value):
        with pytest.raises(ValueError, match="trials must be an integer"):
            _check_count(value, "trials", 100)

    def test_below_minimum_rejected_by_name(self):
        with pytest.raises(ValueError, match="max_iter must be >= 0, got -5"):
            _check_count(-5, "max_iter", 0)
        with pytest.raises(ValueError, match="trials must be >= 100, got 99"):
            _check_count(99.0, "trials", 100)


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
        for bad in ([[1.0, 2.0]], [], 3.0):
            with pytest.raises(ValueError, match="weights must be a nonempty vector"):
                FiniteDistribution.normalized(bad)

    def test_normalized_finite_weights_whose_sum_overflows(self):
        assert FiniteDistribution.normalized([1e308, 1e308]).probs.tolist() == [0.5, 0.5]
        assert FiniteDistribution.normalized([1e308, 0.0, 1e308]).probs.tolist() == [0.5, 0.0, 0.5]
        with pytest.raises(ValueError, match="weights must be finite"):
            FiniteDistribution.normalized([1e308, np.inf])

    def test_probs_are_readonly(self):
        d = FiniteDistribution.uniform(3)
        with pytest.raises(ValueError):
            d.probs[0] = 0.5

    def test_loss_vector_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LossVector([1.0, np.inf])


def _raised(build, arr):
    with pytest.raises(ValueError) as info:
        build(arr)
    return type(info.value), str(info.value)


class TestOwned:
    """FiniteDistribution._owned wraps an array femin has just built: the
    constructor's checks and errors, but no copy."""

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(float, st.integers(1, 12), elements=st.floats(0.01, 1.0)),
        st.sampled_from(["nan", "inf", "-inf", "negative", "off-sum"]),
        st.floats(1e-300, 1.0),
        st.data(),
    )
    def test_raises_what_the_constructor_raises(self, weights, defect, size, data):
        v = weights / weights.sum()
        i = data.draw(st.integers(0, v.size - 1))
        if defect == "off-sum":
            v = v * data.draw(st.one_of(st.floats(0.0, 1.0 - 1e-6), st.floats(1.0 + 1e-6, 1e300)))
        elif defect == "negative":  # moved onto the next entry, so the sum stays near 1
            v[(i + 1) % v.size] += v[i] + size
            v[i] = -size
        else:
            v[i] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[defect]
        expected = _raised(FiniteDistribution, v.copy())
        assert _raised(FiniteDistribution._owned, v.copy()) == expected

    @pytest.mark.parametrize("arr", [np.zeros(0), np.full((2, 2), 0.25), np.full((1, 1), 1.0)])
    def test_shape_falls_back_to_the_constructor(self, arr):
        assert _raised(FiniteDistribution._owned, arr) == _raised(FiniteDistribution, arr)

    def test_wraps_without_a_copy(self):
        arr = np.array([0.25, 0.75])
        dist = FiniteDistribution._owned(arr)
        assert dist.probs is arr and not arr.flags.writeable
        assert dist.probs.tolist() == [0.25, 0.75]

    def test_every_solver_result_is_read_only(self):
        prior = FiniteDistribution([0.2, 0.3, 0.5])
        loss = LossVector([0.0, 1.0, 0.5])
        y = np.array([-2.0, -1.5, 2.0, 2.5, 0.1])
        model = default_init(y, 2, "gaussian1d")
        table = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        learning = LearningProblem(table, 0.0, 1.0, prior, FiniteDistribution([0.4, 0.6]))
        penalties = [ComplexityPenalty.neg_entropy(), ComplexityPenalty.kl_to_prior(prior)]
        penalties.append(ComplexityPenalty.half_sq_l2_to_prior(prior))
        results = [
            *(minimize_closed_form(FreeEnergyProblem(loss, 0.7, penalty)).q_opt for penalty in penalties),
            FiniteDistribution.uniform(4),
            FiniteDistribution.normalized([1.0, 3.0]),
            project_to_simplex([0.3, 0.9, -0.2]),
            neg_step(prior, [1.0, 0.0, 2.0], 0.5),
            gibbs_posterior(learning, [0, 1, 1], 2.0),
            posterior(UnnormalizedModel([0.0, 1.0, -1.0])),
            *mean_field_coordinate_ascent(np.log([[0.1, 0.2], [0.3, 0.4]]), sweeps=2)[:2],
            grid_prior(np.linspace(-2.0, 2.0, 9)),
            solve_maxent([MomentConstraint([0.0, 1.0, 2.0], 1.2)], 3).q,
            em_fit(model, y, max_iter=3)[0].weights,
            m_step(model, y, np.full((y.size, 2), 0.5)).weights,
        ]
        for dist in results:
            assert isinstance(dist, FiniteDistribution) and not dist.probs.flags.writeable
            with pytest.raises(ValueError):
                dist.probs[0] = 0.5

    def test_boundary_builds_copy_the_callers_array(self):
        src = np.array([0.25, 0.75])
        dists = [
            FiniteDistribution(src),
            _read_distribution({"probs": src}),
            _read_problem({"losses": [0.0, 1.0], "temperature": 1.0, "penalty": {"kind": "kl", "prior": src}})
            .penalty.prior,
        ]
        src[:] = [0.5, 0.5]
        for dist in dists:
            assert dist.probs.tolist() == [0.25, 0.75]


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

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(float, st.tuples(st.integers(1, 17), st.integers(1, 6)), elements=_logit))
    # 1 then fifteen 1.1e-16 weights: added in order they leave 1, summed
    # pairwise they reach 1 + 7 eps
    @example(np.vstack([np.zeros((1, 2)), np.full((15, 2), math.log(1.1e-16))]))
    # one row: numpy's add.reduce of it is a view of that row, so an in-place
    # divide by the total would overwrite the total (log Z NaN, not -inf)
    @example(np.array([[-math.inf]]))
    @example(np.array([[0.0]]))
    @example(np.array([[1.0, -math.inf]]))
    def test_axis_0_matches_rows_of_the_transpose(self, table):
        # Down axis 0 the K rows are added in order; along the last axis of
        # the contiguous transpose numpy sums pairwise from K = 8. Each sum of
        # positives is within (K - 1) u of the exact one (u = eps / 2), so the
        # two agree within K eps relative; below K = 8 the order is the same.
        k = table.shape[0]
        probs, log_z = gibbs(table, axis=0)
        ref_probs, ref_log_z = gibbs(np.ascontiguousarray(table.T))
        assert probs.shape == table.shape and log_z.shape == table.shape[1:]
        if k < 8:
            assert np.array_equal(probs, ref_probs.T, equal_nan=True)
            assert np.array_equal(log_z, ref_log_z)
        else:
            tol = k * np.finfo(float).eps
            assert np.allclose(probs, ref_probs.T, rtol=tol, atol=0.0, equal_nan=True)
            assert np.allclose(log_z, ref_log_z, rtol=tol, atol=tol)
        first_probs, first_log_z = gibbs(table[:, :1], axis=0)  # a one-column table
        assert np.array_equal(first_probs, probs[:, :1], equal_nan=True)
        assert np.array_equal(first_log_z, log_z[:1])
        dead = np.all(table == -np.inf, axis=0)
        assert np.array_equal(log_z == -np.inf, dead)
        assert np.all(np.isnan(probs[:, dead]))
        assert np.all(probs[:, ~dead][table[:, ~dead] == -np.inf] == 0.0)

    @given(st.integers(1, 6))
    def test_all_neg_inf_slice(self, n):
        probs, log_z = gibbs(np.full(n, -np.inf))
        assert log_z == -np.inf and np.all(np.isnan(probs))
        probs, log_z = gibbs(np.array([[0.0] * n, [-np.inf] * n]))
        assert log_z[0] == pytest.approx(math.log(n), abs=1e-15) and log_z[1] == -np.inf
        assert np.allclose(probs[0], 1.0 / n, atol=1e-16)
        probs, log_z = gibbs(np.array([[0.0, -np.inf]] * n), axis=0)
        assert log_z[0] == pytest.approx(math.log(n), abs=1e-15) and log_z[1] == -np.inf
        assert np.allclose(probs[:, 0], 1.0 / n, atol=1e-16) and np.all(np.isnan(probs[:, 1]))

    @given(hnp.arrays(float, st.integers(1, 8), elements=_logit), st.sampled_from([math.inf, math.nan]), st.data())
    def test_pos_inf_and_nan_rejected(self, v, bad, data):
        v[data.draw(st.integers(0, v.size - 1))] = bad
        with pytest.raises(ValueError):
            gibbs(v)
        with pytest.raises(ValueError):
            gibbs(np.vstack([np.zeros_like(v), v]))
        with pytest.raises(ValueError):
            gibbs(np.column_stack([np.zeros_like(v), v]), axis=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gibbs([])

    def test_distance_to_the_max_that_overflows_is_a_zero_weight(self):
        # v - max can overflow only when the max is above about 2**969; the
        # overflow is to -inf, an exact zero weight, and raises no warning
        probs, log_z = gibbs([1e308, -1e308])
        assert probs.tolist() == [1.0, 0.0] and log_z == 1e308
        top = np.finfo(float).max
        probs, log_z = gibbs([np.nextafter(2.0**969, 0.0), -top])  # the largest max of the unguarded path
        assert probs.tolist() == [1.0, 0.0] and log_z == np.nextafter(2.0**969, 0.0)
        table = np.array([[1e308, 0.0], [-1e308, -2.0], [-top, 1.0]])
        probs, log_z = gibbs(table, axis=0)
        assert probs[:, 0].tolist() == [1.0, 0.0, 0.0] and log_z[0] == 1e308
        column_probs, column_log_z = gibbs(np.ascontiguousarray(table[:, 1:]), axis=0)
        assert np.array_equal(probs[:, 1:], column_probs) and log_z[1] == column_log_z[0]


def test_total_variation_basics():
    q = FiniteDistribution([1.0, 0.0])
    p = FiniteDistribution([0.0, 1.0])
    assert total_variation(q, p) == 1.0
    assert total_variation(q, q) == 0.0
