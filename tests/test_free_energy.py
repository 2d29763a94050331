import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from femin import (
    AlphabetTooLarge,
    ComplexityPenalty,
    FiniteDistribution,
    FreeEnergyProblem,
    LossVector,
    NonFinite,
    NonPositivePrior,
    brute_force_minimize,
    fenchel_young_gap,
    free_energy,
    kl_divergence,
    minimize_closed_form,
    solve_tau,
    total_variation,
)
from femin.free_energy import (
    GRID_POINT_LIMIT,
    HALF_SQ_L2,
    KL_TO_PRIOR,
    NEG_ENTROPY,
    _grid_points,
    _project,
    _projection_pivot,
    _simplex_grid,
)

KINDS = (NEG_ENTROPY, KL_TO_PRIOR, HALF_SQ_L2)


def neg_entropy_problem(losses, t=1.0):
    return FreeEnergyProblem(LossVector(losses), t, ComplexityPenalty.neg_entropy())


def kl_problem(losses, prior, t=1.0):
    return FreeEnergyProblem(LossVector(losses), t, ComplexityPenalty.kl_to_prior(FiniteDistribution(prior)))


def l2_problem(losses, prior, t=1.0):
    return FreeEnergyProblem(
        LossVector(losses), t, ComplexityPenalty.half_sq_l2_to_prior(FiniteDistribution(prior))
    )


def bisection_tau(v):
    # oracle: binary search on the monotone residual sum((v - tau)^+) - 1
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, None).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_problem(rng, n, kind):
    losses = rng.uniform(-1.0, 1.0, n)
    t = float(rng.uniform(0.5, 2.0))
    if kind == NEG_ENTROPY:
        return neg_entropy_problem(losses, t)
    prior = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n  # keep strictly positive
    prior /= prior.sum()
    if kind == KL_TO_PRIOR:
        return kl_problem(losses, prior, t)
    return l2_problem(losses, prior, t)


class TestFreeEnergyValue:
    def test_zero_loss_max_entropy(self):
        problem = neg_entropy_problem([0.0, 0.0])
        assert free_energy(problem, FiniteDistribution.uniform(2)) == pytest.approx(
            -math.log(2), abs=1e-12
        )

    def test_direct_summation(self):
        problem = neg_entropy_problem([0.0, math.log(3)])
        q = FiniteDistribution([0.75, 0.25])
        expected = 0.25 * math.log(3) - (-(0.75 * math.log(0.75) + 0.25 * math.log(0.25)))
        assert free_energy(problem, q) == pytest.approx(expected, abs=1e-12)

    def test_constant_loss_at_prior(self):
        prior = [0.3, 0.7]
        problem = kl_problem([1.0, 1.0], prior, t=2.0)
        assert free_energy(problem, FiniteDistribution(prior)) == pytest.approx(1.0, abs=1e-12)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            neg_entropy_problem([0.0, 1.0], t=0.0)
        with pytest.raises(ValueError):
            neg_entropy_problem([0.0, 1.0], t=-1.0)


class TestSolveTau:
    def test_zero_loss_projects_prior_to_itself(self):
        p = FiniteDistribution([0.2, 0.3, 0.5])
        assert solve_tau(p, LossVector([0.0, 0.0, 0.0]), 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_hand_solved_vertex_case(self):
        tau = solve_tau(FiniteDistribution([0.5, 0.5]), LossVector([0.0, 1.0]), 1.0)
        assert tau == pytest.approx(-0.5, abs=1e-14)

    def test_interior_case(self):
        p = FiniteDistribution([0.5, 0.5])
        l = LossVector([0.1, -0.1])
        assert solve_tau(p, l, 1.0) == pytest.approx(0.0, abs=1e-14)
        sol = minimize_closed_form(l2_problem([0.1, -0.1], [0.5, 0.5]))
        assert np.allclose(sol.q_opt.probs, [0.4, 0.6], atol=1e-12)

    def test_residual_and_bisection_agreement(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            p = FiniteDistribution(rng.dirichlet(np.ones(n)))
            l = LossVector(rng.normal(scale=3.0, size=n))
            t = float(rng.uniform(0.2, 5.0))
            tau = solve_tau(p, l, t)
            v = p.probs - l.losses / t
            assert abs(np.clip(v - tau, 0.0, None).sum() - 1.0) <= 1e-12
            assert tau == pytest.approx(bisection_tau(v), abs=1e-10)


def sort_scan_pivot(v):
    # reference: the O(n log n) pivot the module used before its active-set
    # search: descending sort, cumulative-sum scan, one correction step
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ranks = np.arange(1, u.size + 1)
    rho = int(np.nonzero(u - (css - 1.0) / ranks > 0)[0][-1]) + 1
    tau = (css[rho - 1] - 1.0) / rho
    active = v - tau > 0
    n_active = int(active.sum())
    if n_active > 0:
        tau += ((v[active] - tau).sum() - 1.0) / n_active
    return float(tau)


def set_pivot(active):
    """The canonical tau of an active set: (sum - 1) / k, then one correction
    step, each summed in index order."""
    tau = (active.sum() - 1.0) / active.size
    return tau + ((active - tau).sum() - 1.0) / active.size


def check_pivot(v):
    """The pivot against the sort oracle, its KKT conditions, and the
    canonical identity tau = set_pivot(v[v > tau]), bitwise."""
    tau = _projection_pivot(v)
    assert abs(tau - sort_scan_pivot(v)) <= 1e-12 * (1.0 + abs(tau))
    active = v[v > tau]
    # No double tau can do better than half an ulp per active entry.
    assert abs(np.clip(v - tau, 0.0, None).sum() - 1.0) <= 1e-12 + active.size * abs(np.spacing(tau))
    probs, projected_tau = _project(v)
    assert projected_tau == tau
    assert np.all(v[probs == 0.0] <= tau) and np.all(v[probs > 0.0] > tau)
    if tau != set_pivot(active):
        # An entry tied with the pivot in exact arithmetic can land on either
        # side of it by rounding, so that no set S has {v > set_pivot(S)} = S
        # (see test_tie_has_no_fixed_point). The search drops such an entry;
        # without it the identity holds.
        tied = np.abs(v - tau) <= 1e-12 * (1.0 + abs(tau))
        assert tied.any()
        assert tau == set_pivot(v[(v > tau) & ~tied])
    return tau


class TestProjectionPivot:
    @pytest.mark.parametrize("n", [2**18, 10**6])
    def test_large_alphabets(self, n):
        rng = np.random.default_rng(n)
        weights = rng.random(n) + 0.1
        # the L2 problem of the large-alphabet benchmark: most symbols active
        check_pivot(weights / weights.sum() - rng.normal(size=n) / n)
        # spread-out values: few symbols active
        check_pivot(rng.normal(size=n))

    def test_tie_has_no_fixed_point(self):
        # 0.1 is the exact pivot. All three entries give 0.10000000000000002,
        # which drops 0.1; the two left give 0.09999999999999998, which would
        # take 0.1 back. The search keeps the two.
        v = np.array([0.1, 0.2, 1.0])
        assert set_pivot(v) > 0.1
        tau = check_pivot(v)
        assert tau == set_pivot(np.array([0.2, 1.0])) < 0.1

    def test_correction_reaches_the_best_double(self):
        # 19 equal entries: (sum - 1) / 19 alone lands 2 ulps from the pivot,
        # a KKT residual of 1.1e-12; the correction step brings it to 2.8e-14
        v = np.full(19, 241.43472310110002)
        tau = check_pivot(v)
        assert abs(np.clip(v - tau, 0.0, None).sum() - 1.0) <= 1e-13

    def test_huge_equal_entries_keep_a_nonempty_set(self):
        # (2e300 - 1) / 2 rounds to 1e300, so no entry stays above tau; the
        # search stops there instead of emptying its set
        assert _projection_pivot(np.array([1e300, 1e300])) == 1e300


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats(-1e3, 1e3)))
def test_pivot_matches_oracle_and_kkt(v):
    check_pivot(v)


class TestClosedForms:
    def test_gibbs_two_symbols(self):
        sol = minimize_closed_form(neg_entropy_problem([0.0, math.log(3)]))
        assert np.allclose(sol.q_opt.probs, [0.75, 0.25], atol=1e-12)
        assert sol.j_opt == pytest.approx(-math.log(4.0 / 3.0), abs=1e-12)
        oracle = brute_force_minimize(neg_entropy_problem([0.0, math.log(3)]), 1e-4)
        assert sol.j_opt == pytest.approx(oracle.j_opt, abs=1e-6)
        assert total_variation(sol.q_opt, oracle.q_opt) <= 1e-4

    def test_constant_loss_gives_uniform(self):
        c = 0.37
        for n in (2, 3, 4):
            sol = minimize_closed_form(neg_entropy_problem([c] * n))
            assert total_variation(sol.q_opt, FiniteDistribution.uniform(n)) <= 1e-12
            assert sol.j_opt == pytest.approx(c - math.log(n), abs=1e-12)

    def test_l2_hand_projection(self):
        sol = minimize_closed_form(l2_problem([0.0, 1.0], [0.5, 0.5]))
        assert sol.tau == pytest.approx(-0.5, abs=1e-14)
        assert np.allclose(sol.q_opt.probs, [1.0, 0.0], atol=1e-14)
        oracle = brute_force_minimize(l2_problem([0.0, 1.0], [0.5, 0.5]), 1e-3)
        assert sol.j_opt <= oracle.j_opt + 1e-12
        assert total_variation(sol.q_opt, oracle.q_opt) <= 1e-3

    def test_kl_prior_tilting(self):
        sol = minimize_closed_form(kl_problem([0.0, math.log(3)], [0.5, 0.5]))
        assert np.allclose(sol.q_opt.probs, [0.75, 0.25], atol=1e-12)
        assert sol.j_opt == pytest.approx(-math.log(2.0 / 3.0), abs=1e-12)

    def test_solution_value_consistency(self):
        rng = np.random.default_rng(23)
        for kind in (NEG_ENTROPY, KL_TO_PRIOR, HALF_SQ_L2):
            for _ in range(20):
                problem = random_problem(rng, int(rng.integers(2, 5)), kind)
                sol = minimize_closed_form(problem)
                assert free_energy(problem, sol.q_opt) == pytest.approx(sol.j_opt, abs=1e-9)

    def test_l2_zero_temperature_limit(self):
        # -L/T leaves p's digits below 1e300's resolution; the shift by min L
        # keeps them, so the result is the projection of p on argmin L
        problem = l2_problem([-1.0, 0.0, -1.0], [0.2, 0.3, 0.5], t=1e-300)
        sol = minimize_closed_form(problem)
        assert sol.q_opt.probs[1] == 0.0
        assert np.allclose(sol.q_opt.probs, [0.35, 0.0, 0.65], rtol=0.0, atol=1e-15)
        assert sol.j_opt == free_energy(problem, sol.q_opt)
        assert solve_tau(problem.penalty.prior, problem.loss, 1e-300) == sol.tau

    def test_l2_tau_beyond_the_doubles_raises(self):
        # at T = 1e-310 the loss gap 1/T overflows to a zero weight without a
        # warning, but tau = ... - min L / T is about 1e310: no double holds it
        problem = l2_problem([-1.0, 0.0, -1.0], [0.2, 0.3, 0.5], t=1e-310)
        with pytest.raises(NonFinite, match=r"tau has no double value at T = 1e-310"):
            minimize_closed_form(problem)
        with pytest.raises(NonFinite, match="tau"):
            solve_tau(problem.penalty.prior, problem.loss, 1e-310)
        # the gap needs no tau
        assert fenchel_young_gap(problem, FiniteDistribution([0.35, 0.0, 0.65])) == pytest.approx(0.0, abs=1e-15)

    def test_huge_losses_do_not_overflow(self):
        sol = minimize_closed_form(neg_entropy_problem([0.0, 1e3, -1e3]))
        assert np.all(np.isfinite(sol.q_opt.probs))
        assert sol.j_opt == pytest.approx(-1e3, abs=1e-9)

    def test_losses_at_the_double_limit(self):
        # min L - L overflows to -inf, a zero weight, at any temperature
        losses = [1e308, -1e308, 0.0]
        for t in (1e-300, 1.0, 1e300):
            for problem in (neg_entropy_problem(losses, t), kl_problem(losses, [0.2, 0.3, 0.5], t)):
                sol = minimize_closed_form(problem)
                assert np.array_equal(sol.q_opt.probs, [0.0, 1.0, 0.0])
                assert sol.j_opt == pytest.approx(free_energy(problem, sol.q_opt), rel=1e-15)

    def test_value_beyond_the_doubles_raises(self):
        # j_opt = min L - T log 3 is about -1.9e308 at T = 1.7e308
        with pytest.raises(NonFinite, match=r"j_opt has no double value at T = 1.7e\+308"):
            minimize_closed_form(neg_entropy_problem([0.0, 1.0, 2.0], t=1.7e308))

    def test_zero_prior_entry_rejected_for_kl(self):
        with pytest.raises(NonPositivePrior):
            ComplexityPenalty.kl_to_prior(FiniteDistribution([1.0, 0.0]))

    def test_penalty_shape_validation(self):
        with pytest.raises(ValueError):
            ComplexityPenalty(NEG_ENTROPY, FiniteDistribution.uniform(2))
        with pytest.raises(ValueError):
            ComplexityPenalty(KL_TO_PRIOR)


_limit_losses = st.lists(
    st.one_of(st.sampled_from([-1e308, -1.0, 0.0, 1.0, 1e308]), st.floats(-1e308, 1e308)), min_size=1, max_size=8
)


@settings(max_examples=300, deadline=None)
@given(
    _limit_losses,
    st.sampled_from([5e-324, 1e-320, 1e-310, 1e-300]),
    st.sampled_from([NEG_ENTROPY, KL_TO_PRIOR]),
    st.data(),
)
def test_gibbs_zero_temperature_limit(losses, t, kind, data):
    # Every gap between distinct losses is over 800 T, so exp(-gap / T) is
    # 0 in doubles and the minimizer is the exact T -> 0 limit: uniform on
    # argmin L for neg_entropy, the prior restricted to argmin L for kl.
    losses = np.array(losses)
    with np.errstate(over="ignore"):
        gaps = np.diff(np.unique(losses))
    assume(gaps.size == 0 or gaps.min() > 800 * t)
    on_min = losses == losses.min()
    if kind == NEG_ENTROPY:
        problem, expected = neg_entropy_problem(losses, t), on_min / on_min.sum()
    else:
        prior = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=losses.size, max_size=losses.size)))
        prior /= prior.sum()
        problem, expected = kl_problem(losses, prior, t), np.where(on_min, prior, 0.0) / prior[on_min].sum()
    sol = minimize_closed_form(problem)
    assert np.all(sol.q_opt.probs[~on_min] == 0.0)
    assert np.allclose(sol.q_opt.probs, expected, rtol=1e-14, atol=0.0)
    # J at the limit is min L: T log Z is at most about 800 T here
    assert sol.j_opt == pytest.approx(losses.min(), rel=1e-15, abs=1e3 * t)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
    st.floats(-3.0, 300.0).map(lambda e: 10.0**e),
    st.data(),
)
def test_kl_large_temperature_limit(losses, t, data):
    # Jensen bounds J's minimum by E_p[L] above, and Hoeffding's lemma by
    # E_p[L] - spread^2 / (8T) below, so j_opt -> E_p[L] as T -> infinity.
    losses = np.array(losses)
    prior = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=losses.size, max_size=losses.size)))
    prior /= prior.sum()
    j_opt = minimize_closed_form(kl_problem(losses, prior, t)).j_opt
    mean, spread = float(prior @ losses), float(losses.max() - losses.min())
    eps = 1e-13 * (1.0 + np.abs(losses).max())
    assert mean - spread**2 / (2.0 * t) - eps <= j_opt <= mean + eps


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8), st.floats(-3.0, 300.0).map(lambda e: 10.0**e))
def test_neg_entropy_large_temperature_limit(losses, t):
    # neg_entropy is KL to the uniform prior minus log n, so the kl bounds
    # apply to j_opt + T log n with the uniform mean. The rounding term adds
    # the ulps of T log n, which j_opt carries and the sum cancels.
    losses = np.array(losses)
    shifted = minimize_closed_form(neg_entropy_problem(losses, t)).j_opt + t * math.log(losses.size)
    mean, spread = float(losses.mean()), float(losses.max() - losses.min())
    eps = 1e-13 * (1.0 + np.abs(losses).max() + t * math.log(losses.size))
    assert mean - spread**2 / (2.0 * t) - eps <= shifted <= mean + eps


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
    st.floats(-3.0, 300.0).map(lambda e: 10.0**e),
    st.sampled_from(KINDS),
    st.data(),
)
def test_minimizer_large_temperature_limit(losses, t, kind, data):
    # Every entry of the minimizer is within spread / T of the prior, uniform
    # for neg_entropy. For the Gibbs kinds, J(q*) <= J(p) and Pinsker give a
    # total variation of at most spread / (2T); for L2, q* is the projection
    # of p - L / T, and its threshold is within spread / (2T) of the shift.
    losses = np.array(losses)
    n = losses.size
    if kind == NEG_ENTROPY:
        prior, problem = np.full(n, 1.0 / n), neg_entropy_problem(losses, t)
    else:
        prior = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        prior /= prior.sum()
        problem = (kl_problem if kind == KL_TO_PRIOR else l2_problem)(losses, prior, t)
    q = minimize_closed_form(problem).q_opt.probs
    spread = float(losses.max() - losses.min())
    assert np.abs(q - prior).max() <= spread / t + 1e-14


class TestBruteForceOracle:
    def test_zero_loss_recovers_uniform(self):
        sol = brute_force_minimize(neg_entropy_problem([0.0, 0.0]), 1e-3)
        assert total_variation(sol.q_opt, FiniteDistribution.uniform(2)) <= 1e-3

    def test_low_temperature_concentrates_on_argmin(self):
        problem = neg_entropy_problem([0.0, 10.0], t=0.1)
        sol = brute_force_minimize(problem, 1e-3)
        assert sol.q_opt.probs[0] >= 1.0 - 1e-3
        closed = minimize_closed_form(problem)
        assert abs(closed.j_opt - sol.j_opt) <= 1e-4

    def test_alphabet_cap(self):
        with pytest.raises(AlphabetTooLarge):
            brute_force_minimize(neg_entropy_problem([0.0] * 6), 1e-2)

    @pytest.mark.parametrize(("n", "step", "points"), [(4, 1e-3, 167668501), (5, 1e-5, 4167083347916875001)])
    def test_grid_point_limit(self, n, step, points):
        # refused from the point count alone, before any row is built
        with pytest.raises(AlphabetTooLarge, match=f"on {n} symbols has {points} > {GRID_POINT_LIMIT} points"):
            brute_force_minimize(neg_entropy_problem([0.0] * n), step)

    def test_grid_point_limit_admits_the_grids_in_use(self):
        # 5 symbols at step 0.01, the largest grid of the earlier rule of at most 5 symbols, and 3 at 1e-3
        assert math.comb(104, 4) == 4598126 <= GRID_POINT_LIMIT and math.comb(1002, 2) <= GRID_POINT_LIMIT

    def test_grid_step_validation(self):
        problem = neg_entropy_problem([0.0, 1.0])
        with pytest.raises(ValueError):
            brute_force_minimize(problem, 0.5)
        with pytest.raises(ValueError):
            brute_force_minimize(problem, 0.0)
        with pytest.raises(ValueError, match="1/grid_step must be an integer, got grid_step=0.003"):
            brute_force_minimize(problem, 0.003)
        # 1/step past int64 on the one-point grid of one symbol, and infinite on any alphabet
        for case, step in ((neg_entropy_problem([0.0]), 1e-20), (problem, 5e-324)):
            with pytest.raises(ValueError, match=f"1/grid_step must be an integer that int64 holds, got grid_step={step!r}"):
                brute_force_minimize(case, step)


def recursive_simplex_grid(total, parts):
    """Reference builder: first coordinate 0..total, each followed by the
    grid of what is left on one symbol fewer."""
    if parts == 1:
        out = np.array([[total]], dtype=np.int64)
    else:
        blocks = []
        for first in range(total + 1):
            rest = recursive_simplex_grid(total - first, parts - 1)
            head = np.full((rest.shape[0], 1), first, dtype=np.int64)
            blocks.append(np.hstack([head, rest]))
        out = np.vstack(blocks)
    out.setflags(write=False)
    return out


class TestSimplexGrid:
    @pytest.mark.parametrize(
        "shape", [(7, 1), (0, 1), (0, 3), (200, 2), (200, 3), (40, 4), (20, 5)], ids=lambda s: f"{s[0]}-{s[1]}"
    )
    def test_matches_recursive_builder(self, shape):
        expected, grid = recursive_simplex_grid(*shape), _simplex_grid(*shape)
        assert grid.dtype == np.int64
        assert np.array_equal(grid, expected)
        assert not grid.flags.writeable and not expected.flags.writeable

    def test_one_build_per_shape(self):
        # the cache is keyed on the top-level shape only, so switching shapes
        # must not evict the other grid
        _grid_points.cache_clear()
        for _ in range(4):
            for n in (2, 3):
                brute_force_minimize(neg_entropy_problem(np.linspace(0.0, 1.0, n)), 1.0 / 200.0)
        info = _grid_points.cache_info()
        assert (info.misses, info.hits) == (2, 6)
        assert not _grid_points(200, 3).flags.writeable


@st.composite
def grid_cases(draw):
    """A problem with losses in [-1, 1], T in [0.5, 2] and a strictly
    positive prior; on 4 symbols the grid has the coarsest step allowed."""
    n, step = draw(st.sampled_from([(2, 1.0 / 200.0), (3, 1.0 / 200.0), (4, 1.0 / 100.0)]))
    losses = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    t = draw(st.floats(0.5, 2.0))
    prior = FiniteDistribution.normalized(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from([NEG_ENTROPY, KL_TO_PRIOR, HALF_SQ_L2]))
    penalty = ComplexityPenalty(kind, None if kind == NEG_ENTROPY else prior)
    return FreeEnergyProblem(LossVector(losses), t, penalty), step


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_closed_form_never_above_grid(case):
    problem, step = case
    grid = brute_force_minimize(problem, step)
    assert minimize_closed_form(problem).j_opt <= grid.j_opt + 1e-12
    assert abs(grid.j_opt - free_energy(problem, grid.q_opt)) <= 1e-12


class TestFenchelYoungGap:
    def test_zero_at_optimum(self):
        problem = neg_entropy_problem([0.0, math.log(3)])
        q_opt = minimize_closed_form(problem).q_opt
        assert abs(fenchel_young_gap(problem, q_opt)) <= 1e-12

    def test_positive_off_optimum(self):
        problem = neg_entropy_problem([0.0, math.log(3)])
        gap = fenchel_young_gap(problem, FiniteDistribution.uniform(2))
        expected = free_energy(problem, FiniteDistribution.uniform(2)) + math.log(4.0 / 3.0)
        assert gap == pytest.approx(expected, abs=1e-12)
        assert gap > 0.0

    def test_nonnegative_over_random_pairs(self):
        rng = np.random.default_rng(29)
        for kind in (NEG_ENTROPY, KL_TO_PRIOR, HALF_SQ_L2):
            for _ in range(100):
                n = int(rng.integers(2, 5))
                problem = random_problem(rng, n, kind)
                q = FiniteDistribution(rng.dirichlet(np.ones(n)))
                assert fenchel_young_gap(problem, q) >= -1e-9

    def test_gap_equals_scaled_kl_to_optimum(self):
        # algebraic identity for the entropy and KL penalties
        rng = np.random.default_rng(31)
        for kind in (NEG_ENTROPY, KL_TO_PRIOR):
            for _ in range(25):
                n = int(rng.integers(2, 5))
                problem = random_problem(rng, n, kind)
                q = FiniteDistribution(rng.dirichlet(np.ones(n)))
                q_opt = minimize_closed_form(problem).q_opt
                expected = problem.temperature * kl_divergence(q, q_opt)
                assert fenchel_young_gap(problem, q) == pytest.approx(expected, abs=1e-9)

    def test_j_opt_beyond_the_doubles_raises(self):
        # min L - T log Z, log Z near log 3, overflows at T = 1.7e308; J(q) is finite
        problem = neg_entropy_problem([0.0, 1.0, 2.0], t=1.7e308)
        q = FiniteDistribution([0.2, 0.3, 0.5])
        assert np.isfinite(free_energy(problem, q))
        with pytest.raises(NonFinite, match=r"j_opt has no double value at T = 1\.7e\+308"):
            minimize_closed_form(problem)
        with pytest.raises(NonFinite, match=r"j_opt has no double value at T = 1\.7e\+308"):
            fenchel_young_gap(problem, q)


class TestOneSolvePerProblem:
    """A problem keeps its closed-form minimizer; the gap and the solution
    read that one solve."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_gap_has_the_same_bits_before_and_after_a_solve(self, kind):
        rng = np.random.default_rng(41)
        problem = random_problem(rng, 7, kind)
        q = FiniteDistribution(rng.dirichlet(np.ones(7)))
        before = fenchel_young_gap(problem, q)
        sol = minimize_closed_form(problem)
        after = fenchel_young_gap(problem, q)
        fresh = FreeEnergyProblem(LossVector(problem.loss.losses), problem.temperature, problem.penalty)
        assert before.hex() == after.hex() == fenchel_young_gap(fresh, q).hex()
        assert after == free_energy(problem, q) - sol.j_opt

    @pytest.mark.parametrize("kind", KINDS)
    def test_solve_and_gap_share_one_solve(self, kind, monkeypatch):
        module = sys.modules["femin.free_energy"]  # the package's free_energy is the function
        solves = []
        original = module._closed_form
        monkeypatch.setattr(module, "_closed_form", lambda problem: solves.append(problem) or original(problem))
        problem = random_problem(np.random.default_rng(47), 6, kind)
        q = FiniteDistribution.uniform(6)
        first = minimize_closed_form(problem)
        gap = fenchel_young_gap(problem, q)
        again = minimize_closed_form(problem)
        assert len(solves) == 1 and solves[0] is problem and gap == free_energy(problem, q) - first.j_opt
        assert again.q_opt.probs is first.q_opt.probs and not first.q_opt.probs.flags.writeable

    @pytest.mark.parametrize("kind", KINDS)
    def test_replace_does_not_reuse_the_old_optimum(self, kind):
        rng = np.random.default_rng(43)
        problem = random_problem(rng, 5, kind)
        q = FiniteDistribution(rng.dirichlet(np.ones(5)))
        cold = minimize_closed_form(problem)
        hot = dataclasses.replace(problem, temperature=problem.temperature * 4.0)
        expected = minimize_closed_form(FreeEnergyProblem(problem.loss, hot.temperature, problem.penalty))
        got = minimize_closed_form(hot)
        assert got.j_opt == expected.j_opt != cold.j_opt
        assert np.array_equal(got.q_opt.probs, expected.q_opt.probs)
        assert fenchel_young_gap(hot, q) == free_energy(hot, q) - expected.j_opt
        assert minimize_closed_form(problem).j_opt == cold.j_opt

    def test_non_finite_optimum_raises_on_every_call(self):
        problem = neg_entropy_problem([0.0, 1.0, 2.0], t=1.7e308)
        q = FiniteDistribution([0.2, 0.3, 0.5])
        for _ in range(3):
            with pytest.raises(NonFinite, match="j_opt has no double value"):
                minimize_closed_form(problem)
            with pytest.raises(NonFinite, match="j_opt has no double value"):
                fenchel_young_gap(problem, q)
        problem = l2_problem([-1.0, 0.0, -1.0], [0.2, 0.3, 0.5], t=1e-310)
        for _ in range(3):
            with pytest.raises(NonFinite, match="tau has no double value"):
                minimize_closed_form(problem)
            assert fenchel_young_gap(problem, FiniteDistribution([0.35, 0.0, 0.65])) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from(KINDS))
def test_gap_is_a_certificate(seed, n, kind):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, n, kind)
    q = FiniteDistribution(rng.dirichlet(np.ones(n)))
    sol = minimize_closed_form(problem)
    gap = fenchel_young_gap(problem, q)
    # J_opt without a second distribution: the same bits as the solution's
    assert gap == free_energy(problem, q) - sol.j_opt
    assert gap >= -1e-12
    assert abs(fenchel_young_gap(problem, sol.q_opt)) <= 1e-12
    if kind == HALF_SQ_L2:
        assert sol.j_opt == free_energy(problem, sol.q_opt)


class TestGibbsInvariances:
    def test_loss_shift_moves_value_not_minimizer(self):
        rng = np.random.default_rng(37)
        for kind in (NEG_ENTROPY, KL_TO_PRIOR):
            for _ in range(20):
                n = int(rng.integers(2, 5))
                problem = random_problem(rng, n, kind)
                c = float(rng.normal(scale=5.0))
                shifted = FreeEnergyProblem(
                    LossVector(problem.loss.losses + c), problem.temperature, problem.penalty
                )
                sol, sol_shifted = minimize_closed_form(problem), minimize_closed_form(shifted)
                assert total_variation(sol.q_opt, sol_shifted.q_opt) <= 1e-12
                assert sol_shifted.j_opt - sol.j_opt == pytest.approx(c, abs=1e-10)

    def test_high_temperature_approaches_uniform(self):
        problem = neg_entropy_problem([0.3, -0.8, 0.5], t=1e4)
        sol = minimize_closed_form(problem)
        assert total_variation(sol.q_opt, FiniteDistribution.uniform(3)) <= 1e-3

    def test_low_temperature_concentrates(self):
        problem = neg_entropy_problem([0.3, 0.9, 0.1], t=1e-4)
        sol = minimize_closed_form(problem)
        assert sol.q_opt.probs[2] >= 1.0 - 1e-6
