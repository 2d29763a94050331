"""The free-energy objective and its closed-form minimizers.

The objective is J(q) = E_{x~q}[L(x)] + T * D(q) over distributions q on a
finite alphabet, with temperature T > 0 and a convex complexity penalty D.
Three penalties are supported, each with a closed-form minimizer:

  ==================  =========================================  ==========================
  D(q)                q_opt(x)                                   J_opt
  ==================  =========================================  ==========================
  -H(q)               exp(-L(x)/T) / Z                           -T log sum_x exp(-L(x)/T)
  KL(q||p)            p(x) exp(-L(x)/T) / Z                      -T log E_p[exp(-L/T)]
  (1/2)||q - p||^2    (p(x) - L(x)/T - tau)^+                    J(q_opt) by substitution
  ==================  =========================================  ==========================

where tau makes the clipped vector sum to one: the Euclidean projection of
p - l/T onto the simplex. Its pivot comes from Michelot's expected-O(n)
active-set search (see Condat 2016), started at the exact filter
v >= max(v) - 1, and is canonical: a function of the final active set
alone. A simplex-grid enumerator provides an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AlphabetTooLarge, NonFinite, NonPositivePrior
from .simplex import (
    SUPPORT_EPS,
    FiniteDistribution,
    LossVector,
    entropy,
    gibbs,
    half_sq_l2,
    kl_divergence,
)
from .simplex import _positive, _require_same_size

NEG_ENTROPY = "neg_entropy"
KL_TO_PRIOR = "kl"
HALF_SQ_L2 = "half_sq_l2"
PENALTY_KINDS = (NEG_ENTROPY, KL_TO_PRIOR, HALF_SQ_L2)
GRID_POINT_LIMIT = 5_000_000  # most points brute_force_minimize builds; 5 symbols at step 0.01 have 4,598,126


@dataclass(frozen=True)
class ComplexityPenalty:
    """Convex penalty D(q): negative entropy, KL to a prior, or half squared
    Euclidean distance to a prior. The prior is present iff the kind needs one,
    and must be strictly positive for the KL kind (its closed form divides by it).
    """

    kind: str
    prior: FiniteDistribution | None = None

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {PENALTY_KINDS}")
        if self.kind == NEG_ENTROPY:
            if self.prior is not None:
                raise ValueError("neg_entropy penalty takes no prior")
        else:
            if self.prior is None:
                raise ValueError(f"{self.kind} penalty requires a prior")
            if self.kind == KL_TO_PRIOR and np.any(self.prior.probs <= SUPPORT_EPS):
                raise NonPositivePrior("kl penalty requires a strictly positive prior")

    @classmethod
    def neg_entropy(cls) -> "ComplexityPenalty":
        return cls(NEG_ENTROPY)

    @classmethod
    def kl_to_prior(cls, prior: FiniteDistribution) -> "ComplexityPenalty":
        return cls(KL_TO_PRIOR, prior)

    @classmethod
    def half_sq_l2_to_prior(cls, prior: FiniteDistribution) -> "ComplexityPenalty":
        return cls(HALF_SQ_L2, prior)

    def value(self, q: FiniteDistribution) -> float:
        """Evaluate D(q)."""
        if self.kind == NEG_ENTROPY:
            return -entropy(q)
        if self.kind == KL_TO_PRIOR:
            return kl_divergence(q, self.prior)
        return half_sq_l2(q, self.prior)


@dataclass(frozen=True)
class FreeEnergyProblem:
    """Loss vector, temperature T > 0, and complexity penalty."""

    loss: LossVector
    temperature: float
    penalty: ComplexityPenalty

    def __post_init__(self):
        object.__setattr__(self, "temperature", _positive(self.temperature, "temperature"))
        if self.penalty.prior is not None:
            _require_same_size(self.loss.alphabet_size, self.penalty.prior.alphabet_size, "loss and prior")

    @property
    def alphabet_size(self) -> int:
        return self.loss.alphabet_size

    _optimum = cached_property(lambda self: _closed_form(self))  # read-only fields: never stale; a raise is not kept


@dataclass(frozen=True)
class Solution:
    """Minimizer q_opt with its objective value; tau only for the L2 penalty."""

    q_opt: FiniteDistribution
    j_opt: float
    tau: float | None = None


def free_energy(problem: FreeEnergyProblem, q: FiniteDistribution) -> float:
    """J(q) = E_{x~q}[L(x)] + T * D(q)."""
    _require_same_size(q.alphabet_size, problem.alphabet_size, "q and problem")
    energy = float(q.probs @ problem.loss.losses)
    return energy + problem.temperature * problem.penalty.value(q)


def _projection_pivot(v: np.ndarray) -> float:
    """Threshold tau with sum_x (v_x - tau)^+ = 1 in expected O(n), by
    Michelot's active-set search (JOTA 1986; see Condat, Math. Prog. 2016).
    tau >= max(v) - 1 makes the first filter exact. Then (sum(active) - 1)/k,
    plus one correction step once no entry drops, both summed in index
    order: tau is canonical, a function of the final active set alone. If
    rounding would drop every entry, the last tau stands."""
    active = v[v >= v.max() - 1.0]
    while True:
        tau = (active.sum() - 1.0) / active.size
        keep = active > tau
        if keep.all():  # none drops: correct the rounding of the sum
            tau += ((active - tau).sum() - 1.0) / active.size
            keep = active > tau
        if keep.all() or not keep.any():
            return float(tau)
        active = active[keep]


def _project(v: np.ndarray):
    """Euclidean projection of v onto the simplex, (probs, tau): clip at the
    pivot and renormalize."""
    tau = _projection_pivot(v)
    w = v - tau
    np.maximum(w, 0.0, out=w)
    w /= w.sum()
    return w, tau


def solve_tau(p: FiniteDistribution, l: LossVector, temperature: float) -> float:
    """Pivot tau of the Euclidean projection of p - l/T onto the simplex, as
    minimize_closed_form reports it; it always exists and is unique."""
    return minimize_closed_form(FreeEnergyProblem(l, temperature, ComplexityPenalty(HALF_SQ_L2, p))).tau


def _tilt(kind: str, p, losses: np.ndarray, t: float):
    """The tilt of every closed form, mirror step and Gibbs posterior from the
    base point p: link(base - (losses - min L)/t) with base = log p and link
    gibbs, (probs, log Z), for kl (p None for neg_entropy), or base = p and
    link _project, (probs, tau), for L2. Shifted by min L, so t -> 0 is
    exact; an overflow is a zero weight. Gibbs tilts a table row by row; a
    vector's min L stays a scalar, whose subtraction is the faster one."""
    with np.errstate(over="ignore"):
        if kind == HALF_SQ_L2:
            v = np.subtract(losses, losses.min(), dtype=float)
            return _project(np.subtract(p, np.divide(v, t, out=v), out=v))
        logits = (np.minimum.reduce(losses, -1, keepdims=losses.ndim > 1) - losses) / t
        if p is not None:
            logits += np.log(p)  # taken after the shift, the log's memory is free for gibbs
        return gibbs(logits)


def _closed_form(problem: FreeEnergyProblem):
    """(probs, j_opt, tau) of the minimizer, tau None for the Gibbs kinds. A
    Gibbs j_opt is min L - T log Z; L2's is free_energy's two dot products,
    in order, so they agree bitwise. One beyond the doubles raises NonFinite."""
    losses, t, kind = problem.loss.losses, problem.temperature, problem.penalty.kind
    prior = None if problem.penalty.prior is None else problem.penalty.prior.probs
    low = float(losses.min())
    if kind == HALF_SQ_L2:
        probs, tau = _tilt(kind, prior, losses, t)
        diff = probs - prior
        j_opt, tau = float(probs @ losses) + t * float(0.5 * (diff @ diff)), tau - low / t
    else:
        probs, log_z = _tilt(kind, prior, losses, t)
        if float(losses.max()) - low <= t:  # logits in [-1, 0]: log1p keeps log Z's digits as T grows
            e = np.expm1((low - losses) / t)
            log_z = np.log1p(e.mean()) + np.log(e.size) if prior is None else np.log1p(prior @ e)
        j_opt, tau = low - t * float(log_z), None
    if not np.isfinite(j_opt):
        raise NonFinite(f"j_opt has no double value at T = {t!r}")
    return probs, j_opt, tau


def minimize_closed_form(problem: FreeEnergyProblem) -> Solution:
    """Exact minimizer of J for the problem's penalty kind. The Gibbs kinds
    share the max-shifted kernel, so any finite losses are safe, and j_opt
    is scaled by T: it is J's minimum at the problem's own temperature. A
    j_opt or an L2 tau beyond the doubles raises NonFinite."""
    probs, j_opt, tau = problem._optimum
    if tau is not None and not np.isfinite(tau):  # only at a tiny T, where j_opt is finite
        raise NonFinite(f"tau has no double value at T = {problem.temperature!r}")
    return Solution(FiniteDistribution._owned(probs), j_opt, tau)


def _simplex_grid(total: int, parts: int) -> np.ndarray:
    """All length-`parts` nonnegative integer vectors summing to `total`,
    in lexicographic order, read-only; rows are counts, not probabilities.

    Built one coordinate per pass: a partial row with r units left is
    repeated r + 1 times and takes 0, ..., r as its next coordinate, so each
    pass keeps the order; the last coordinate is what is left.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        reps = left + 1
        starts = np.cumsum(reps) - reps
        nxt = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(starts, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), nxt])
        left = np.repeat(left, reps) - nxt
    out = np.column_stack([rows, left])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _grid_points(total: int, parts: int) -> np.ndarray:
    """Read-only float rows counts / total of `_simplex_grid(total, parts)`."""
    grid = _simplex_grid(total, parts) / total
    grid.setflags(write=False)
    return grid


def _penalty_values_on_grid(penalty: ComplexityPenalty, grid: np.ndarray) -> np.ndarray:
    if penalty.kind == HALF_SQ_L2:
        diff = grid - penalty.prior.probs
        return 0.5 * (diff * diff).sum(axis=1)
    ratio = grid if penalty.kind == NEG_ENTROPY else grid / penalty.prior.probs
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(grid > 0, grid * np.log(ratio), 0.0).sum(axis=1)


def brute_force_minimize(problem: FreeEnergyProblem, grid_step: float) -> Solution:
    """Exhaustive minimization over the simplex grid with the given step.

    Independent of the closed forms: evaluates J at every grid point whose
    coordinates are multiples of grid_step and returns the best, breaking
    exact ties toward the lexicographically smallest point. The grid has
    C(1/grid_step + n - 1, n - 1) points on n symbols; it is built once per
    (grid_step, n) and cached. Only meant as an oracle; a grid of more than
    GRID_POINT_LIMIT points is rejected before anything is built.
    """
    n_x = problem.alphabet_size
    step = float(grid_step)
    if not (0.0 < step <= 0.01):
        raise ValueError(f"grid_step must lie in (0, 0.01], got {step!r}")
    total = round(1.0 / step)
    if abs(total * step - 1.0) > 1e-9:
        raise ValueError(f"1/grid_step must be an integer, got grid_step={step!r}")
    points = math.comb(total + n_x - 1, n_x - 1)
    if points > GRID_POINT_LIMIT:
        raise AlphabetTooLarge(f"grid of step {step!r} on {n_x} symbols has {points} > {GRID_POINT_LIMIT} points")
    grid = _grid_points(total, n_x)
    j_values = grid @ problem.loss.losses + problem.temperature * _penalty_values_on_grid(
        problem.penalty, grid
    )
    best = int(np.argmin(j_values))
    return Solution(FiniteDistribution(grid[best]), float(j_values[best]))


def fenchel_young_gap(problem: FreeEnergyProblem, q: FiniteDistribution) -> float:
    """J(q) - J_opt (the Fenchel-Young loss); nonnegative, and zero exactly at
    the minimizer. J_opt is the problem's own, solved at most once per
    problem; one beyond the doubles raises NonFinite, as in minimize_closed_form."""
    return free_energy(problem, q) - problem._optimum[1]
