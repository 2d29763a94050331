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

where tau makes the clipped vector sum to one (Euclidean projection of
p - l/T onto the simplex). A simplex-grid enumerator provides an
independent oracle for small alphabets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AlphabetTooLarge, NonPositivePrior
from .simplex import (
    SUPPORT_EPS,
    FiniteDistribution,
    LossVector,
    entropy,
    gibbs,
    half_sq_l2,
    kl_divergence,
)

NEG_ENTROPY = "neg_entropy"
KL_TO_PRIOR = "kl"
HALF_SQ_L2 = "half_sq_l2"
PENALTY_KINDS = (NEG_ENTROPY, KL_TO_PRIOR, HALF_SQ_L2)


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

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.prior is not None:
            out["prior"] = self.prior.probs.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ComplexityPenalty":
        prior = data.get("prior")
        if prior is not None:
            prior = FiniteDistribution(np.asarray(prior, dtype=float))
        return cls(data["kind"], prior)


@dataclass(frozen=True)
class FreeEnergyProblem:
    """Loss vector, temperature T > 0, and complexity penalty."""

    loss: LossVector
    temperature: float
    penalty: ComplexityPenalty

    def __post_init__(self):
        t = float(self.temperature)
        if not np.isfinite(t) or t <= 0.0:
            raise ValueError(f"temperature must be finite and > 0, got {t!r}")
        object.__setattr__(self, "temperature", t)
        if self.penalty.prior is not None and self.penalty.prior.alphabet_size != self.loss.alphabet_size:
            raise ValueError(
                f"loss has {self.loss.alphabet_size} symbols but penalty prior has "
                f"{self.penalty.prior.alphabet_size}"
            )

    @property
    def alphabet_size(self) -> int:
        return self.loss.alphabet_size

    def to_dict(self) -> dict:
        return {
            "losses": self.loss.losses.tolist(),
            "temperature": self.temperature,
            "penalty": self.penalty.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FreeEnergyProblem":
        return cls(
            LossVector(np.asarray(data["losses"], dtype=float)),
            float(data["temperature"]),
            ComplexityPenalty.from_dict(data["penalty"]),
        )


@dataclass(frozen=True)
class Solution:
    """Minimizer q_opt with its objective value; tau only for the L2 penalty."""

    q_opt: FiniteDistribution
    j_opt: float
    tau: float | None = None

    def to_dict(self) -> dict:
        out = {"q_opt": self.q_opt.probs.tolist(), "j_opt": self.j_opt}
        if self.tau is not None:
            out["tau"] = self.tau
        return out


def free_energy(problem: FreeEnergyProblem, q: FiniteDistribution) -> float:
    """J(q) = E_{x~q}[L(x)] + T * D(q)."""
    if q.alphabet_size != problem.alphabet_size:
        raise ValueError(f"q has {q.alphabet_size} symbols, problem has {problem.alphabet_size}")
    energy = float(q.probs @ problem.loss.losses)
    return energy + problem.temperature * problem.penalty.value(q)


def _projection_pivot(v: np.ndarray) -> float:
    """Threshold tau with sum_x (v_x - tau)^+ = 1, by descending sort and scan.

    One exact correction step on the identified active set removes the
    rounding accumulated by the cumulative sums.
    """
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


def _project(v: np.ndarray):
    """Euclidean projection of v onto the simplex, (probs, tau): clip at the
    pivot and renormalize."""
    tau = _projection_pivot(v)
    w = np.clip(v - tau, 0.0, None)
    return w / w.sum(), tau


def solve_tau(p: FiniteDistribution, l: LossVector, temperature: float) -> float:
    """Pivot tau of the Euclidean projection of p - l/T onto the simplex.

    Always exists and is unique: the map tau -> sum_x (p - l/T - tau)^+ is
    continuous and strictly decreasing where positive.
    """
    if p.alphabet_size != l.alphabet_size:
        raise ValueError(f"p has {p.alphabet_size} symbols, l has {l.alphabet_size}")
    t = float(temperature)
    if not np.isfinite(t) or t <= 0.0:
        raise ValueError(f"temperature must be finite and > 0, got {t!r}")
    return _projection_pivot(p.probs - l.losses / t)


def minimize_closed_form(problem: FreeEnergyProblem) -> Solution:
    """Exact minimizer of J for the problem's penalty kind.

    The entropy and KL penalties share the Gibbs kernel, so losses with
    magnitude ~1e3 do not overflow. Logarithmic optimal values are scaled by
    T, so the result minimizes J at the problem's own temperature (not only
    T=1).
    """
    losses = problem.loss.losses
    t = problem.temperature
    kind = problem.penalty.kind
    if kind == HALF_SQ_L2:
        # Named, so it is freed after q_opt is built: freeing it inside
        # _project measured about 5% slower per call at 2^18 symbols.
        shifted = problem.penalty.prior.probs - losses / t
        probs, tau = _project(shifted)
        q_opt = FiniteDistribution(probs)
        return Solution(q_opt, free_energy(problem, q_opt), tau=tau)
    logits = -losses / t
    if kind == KL_TO_PRIOR:
        logits += np.log(problem.penalty.prior.probs)
    probs, log_z = gibbs(logits)
    return Solution(FiniteDistribution(probs), float(-t * log_z))


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
    if penalty.kind == NEG_ENTROPY:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(grid > 0, grid * np.log(grid), 0.0)
        return terms.sum(axis=1)
    if penalty.kind == KL_TO_PRIOR:
        prior = penalty.prior.probs
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(grid > 0, grid * np.log(grid / prior), 0.0)
        return terms.sum(axis=1)
    diff = grid - penalty.prior.probs
    return 0.5 * (diff * diff).sum(axis=1)


def brute_force_minimize(problem: FreeEnergyProblem, grid_step: float) -> Solution:
    """Exhaustive minimization over the simplex grid with the given step.

    Independent of the closed forms: evaluates J at every grid point whose
    coordinates are multiples of grid_step and returns the best, breaking
    exact ties toward the lexicographically smallest point. The grid has
    C(1/grid_step + n - 1, n - 1) points on n symbols; it is built once per
    (grid_step, n) and cached. Only meant as an oracle; alphabets above 5
    symbols are rejected.
    """
    n_x = problem.alphabet_size
    if n_x > 5:
        raise AlphabetTooLarge(f"grid enumeration supports at most 5 symbols, got {n_x}")
    step = float(grid_step)
    if not (0.0 < step <= 0.01):
        raise ValueError(f"grid_step must lie in (0, 0.01], got {step!r}")
    total = round(1.0 / step)
    if abs(total * step - 1.0) > 1e-9:
        raise ValueError(f"1/grid_step must be an integer, got grid_step={step!r}")
    grid = _grid_points(total, n_x)
    j_values = grid @ problem.loss.losses + problem.temperature * _penalty_values_on_grid(
        problem.penalty, grid
    )
    best = int(np.argmin(j_values))
    return Solution(FiniteDistribution(grid[best]), float(j_values[best]))


def fenchel_young_gap(problem: FreeEnergyProblem, q: FiniteDistribution) -> float:
    """J(q) - J_opt; nonnegative, and zero exactly at the minimizer."""
    return free_energy(problem, q) - minimize_closed_form(problem).j_opt
