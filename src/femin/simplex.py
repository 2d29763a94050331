"""Probability vectors on finite alphabets and stable numerical primitives.

All quantities use natural logarithms. The convention 0*log(0) = 0 applies
throughout, and entries below ``SUPPORT_EPS`` count as exact zeros when
checking supports, so floating-point dust never triggers support errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SupportViolation

# Entries at or below this are exact zeros for support checks.
SUPPORT_EPS = 1e-15
# Allowed deviation of sum(probs) from 1 at construction.
NORMALIZATION_TOL = 1e-9


def _as_readonly_vector(values, name):
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one entry")
    arr.setflags(write=False)
    return arr


def _symbol_indices(values, name) -> np.ndarray:
    """int64 copy of symbol indices; floats must be integral and at most 2**53 in size."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and not np.all((np.floor(arr) == arr) & (np.abs(arr) <= 2.0**53)):
        raise ValueError(f"{name} must be integers, got a non-integral entry")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class FiniteDistribution:
    """A probability vector over the alphabet {1, ..., N}.

    Entries must be nonnegative and sum to 1 within ``NORMALIZATION_TOL``.
    Use :meth:`normalized` to build one from unnormalized nonnegative
    weights (closed-form solvers routinely produce sums off by an ulp).
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = _as_readonly_vector(self.probs, "probs")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"probabilities sum to {total!r}, more than {NORMALIZATION_TOL} from 1; "
                "use FiniteDistribution.normalized to rescale explicitly"
            )
        object.__setattr__(self, "probs", probs)

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, n: int) -> "FiniteDistribution":
        return cls(np.full(int(n), 1.0 / int(n)))

    @classmethod
    def point_mass(cls, n: int, index: int) -> "FiniteDistribution":
        probs = np.zeros(int(n))
        probs[index] = 1.0
        return cls(probs)

    @classmethod
    def normalized(cls, weights) -> "FiniteDistribution":
        """Rescale nonnegative weights by their sum; the constructor checks the result."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        total = w.sum()
        if not np.isfinite(total):
            raise ValueError("weights must be finite")
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        return cls(w / total)

    def to_dict(self) -> dict:
        return {"probs": self.probs.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteDistribution":
        return cls(np.asarray(data["probs"], dtype=float))


@dataclass(frozen=True)
class LossVector:
    """Per-symbol losses over the same alphabet as a distribution."""

    losses: np.ndarray

    def __post_init__(self):
        losses = _as_readonly_vector(self.losses, "losses")
        if not np.all(np.isfinite(losses)):
            raise ValueError("losses must be finite")
        object.__setattr__(self, "losses", losses)

    @property
    def alphabet_size(self) -> int:
        return self.losses.size

    def to_dict(self) -> dict:
        return {"losses": self.losses.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "LossVector":
        return cls(np.asarray(data["losses"], dtype=float))


def _require_same_size(a, b, what="vectors"):
    if a.size != b.size:
        raise DimensionMismatch(f"{what} have lengths {a.size} and {b.size}")


def entropy(q: FiniteDistribution) -> float:
    """Shannon entropy H(q) = -sum_x q(x) log q(x), in nats.

    Lies in [0, log N]; zero entries contribute nothing.
    """
    p = q.probs
    support = p > SUPPORT_EPS
    ps = p[support]
    return float(-(ps * np.log(ps)).sum())


def kl_divergence(q: FiniteDistribution, p: FiniteDistribution) -> float:
    """KL(q || p) = sum_x q(x) log(q(x)/p(x)).

    Requires q absolutely continuous w.r.t. p; raises SupportViolation
    where q(x) > 0 but p(x) = 0.
    """
    _require_same_size(q.probs, p.probs, "distributions")
    unsupported = np.nonzero((q.probs > SUPPORT_EPS) & (p.probs <= SUPPORT_EPS))[0]
    if unsupported.size:
        raise SupportViolation(f"q has mass at symbol {int(unsupported[0])} where p has none")
    return _kl(q.probs, p.probs)


def _kl(q: np.ndarray, p: np.ndarray) -> float:
    """kl_divergence of arrays, p > SUPPORT_EPS where q is; a sum rounding below 0 is 0."""
    qs = q > SUPPORT_EPS
    qq = q[qs]
    pp = p[qs]
    return max(0.0, float((qq * np.log(qq / pp)).sum()))


def half_sq_l2(q: FiniteDistribution, p: FiniteDistribution) -> float:
    """Half squared Euclidean distance (1/2) * sum_x (q(x) - p(x))^2."""
    _require_same_size(q.probs, p.probs, "distributions")
    diff = q.probs - p.probs
    return float(0.5 * (diff @ diff))


def gibbs(logits):
    """Gibbs map along the last axis: (exp(v - log Z), log Z), Z = sum exp(v).

    Max-shifted, so magnitudes up to ~1e3 are safe. log Z drops the last axis
    (a numpy scalar for a vector). -inf entries get zero weight; a slice of
    only -inf has log Z = -inf and NaN probabilities. +inf and NaN raise.
    """
    v = np.asarray(logits, dtype=float)
    if v.size == 0:
        raise ValueError("gibbs of an empty vector")
    m = v.max(axis=-1, keepdims=True)
    if np.isfinite(m).all():
        return _shifted_gibbs(v, m)
    if not (m < np.inf).all():
        raise ValueError("logits must be < +inf and not NaN")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _shifted_gibbs(v, np.where(m == -np.inf, 0.0, m))


def _shifted_gibbs(v, m):
    w = np.exp(v - m)
    total = w.sum(axis=-1, keepdims=True)
    return w / total, m[..., 0] + np.log(total[..., 0])


def log_sum_exp(values) -> float:
    """log(sum_i exp(v_i)), the log Z of :func:`gibbs`."""
    return float(gibbs(values)[1])


def total_variation(q: FiniteDistribution, p: FiniteDistribution) -> float:
    """Total variation distance (1/2) * ||q - p||_1."""
    _require_same_size(q.probs, p.probs, "distributions")
    return float(0.5 * np.abs(q.probs - p.probs).sum())
