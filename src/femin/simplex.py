"""Probability vectors on finite alphabets and stable numerical primitives.

All quantities use natural logarithms. The convention 0*log(0) = 0 applies
throughout, and entries below ``SUPPORT_EPS`` count as exact zeros when
checking supports, so floating-point dust never triggers support errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatch, EmptyData, SupportViolation

# Entries at or below this are exact zeros for support checks.
SUPPORT_EPS = 1e-15
# Allowed deviation of sum(probs) from 1 at construction.
NORMALIZATION_TOL = 1e-9


def _as_readonly_vector(values, name, pos_inf=False):
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one entry")
    if not (arr > -np.inf if pos_inf else np.isfinite(arr)).all():  # NaN fails both
        raise ValueError(f"{name} must be finite" + (" or +inf" if pos_inf else ""))
    arr.setflags(write=False)
    return arr


def _as_readonly_table(values, name):
    """Read-only float copy of a nonempty 2-D table of finite entries."""
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D table")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _symbol_indices(values, name, n=None) -> np.ndarray:
    """Read-only int64 copy of a nonempty vector of symbol indices in [0, n),
    [0, inf) if n is None; floats must be integral and at most 2**53 in size.
    An empty or non-vector input (observations, samples, a training set)
    raises EmptyData; any other bad entry raises ValueError."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyData(f"{name} must be a nonempty vector of symbols")
    if arr.dtype.kind == "f" and not np.all((np.floor(arr) == arr) & (np.abs(arr) <= 2.0**53)):
        raise ValueError(f"{name} must be integers, got a non-integral entry")
    arr = arr.astype(np.int64)
    if arr.min() < 0 or (n is not None and arr.max() >= n):
        raise ValueError(f"{name} must lie in [0, {'inf' if n is None else n})")
    arr.setflags(write=False)
    return arr


def _check_count(value, name, minimum) -> int:
    """A count as an int >= minimum; integral floats pass, other values raise."""
    if not (isinstance(value, (int, np.integer)) or (np.isfinite(value) and value == int(value))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if int(value) < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {int(value)}")
    return int(value)


def _positive(value, name) -> float:
    """A scalar as a float that is finite and > 0; other values raise."""
    v = float(value)
    if not (np.isfinite(v) and v > 0):
        raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    return v


def _require_same_size(m: int, n: int, what: str):
    """Raise DimensionMismatch unless the alphabet sizes m and n are equal."""
    if m != n:
        raise DimensionMismatch(f"{what} have lengths {m} and {n}")


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
    def _owned(cls, probs: np.ndarray) -> "FiniteDistribution":
        """The constructor's checks (a sum near 1 has no inf or NaN term) on a fresh float vector, not copied."""
        if probs.ndim == 1 and probs.size and probs.min() >= 0 and abs(float(probs.sum()) - 1.0) <= NORMALIZATION_TOL:
            probs.setflags(write=False)
            dist = object.__new__(cls)
            object.__setattr__(dist, "probs", probs)
            return dist
        return cls(probs)

    @classmethod
    def uniform(cls, n: int) -> "FiniteDistribution":
        n = _check_count(n, "n", 1)
        return cls._owned(np.full(n, 1.0 / n))

    @classmethod
    def normalized(cls, weights) -> "FiniteDistribution":
        """Rescale nonnegative weights by their sum; the constructor checks the result."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        with np.errstate(over="ignore"):
            total = w.sum()
        if total == np.inf and np.isfinite(w).all():  # finite weights whose sum overflows
            w = w / w.max()
            total = w.sum()
        if not np.isfinite(total):
            raise ValueError("weights must be finite")
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        return cls._owned(w / total)


@dataclass(frozen=True)
class LossVector:
    """Per-symbol losses over the same alphabet as a distribution."""

    losses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "losses", _as_readonly_vector(self.losses, "losses"))

    @property
    def alphabet_size(self) -> int:
        return self.losses.size


def entropy(q: FiniteDistribution) -> float:
    """Shannon entropy H(q) = -sum_x q(x) log q(x), in nats.

    Lies in [0, log N]; zero entries contribute nothing.
    """
    return float(-_kl_sum(q.probs))


def kl_divergence(q: FiniteDistribution, p: FiniteDistribution) -> float:
    """KL(q || p) = sum_x q(x) log(q(x)/p(x)).

    Requires q absolutely continuous w.r.t. p; raises SupportViolation
    where q(x) > 0 but p(x) = 0.
    """
    _require_same_size(q.alphabet_size, p.alphabet_size, "distributions")
    unsupported = np.nonzero((q.probs > SUPPORT_EPS) & (p.probs <= SUPPORT_EPS))[0]
    if unsupported.size:
        raise SupportViolation(f"q has mass at symbol {int(unsupported[0])} where p has none")
    return max(0.0, float(_kl_sum(q.probs, p.probs)))


def _kl_sum(q: np.ndarray, p=1.0):
    """sum q log(q/p) along the last axis, for a vector or every row of a table;
    entries q <= SUPPORT_EPS add exactly 0, so p needs to be > 0 only where q is.
    p = 1 gives -H(q). The sum may round below 0."""
    ratio = np.divide(q, p, out=np.ones_like(q), where=q > SUPPORT_EPS)
    return (q * np.log(ratio)).sum(axis=-1)


def half_sq_l2(q: FiniteDistribution, p: FiniteDistribution) -> float:
    """Half squared Euclidean distance (1/2) * sum_x (q(x) - p(x))^2."""
    _require_same_size(q.alphabet_size, p.alphabet_size, "distributions")
    diff = q.probs - p.probs
    return float(0.5 * (diff @ diff))


def gibbs(logits, axis=-1):
    """Gibbs map along one axis: (exp(v - log Z), log Z), Z = sum exp(v).

    Max-shifted, so any finite logits are safe; an entry whose distance to
    the max overflows gets zero weight. log Z drops that axis (a numpy
    scalar for a vector). -inf entries get zero weight; a slice of only -inf
    has log Z = -inf and NaN probabilities. +inf and NaN raise.
    Down axis 0 of a table the slices are added in order, one numpy call
    each, so a column's result does not depend on the others; keep it short.
    """
    v = np.asarray(logits, dtype=float)
    if v.size == 0:
        raise ValueError("gibbs of an empty vector")
    m = v.max(axis=axis, keepdims=True)
    if np.abs(m).max() < 2.0**969:  # finite, and no v - m can overflow
        return _shifted_gibbs(v, m, axis)
    if not (m < np.inf).all():
        raise ValueError("logits must be < +inf and not NaN")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _shifted_gibbs(v, np.where(m == -np.inf, 0.0, m), axis)


def _shifted_gibbs(v, m, axis):
    w = np.subtract(v, m)
    np.exp(w, out=w)
    # down axis 0, a one-row w reduces to a view of its row, which w /= total would overwrite
    total = reduce(np.add, w)[None].copy() if axis == 0 and w.ndim > 1 else w.sum(axis=axis, keepdims=True)
    w /= total
    return w, m.squeeze(axis) + np.log(total.squeeze(axis))


def log_sum_exp(values) -> float:
    """log(sum_i exp(v_i)), the log Z of :func:`gibbs`."""
    return float(gibbs(values)[1])


def total_variation(q: FiniteDistribution, p: FiniteDistribution) -> float:
    """Total variation distance (1/2) * ||q - p||_1."""
    _require_same_size(q.alphabet_size, p.alphabet_size, "distributions")
    return float(0.5 * np.abs(q.probs - p.probs).sum())
