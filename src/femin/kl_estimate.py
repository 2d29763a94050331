"""Variational KL-divergence estimation from samples.

The variational objective

    E_{x~p}[-L(x)] - log E_{x~q}[exp(-L(x))]

lower-bounds KL(p || q) for every function L and attains it at
L*(x) = -log(p(x)/q(x)). Replacing the expectations with empirical
averages and maximizing over a tractable function class gives a sample
estimator of the divergence; here the classes are per-symbol tables and
linear functions of a fixed feature map, both of which make the objective
concave in the parameters and the optimum exactly analyzable.

Sign convention: -L appears inside both expectations. Much of the
estimation literature writes the same objective with T = -L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySamples, NonFinite, SupportViolation
from .simplex import SUPPORT_EPS, FiniteDistribution, _symbol_indices, gibbs, log_sum_exp


@dataclass(frozen=True)
class TabularFunction:
    """One real value per alphabet symbol.

    `excluded` marks symbols that behave as if L were +inf there (they carry
    zero weight exp(-L) = 0) while keeping the stored parameters finite.
    """

    values: np.ndarray
    excluded: np.ndarray | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float, copy=True)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a nonempty vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.excluded is not None:
            excluded = np.array(self.excluded, dtype=bool, copy=True)
            if excluded.shape != values.shape:
                raise ValueError("excluded mask must match values")
            excluded.setflags(write=False)
            object.__setattr__(self, "excluded", excluded)

    @classmethod
    def zeros(cls, alphabet_size: int) -> "TabularFunction":
        return cls(np.zeros(int(alphabet_size)))

    @property
    def alphabet_size(self) -> int:
        return self.values.size

    def neg_values(self) -> np.ndarray:
        """-L per symbol; excluded symbols get -inf."""
        neg = -self.values
        if self.excluded is not None:
            neg = np.where(self.excluded, -np.inf, neg)
        return neg


@dataclass(frozen=True)
class LinearFeaturesFunction:
    """L(x) = w . f(x) for a fixed per-symbol feature table f."""

    features: np.ndarray  # alphabet_size x d
    weights: np.ndarray  # d

    def __post_init__(self):
        features = np.array(self.features, dtype=float, copy=True)
        weights = np.array(self.weights, dtype=float, copy=True)
        if features.ndim != 2 or features.size == 0:
            raise ValueError("features must be a nonempty 2-D table")
        if weights.shape != (features.shape[1],):
            raise ValueError(f"weights must have shape ({features.shape[1]},)")
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(weights))):
            raise ValueError("features and weights must be finite")
        features.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def zeros(cls, features) -> "LinearFeaturesFunction":
        features = np.asarray(features, dtype=float)
        return cls(features, np.zeros(features.shape[1]))

    @property
    def alphabet_size(self) -> int:
        return self.features.shape[0]

    def neg_values(self) -> np.ndarray:
        return -(self.features @ self.weights)


@dataclass(frozen=True)
class SamplePair:
    """Symbol samples drawn from the two distributions being compared."""

    samples_p: np.ndarray
    samples_q: np.ndarray

    def __post_init__(self):
        for name in ("samples_p", "samples_q"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1 or arr.size == 0:
                raise EmptySamples(f"{name} must be a nonempty vector of symbols")
            arr = _symbol_indices(arr, name)
            if np.any(arr < 0):
                raise ValueError(f"{name} must contain nonnegative symbol indices")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def max_symbol(self) -> int:
        return int(max(self.samples_p.max(), self.samples_q.max()))


def _check_alphabet(fn, samples: SamplePair):
    if samples.max_symbol() >= fn.alphabet_size:
        raise ValueError(
            f"samples use symbol {samples.max_symbol()} but the function covers "
            f"{fn.alphabet_size} symbols"
        )


def dv_objective(fn, samples: SamplePair) -> float:
    """Empirical objective: mean_p[-L] - log mean_q[exp(-L)]."""
    _check_alphabet(fn, samples)
    neg = fn.neg_values()
    term_p = float(neg[samples.samples_p].mean())
    term_q = log_sum_exp(neg[samples.samples_q]) - float(np.log(samples.samples_q.size))
    return term_p - term_q


def dv_objective_population(fn, p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Exact-expectation objective: E_p[-L] - log E_q[exp(-L)].

    At most KL(p || q) for every function, with equality at the exact
    optimizer -log(p/q).
    """
    if p.alphabet_size != fn.alphabet_size or q.alphabet_size != fn.alphabet_size:
        raise ValueError("p, q, and the function must share the alphabet size")
    neg = fn.neg_values()
    p_support = p.probs > SUPPORT_EPS
    if np.any(p_support & (neg == -np.inf)):
        return float("-inf")
    term_p = float((p.probs[p_support] * neg[p_support]).sum())
    q_support = q.probs > SUPPORT_EPS
    term_q = log_sum_exp(np.log(q.probs[q_support]) + neg[q_support])
    return term_p - term_q


def exact_dv_optimum(p: FiniteDistribution, q: FiniteDistribution) -> TabularFunction:
    """The maximizing table L*(x) = -log(p(x)/q(x)).

    Symbols with p(x) = 0 would need L* = +inf; they are marked excluded
    instead, keeping the stored parameters finite.
    """
    if p.alphabet_size != q.alphabet_size:
        raise ValueError("p and q must share the alphabet size")
    p_support = p.probs > SUPPORT_EPS
    if np.any(p_support & (q.probs <= SUPPORT_EPS)):
        bad = int(np.nonzero(p_support & (q.probs <= SUPPORT_EPS))[0][0])
        raise SupportViolation(f"p has mass at symbol {bad} where q has none")
    values = np.zeros(p.alphabet_size)
    values[p_support] = -(np.log(p.probs[p_support]) - np.log(q.probs[p_support]))
    excluded = ~p_support
    return TabularFunction(values, excluded if excluded.any() else None)


@dataclass(frozen=True)
class FitResult:
    function: object
    kl_estimate: float
    trace: np.ndarray
    seed: int


def _ascent_terms(neg, samples_p, p_hat, log_q_counts, log_n_q: float):
    """Empirical objective at -L = neg and its gradient in the per-symbol
    values, from one Gibbs call.

    gibbs(log n_q + neg) has log Z = log sum_x n_q(x) exp(-L(x)), which less
    log n_q is the q-term, and probabilities q_L, whose difference from
    p_hat is the gradient.
    """
    probs, log_z = gibbs(log_q_counts + neg)
    return float(neg[samples_p].mean()) - (float(log_z) - log_n_q), probs - p_hat


def fit_dv(init, samples: SamplePair, steps: int = 500, learning_rate: float = 0.1, seed: int = 0) -> FitResult:
    """Maximize the empirical objective by full-batch gradient ascent.

    The objective is concave in the parameters of both supported classes, so
    ascent with per-step halving line search yields a nondecreasing trace.
    The final objective value is the divergence estimate. The loop runs on
    parameter arrays and the function is built once, at exit. The fit itself
    is deterministic; seed is recorded for provenance only.
    """
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    learning_rate = float(learning_rate)
    if not (learning_rate > 0):
        raise ValueError("learning_rate must be > 0")
    _check_alphabet(init, samples)
    n = init.alphabet_size
    samples_p = samples.samples_p
    p_hat = np.bincount(samples_p, minlength=n) / samples_p.size
    with np.errstate(divide="ignore"):
        log_q_counts = np.log(np.bincount(samples.samples_q, minlength=n))  # -inf at zero counts
    log_n_q = float(np.log(samples.samples_q.size))
    tabular = isinstance(init, TabularFunction)
    params = init.values if tabular else init.weights

    def evaluate(theta):
        """(objective, ascent direction in theta) for the class's parameters theta."""
        if tabular:
            neg = -theta if init.excluded is None else np.where(init.excluded, -np.inf, -theta)
            return _ascent_terms(neg, samples_p, p_hat, log_q_counts, log_n_q)
        neg = -(init.features @ theta)
        value, symbol_grad = _ascent_terms(neg, samples_p, p_hat, log_q_counts, log_n_q)
        return value, init.features.T @ symbol_grad

    objective, grad = evaluate(params)
    trace = [objective]
    if not np.isfinite(objective):
        raise NonFinite("objective is non-finite at the initial parameters", trace=np.array(trace))
    for _ in range(steps):
        step = learning_rate
        for _ in range(60):
            candidate = params + step * grad
            if not np.all(np.isfinite(candidate)):
                raise NonFinite("parameters diverged during the fit", trace=np.array(trace))
            value, cand_grad = evaluate(candidate)
            if np.isfinite(value) and value >= objective - 1e-12:
                break
            step *= 0.5
        else:
            break  # no ascent direction survives halving: converged
        params, objective, grad = candidate, value, cand_grad
        trace.append(objective)
    fn = TabularFunction(params, init.excluded) if tabular else LinearFeaturesFunction(init.features, params)
    return FitResult(fn, float(objective), np.array(trace), int(seed))
