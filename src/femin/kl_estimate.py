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

from .errors import NonFinite, SupportViolation
from .simplex import SUPPORT_EPS, FiniteDistribution, _as_readonly_table, gibbs, log_sum_exp
from .simplex import _as_readonly_vector, _check_count, _positive, _require_same_size, _symbol_indices


@dataclass(frozen=True)
class TabularFunction:
    """One value of L per alphabet symbol: a real, or +inf, which gives the
    symbol zero weight exp(-L) = 0 (the optimum's value where p(x) = 0)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly_vector(self.values, "values", pos_inf=True))

    @classmethod
    def zeros(cls, alphabet_size: int) -> "TabularFunction":
        return cls(np.zeros(_check_count(alphabet_size, "alphabet_size", 1)))

    @property
    def alphabet_size(self) -> int:
        return self.values.size

    def neg_values(self) -> np.ndarray:
        return -self.values


@dataclass(frozen=True)
class LinearFeaturesFunction:
    """L(x) = w . f(x) for a fixed per-symbol feature table f."""

    features: np.ndarray  # alphabet_size x d
    weights: np.ndarray  # d

    def __post_init__(self):
        features = _as_readonly_table(self.features, "features")
        weights = _as_readonly_vector(self.weights, "weights")
        if weights.shape != (features.shape[1],):
            raise ValueError(f"weights must have shape ({features.shape[1]},)")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def zeros(cls, features) -> "LinearFeaturesFunction":
        features = np.asarray(features, dtype=float)
        return cls(features, np.zeros(features.shape[-1:]))  # a non-table is rejected by the constructor

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
            object.__setattr__(self, name, _symbol_indices(getattr(self, name), name))

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
    _require_same_size(p.alphabet_size, fn.alphabet_size, "p and function")
    _require_same_size(q.alphabet_size, fn.alphabet_size, "q and function")
    neg = fn.neg_values()
    p_support = p.probs > SUPPORT_EPS
    if np.any(p_support & (neg == -np.inf)):
        return float("-inf")
    term_p = float((p.probs[p_support] * neg[p_support]).sum())
    q_support = q.probs > SUPPORT_EPS
    term_q = log_sum_exp(np.log(q.probs[q_support]) + neg[q_support])
    return term_p - term_q


def exact_dv_optimum(p: FiniteDistribution, q: FiniteDistribution) -> TabularFunction:
    """The maximizing table L*(x) = -log(p(x)/q(x)), +inf where p(x) = 0."""
    _require_same_size(p.alphabet_size, q.alphabet_size, "p and q")
    p_support = p.probs > SUPPORT_EPS
    if np.any(p_support & (q.probs <= SUPPORT_EPS)):
        bad = int(np.nonzero(p_support & (q.probs <= SUPPORT_EPS))[0][0])
        raise SupportViolation(f"p has mass at symbol {bad} where q has none")
    values = np.full(p.alphabet_size, np.inf)
    values[p_support] = -(np.log(p.probs[p_support]) - np.log(q.probs[p_support]))
    return TabularFunction(values)


@dataclass(frozen=True)
class FitResult:
    function: object
    kl_estimate: float
    trace: np.ndarray


def _ascent_terms(neg, samples_p, p_hat, log_q_counts, log_n_q: float):
    """Empirical objective at -L = neg and its gradient in the per-symbol
    values, from one Gibbs call.

    gibbs(log n_q + neg) has log Z = log sum_x n_q(x) exp(-L(x)), which less
    log n_q is the q-term, and probabilities q_L, whose difference from
    p_hat is the gradient.
    """
    probs, log_z = gibbs(log_q_counts + neg)
    return float(neg[samples_p].mean()) - (float(log_z) - log_n_q), probs - p_hat


def fit_dv(init, samples: SamplePair, steps: int = 500, learning_rate: float = 0.1) -> FitResult:
    """Maximize the empirical objective by full-batch gradient ascent.

    The objective is concave in the parameters of both supported classes, so
    ascent with per-step halving line search yields a nondecreasing trace.
    The final objective value is the divergence estimate. The loop runs on
    parameter arrays and the function is built once, at exit.
    """
    steps = _check_count(steps, "steps", 1)
    learning_rate = _positive(learning_rate, "learning_rate")
    _check_alphabet(init, samples)
    n = init.alphabet_size
    samples_p = samples.samples_p
    p_hat = np.bincount(samples_p, minlength=n) / samples_p.size
    with np.errstate(divide="ignore"):
        log_q_counts = np.log(np.bincount(samples.samples_q, minlength=n))  # -inf at zero counts
    log_n_q = float(np.log(samples.samples_q.size))
    tabular = isinstance(init, TabularFunction)
    params = init.values if tabular else init.weights
    finite = None if np.isfinite(params).all() else np.isfinite(params)  # +inf: zero weight and gradient, stays +inf

    def evaluate(theta):
        """(objective, ascent direction in theta); -inf, no direction, where a linear -L overflows."""
        if tabular:
            return _ascent_terms(-theta, samples_p, p_hat, log_q_counts, log_n_q)
        neg = -(init.features @ theta)
        if not np.isfinite(neg).all():
            return -np.inf, None
        value, symbol_grad = _ascent_terms(neg, samples_p, p_hat, log_q_counts, log_n_q)
        return value, init.features.T @ symbol_grad

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is non-finite: a halving or NonFinite
        objective, grad = evaluate(params)
        trace = [objective]
        if not np.isfinite(objective):
            raise NonFinite("objective is non-finite at the initial parameters", trace=np.array(trace))
        for _ in range(steps):
            step = learning_rate
            for _ in range(60):
                candidate = params + step * grad
                if not np.isfinite(candidate).all() and (finite is None or not np.isfinite(candidate[finite]).all()):
                    raise NonFinite("parameters diverged during the fit", trace=np.array(trace))
                value, cand_grad = evaluate(candidate)
                if np.isfinite(value) and value >= objective - 1e-12:
                    break
                step *= 0.5
            else:
                break  # no ascent direction survives halving: converged
            params, objective, grad = candidate, value, cand_grad
            trace.append(objective)
    fn = TabularFunction(params) if tabular else LinearFeaturesFunction(init.features, params)
    return FitResult(fn, float(objective), np.array(trace))
