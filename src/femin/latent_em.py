"""Expectation-Maximization for finite mixture models.

The E-step computes per-datum posteriors over components (responsibilities)
and the M-step re-fits parameters by responsibility-weighted maximum
likelihood, so the marginal log-likelihood never decreases across
iterations. Two emission families are supported: categorical tables and
one-dimensional Gaussians with a variance floor (the floor removes the
classic likelihood singularity of Gaussian mixtures). The loop keeps one
C-contiguous K x n table (components by observations) per step: gibbs over
axis 0 gives the responsibilities and each observation's log-likelihood,
and the M-step sums rows pairwise. e_step and m_step transpose to n x K.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateComponentWarning, EmptyData
from .simplex import FiniteDistribution, _as_readonly_table, _as_readonly_vector, _check_count, _symbol_indices, gibbs

CATEGORICAL = "categorical"
GAUSSIAN1D = "gaussian1d"

VARIANCE_FLOOR = 1e-6
# Responsibility mass below this marks a component degenerate for the M-step.
DEGENERATE_MASS = 1e-12

_LOG_2PI = float(np.log(2.0 * np.pi))
# Entered once per call: log 0 = -inf, an overflowing (y - mean)^2 / (2 variance) is a
# zero density (as in the tilt), and _m_step raises on an overflowing sum.
_quiet = np.errstate(divide="ignore", over="ignore")


@dataclass(frozen=True)
class MixtureModel:
    """Mixing weights plus per-component emission parameters."""

    weights: FiniteDistribution
    kind: str
    emissions: np.ndarray | None = None  # categorical: K x V rows on the simplex
    means: np.ndarray | None = None  # gaussian1d: K
    variances: np.ndarray | None = None  # gaussian1d: K, floored at VARIANCE_FLOOR

    def __post_init__(self):
        k = self.weights.alphabet_size
        if self.kind == CATEGORICAL:
            if self.emissions is None or self.means is not None or self.variances is not None:
                raise ValueError("categorical mixtures take an emissions table only")
            emissions = _as_readonly_table(self.emissions, "emissions")
            if emissions.shape[0] != k:
                raise ValueError(f"emissions must be a {k} x V table")
            for row in emissions:
                FiniteDistribution(row)  # validates nonnegativity and normalization
            object.__setattr__(self, "emissions", emissions)
        elif self.kind == GAUSSIAN1D:
            if self.means is None or self.variances is None or self.emissions is not None:
                raise ValueError("gaussian1d mixtures take means and variances only")
            means = _as_readonly_vector(self.means, "means")
            variances = _as_readonly_vector(self.variances, "variances")
            if means.shape != (k,) or variances.shape != (k,):
                raise ValueError(f"means and variances must have shape ({k},)")
            if np.any(variances < VARIANCE_FLOOR):
                raise ValueError(f"variances must be >= {VARIANCE_FLOOR}")
            object.__setattr__(self, "means", means)
            object.__setattr__(self, "variances", variances)
        else:
            raise ValueError(f"unknown mixture kind {self.kind!r}")

    @classmethod
    def categorical(cls, weights: FiniteDistribution, emissions) -> "MixtureModel":
        return cls(weights, CATEGORICAL, emissions=emissions)

    @classmethod
    def gaussian1d(cls, weights: FiniteDistribution, means, variances) -> "MixtureModel":
        return cls(weights, GAUSSIAN1D, means=means, variances=variances)

    @property
    def n_components(self) -> int:
        return self.weights.alphabet_size

    @property
    def n_symbols(self) -> int:
        if self.kind != CATEGORICAL:
            raise ValueError("n_symbols applies to categorical mixtures only")
        return self.emissions.shape[1]


def _check_data(model: MixtureModel, data) -> np.ndarray:
    """The observations as _observations gives them. Gaussian data must keep
    2 variance, (y - mean)^2 / (2 variance) at each component's farthest
    observation, as _log_joint computes them, and (max y - min y)^2 finite;
    the last bounds the M-step's squared spread, whose means lie in that range."""
    if model.kind == CATEGORICAL:
        return _observations(CATEGORICAL, data, model.n_symbols)
    y = _observations(GAUSSIAN1D, data)
    lo, hi = y.min(), y.max()
    with np.errstate(over="ignore"):
        twice = 2.0 * model.variances
        squares = (twice, np.maximum(hi - model.means, model.means - lo) ** 2 / twice, (hi - lo) ** 2)
    if not all(np.isfinite(sq).all() for sq in squares):
        raise ValueError("model and observations too large: (y - mean)^2 / (2 variance) or (max y - min y)^2 overflows")
    return y


def _observations(kind: str, data, n_symbols=None) -> np.ndarray:
    """Categorical symbols in [0, n_symbols), or finite reals, as a nonempty vector."""
    if kind == CATEGORICAL:
        return _symbol_indices(data, "observations", n_symbols)
    y = np.asarray(data, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise EmptyData("data must be a nonempty vector of observations")
    if not np.all(np.isfinite(y)):
        raise ValueError("observations must be finite")
    return y


def _arrays(model: MixtureModel):
    """(weights, theta = (emissions, means, variances)), None for the other family's."""
    return model.weights.probs, (model.emissions, model.means, model.variances)


def _log_joint(weights: np.ndarray, theta, y: np.ndarray) -> np.ndarray:
    """K x n table of log(weight_k * p_k(y_i)); -inf marks zero probability. Run under _quiet."""
    emissions, means, variances = theta
    log_w = np.log(weights)
    if emissions is not None:
        log_dens = np.log(emissions).take(y, axis=1)  # C-contiguous, unlike emissions[:, y]
    else:
        diff = y[None, :] - means[:, None]
        log_dens = -0.5 * (_LOG_2PI + np.log(variances)[:, None]) - diff**2 / (2.0 * variances[:, None])
    return log_w[:, None] + log_dens


def _posterior(weights: np.ndarray, theta, y: np.ndarray):
    """(K x n responsibilities, n log-likelihoods); an impossible observation raises."""
    probs, row_log_lik = gibbs(_log_joint(weights, theta, y), axis=0)
    if not (row_log_lik > -np.inf).all():
        bad = int(np.nonzero(row_log_lik == -np.inf)[0][0])
        raise ValueError(f"observation {bad} has zero probability under every component")
    return probs, row_log_lik


@_quiet
def marginal_log_likelihood(model: MixtureModel, data) -> float:
    """sum_i log sum_k weight_k p_k(y_i), each inner sum max-shifted."""
    return float(gibbs(_log_joint(*_arrays(model), _check_data(model, data)), axis=0)[1].sum())


@_quiet
def e_step(model: MixtureModel, data) -> np.ndarray:
    """Posterior over components for each observation (Bayes rule): an
    n x K array whose rows sum to 1, a view of the loop's K x n table."""
    return _posterior(*_arrays(model), _check_data(model, data))[0].T


@_quiet
def m_step(model: MixtureModel, data, resp) -> MixtureModel:
    """Responsibility-weighted maximum likelihood for weights and emissions,
    given an n x K array of responsibilities (rows on the simplex).

    Components with responsibility mass below DEGENERATE_MASS keep their
    previous parameters and get the floor mass as weight, so K stays fixed;
    a DegenerateComponentWarning reports which ones.
    """
    y = _check_data(model, data)
    r = np.asarray(resp, dtype=float)
    if r.shape != (y.size, model.n_components):
        raise ValueError(f"responsibilities have shape {r.shape}, expected {(y.size, model.n_components)}")
    if np.any(r < 0) or not np.all(np.isfinite(r)):
        raise ValueError("responsibilities must be finite and nonnegative")
    if np.any(np.abs(r.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("each responsibility row must sum to 1")
    weights, theta = _m_step(_arrays(model)[1], _stats(model.emissions, y), np.ascontiguousarray(r.T))
    return MixtureModel(FiniteDistribution._owned(weights), model.kind, *theta)


def _stats(emissions, y: np.ndarray) -> np.ndarray:
    """The M-step's view of the observations: y, or its n x V one-hot table."""
    if emissions is None:
        return y
    one_hot = np.zeros((y.size, emissions.shape[1]))
    one_hot[np.arange(y.size), y] = 1.0
    return one_hot


def _m_step(theta, stats: np.ndarray, r: np.ndarray):
    """m_step's arithmetic on _stats of checked observations and a K x n
    table: (weights, theta) from the previous theta. Run under _quiet."""
    emissions, means, variances = theta
    mass = r.sum(axis=1)
    degenerate = mass < DEGENERATE_MASS
    if degenerate.any():
        warnings.warn(
            f"components {np.nonzero(degenerate)[0].tolist()} received no responsibility mass; "
            "keeping their previous parameters",
            DegenerateComponentWarning,
            stacklevel=4,  # past m_step or em_fit and its _quiet wrapper, to their caller
        )
    weights = np.maximum(mass, DEGENERATE_MASS)
    weights = weights / weights.sum()
    safe_mass = np.where(degenerate, 1.0, mass)
    if emissions is not None:
        # one_hot.T @ r.T is the BLAS call of r_nk.T @ one_hot, and rounds the same
        counts = np.ascontiguousarray((stats.T @ r.T).T)
        new_emissions = counts / safe_mass[:, None]
        new_emissions[degenerate] = emissions[degenerate]
        return weights, (new_emissions, None, None)
    work = r * stats  # the one K x n temporary; the variance pass reuses it
    new_means = work.sum(axis=1) / safe_mass
    _check_sum(new_means, "y")
    np.square(np.subtract(stats, new_means[:, None], out=work), out=work)
    sq = np.multiply(work, r, out=work).sum(axis=1) / safe_mass
    _check_sum(sq, "(y - mean)^2")
    new_variances = np.where(degenerate, variances, np.maximum(sq, VARIANCE_FLOOR))
    return weights, (None, np.where(degenerate, means, new_means), new_variances)


def _check_sum(moments, what):
    if not np.isfinite(moments).all():
        raise ValueError(f"observations too large: the M-step's weighted sum of {what} overflows")


@_quiet
def em_fit(init: MixtureModel, data, tol: float = 1e-8, max_iter: int = 500):
    """Alternate E and M steps until the marginal log-likelihood moves by
    less than tol. Returns (model, trace) with one trace entry per M-step;
    the trace is nondecreasing up to rounding. The loop runs on arrays; the
    model is built once, at exit."""
    y = _check_data(init, data)
    max_iter = _check_count(max_iter, "max_iter", 0)
    weights, theta = _arrays(init)
    stats = _stats(theta[0], y)
    probs, row_log_lik = _posterior(weights, theta, y)
    previous = float(row_log_lik.sum())
    trace = []
    for _ in range(max_iter):
        weights, theta = _m_step(theta, stats, probs)
        # This E-step serves both the trace entry and the next M-step.
        probs, row_log_lik = _posterior(weights, theta, y)
        current = float(row_log_lik.sum())
        trace.append(current)
        if abs(current - previous) < tol:
            break
        previous = current
    return MixtureModel(FiniteDistribution._owned(weights), init.kind, *theta), np.array(trace)


def default_init(data, n_components: int, kind: str, seed: int = 0, n_symbols: int | None = None) -> MixtureModel:
    """Deterministic starting point for em_fit.

    Categorical emissions are smoothed empirical frequencies with a small
    seeded perturbation per component (identical rows would make EM a fixed
    point by symmetry); Gaussian means come from evenly spaced data
    quantiles with the pooled variance.
    """
    k = _check_count(n_components, "n_components", 1)
    weights = FiniteDistribution.uniform(k)
    rng = np.random.default_rng(seed)
    if kind == CATEGORICAL:
        v = None if n_symbols is None else _check_count(n_symbols, "n_symbols", 1)
        y = _observations(kind, data, v)
        v = int(y.max()) + 1 if v is None else v
        freq = np.bincount(y, minlength=v).astype(float) + 1e-3
        freq /= freq.sum()
        rows = freq[None, :] * (1.0 + 0.1 * rng.random((k, v)))
        rows /= rows.sum(axis=1, keepdims=True)
        return MixtureModel.categorical(weights, rows)
    if kind == GAUSSIAN1D:
        y = _observations(kind, data)
        means = np.quantile(y, (np.arange(k) + 1.0) / (k + 1.0))
        pooled = max(float(y.var()), VARIANCE_FLOOR)
        return MixtureModel.gaussian1d(weights, means, np.full(k, pooled))
    raise ValueError(f"unknown mixture kind {kind!r}")
