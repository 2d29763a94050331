"""Expectation-Maximization for finite mixture models.

The E-step computes per-datum posteriors over components (responsibilities)
and the M-step re-fits parameters by responsibility-weighted maximum
likelihood, so the marginal log-likelihood never decreases across
iterations. Two emission families are supported: categorical tables and
one-dimensional Gaussians with a variance floor (the floor removes the
classic likelihood singularity of Gaussian mixtures).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateComponentWarning, EmptyData
from .simplex import FiniteDistribution, _symbol_indices, gibbs

CATEGORICAL = "categorical"
GAUSSIAN1D = "gaussian1d"

VARIANCE_FLOOR = 1e-6
# Responsibility mass below this marks a component degenerate for the M-step.
DEGENERATE_MASS = 1e-12

_LOG_2PI = float(np.log(2.0 * np.pi))


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
            emissions = np.array(self.emissions, dtype=float, copy=True)
            if emissions.ndim != 2 or emissions.shape[0] != k:
                raise ValueError(f"emissions must be a {k} x V table")
            for row in emissions:
                FiniteDistribution(row)  # validates nonnegativity and normalization
            emissions.setflags(write=False)
            object.__setattr__(self, "emissions", emissions)
        elif self.kind == GAUSSIAN1D:
            if self.means is None or self.variances is None or self.emissions is not None:
                raise ValueError("gaussian1d mixtures take means and variances only")
            means = np.array(self.means, dtype=float, copy=True)
            variances = np.array(self.variances, dtype=float, copy=True)
            if means.shape != (k,) or variances.shape != (k,):
                raise ValueError(f"means and variances must have shape ({k},)")
            if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
                raise ValueError("means and variances must be finite")
            if np.any(variances < VARIANCE_FLOOR):
                raise ValueError(f"variances must be >= {VARIANCE_FLOOR}")
            means.setflags(write=False)
            variances.setflags(write=False)
            object.__setattr__(self, "means", means)
            object.__setattr__(self, "variances", variances)
        else:
            raise ValueError(f"unknown mixture kind {self.kind!r}")

    @classmethod
    def categorical(cls, weights: FiniteDistribution, emissions) -> "MixtureModel":
        return cls(weights, CATEGORICAL, emissions=np.asarray(emissions, dtype=float))

    @classmethod
    def gaussian1d(cls, weights: FiniteDistribution, means, variances) -> "MixtureModel":
        return cls(
            weights,
            GAUSSIAN1D,
            means=np.asarray(means, dtype=float),
            variances=np.asarray(variances, dtype=float),
        )

    @property
    def n_components(self) -> int:
        return self.weights.alphabet_size

    @property
    def n_symbols(self) -> int:
        if self.kind != CATEGORICAL:
            raise ValueError("n_symbols applies to categorical mixtures only")
        return self.emissions.shape[1]

    def to_dict(self) -> dict:
        out = {"weights": self.weights.probs.tolist(), "family": self.kind}
        if self.kind == CATEGORICAL:
            out["emissions"] = self.emissions.tolist()
        else:
            out["emissions"] = {"means": self.means.tolist(), "vars": self.variances.tolist()}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MixtureModel":
        weights = FiniteDistribution(np.asarray(data["weights"], dtype=float))
        family = data["family"]
        if family == CATEGORICAL:
            return cls.categorical(weights, data["emissions"])
        if family == GAUSSIAN1D:
            em = data["emissions"]
            return cls.gaussian1d(weights, em["means"], em["vars"])
        raise ValueError(f"unknown mixture family {family!r}")


def _check_data(model: MixtureModel, data) -> np.ndarray:
    if model.kind == CATEGORICAL:
        y = np.asarray(data)
        if y.ndim != 1 or y.size == 0:
            raise EmptyData("data must be a nonempty vector of symbols")
        y = _symbol_indices(y, "observations")
        if np.any(y < 0) or np.any(y >= model.n_symbols):
            raise ValueError(f"observations must lie in [0, {model.n_symbols})")
        return y
    y = np.asarray(data, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise EmptyData("data must be a nonempty vector of observations")
    if not np.all(np.isfinite(y)):
        raise ValueError("observations must be finite")
    return y


def _arrays(model: MixtureModel):
    """(weights, theta) of a model; theta is (emissions, means, variances),
    the dataclass's fields, with None for the other family's."""
    return model.weights.probs, (model.emissions, model.means, model.variances)


def _log_joint(weights: np.ndarray, theta, y: np.ndarray) -> np.ndarray:
    """n x K table of log(weight_k * p_k(y_i)); -inf marks zero probability."""
    emissions, means, variances = theta
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
        if emissions is not None:
            log_dens = np.log(emissions[:, y]).T
        else:
            diff = y[:, None] - means[None, :]
            log_dens = -0.5 * (_LOG_2PI + np.log(variances)[None, :]) - diff**2 / (2.0 * variances[None, :])
    return log_w[None, :] + log_dens


def _responsibilities(probs: np.ndarray, row_log_lik: np.ndarray) -> np.ndarray:
    """The E-step table from gibbs(_log_joint); an impossible row is an error."""
    if not (row_log_lik > -np.inf).all():
        bad = int(np.nonzero(row_log_lik == -np.inf)[0][0])
        raise ValueError(f"observation {bad} has zero probability under every component")
    return probs


def marginal_log_likelihood(model: MixtureModel, data) -> float:
    """sum_i log sum_k weight_k p_k(y_i), each inner sum max-shifted."""
    return float(gibbs(_log_joint(*_arrays(model), _check_data(model, data)))[1].sum())


def e_step(model: MixtureModel, data) -> np.ndarray:
    """Posterior over components for each observation (Bayes rule per row):
    an n x K array whose rows sum to 1."""
    return _responsibilities(*gibbs(_log_joint(*_arrays(model), _check_data(model, data))))


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
    weights, theta = _m_step(_arrays(model)[1], y, r)
    return MixtureModel(FiniteDistribution(weights), model.kind, *theta)


def _m_step(theta, y: np.ndarray, r: np.ndarray):
    """m_step's arithmetic on checked observations and an n x K table:
    (weights, theta) from the previous theta."""
    emissions, means, variances = theta
    mass = r.sum(axis=0)
    degenerate = mass < DEGENERATE_MASS
    if degenerate.any():
        warnings.warn(
            f"components {np.nonzero(degenerate)[0].tolist()} received no responsibility mass; "
            "keeping their previous parameters",
            DegenerateComponentWarning,
            stacklevel=3,
        )
    weights = np.maximum(mass, DEGENERATE_MASS)
    weights = weights / weights.sum()
    safe_mass = np.where(degenerate, 1.0, mass)
    if emissions is not None:
        one_hot = np.zeros((y.size, emissions.shape[1]))
        one_hot[np.arange(y.size), y] = 1.0
        new_emissions = (r.T @ one_hot) / safe_mass[:, None]
        new_emissions[degenerate] = emissions[degenerate]
        return weights, (new_emissions, None, None)
    new_means = (r * y[:, None]).sum(axis=0) / safe_mass
    sq = (r * (y[:, None] - new_means[None, :]) ** 2).sum(axis=0) / safe_mass
    new_variances = np.where(degenerate, variances, np.maximum(sq, VARIANCE_FLOOR))
    return weights, (None, np.where(degenerate, means, new_means), new_variances)


def em_fit(init: MixtureModel, data, tol: float = 1e-8, max_iter: int = 500):
    """Alternate E and M steps until the marginal log-likelihood moves by
    less than tol. Returns (model, trace) with one trace entry per M-step;
    the trace is nondecreasing up to rounding. The loop runs on arrays; the
    model is built once, at exit."""
    y = _check_data(init, data)
    weights, theta = _arrays(init)
    probs, row_log_lik = gibbs(_log_joint(weights, theta, y))
    previous = float(row_log_lik.sum())
    trace = []
    for _ in range(int(max_iter)):
        weights, theta = _m_step(theta, y, _responsibilities(probs, row_log_lik))
        # This E-step serves both the trace entry and the next M-step.
        probs, row_log_lik = gibbs(_log_joint(weights, theta, y))
        current = float(row_log_lik.sum())
        trace.append(current)
        if abs(current - previous) < tol:
            break
        previous = current
    return MixtureModel(FiniteDistribution(weights), init.kind, *theta), np.array(trace)


def default_init(data, n_components: int, kind: str, seed: int = 0, n_symbols: int | None = None) -> MixtureModel:
    """Deterministic starting point for em_fit.

    Categorical emissions are smoothed empirical frequencies with a small
    seeded perturbation per component (identical rows would make EM a fixed
    point by symmetry); Gaussian means come from evenly spaced data
    quantiles with the pooled variance.
    """
    k = int(n_components)
    if k < 1:
        raise ValueError("n_components must be >= 1")
    weights = FiniteDistribution.uniform(k)
    rng = np.random.default_rng(seed)
    if kind == CATEGORICAL:
        y = _symbol_indices(data, "observations")
        if y.size == 0:
            raise EmptyData("data must be nonempty")
        v = int(n_symbols) if n_symbols is not None else int(y.max()) + 1
        freq = np.bincount(y, minlength=v).astype(float) + 1e-3
        freq /= freq.sum()
        rows = freq[None, :] * (1.0 + 0.1 * rng.random((k, v)))
        rows /= rows.sum(axis=1, keepdims=True)
        return MixtureModel.categorical(weights, rows)
    if kind == GAUSSIAN1D:
        y = np.asarray(data, dtype=float)
        if y.size == 0:
            raise EmptyData("data must be nonempty")
        means = np.quantile(y, (np.arange(k) + 1.0) / (k + 1.0))
        pooled = max(float(y.var()), VARIANCE_FLOOR)
        return MixtureModel.gaussian1d(weights, means, np.full(k, pooled))
    raise ValueError(f"unknown mixture kind {kind!r}")
