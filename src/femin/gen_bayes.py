"""Exact posteriors, log-partition functions, the evidence lower bound, and
generalized posteriors on finite alphabets.

An unnormalized model stores log weights only: partition sums with dynamic
range far beyond 1e300 are routine, and symbols carrying zero weight must be
pruned from the alphabet before construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .free_energy import ComplexityPenalty, FreeEnergyProblem, minimize_closed_form
from .simplex import FiniteDistribution, LossVector, entropy, gibbs, log_sum_exp
from .simplex import _as_readonly_table, _as_readonly_vector, _check_count, _kl_sum, _require_same_size


@dataclass(frozen=True)
class UnnormalizedModel:
    """log of an unnormalized distribution over a finite alphabet."""

    log_tilde_p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "log_tilde_p", _as_readonly_vector(self.log_tilde_p, "log_tilde_p"))

    @property
    def alphabet_size(self) -> int:
        return self.log_tilde_p.size


def log_partition(model: UnnormalizedModel) -> float:
    """log Z = log sum_x p~(x)."""
    return log_sum_exp(model.log_tilde_p)


def posterior(model: UnnormalizedModel) -> FiniteDistribution:
    """The normalized distribution p(x) = p~(x) / Z, computed in log space."""
    return FiniteDistribution._owned(gibbs(model.log_tilde_p)[0])


def elbo(model: UnnormalizedModel, q: FiniteDistribution) -> float:
    """E_{x~q}[log p~(x)] + H(q).

    Lower-bounds log Z, with equality exactly at the posterior; the gap is
    KL(q || posterior).
    """
    _require_same_size(q.alphabet_size, model.alphabet_size, "q and model")
    return float(q.probs @ model.log_tilde_p) + entropy(q)


def generalized_posterior(prior: FiniteDistribution, loss: LossVector, temperature: float) -> FiniteDistribution:
    """q(x) proportional to prior(x) * exp(-L(x)/T).

    Thin wrapper over the KL-penalized free-energy minimizer; reduces to the
    exact Bayesian posterior for the log loss at T = 1.
    """
    problem = FreeEnergyProblem(loss, temperature, ComplexityPenalty.kl_to_prior(prior))
    return minimize_closed_form(problem).q_opt


def mean_field_coordinate_ascent(log_joint: np.ndarray, sweeps: int = 20):
    """Mean-field variational fit of a product q1(x1) q2(x2) to a two-variable
    unnormalized model given as a log-weight table.

    Each sweep updates q1 proportional to exp(E_{q2}[log p~(x1, .)]) and then
    q2 symmetrically, so the evidence lower bound never decreases per sweep.
    Returns (q1, q2, elbo_trace); the ELBO of the product is
    q1 @ log p~ @ q2 + H(q1) + H(q2).
    """
    sweeps = _check_count(sweeps, "sweeps", 0)
    table = _as_readonly_table(log_joint, "log_joint")
    q1 = np.full(table.shape[0], 1.0 / table.shape[0])
    q2 = np.full(table.shape[1], 1.0 / table.shape[1])

    def product_elbo():
        return float(q1 @ table @ q2 - _kl_sum(q1) - _kl_sum(q2))

    trace = [product_elbo()]
    for _ in range(sweeps):
        q1 = gibbs(table @ q2)[0]
        q2 = gibbs(q1 @ table)[0]
        trace.append(product_elbo())
    return FiniteDistribution._owned(q1), FiniteDistribution._owned(q2), np.array(trace)
