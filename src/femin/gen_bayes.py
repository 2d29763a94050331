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


@dataclass(frozen=True)
class UnnormalizedModel:
    """log of an unnormalized distribution over a finite alphabet."""

    log_tilde_p: np.ndarray

    def __post_init__(self):
        lw = np.array(self.log_tilde_p, dtype=float, copy=True)
        if lw.ndim != 1 or lw.size < 1:
            raise ValueError("log_tilde_p must be a nonempty vector")
        if not np.all(np.isfinite(lw)):
            raise ValueError(
                "log_tilde_p must be finite; drop zero-weight symbols from the alphabet"
            )
        lw.setflags(write=False)
        object.__setattr__(self, "log_tilde_p", lw)

    @property
    def alphabet_size(self) -> int:
        return self.log_tilde_p.size

    def to_dict(self) -> dict:
        return {"log_tilde_p": self.log_tilde_p.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "UnnormalizedModel":
        return cls(np.asarray(data["log_tilde_p"], dtype=float))


def log_partition(model: UnnormalizedModel) -> float:
    """log Z = log sum_x p~(x)."""
    return log_sum_exp(model.log_tilde_p)


def posterior(model: UnnormalizedModel) -> FiniteDistribution:
    """The normalized distribution p(x) = p~(x) / Z, computed in log space."""
    return FiniteDistribution(gibbs(model.log_tilde_p)[0])


def elbo(model: UnnormalizedModel, q: FiniteDistribution) -> float:
    """E_{x~q}[log p~(x)] + H(q).

    Lower-bounds log Z, with equality exactly at the posterior; the gap is
    KL(q || posterior).
    """
    if q.alphabet_size != model.alphabet_size:
        raise ValueError(f"q has {q.alphabet_size} symbols, model has {model.alphabet_size}")
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
    Returns (q1, q2, elbo_trace).
    """
    table = np.asarray(log_joint, dtype=float)
    if table.ndim != 2:
        raise ValueError("log_joint must be a 2-D table")
    if not np.all(np.isfinite(table)):
        raise ValueError("log_joint must be finite")
    flat_model = UnnormalizedModel(table.ravel())
    q1 = FiniteDistribution.uniform(table.shape[0])
    q2 = FiniteDistribution.uniform(table.shape[1])

    def product_elbo():
        joint_q = FiniteDistribution.normalized(np.outer(q1.probs, q2.probs).ravel())
        return elbo(flat_model, joint_q)

    trace = [product_elbo()]
    for _ in range(int(sweeps)):
        q1 = FiniteDistribution(gibbs(table @ q2.probs)[0])
        q2 = FiniteDistribution(gibbs(q1.probs @ table)[0])
        trace.append(product_elbo())
    return q1, q2, np.array(trace)
