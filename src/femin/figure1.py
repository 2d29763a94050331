"""Temperature-sweep data for the three penalties on a discretized line.

Builds a grid over [x_min, x_max], a loss table on it, a standard-normal
prior restricted to the grid, and the optimal distribution for every
(penalty, temperature) pair. At high temperature the entropy-penalized
solution is near uniform while the prior-anchored ones track the prior; at
low temperature all of them pile up near the smallest losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .free_energy import (
    HALF_SQ_L2,
    KL_TO_PRIOR,
    NEG_ENTROPY,
    ComplexityPenalty,
    FreeEnergyProblem,
    minimize_closed_form,
)
from .simplex import FiniteDistribution, LossVector, gibbs

LOSS_SCALE_MAX = 5.0


def bimodal_loss(x: np.ndarray) -> np.ndarray:
    """Default double-well loss 0.5 (x-1)^2 (x+1.5)^2 (before rescaling)."""
    return 0.5 * (x - 1.0) ** 2 * (x + 1.5) ** 2


def quadratic_loss(x: np.ndarray) -> np.ndarray:
    """Single-well loss (x-1)^2 with a unique minimizer (before rescaling)."""
    return (x - 1.0) ** 2


BUILTIN_LOSSES = {"bimodal": bimodal_loss, "quadratic": quadratic_loss}


def scale_loss(raw: np.ndarray) -> np.ndarray:
    """Affinely map a loss table onto [0, LOSS_SCALE_MAX]; constants map to 0."""
    raw = np.asarray(raw, dtype=float)
    span = raw.max() - raw.min()
    if span == 0.0:
        return np.zeros_like(raw)
    return (raw - raw.min()) * (LOSS_SCALE_MAX / span)


def grid_prior(x: np.ndarray) -> FiniteDistribution:
    """Standard-normal density restricted to the grid and renormalized."""
    return FiniteDistribution(gibbs(-0.5 * x**2)[0])


@dataclass(frozen=True)
class Figure1Table:
    x: np.ndarray
    loss: np.ndarray
    prior: FiniteDistribution
    temperatures: tuple
    solutions: dict  # (penalty kind, temperature) -> FiniteDistribution

    def columns(self):
        """Deterministic (name, vector) pairs for CSV export."""
        cols = [("x", self.x), ("loss", self.loss), ("prior", self.prior.probs)]
        for kind in (NEG_ENTROPY, KL_TO_PRIOR, HALF_SQ_L2):
            for t in self.temperatures:
                cols.append((f"q_{kind}_T{t:g}", self.solutions[(kind, t)].probs))
        return cols


def figure1_table(
    x_min: float,
    x_max: float,
    n_points: int,
    temperatures,
    loss="bimodal",
) -> Figure1Table:
    """Solve the free-energy problem for every penalty and temperature.

    `loss` is a built-in name or a per-gridpoint table (rescaled onto
    [0, LOSS_SCALE_MAX] either way).
    """
    n_points = int(n_points)
    if n_points < 10:
        raise ValueError(f"n_points must be >= 10, got {n_points}")
    x_min, x_max = float(x_min), float(x_max)
    if not x_min < x_max:
        raise ValueError(f"need x_min < x_max, got {x_min!r}, {x_max!r}")
    temps = tuple(float(t) for t in temperatures)
    if not temps:
        raise ValueError("at least one temperature is required")
    x = np.linspace(x_min, x_max, n_points)
    if isinstance(loss, str):
        if loss not in BUILTIN_LOSSES:
            raise ValueError(f"unknown loss {loss!r}; known: {sorted(BUILTIN_LOSSES)}")
        raw = BUILTIN_LOSSES[loss](x)
    else:
        raw = np.asarray(loss, dtype=float)
        if raw.shape != x.shape:
            raise ValueError(f"loss table must have {n_points} entries, got {raw.shape}")
    table = scale_loss(raw)
    loss_vec = LossVector(table)
    prior = grid_prior(x)
    penalties = {
        NEG_ENTROPY: ComplexityPenalty.neg_entropy(),
        KL_TO_PRIOR: ComplexityPenalty.kl_to_prior(prior),
        HALF_SQ_L2: ComplexityPenalty.half_sq_l2_to_prior(prior),
    }
    solutions = {}
    for kind, penalty in penalties.items():
        for t in temps:
            problem = FreeEnergyProblem(loss_vec, t, penalty)
            solutions[(kind, t)] = minimize_closed_form(problem).q_opt
    return Figure1Table(x, table, prior, temps, solutions)
