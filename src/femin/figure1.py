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

from .errors import NonPositivePrior
from .free_energy import NEG_ENTROPY, PENALTY_KINDS, ComplexityPenalty, FreeEnergyProblem, minimize_closed_form
from .simplex import SUPPORT_EPS, FiniteDistribution, LossVector, gibbs
from .simplex import _as_readonly_vector, _check_count, _require_same_size

LOSS_SCALE_MAX = 5.0


def bimodal_loss(x: np.ndarray) -> np.ndarray:
    """Default double-well loss 0.5 (x-1)^2 (x+1.5)^2 (before rescaling)."""
    return 0.5 * (x - 1.0) ** 2 * (x + 1.5) ** 2


def quadratic_loss(x: np.ndarray) -> np.ndarray:
    """Single-well loss (x-1)^2 with a unique minimizer (before rescaling)."""
    return (x - 1.0) ** 2


BUILTIN_LOSSES = {"bimodal": bimodal_loss, "quadratic": quadratic_loss}


def scale_loss(raw: np.ndarray) -> np.ndarray:
    """Affinely map a loss table onto [0, LOSS_SCALE_MAX]; constants map to 0.
    A table whose span max - min exceeds the largest double raises."""
    raw = np.asarray(raw, dtype=float)
    lo, hi = raw.min(), raw.max()
    if hi / 2 - lo / 2 >= 2.0**1023:  # exactly when hi - lo rounds to inf
        raise ValueError(f"loss table span {float(hi)!r} - {float(lo)!r} exceeds the largest double")
    span = hi - lo
    if span == 0.0:
        return np.zeros_like(raw)
    return (raw - lo) * (LOSS_SCALE_MAX / span)


def grid_prior(x: np.ndarray) -> FiniteDistribution:
    """Standard-normal density restricted to the grid and renormalized; an overflowing x**2 is a zero weight."""
    with np.errstate(over="ignore"):
        return FiniteDistribution._owned(gibbs(-0.5 * x**2)[0])


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
        for kind in PENALTY_KINDS:
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
    n_points = _check_count(n_points, "n_points", 10)
    x_min, x_max = float(x_min), float(x_max)
    if not (np.isfinite(x_min) and np.isfinite(x_max) and x_min < x_max):
        raise ValueError(f"need finite x_min < x_max, got {x_min!r}, {x_max!r}")
    temps = tuple(float(t) for t in temperatures)
    if not temps:
        raise ValueError("at least one temperature is required")
    x = np.linspace(x_min, x_max, n_points)
    if isinstance(loss, str):
        if loss not in BUILTIN_LOSSES:
            raise ValueError(f"unknown loss {loss!r}; known: {sorted(BUILTIN_LOSSES)}")
        with np.errstate(over="ignore"):  # an overflow fails the finiteness check below
            loss = BUILTIN_LOSSES[loss](x)
    raw = _as_readonly_vector(loss, "loss on the grid")
    _require_same_size(raw.size, n_points, "loss table and grid")
    table = scale_loss(raw)
    loss_vec = LossVector(table)
    prior = grid_prior(x)
    if (low := float(prior.probs.min())) <= SUPPORT_EPS:  # the kl penalty's check, naming the cause
        raise NonPositivePrior(f"grid prior on [{x_min!r}, {x_max!r}]: min weight {low!r} <= SUPPORT_EPS {SUPPORT_EPS!r}")
    solutions = {}
    for kind in PENALTY_KINDS:
        penalty = ComplexityPenalty(kind, None if kind == NEG_ENTROPY else prior)
        for t in temps:
            solutions[(kind, t)] = minimize_closed_form(FreeEnergyProblem(loss_vec, t, penalty)).q_opt
    return Figure1Table(x, table, prior, temps, solutions)
