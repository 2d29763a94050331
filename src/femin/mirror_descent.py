"""Local optimization over the probability simplex.

Two geometries: plain Euclidean gradient steps (followed by Euclidean
projection back onto the simplex, so the comparison with the multiplicative
method is fair), and the normalized exponentiated gradient update

    q'(x) proportional to q(x) * exp(-alpha * grad_x),

the kl closed form at the iterate with loss = grad and T = 1/alpha, i.e.
mirror descent in the KL geometry; both steps run through the closed forms' tilt.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FlooringWarning, NonFinite, ZeroCoordinate
from .free_energy import HALF_SQ_L2, KL_TO_PRIOR, _project, _tilt
from .simplex import FiniteDistribution, _as_readonly_vector, _check_count, _positive, _require_same_size

# Smallest iterate coordinate for the multiplicative method.
PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class ObjectiveOracle:
    """Differentiable objective on (a neighborhood of) the simplex.

    evaluate(x) returns (value, gradient). The built-in oracles of
    make_oracle have exact gradients; check a hand-built one against central
    finite differences with validate_gradient before use.
    """

    dimension: int
    evaluate: Callable
    descriptor: str


def validate_gradient(oracle: ObjectiveOracle) -> None:
    """Check the oracle's gradient against central finite differences of step h at 20
    seeded random interior simplex points; raises ValueError above relative error rel_tol."""
    h, rel_tol = 1e-6, 1e-4
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.dirichlet(np.full(oracle.dimension, 5.0))
        x = 0.9 * x + 0.1 / oracle.dimension  # keep safely interior
        _, grad = oracle.evaluate(x)
        fd = np.empty(oracle.dimension)
        for i in range(oracle.dimension):
            bump = np.zeros(oracle.dimension)
            bump[i] = h
            fd[i] = (oracle.evaluate(x + bump)[0] - oracle.evaluate(x - bump)[0]) / (2.0 * h)
        scale = max(np.abs(grad).max(), np.abs(fd).max(), 1.0)
        err = np.abs(np.asarray(grad) - fd).max() / scale
        if err > rel_tol:
            raise ValueError(
                f"oracle {oracle.descriptor!r}: gradient disagrees with finite differences "
                f"(relative error {err:.2e} > {rel_tol:.0e})"
            )


def _linear_oracle(l) -> ObjectiveOracle:
    l = _as_readonly_vector(l, "l")

    def evaluate(x):
        return float(l @ x), l.copy()

    return ObjectiveOracle(l.size, evaluate, "linear")


def _quadratic_to_target_oracle(target) -> ObjectiveOracle:
    target = _as_readonly_vector(target, "target")
    with np.errstate(over="ignore"):  # 0.5 ||x - target||^2 <= this on the simplex
        if not np.isfinite(0.5 * np.square(np.abs(target) + 1.0).sum()):
            raise ValueError("target too large: 0.5 ||x - target||^2 overflows on the simplex")

    def evaluate(x):
        diff = np.asarray(x, dtype=float) - target
        return float(0.5 * (diff @ diff)), diff

    return ObjectiveOracle(target.size, evaluate, "quadratic-to-target")


def _entropy_regularized_linear_oracle(l, reg=0.1) -> ObjectiveOracle:
    # l @ x + T sum x log x at the temperature T = reg; needs strictly positive
    # points, intended for the multiplicative method.
    l = _as_readonly_vector(l, "l")
    reg = _positive(reg, "reg")

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):  # 0 log 0 = 0, log 0 = -inf
            log_x = np.log(x)
            return float(l @ x + reg * (x * np.where(x == 0.0, 0.0, log_x)).sum()), l + reg * (1.0 + log_x)

    return ObjectiveOracle(l.size, evaluate, "entropy-regularized-linear")


_ORACLE_BUILDERS = {
    "linear": _linear_oracle,
    "quadratic-to-target": _quadratic_to_target_oracle,
    "entropy-regularized-linear": _entropy_regularized_linear_oracle,
}


def make_oracle(descriptor: str, *args, **kwargs) -> ObjectiveOracle:
    """Build a named built-in oracle from its vector (l or target: nonempty,
    one-dimensional, finite) and, for entropy-regularized-linear, reg. Its
    gradient is exact, so it is not run through validate_gradient."""
    if descriptor not in _ORACLE_BUILDERS:
        raise ValueError(f"unknown oracle {descriptor!r}; known: {sorted(_ORACLE_BUILDERS)}")
    return _ORACLE_BUILDERS[descriptor](*args, **kwargs)


def project_to_simplex(v) -> FiniteDistribution:
    """Euclidean projection of a nonempty finite vector: clip at the pivot and renormalize
    v - max v, as a common shift changes nothing; an entry that overflows is a zero weight."""
    v = _as_readonly_vector(v, "v")
    with np.errstate(over="ignore"):
        return FiniteDistribution._owned(_project(v - v.max())[0])


def neg_step(q: FiniteDistribution, grad, alpha: float) -> FiniteDistribution:
    """Normalized exponentiated gradient update, computed in log space.

    Bit for bit the KL-penalized closed-form minimizer at prior q, loss
    grad, and temperature 1/alpha.
    """
    if np.any(q.probs <= 0):
        raise ZeroCoordinate("multiplicative updates need a strictly positive iterate")
    grad = np.asarray(grad, dtype=float)
    if grad.shape != q.probs.shape:
        raise ValueError(f"grad has shape {grad.shape}, expected {q.probs.shape}")
    alpha = _positive(alpha, "alpha")  # T = 1/alpha must be finite and > 0
    return FiniteDistribution._owned(_tilt(KL_TO_PRIOR, q.probs, grad, 1.0 / alpha)[0])


@dataclass(frozen=True)
class DescentTrace:
    iterates: np.ndarray  # read-only (k, n), one row per accepted iterate, x0 first
    values: np.ndarray
    step_sizes: np.ndarray  # one per accepted step


def run_descent(
    oracle: ObjectiveOracle,
    x0: FiniteDistribution,
    method: str = "neg",
    step_size: float = 0.1,
    schedule: str = "constant",
    max_iter: int = 1000,
    tol: float = 1e-10,
) -> DescentTrace:
    """Iterate the chosen update until the objective moves by less than tol.

    Both methods stay on the simplex: the multiplicative method by
    construction (log-weights, renormalized and floored at 1e-300 each
    step), the Euclidean method via projection after each step. The
    backtracking schedule halves the step until it achieves sufficient
    decrease; if the candidate left after 30 halvings raises the value, it
    is rejected and the descent stops. A candidate that fails to move the
    value by tol is discarded, so a start at a stationary point leaves a
    trace of length 1. The iterates come back as one read-only array.
    """
    if method not in ("neg", "euclidean"):
        raise ValueError(f"method must be 'neg' or 'euclidean', got {method!r}")
    if schedule not in ("constant", "inv_sqrt", "backtracking"):
        raise ValueError(f"unknown schedule {schedule!r}")
    step_size = _positive(step_size, "step_size")
    max_iter = _check_count(max_iter, "max_iter", 0)
    _require_same_size(x0.alphabet_size, oracle.dimension, "x0 and oracle")
    if method == "neg" and np.any(x0.probs <= 0):
        raise ZeroCoordinate("the multiplicative method needs a strictly positive start")

    current = x0.probs
    value, grad = oracle.evaluate(current)
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        raise NonFinite("objective is non-finite at the starting point")
    iterates = [current]
    values = [float(value)]
    step_sizes = []
    floored = False

    def advance(x: np.ndarray, g, alpha: float) -> np.ndarray:
        nonlocal floored
        probs = _tilt(HALF_SQ_L2 if method == "euclidean" else KL_TO_PRIOR, x, g, 1.0 / alpha)[0]
        if method == "euclidean":
            return probs
        if np.any(probs < PROB_FLOOR):
            floored = True
            probs = np.maximum(probs, PROB_FLOOR)
        return probs / probs.sum()

    def result() -> DescentTrace:
        points = np.array(iterates)
        points.setflags(write=False)
        return DescentTrace(points, np.array(values), np.array(step_sizes))

    for iteration in range(1, max_iter + 1):
        alpha = float(step_size / np.sqrt(iteration)) if schedule == "inv_sqrt" else step_size
        candidate = advance(current, grad, alpha)
        cand_value, cand_grad = oracle.evaluate(candidate)
        if schedule == "backtracking":
            grad_sq = float(np.asarray(grad) @ np.asarray(grad))
            for _ in range(30):
                if cand_value <= value - 1e-4 * alpha * grad_sq:
                    break
                alpha *= 0.5
                candidate = advance(current, grad, alpha)
                cand_value, cand_grad = oracle.evaluate(candidate)
        if not (np.isfinite(cand_value) and np.all(np.isfinite(cand_grad))):
            raise NonFinite("objective became non-finite during descent", trace=result())
        if abs(cand_value - value) < tol or (schedule == "backtracking" and cand_value > value):
            break
        current, value, grad = candidate, float(cand_value), cand_grad
        iterates.append(current)
        values.append(value)
        step_sizes.append(alpha)

    if floored:
        warnings.warn(
            "iterate coordinates were floored at 1e-300 to keep log-weights representable",
            FlooringWarning,
            stacklevel=2,
        )
    return result()
