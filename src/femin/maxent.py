"""Maximum-entropy model selection under moment constraints.

Given per-symbol feature tables f_k and targets alpha_k, finds the
entropy-maximizing distribution with E_q[f_k] = alpha_k by maximizing the
concave dual

    d(lambda) = lambda @ alpha - log sum_x exp(sum_k lambda_k f_k(x))

with damped Newton steps. The optimizer is the exponential-family member
q(x) proportional to exp(sum_k lambda_k f_k(x)). Targets on the boundary of
the feasible hull are rejected: no finite lambda represents them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NotConverged
from .simplex import FiniteDistribution, _check_count, gibbs, log_sum_exp


@dataclass(frozen=True)
class MomentConstraint:
    """Feature values over the alphabet and the required expectation."""

    feature: np.ndarray
    target: float

    def __post_init__(self):
        feature = np.array(self.feature, dtype=float, copy=True)
        if feature.ndim != 1 or feature.size < 1:
            raise ValueError("feature must be a nonempty vector")
        if not np.all(np.isfinite(feature)):
            raise ValueError("feature values must be finite")
        target = float(self.target)
        if not np.isfinite(target):
            raise ValueError("target must be finite")
        feature.setflags(write=False)
        object.__setattr__(self, "feature", feature)
        object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-constraint interval checks plus joint feasibility.

    ``violated`` lists 0-based indices of constraints whose target falls
    outside the open interval (min f_k, max f_k). ``jointly_feasible`` is
    true when some strictly positive distribution meets every target.
    """

    marginal_ok: tuple
    jointly_feasible: bool
    violated: tuple

    @property
    def feasible(self) -> bool:
        return all(self.marginal_ok) and self.jointly_feasible


@dataclass(frozen=True)
class MaxEntSolution:
    lambdas: np.ndarray
    q: FiniteDistribution
    iterations: int
    residual: float
    dual_trace: np.ndarray  # dual value after each accepted update


def _stack_features(constraints):
    if len({c.feature.size for c in constraints}) > 1:
        raise ValueError("all features must share the alphabet size")
    features = np.vstack([c.feature for c in constraints])
    targets = np.array([c.target for c in constraints], dtype=float)
    return features, targets


def check_feasibility(constraints) -> FeasibilityReport:
    """Check that each target is strictly inside its feature's value range,
    and (for two or more constraints) that a strictly positive distribution
    can satisfy all targets at once, via a small linear program maximizing
    the minimum coordinate."""
    if len(constraints) == 0:
        return FeasibilityReport((), True, ())
    features, targets = _stack_features(constraints)
    marginal_ok = tuple(
        bool(features[k].min() < targets[k] < features[k].max()) for k in range(len(constraints))
    )
    violated = tuple(k for k, ok in enumerate(marginal_ok) if not ok)
    if not all(marginal_ok):
        return FeasibilityReport(marginal_ok, False, violated)
    if len(constraints) == 1:
        return FeasibilityReport(marginal_ok, True, violated)

    # Imported here: scipy.optimize is most of femin's import time, and only
    # this linear program needs it.
    from scipy.optimize import linprog

    # maximize t subject to F q = alpha, sum(q) = 1, q_i >= t; the optimum is
    # positive exactly when the targets sit in the relative interior.
    m, n = features.shape
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    a_eq = np.zeros((m + 1, n + 1))
    a_eq[:m, :n] = features
    a_eq[m, :n] = 1.0
    b_eq = np.concatenate([targets, [1.0]])
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    b_ub = np.zeros(n)
    bounds = [(0.0, 1.0)] * n + [(None, 1.0)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    jointly = bool(res.status == 0 and -res.fun > 1e-12)
    return FeasibilityReport(marginal_ok, jointly, violated)


def solve_maxent(constraints, alphabet_size: int, tol: float = 1e-8, max_iter: int = 200) -> MaxEntSolution:
    """Fit the max-entropy distribution matching the given moments.

    Damped Newton on the dual: gradient alpha - E_q[f], Hessian -Cov_q(f),
    with step halving until the dual increases; falls back to a fixed-step
    gradient ascent when the covariance is numerically singular. Raises
    Infeasible for targets outside (or on the boundary of) the feasible
    hull and NotConverged when max_iter is exhausted.
    """
    n_x = int(alphabet_size)
    if n_x < 1:
        raise ValueError("alphabet_size must be >= 1")
    max_iter = _check_count(max_iter, "max_iter", 0)
    m = len(constraints)
    if m == 0:
        return MaxEntSolution(
            np.zeros(0), FiniteDistribution.uniform(n_x), 0, 0.0, np.array([-np.log(n_x)])
        )
    if m > n_x - 1:
        raise ValueError(f"at most {n_x - 1} constraints supported on {n_x} symbols, got {m}")
    features, targets = _stack_features(constraints)
    if features.shape[1] != n_x:
        raise ValueError(f"features are over {features.shape[1]} symbols, expected {n_x}")
    report = check_feasibility(constraints)
    if not report.feasible:
        raise Infeasible(
            f"targets not strictly inside the feasible hull (violated constraints: {list(report.violated)})",
            report=report,
        )

    def dual(lam):
        return float(lam @ targets - log_sum_exp(lam @ features))

    fallback_step = 1.0 / float((features * features).sum(axis=0).max())
    lam = np.zeros(m)
    dual_trace = [dual(lam)]
    residual = np.inf
    for iteration in range(max_iter):
        q = gibbs(lam @ features)[0]
        mean_f = features @ q
        grad = targets - mean_f
        residual = float(np.abs(grad).max())
        if residual <= tol:
            return MaxEntSolution(
                lam, FiniteDistribution(q), iteration, residual, np.array(dual_trace)
            )
        cov = (features * q) @ features.T - np.outer(mean_f, mean_f)
        eigvals = np.linalg.eigvalsh(cov)
        well_conditioned = eigvals[-1] > 0 and eigvals[0] / eigvals[-1] >= 1e-12
        if well_conditioned:
            direction = np.linalg.solve(cov, grad)
        else:
            direction = fallback_step * grad
        current = dual_trace[-1]
        step = 1.0
        for _ in range(60):
            candidate = dual(lam + step * direction)
            if candidate > current:
                break
            step *= 0.5
        else:
            # Newton direction made no progress at any damping; take the
            # safe gradient step instead.
            direction = fallback_step * grad
            step = 1.0
            candidate = dual(lam + direction)
        lam = lam + step * direction
        dual_trace.append(candidate)
    raise NotConverged(
        f"moment residual {residual:.3e} > tol {tol:.3e} after {max_iter} iterations",
        residual=residual,
        iterations=max_iter,
    )
