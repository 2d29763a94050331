"""Maximum-entropy model selection under moment constraints.

Given per-symbol feature tables f_k and targets alpha_k, finds the
entropy-maximizing distribution with E_q[f_k] = alpha_k by maximizing the
concave dual over the features centred at their targets (the I-projection
form, Csiszar 1975), so a common offset in f_k and alpha_k costs no digits,

    d(lambda) = -log sum_x exp(sum_k lambda_k (f_k(x) - alpha_k)),

with damped Newton steps. The optimizer is the exponential-family member
q(x) proportional to exp(sum_k lambda_k f_k(x)). A step is taken whole once
its gain is within 2 eps_mach |d|, the rounding of two duals.

One constraint passes the interval test exactly when its target is strictly
inside the feature's range or every f(x) is within eps (below) of it. For
more, the same loop decides joint feasibility, with a certificate either
way. Feasible: the returned q > 0 meets every moment within tol.
Infeasible: a unit d with

    max_x d @ (f(x) - alpha) <= eps  and  min_x d @ (f(x) - alpha) < -eps,

eps = tol * (1 + max |f|), so alpha is outside the hull of the f(x) or
within eps of its relative boundary (Stiemke's alternative). Targets that
close to the boundary may end Infeasible or NotConverged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NotConverged
from .simplex import FiniteDistribution, gibbs
from .simplex import _as_readonly_vector, _check_count, _require_same_size


@dataclass(frozen=True)
class MomentConstraint:
    """Feature values over the alphabet and the required expectation."""

    feature: np.ndarray
    target: float

    def __post_init__(self):
        target = float(self.target)
        if not np.isfinite(target):
            raise ValueError("target must be finite")
        object.__setattr__(self, "feature", _as_readonly_vector(self.feature, "feature"))
        object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-constraint interval checks plus joint feasibility.

    ``violated`` lists 0-based indices of constraints whose target is outside
    (min f_k, max f_k) and f_k is not within eps of it at every symbol.
    ``jointly_feasible`` is true when the dual Newton loop found a q > 0
    meeting every target within tol. ``certificate`` is None when feasible, else the unit d of the
    module docstring: +-e_k for the first failed interval check, or the loop's."""

    marginal_ok: tuple
    jointly_feasible: bool
    violated: tuple
    certificate: tuple | None = None

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


def _stack_features(constraints, tol):
    """(f - alpha, eps) of the certificate's test (module docstring) and Newton's
    fallback step 1 / max_x |f(x)|^2, floored at the smallest normal double."""
    for k, c in enumerate(constraints):
        what = f"all features must share the alphabet size; features 0 and {k}"
        _require_same_size(constraints[0].feature.size, c.feature.size, what)
    features = np.vstack([c.feature for c in constraints])
    with np.errstate(over="ignore"):
        largest = float((features * features).sum(axis=0).max())
    if largest == np.inf:
        raise ValueError("features too large: their squares summed over the constraints overflow at a symbol")
    targets = np.array([c.target for c in constraints], dtype=float)[:, None]
    return features - targets, tol * (1.0 + float(np.abs(features).max())), 1.0 / max(largest, np.finfo(float).tiny)


def _interval_report(shifted, eps) -> FeasibilityReport:
    """Flags constraint k when its target is at or past an end of f_k's range and +-e_k
    meets the certificate's test, so a feature within eps of its target at every symbol is met."""
    low, high = shifted.min(axis=1), shifted.max(axis=1)
    above = (high <= 0.0) & (low < -eps)
    flagged = above | ((low >= 0.0) & (high > eps))
    violated, marginal_ok = tuple(np.flatnonzero(flagged).tolist()), tuple((~flagged).tolist())
    if not violated:
        return FeasibilityReport(marginal_ok, True, violated)
    d = np.zeros(len(shifted))
    d[violated[0]] = 1.0 if above[violated[0]] else -1.0
    return FeasibilityReport(marginal_ok, False, violated, tuple(d.tolist()))


def _infeasible(report: FeasibilityReport) -> Infeasible:
    message = f"targets not strictly inside the feasible hull (violated constraints: {list(report.violated)})"
    return Infeasible(message, report=report)


def _raise_if_separating(shifted, candidates, eps):
    """Raise Infeasible with the first of +-candidates that, at unit length,
    meets the certificate's test (module docstring)."""
    d = np.array(candidates)
    norms = np.linalg.norm(d, axis=1)
    d = d[norms > 0.0] / norms[norms > 0.0, None]
    d = np.vstack([d, -d])
    g = d @ shifted
    hits = np.flatnonzero((g.max(axis=1) <= eps) & (g.min(axis=1) < -eps))
    if hits.size:
        raise _infeasible(FeasibilityReport((True,) * len(shifted), False, (), tuple(d[hits[0]].tolist())))


def _dual_newton(shifted, eps, fallback_step, tol, max_iter):
    """Damped Newton on the dual (module docstring) in shifted = f - alpha from
    lambda = 0: (lambdas, q, iterations, residual, dual trace) once q meets the
    moments within tol. Each step is Cov_q(f)^-1 grad on the covariance's
    eigenvectors, with fallback_step in place of the inverse of each eigenvalue
    at or below 1e-12 of the largest (of all, when the largest is not positive).
    It is halved until the dual rises, or taken whole once its Newton decrement
    is within the dual's rounding; NotConverged if 60 halvings gain nothing.
    Before that, for two or more constraints, Infeasible if lambda or the last
    step separates; lambda does once the dual is above 0, as at a feasible
    target the dual is at most -H(q) <= 0. At that return it also tries both
    projected onto the normals of the face of the symbols with q > sqrt(tol),
    where a boundary target sits."""
    m = len(shifted)
    lam = direction = np.zeros(m)
    q, log_z = gibbs(lam @ shifted)
    dual_trace = [-float(log_z)]
    residual = np.inf
    for iteration in range(max_iter):
        grad = -(shifted @ q)
        residual = float(np.abs(grad).max())
        if m > 1:  # for one constraint the interval check was exact
            candidates = [lam, direction]
            if residual <= tol:
                u, s, _ = np.linalg.svd(shifted[:, q > np.sqrt(tol)])
                off_face = u[:, int((s > 1e-9 * s.max(initial=0.0)).sum()) :]
                candidates += [off_face @ (off_face.T @ c) for c in candidates]
            _raise_if_separating(shifted, candidates, eps)
        if residual <= tol:
            return lam, q, iteration, residual, np.array(dual_trace)
        centred = shifted + grad[:, None]
        vals, vecs = np.linalg.eigh((centred * q) @ centred.T)
        inv = np.divide(1.0, vals, out=np.full(m, fallback_step), where=vals > 1e-12 * max(vals[-1], 0.0))
        direction = vecs @ (inv * (vecs.T @ grad))
        # A full step gains about the Newton decrement grad @ direction / 2 (Boyd &
        # Vandenberghe 9.5). A gain is the difference of two rounded duals -log Z;
        # once the decrement is within that rounding, no halving can show a gain.
        current = dual_trace[-1]
        full_step = grad @ direction / 2 <= 2 * np.finfo(float).eps * abs(current)
        step = 1.0
        for _ in range(60):
            q, log_z = gibbs((lam + step * direction) @ shifted)
            if -log_z > current or full_step:
                break
            step *= 0.5
        else:
            message = f"moment residual {residual:.3e} > tol {tol:.3e}: no halving of the Newton step raises the dual"
            raise NotConverged(message, residual=residual, iterations=iteration)
        lam = lam + step * direction
        dual_trace.append(-float(log_z))
    message = f"moment residual {residual:.3e} > tol {tol:.3e} after {max_iter} iterations"
    raise NotConverged(message, residual=residual, iterations=max_iter)


def check_feasibility(constraints) -> FeasibilityReport:
    """Check that each target is strictly inside its feature's value range
    or within eps of every value, and (for two or more constraints) that
    solve_maxent's loop finds a q > 0 meeting all targets within tol = 1e-8,
    not a certificate (module docstring). Raises NotConverged when it finds
    neither in 200 iterations."""
    if len(constraints) == 0:
        return FeasibilityReport((), True, ())
    shifted, eps, fallback_step = _stack_features(constraints, 1e-8)
    report = _interval_report(shifted, eps)
    if report.feasible and len(constraints) > 1:
        try:
            _dual_newton(shifted, eps, fallback_step, 1e-8, 200)
        except Infeasible as err:
            return err.report
    return report


def solve_maxent(constraints, alphabet_size: int, tol: float = 1e-8, max_iter: int = 200) -> MaxEntSolution:
    """Fit the max-entropy distribution matching the given moments.

    Damped Newton on the dual: gradient alpha - E_q[f], Hessian -Cov_q(f).
    One spectral step serves every covariance: Newton on its range, a fixed
    gradient step off it, halved until the dual increases. Raises
    Infeasible, with a certificate on its report, for targets outside (or
    on the boundary of) the feasible hull, and NotConverged when max_iter is
    exhausted or no halving of a step raises the dual."""
    n_x = _check_count(alphabet_size, "alphabet_size", 1)
    max_iter = _check_count(max_iter, "max_iter", 0)
    if len(constraints) == 0:
        return MaxEntSolution(np.zeros(0), FiniteDistribution.uniform(n_x), 0, 0.0, np.array([-np.log(n_x)]))
    shifted, eps, fallback_step = _stack_features(constraints, tol)
    _require_same_size(shifted.shape[1], n_x, "features and alphabet")
    report = _interval_report(shifted, eps)
    if not report.feasible:
        raise _infeasible(report)
    lam, q, iterations, residual, dual_trace = _dual_newton(shifted, eps, fallback_step, tol, max_iter)
    return MaxEntSolution(lam, FiniteDistribution._owned(q), iterations, residual, dual_trace)
