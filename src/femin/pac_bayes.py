"""Gibbs posteriors, the change-of-measure generalization inequality, the
square-root generalization bound for bounded losses, and a Monte Carlo
harness that verifies the bound's coverage.

Hypothesis classes are finite and losses tabular, so test losses, KL terms,
and averaged generalization gaps are all computed exactly; the only source
of randomness in a coverage experiment is the draw of the training sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositivePrior
from .free_energy import KL_TO_PRIOR, _tilt
from .simplex import SUPPORT_EPS, FiniteDistribution, kl_divergence, log_sum_exp
from .simplex import _as_readonly_table, _check_count, _kl_sum, _positive, _require_same_size, _symbol_indices

_MAX_WIDTH = float(np.sqrt(np.finfo(float).max))
_BLOCK_CELLS = 1 << 16  # loss-table cells a block of trials gathers: memory is bounded for any trial count


@dataclass(frozen=True)
class LearningProblem:
    """Finite hypothesis class with a bounded tabular loss.

    loss_table[x, z] is the loss of hypothesis x on data symbol z and must
    lie in [a, b] for every pair. The data-generating distribution is known
    synthetically: it is used only to evaluate exact test losses and to
    sample training sets.
    """

    loss_table: np.ndarray
    a: float
    b: float
    prior: FiniteDistribution
    data_model: FiniteDistribution

    def __post_init__(self):
        table = _as_readonly_table(self.loss_table, "loss_table")
        a, b = _check_range(self.a, self.b)
        if table.min() < a or table.max() > b:
            raise ValueError("every loss must lie in [a, b]")
        _require_same_size(self.prior.alphabet_size, table.shape[0], "prior and loss_table rows")
        _require_same_size(self.data_model.alphabet_size, table.shape[1], "data_model and loss_table columns")
        if np.any(self.prior.probs <= SUPPORT_EPS):
            raise NonPositivePrior("prior over hypotheses must be strictly positive")
        object.__setattr__(self, "loss_table", table)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_hypotheses(self) -> int:
        return self.loss_table.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.loss_table.shape[1]


def _check_range(a, b) -> tuple[float, float]:
    """The loss range as floats: finite a < b whose (b - a)^2 is finite, so the bound is finite for any finite kl."""
    a, b = float(a), float(b)
    if not (np.isfinite(a) and a < b and b - a <= _MAX_WIDTH):
        raise ValueError(f"need finite a < b with a finite (b - a)^2, got a={a!r}, b={b!r}")
    return a, b


def _check_delta(delta) -> float:
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return delta


def training_losses(problem: LearningProblem, s) -> np.ndarray:
    """Empirical loss of every hypothesis on the sample: (1/m) sum_i l(x, z_i)."""
    samples = _symbol_indices(s, "training set", problem.n_outcomes)
    return problem.loss_table[:, samples].mean(axis=1)


def test_losses(problem: LearningProblem) -> np.ndarray:
    """Exact expected loss of every hypothesis under the data model."""
    return problem.loss_table @ problem.data_model.probs


def gibbs_posterior(problem: LearningProblem, s, beta: float) -> FiniteDistribution:
    """Minimizer of E_q[train loss] + (1/beta) KL(q || prior):
    q(x) proportional to prior(x) exp(-beta * train_loss(x)), bit for bit
    the kl closed form of minimize_closed_form at T = 1/beta."""
    beta = _positive(beta, "beta")
    train = training_losses(problem, s)
    return FiniteDistribution._owned(_tilt(KL_TO_PRIOR, problem.prior.probs, train, 1.0 / beta)[0])


def dv_check(problem: LearningProblem, q: FiniteDistribution, s, beta: float):
    """Both sides of the change-of-measure inequality on the generalization gap.

    lhs = E_{x~q}[beta * (test - train)(x)],
    rhs = KL(q || prior) + log E_{x~prior}[exp(beta * (test - train)(x))];
    lhs <= rhs for every q absolutely continuous w.r.t. the prior.
    """
    beta = _positive(beta, "beta")
    gaps = test_losses(problem) - training_losses(problem, s)
    lhs = float(q.probs @ (beta * gaps))
    rhs = kl_divergence(q, problem.prior) + log_sum_exp(np.log(problem.prior.probs) + beta * gaps)
    return lhs, float(rhs)


def pac_bayes_bound(kl: float, m: int, delta: float, a: float, b: float) -> float:
    """(b - a) * sqrt((kl + log(1/delta)) / (2m)), finite for any finite kl.

    High-probability (1 - delta) bound on the averaged generalization gap of
    any posterior with the given KL to the prior, for losses in [a, b].
    """
    kl = float(kl)
    if kl < 0 or not np.isfinite(kl):
        raise ValueError(f"kl must be finite and >= 0, got {kl!r}")
    m = _check_count(m, "m", 1)
    delta = _check_delta(delta)
    a, b = _check_range(a, b)
    return float(_bound(kl, m, delta, a, b))


def _bound(kl, m: int, delta: float, a: float, b: float):  # kl a float or an array
    return (b - a) * np.sqrt((kl - np.log(delta)) / (2.0 * m))


@dataclass(frozen=True)
class CoverageReport:
    violation_rate: float
    mean_gap: float
    mean_bound: float
    n_violations: int
    trials: int
    seed: int
    beta: float
    m: int
    delta: float


def coverage_experiment(
    problem: LearningProblem, beta: float, m: int, delta: float, trials: int, seed: int
) -> CoverageReport:
    """Draw `trials` training sets, learn the Gibbs posterior on each, and
    count how often the exact averaged gap exceeds the bound at level delta.

    The per-trial generator is derived from (seed, trial index), so trials
    are reproducible independently of execution order. The observed
    violation rate should stay within binomial slack of delta. Trials run in
    blocks, one Gibbs tilt each, bit for bit as per-trial gibbs_posterior
    and kl_divergence calls."""
    trials = _check_count(trials, "trials", 100)  # fewer give no meaningful rate
    m = _check_count(m, "m", 1)
    beta = _positive(beta, "beta")
    delta = _check_delta(delta)
    seed = _check_count(seed, "seed", 0)
    prior, test_vec = problem.prior.probs, test_losses(problem)
    cdf = np.cumsum(problem.data_model.probs)
    cdf /= cdf[-1]
    block = max(1, _BLOCK_CELLS // (m * problem.n_hypotheses))
    n_violations, gap_total, bound_total = 0, 0.0, 0.0
    for start in range(0, trials, block):
        u = np.stack([np.random.default_rng((seed, t)).random(m) for t in range(start, min(start + block, trials))])
        train = np.ascontiguousarray(problem.loss_table[:, cdf.searchsorted(u, side="right")].mean(axis=-1).T)
        q = _tilt(KL_TO_PRIOR, prior, train, 1.0 / beta)[0]
        kl = np.maximum(0.0, _kl_sum(q, prior))
        for q_row, diff, bound in zip(q, test_vec - train, _bound(kl, m, delta, problem.a, problem.b).tolist()):
            gap = float(q_row @ diff)
            n_violations += gap > bound
            gap_total += gap
            bound_total += bound
    return CoverageReport(
        violation_rate=n_violations / trials,
        mean_gap=gap_total / trials,
        mean_bound=bound_total / trials,
        n_violations=n_violations,
        trials=trials,
        seed=seed,
        beta=beta,
        m=m,
        delta=delta,
    )
