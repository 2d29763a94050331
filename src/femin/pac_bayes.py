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

from .errors import EmptyTrainingSet, NonPositivePrior
from .simplex import SUPPORT_EPS, FiniteDistribution, gibbs, kl_divergence, log_sum_exp
from .simplex import _kl, _symbol_indices


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
        table = np.array(self.loss_table, dtype=float, copy=True)
        if table.ndim != 2 or table.size == 0:
            raise ValueError("loss_table must be a nonempty 2-D table")
        a, b = float(self.a), float(self.b)
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"need finite a < b, got a={a!r}, b={b!r}")
        if not np.all(np.isfinite(table)):
            raise ValueError("losses must be finite")
        if table.min() < a or table.max() > b:
            raise ValueError("every loss must lie in [a, b]")
        if table.shape[0] != self.prior.alphabet_size:
            raise ValueError(
                f"prior covers {self.prior.alphabet_size} hypotheses, table has {table.shape[0]}"
            )
        if table.shape[1] != self.data_model.alphabet_size:
            raise ValueError(
                f"data model covers {self.data_model.alphabet_size} symbols, table has {table.shape[1]}"
            )
        if np.any(self.prior.probs <= SUPPORT_EPS):
            raise NonPositivePrior("prior over hypotheses must be strictly positive")
        table.setflags(write=False)
        object.__setattr__(self, "loss_table", table)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_hypotheses(self) -> int:
        return self.loss_table.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.loss_table.shape[1]

    def to_dict(self) -> dict:
        return {
            "loss_table": self.loss_table.tolist(),
            "a": self.a,
            "b": self.b,
            "prior": self.prior.probs.tolist(),
            "data_model": self.data_model.probs.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LearningProblem":
        return cls(
            np.asarray(data["loss_table"], dtype=float),
            float(data["a"]),
            float(data["b"]),
            FiniteDistribution(np.asarray(data["prior"], dtype=float)),
            FiniteDistribution(np.asarray(data["data_model"], dtype=float)),
        )


def _check_samples(problem: LearningProblem, s) -> np.ndarray:
    samples = np.asarray(s)
    if samples.ndim != 1 or samples.size == 0:
        raise EmptyTrainingSet("training set must be a nonempty vector of symbols")
    samples = _symbol_indices(samples, "training symbols")
    if np.any(samples < 0) or np.any(samples >= problem.n_outcomes):
        raise ValueError(f"training symbols must lie in [0, {problem.n_outcomes})")
    return samples


def _check_beta(beta) -> float:
    beta = float(beta)
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    return beta


def _check_m(m) -> int:
    if not (np.isfinite(float(m)) and float(m) == int(m)):
        raise ValueError(f"m must be an integer, got {m!r}")
    if int(m) < 1:
        raise ValueError(f"m must be >= 1, got {int(m)}")
    return int(m)


def _check_delta(delta) -> float:
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return delta


def training_losses(problem: LearningProblem, s) -> np.ndarray:
    """Empirical loss of every hypothesis on the sample: (1/m) sum_i l(x, z_i)."""
    return problem.loss_table[:, _check_samples(problem, s)].mean(axis=1)


def test_losses(problem: LearningProblem) -> np.ndarray:
    """Exact expected loss of every hypothesis under the data model."""
    return problem.loss_table @ problem.data_model.probs


def gibbs_posterior(problem: LearningProblem, s, beta: float) -> FiniteDistribution:
    """Minimizer of E_q[train loss] + (1/beta) KL(q || prior):
    q(x) proportional to prior(x) exp(-beta * train_loss(x)), the kl closed
    form of minimize_closed_form at T = 1/beta."""
    beta = _check_beta(beta)
    train = training_losses(problem, s)
    return FiniteDistribution(gibbs(-train / (1.0 / beta) + np.log(problem.prior.probs))[0])


def dv_check(problem: LearningProblem, q: FiniteDistribution, s, beta: float):
    """Both sides of the change-of-measure inequality on the generalization gap.

    lhs = E_{x~q}[beta * (test - train)(x)],
    rhs = KL(q || prior) + log E_{x~prior}[exp(beta * (test - train)(x))];
    lhs <= rhs for every q absolutely continuous w.r.t. the prior.
    """
    beta = _check_beta(beta)
    gaps = test_losses(problem) - training_losses(problem, s)
    lhs = float(q.probs @ (beta * gaps))
    rhs = kl_divergence(q, problem.prior) + log_sum_exp(np.log(problem.prior.probs) + beta * gaps)
    return lhs, float(rhs)


def pac_bayes_bound(kl: float, m: int, delta: float, a: float, b: float) -> float:
    """sqrt((b - a)^2 / (2m) * (kl + log(1/delta))).

    High-probability (1 - delta) bound on the averaged generalization gap of
    any posterior with the given KL to the prior, for losses in [a, b].
    """
    kl = float(kl)
    a, b = float(a), float(b)
    if kl < 0 or not np.isfinite(kl):
        raise ValueError(f"kl must be finite and >= 0, got {kl!r}")
    m = _check_m(m)
    delta = _check_delta(delta)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got a={a!r}, b={b!r}")
    return _bound(kl, m, delta, a, b)


def _bound(kl: float, m: int, delta: float, a: float, b: float) -> float:
    return float(np.sqrt((b - a) ** 2 / (2.0 * m) * (kl + np.log(1.0 / delta))))


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

    def to_dict(self) -> dict:
        return {
            "violation_rate": self.violation_rate,
            "mean_gap": self.mean_gap,
            "mean_bound": self.mean_bound,
            "n_violations": self.n_violations,
            "trials": self.trials,
            "seed": self.seed,
            "beta": self.beta,
            "m": self.m,
            "delta": self.delta,
        }


def coverage_experiment(
    problem: LearningProblem, beta: float, m: int, delta: float, trials: int, seed: int
) -> CoverageReport:
    """Draw `trials` training sets, learn the Gibbs posterior on each, and
    count how often the exact averaged gap exceeds the bound at level delta.

    The per-trial generator is derived from (seed, trial index), so trials
    are reproducible independently of execution order. The observed
    violation rate should stay within binomial slack of delta.
    """
    trials = int(trials)
    if trials < 100:
        raise ValueError(f"need at least 100 trials for a meaningful rate, got {trials}")
    m = _check_m(m)
    beta = _check_beta(beta)
    delta = _check_delta(delta)
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # gibbs_posterior, training_losses and pac_bayes_bound on the arrays checked above
    t = 1.0 / beta
    log_prior = np.log(problem.prior.probs)
    test_vec = test_losses(problem)
    n_violations = 0
    gap_total = 0.0
    bound_total = 0.0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        s = rng.choice(problem.n_outcomes, size=m, p=problem.data_model.probs)
        train = problem.loss_table[:, s].mean(axis=1)
        q = gibbs(-train / t + log_prior)[0]
        gap = float(q @ (test_vec - train))
        bound = _bound(_kl(q, problem.prior.probs), m, delta, problem.a, problem.b)
        if gap > bound:
            n_violations += 1
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
