"""Gibbs learners and coverage of the generalization bound.

A finite class of eight 0/1-loss hypotheses is trained by tilting a uniform
prior toward low empirical risk. Across 2000 independent training draws,
the exact averaged generalization gap should exceed the

    sqrt((b-a)^2/(2m) * (KL(q||p) + log(1/delta)))

bound in at most a delta fraction of trials; in practice the bound is loose
and violations are rare to nonexistent.
"""

import numpy as np

from femin import (
    FiniteDistribution,
    LearningProblem,
    coverage_experiment,
    dv_check,
    gibbs_posterior,
)
from femin.pac_bayes import test_losses, training_losses

rng = np.random.default_rng(99)
table = (rng.random((8, 12)) < rng.uniform(0.2, 0.8, (8, 1))).astype(float)
problem = LearningProblem(
    table, 0.0, 1.0, FiniteDistribution.uniform(8), FiniteDistribution(rng.dirichlet(np.ones(12)))
)

s = rng.choice(12, size=50, p=problem.data_model.probs)
for beta in (0.1, 2.0, 50.0):
    q = gibbs_posterior(problem, s, beta)
    train = float(q.probs @ training_losses(problem, s))
    test = float(q.probs @ test_losses(problem))
    print(f"beta={beta:>5}: E_q[train]={train:.4f}  E_q[test]={test:.4f}  q={np.round(q.probs, 3)}")

lhs, rhs = dv_check(problem, gibbs_posterior(problem, s, 2.0), s, beta=2.0)
print(f"\nchange-of-measure check: lhs={lhs:.4f} <= rhs={rhs:.4f}")

report = coverage_experiment(problem, beta=2.0, m=50, delta=0.05, trials=2000, seed=7)
print(
    f"\ncoverage over {report.trials} trials (seed {report.seed}): "
    f"violation rate {report.violation_rate:.4f} (target <= {report.delta}), "
    f"mean gap {report.mean_gap:.4f}, mean bound {report.mean_bound:.4f}"
)
