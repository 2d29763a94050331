"""Exponentiated gradient vs projected gradient descent on the simplex.

The multiplicative update q'(x) ~ q(x) exp(-alpha * grad_x) is the
KL-penalized one-step minimizer (temperature 1/alpha) and never leaves the
simplex; the Euclidean alternative steps in the ambient space and projects
back through the pivot routine.
"""

import numpy as np

from femin import FiniteDistribution, make_oracle, neg_step, run_descent

# one multiplicative step doubles as the tilted-prior closed form
q = FiniteDistribution([0.5, 0.3, 0.2])
print("one step:", np.round(neg_step(q, np.array([1.0, 0.0, -1.0]), 0.5).probs, 4))

# linear objective: q(2) shrinks like a logistic curve under alpha = 1
oracle = make_oracle("linear", [0.0, 1.0])
trace = run_descent(oracle, FiniteDistribution.uniform(2), method="neg", step_size=1.0, max_iter=8, tol=0.0)
print("\nlinear objective, multiplicative updates from uniform:")
for i, point in enumerate(trace.iterates):
    predicted = 1.0 / (1.0 + np.exp(-i))
    print(f"  i={i}: q(1)={point[0]:.8f}  closed-form {predicted:.8f}")

# strongly convex objective with a known interior optimum
target = np.array([0.6, 0.3, 0.1])
oracle = make_oracle("quadratic-to-target", target)
print("\ndistance to the quadratic target after k iterations (alpha = 0.5):")
for method in ("neg", "euclidean"):
    trace = run_descent(
        oracle, FiniteDistribution.uniform(3), method=method, step_size=0.5, max_iter=200, tol=0.0
    )
    errs = np.abs(trace.iterates - target).max(axis=1)
    shown = {k: f"{errs[min(k, len(errs) - 1)]:.2e}" for k in (0, 10, 50, 200)}
    print(f"  {method:>9}: {shown}")
