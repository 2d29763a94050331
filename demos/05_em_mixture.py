"""Expectation-Maximization on a two-component Gaussian mixture.

Each E-step is an exact per-datum posterior over components; each M-step a
responsibility-weighted maximum-likelihood refit. The marginal
log-likelihood trace never decreases.
"""

import numpy as np

from femin import GAUSSIAN1D, default_init, e_step, em_fit, marginal_log_likelihood

rng = np.random.default_rng(12)
data = np.concatenate([rng.normal(-3.0, 0.8, 400), rng.normal(2.0, 1.4, 600)])

init = default_init(data, n_components=2, kind=GAUSSIAN1D, seed=12)
print("init means:", np.round(init.means, 3), " variances:", np.round(init.variances, 3))
print("init logL :", marginal_log_likelihood(init, data))

model, trace = em_fit(init, data, tol=1e-9, max_iter=200)
print(f"\nconverged after {len(trace)} iterations")
print("weights   :", np.round(model.weights.probs, 4))
print("means     :", np.round(model.means, 4))
print("variances :", np.round(model.variances, 4))
print("first five trace entries:", np.round(trace[:5], 4))
print("trace monotone:", bool(np.all(np.diff(trace) >= -1e-10)))

resp = e_step(model, data)
hard = resp.argmax(axis=1)
print("\ncluster sizes from hard-assigned responsibilities:", np.bincount(hard))
