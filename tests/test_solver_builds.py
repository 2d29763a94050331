"""The iterative solvers loop on arrays and build their result types at exit,
so the number of validated objects they build does not grow with the
iteration count."""

from collections import Counter

import numpy as np
import pytest

from femin import (
    GAUSSIAN1D,
    FiniteDistribution,
    MixtureModel,
    SamplePair,
    TabularFunction,
    default_init,
    em_fit,
    fit_dv,
    make_oracle,
    run_descent,
)


@pytest.fixture
def builds(monkeypatch):
    """Counts __post_init__ calls of the three validated result types."""
    counts = Counter()
    for cls in (FiniteDistribution, MixtureModel, TabularFunction):

        def counted(self, _original=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def test_em_fit_builds_do_not_grow(builds):
    rng = np.random.default_rng(3)
    data = np.concatenate([rng.normal(-3, 1, 200), rng.normal(2, 1, 200)])
    init = default_init(data, 2, GAUSSIAN1D)
    per_run = []
    for max_iter in (5, 50):
        builds.clear()
        _, trace = em_fit(init, data, tol=0.0, max_iter=max_iter)
        assert trace.size == max_iter
        per_run.append(dict(builds))
    assert per_run[0] == per_run[1] == {"FiniteDistribution": 1, "MixtureModel": 1}


def test_fit_dv_builds_do_not_grow(builds):
    rng = np.random.default_rng(5)
    samples = SamplePair(rng.integers(0, 6, 300), rng.integers(0, 6, 300))
    init = TabularFunction.zeros(6)
    per_run = []
    for steps in (5, 50):
        builds.clear()
        result = fit_dv(init, samples, steps=steps, learning_rate=0.01)
        assert result.trace.size == steps + 1
        per_run.append(dict(builds))
    assert per_run[0] == per_run[1] == {"TabularFunction": 1}


@pytest.mark.parametrize("schedule", ["constant", "backtracking"])
@pytest.mark.parametrize("method", ["neg", "euclidean"])
def test_run_descent_builds_one_distribution_per_iterate(builds, method, schedule):
    oracle = make_oracle("quadratic-to-target", [0.5, 0.3, 0.2])
    x0 = FiniteDistribution([0.1, 0.2, 0.7])
    builds.clear()
    trace = run_descent(oracle, x0, method=method, step_size=2.0, schedule=schedule, max_iter=40, tol=0.0)
    assert len(trace.iterates) > 5
    assert dict(builds) == {"FiniteDistribution": len(trace.iterates)}
