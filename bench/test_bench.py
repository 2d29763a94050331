"""Tests of the benchmark itself: every workload runs and passes its checks,
and every checker rejects a wrong answer.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 98765])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, seed, tmp_path):
    result = worker.measure(workloads.WORKLOADS[name](), seed, 0.0, 2, 0, False, str(tmp_path))
    assert result["errors"] == []
    assert result["failures"] == []
    assert result["attempted"] == 2 and len(result["latencies"]) == 2


def test_inputs_depend_only_on_seed_and_index(tmp_path):
    wl = workloads.EmFit()
    a, b, c = (wl.make_inputs(s, 3, str(tmp_path)) for s in (5, 5, 6))
    assert np.array_equal(a["y"], b["y"]) and not np.array_equal(a["y"], c["y"])


def test_traced_run_reports_every_layer_metric(tmp_path):
    result = worker.measure(workloads.CliSession(), 1, 0.0, 1, 1, False, str(tmp_path))
    assert result["errors"] == []
    layer = result["per_layer"]
    names = set(tracing.per_layer_metric_units()) - {name for name, _ in tracing.IMPORT_METRICS}
    assert set(layer) == names
    for sub in tracing.CLI_SUBCOMMANDS:
        assert layer[f"cli.{sub}.ms"] > 0.0
    assert layer["mirror_descent.oracle_evaluations"] > 0
    assert layer["maxent.iterations"] > 0 and layer["latent_em.iterations"] > 0
    assert layer["kl_estimate.steps"] > 0
    import femin  # the wrappers are gone again

    assert femin.minimize_closed_form.__module__ == "femin.free_energy"
    assert femin.FiniteDistribution.__post_init__.__module__ == "femin.simplex"


def test_import_times_parse():
    log = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |       4000 |   scipy.optimize\n"
        "import time:        80 |       9000 | femin\n"
    )
    assert tracing.import_times(log) == {"import.femin_s": 0.009, "import.scipy_optimize_s": 0.004}


def test_benchmark_json_matches_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_metric_units()


# --- the checkers reject wrong answers ---------------------------------------


def test_bisection_pivot_matches_sorted_scan():
    v = np.random.default_rng(0).normal(size=1000)
    u = np.sort(v)[::-1]
    k = np.arange(1, v.size + 1)
    rho = np.nonzero(u - (np.cumsum(u) - 1.0) / k > 0)[0][-1]
    assert checks.bisection_pivot(v) == pytest.approx((u[: rho + 1].sum() - 1.0) / (rho + 1), abs=1e-14)


@pytest.fixture(scope="module")
def cli_job(tmp_path_factory):
    wl = workloads.CliSession()
    jobs = []
    for index in range(3):  # the solve subcommand cycles through the three penalties
        inp = wl.make_inputs(11, index, str(tmp_path_factory.mktemp(f"cli{index}")))
        jobs.append((inp, wl.run(inp)))
    return wl, jobs


def _edit_json(outputs, name, edit):
    doc = json.loads(outputs[name])
    edit(doc)
    return dict(outputs, **{name: json.dumps(doc)})


def _shift(values, eps=1e-6):
    values = list(values)
    values[0] += eps
    values[1] -= eps
    return values


def _reject(wl, inp, outputs):
    with pytest.raises(checks.CheckError):
        wl.check(inp, outputs)


def test_cli_outputs_pass_unchanged(cli_job):
    wl, jobs = cli_job
    for inp, outputs in jobs:
        wl.check(inp, outputs)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_solve_rejects_shifted_q_and_wrong_gap(cli_job, index):
    wl, jobs = cli_job
    inp, outputs = jobs[index]
    _reject(wl, inp, _edit_json(outputs, "solve", lambda d: d["solution"].update(q_opt=_shift(d["solution"]["q_opt"]))))
    _reject(wl, inp, _edit_json(outputs, "solve", lambda d: d["solution"].update(j_opt=d["solution"]["j_opt"] + 1e-6)))
    _reject(wl, inp, _edit_json(outputs, "solve", lambda d: d.update(fenchel_young_gap=d["fenchel_young_gap"] + 1e-6)))


def test_solve_rejects_wrong_pivot(cli_job):
    wl, jobs = cli_job
    inp, outputs = jobs[2]
    assert inp.data["solve"]["kind"] == "half_sq_l2"
    _reject(wl, inp, _edit_json(outputs, "solve", lambda d: d["solution"].update(tau=d["solution"]["tau"] + 1e-9)))


def test_maxent_rejects_moment_and_affinity_errors(cli_job):
    wl, [(inp, outputs), *_] = cli_job
    _reject(wl, inp, _edit_json(outputs, "maxent", lambda d: d.update(q=_shift(d["q"], 1e-7))))
    _reject(wl, inp, _edit_json(outputs, "maxent", lambda d: d.update(lambdas=[x + 1e-6 for x in d["lambdas"]])))


def test_posterior_and_elbo_reject_wrong_values(cli_job):
    wl, [(inp, outputs), *_] = cli_job
    _reject(wl, inp, _edit_json(outputs, "posterior", lambda d: d.update(posterior=_shift(d["posterior"]))))
    _reject(wl, inp, _edit_json(outputs, "posterior", lambda d: d.update(log_partition=d["log_partition"] + 1e-6)))
    _reject(wl, inp, _edit_json(outputs, "elbo", lambda d: d.update(gap=d["gap"] + 1e-6)))
    _reject(wl, inp, _edit_json(outputs, "elbo", lambda d: d.update(elbo=d["elbo"] - 1e-6)))


def test_em_rejects_a_decrease_and_a_wrong_final_value(cli_job):
    wl, [(inp, outputs), *_] = cli_job

    def one_decrease(d):
        d["trace"][1] = d["trace"][0] - 1e-3

    _reject(wl, inp, _edit_json(outputs, "em", one_decrease))
    _reject(wl, inp, _edit_json(outputs, "em", lambda d: d["trace"].__setitem__(-1, d["trace"][-1] + 1e-3)))


def test_em_fit_rejects_a_fit_worse_than_the_truth():
    wl = workloads.EmFit()
    inp = wl.make_inputs(0, 1, None)
    weights, means, variances = inp["truth"]
    worse = means + 0.5
    with pytest.raises(checks.CheckError):
        checks.check_em(inp["y"], inp["truth"], weights, worse, variances,
                        [checks.gmm_loglik(inp["y"], weights, worse, variances)])


def test_pacbayes_rejects_violations_off_by_one(cli_job):
    wl, [(inp, outputs), *_] = cli_job

    def off_by_one(d):
        d["report"]["n_violations"] += 1
        d["report"]["violation_rate"] = d["report"]["n_violations"] / d["report"]["trials"]

    _reject(wl, inp, _edit_json(outputs, "pacbayes", off_by_one))
    _reject(wl, inp, _edit_json(outputs, "pacbayes", lambda d: d["report"].update(mean_gap=d["report"]["mean_gap"] + 1e-6)))


def test_klest_rejects_a_decrease_and_an_estimate_above_kl(cli_job):
    wl, [(inp, outputs), *_] = cli_job
    _reject(wl, inp, _edit_json(outputs, "klest", lambda d: d["trace"].__setitem__(1, d["trace"][0] - 1e-6)))

    def above_kl(d):
        d.update(kl_estimate=d["kl_estimate"] + 1.0, trace=d["trace"] + [d["kl_estimate"] + 1.0])

    _reject(wl, inp, _edit_json(outputs, "klest", above_kl))


def _edit_csv(outputs, name, row, column, delta):
    lines = outputs[name].splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[data[row]] = ",".join(cells)
    return dict(outputs, **{name: "\n".join(lines) + "\n"})


def test_mirror_rejects_leaving_the_simplex_and_an_increase(cli_job):
    wl, [(inp, outputs), *_] = cli_job
    for name in ("mirror_neg", "mirror_euclidean"):
        _reject(wl, inp, _edit_csv(outputs, name, 1, 3, 1e-6))  # q0 of iterate 1
        _reject(wl, inp, _edit_csv(outputs, name, 1, 1, 1e-3))  # value of iterate 1


def test_figure1_rejects_a_shifted_column(cli_job):
    wl, [(inp, outputs), *_] = cli_job
    for column in (3, 7, 11):  # one column per penalty
        _reject(wl, inp, _edit_csv(outputs, "figure1", 80, column, 1e-6))


def test_large_alphabet_rejects_shifted_q_and_gap(tmp_path):
    wl = workloads.LargeAlphabet()
    inp = wl.make_inputs(0, 1, None)
    solutions, gap = wl.run(inp)
    wl.check(inp, (solutions, gap))
    with pytest.raises(checks.CheckError):
        wl.check(inp, (solutions, gap + 1e-6))
    for k, (kind, t, sol) in enumerate(solutions):
        q = sol.q_opt.probs.copy()
        q[:2] = _shift(q[:2])
        with pytest.raises(checks.CheckError):
            checks.check_closed_form(kind, kind, inp["losses"], t, inp["prior"], q, sol.j_opt, sol.tau)


def test_grid_check_rejects_wrong_grid_values():
    wl = workloads.GridOracle()
    problems = wl.make_inputs(0, 1, None)
    results = wl.run(problems)
    wl.check(problems, results)
    kind, losses, t, prior = problems[4]  # kl on three symbols
    closed, grid = results[4]
    args = (f"grid {kind}", kind, losses, t, prior, wl.step)
    with pytest.raises(checks.CheckError):  # grid value below the closed form
        checks.check_grid(*args, grid.j_opt + 1e-3, grid.q_opt.probs, grid.j_opt)
    with pytest.raises(checks.CheckError):  # value not J at the reported point
        checks.check_grid(*args, closed.j_opt, grid.q_opt.probs, grid.j_opt - 1e-6)
    worst = np.eye(3)[int(np.argmax(losses))]
    with pytest.raises(checks.CheckError):  # a grid point worse than the nearest one
        checks.check_grid(*args, closed.j_opt, worst, checks.objective(kind, losses, t, prior, worst))
