"""The benchmark's four workloads.

Each workload makes one job's inputs from (seed, job index) with numpy
alone, runs the job through femin, and checks the job's outputs with
`checks`. Only `run` is timed. Every job of a workload is the same kind and
size of work; only the random inputs differ.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import femin
import femin.cli

import checks

KINDS = ("neg_entropy", "kl", "half_sq_l2")
# Distance between neighbouring mixture means in standard deviations; at 5,
# em_fit takes 32 to 36 iterations on 5000 points.
SEPARATION = 5.0


class JobFailed(RuntimeError):
    """A femin call ended in an error instead of a result."""


def _rng(seed, salt, index):
    return np.random.default_rng((int(seed), salt, int(index)))


def _prior(rng, n):
    """A strictly positive random distribution (Dirichlet mixed with uniform)."""
    return rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n


def _penalty(kind, prior):
    if kind == "neg_entropy":
        return femin.ComplexityPenalty.neg_entropy()
    return femin.ComplexityPenalty(kind, femin.FiniteDistribution(prior))


def _gaussian_mixture(rng, n_points):
    """A sample of three equally sized unit-variance Gaussian components,
    SEPARATION apart, and the generating (weights, means, variances).

    The parameters are fixed so that every job is the same size of work
    (EM's iteration count depends on the overlap). The components are
    equally sized because default_init starts the means at the 25/50/75%
    quantiles: with very unequal weights, EM from there can end in a local
    optimum below the generating parameters' log-likelihood.
    """
    means = SEPARATION * np.array([-1.0, 0.0, 1.0])
    comp = rng.permutation(np.arange(n_points) % 3)
    return means[comp] + rng.normal(size=n_points), (np.full(3, 1.0 / 3.0), means, np.ones(3))


class LargeAlphabet:
    """All three closed forms and one Fenchel-Young gap on 2^18 symbols."""

    salt = 1
    n = 2**18

    def make_inputs(self, seed, index, workdir):
        rng = _rng(seed, self.salt, index)
        weights = rng.random(self.n) + 0.1
        t = float(rng.uniform(0.5, 2.0))
        return {
            "losses": rng.normal(size=self.n),
            "prior": weights / weights.sum(),
            "t": t,
            # scaled by n so that l/T is comparable to the prior and a large
            # share of symbols stays in the L2 solution's support
            "t_l2": t * self.n,
        }

    def run(self, inp):
        loss = femin.LossVector(inp["losses"])
        prior = femin.FiniteDistribution(inp["prior"])
        solutions = []
        for kind, penalty, t in (
            ("neg_entropy", femin.ComplexityPenalty.neg_entropy(), inp["t"]),
            ("kl", femin.ComplexityPenalty.kl_to_prior(prior), inp["t"]),
            ("half_sq_l2", femin.ComplexityPenalty.half_sq_l2_to_prior(prior), inp["t_l2"]),
        ):
            problem = femin.FreeEnergyProblem(loss, t, penalty)
            solutions.append((kind, t, femin.minimize_closed_form(problem)))
        # the gap of the uniform distribution on the last (L2) problem
        gap = femin.fenchel_young_gap(problem, femin.FiniteDistribution.uniform(self.n))
        return solutions, gap

    def check(self, inp, out):
        solutions, gap = out
        for kind, t, sol in solutions:
            _, j_ref = checks.check_closed_form(
                kind, kind, inp["losses"], t, inp["prior"], sol.q_opt.probs, sol.j_opt, sol.tau
            )
        uniform = np.full(self.n, 1.0 / self.n)  # kind, t and j_ref are the L2 problem's
        checks.check_gap("fenchel_young_gap", gap, kind, inp["losses"], t, inp["prior"], uniform, j_ref)


class EmFit:
    """em_fit from default_init on a fresh well-separated 3-component sample."""

    salt = 2
    n_points = 5000

    def make_inputs(self, seed, index, workdir):
        y, truth = _gaussian_mixture(_rng(seed, self.salt, index), self.n_points)
        return {"y": y, "truth": truth}

    def run(self, inp):
        y = inp["y"]
        return femin.em_fit(femin.default_init(y, 3, "gaussian1d"), y, tol=1e-8)

    def check(self, inp, out):
        model, trace = out
        checks.check_em(inp["y"], inp["truth"], model.weights.probs, model.means, model.variances, trace)


class GridOracle:
    """One problem per penalty checked against the 1/200 grid, first on 2
    symbols, then on 3, so the cached grid alternates shape every job."""

    salt = 3
    step = 1.0 / 200.0

    def make_inputs(self, seed, index, workdir):
        rng = _rng(seed, self.salt, index)
        problems = []
        for n in (2, 3):
            for kind in KINDS:
                problems.append((kind, rng.uniform(-1.0, 1.0, n), float(rng.uniform(0.5, 2.0)), _prior(rng, n)))
        return problems

    def run(self, problems):
        results = []
        for kind, losses, t, prior in problems:
            problem = femin.FreeEnergyProblem(femin.LossVector(losses), t, _penalty(kind, prior))
            closed = femin.minimize_closed_form(problem)
            results.append((closed, femin.brute_force_minimize(problem, self.step)))
        return results

    def check(self, problems, results):
        for (kind, losses, t, prior), (closed, grid) in zip(problems, results, strict=True):
            name = f"{kind} n={losses.size}"
            checks.check_closed_form(name, kind, losses, t, prior, closed.q_opt.probs, closed.j_opt, closed.tau)
            checks.check_grid(
                f"grid {name}", kind, losses, t, prior, self.step, closed.j_opt, grid.q_opt.probs, grid.j_opt
            )


@dataclass
class CliInputs:
    commands: list  # (subcommand, argv) in execution order
    data: dict  # the generated values behind the input files


class CliSession:
    """Every femin subcommand once, in-process through femin.cli.main, on
    small seeded input files."""

    salt = 4
    figure1_points = 161
    figure1_temperatures = (10.0, 1.0, 0.1, 0.01)

    def make_inputs(self, seed, index, workdir):
        rng = _rng(seed, self.salt, index)
        d = {}

        def write(name, text):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path

        def write_json(name, obj):
            return write(name, json.dumps(obj))

        def write_column(name, values):
            return write(name, "".join(f"{v!r}\n" for v in values))

        n = 16
        d["solve"] = {
            "kind": KINDS[index % 3],
            "losses": rng.normal(size=n),
            "t": float(rng.uniform(0.2, 2.0)),
            "prior": _prior(rng, n),
            "q": rng.dirichlet(np.ones(n)),
        }
        s = d["solve"]
        penalty = {"kind": s["kind"]}
        if s["kind"] != "neg_entropy":
            penalty["prior"] = s["prior"].tolist()
        problem = write_json(
            "problem.json", {"losses": s["losses"].tolist(), "temperature": s["t"], "penalty": penalty}
        )
        q_file = write_json("q.json", {"probs": s["q"].tolist()})

        features = rng.uniform(0.0, 1.0, (2, 8))
        d["maxent"] = {"features": features, "targets": features @ _prior(rng, 8), "tol": 1e-8}
        constraints = write_json(
            "constraints.json",
            {"features": features.tolist(), "targets": d["maxent"]["targets"].tolist()},
        )

        d["model"] = {"log_tilde_p": rng.normal(0.0, 5.0, 32) + 100.0, "q": rng.dirichlet(np.ones(32))}
        model = write_json("model.json", {"log_tilde_p": d["model"]["log_tilde_p"].tolist()})
        elbo_q = write_json("elbo_q.json", {"probs": d["model"]["q"].tolist()})

        y, truth = _gaussian_mixture(rng, 300)
        d["em"] = {"y": y, "truth": truth}
        em_init = write_json(
            "init.json",
            {
                "weights": [1 / 3, 1 / 3, 1 / 3],
                "family": "gaussian1d",
                "emissions": {"means": np.quantile(y, [0.25, 0.5, 0.75]).tolist(), "vars": [float(y.var())] * 3},
            },
        )
        em_data = write_column("data.csv", y.tolist())

        learning = {
            "loss_table": rng.uniform(0.0, 1.0, (8, 5)).tolist(),
            "a": 0.0,
            "b": 1.0,
            "prior": _prior(rng, 8).tolist(),
            "data_model": _prior(rng, 5).tolist(),
        }
        d["pacbayes"] = {"problem": learning, "beta": 2.0, "m": 20, "delta": 0.05, "trials": 200,
                         "seed": int(rng.integers(0, 2**31))}
        pb = d["pacbayes"]
        learning_file = write_json("learning.json", learning)

        d["klest"] = {
            "samples_p": rng.choice(6, size=300, p=_prior(rng, 6)),
            "samples_q": rng.choice(6, size=300, p=rng.dirichlet(np.ones(6)) * 0.5 + 0.5 / 6),
        }
        samples_p = write_column("samples_p.csv", d["klest"]["samples_p"].tolist())
        samples_q = write_column("samples_q.csv", d["klest"]["samples_q"].tolist())

        # evenly spaced losses keep the descent's iteration count alike across jobs
        d["mirror"] = {"l": rng.permutation(np.linspace(0.0, 2.0, 5)) + rng.uniform(-0.05, 0.05, 5)}
        l_arg = "--l=" + ",".join(repr(v) for v in d["mirror"]["l"].tolist())

        commands = [
            ("solve", ["solve", "--problem", problem, "--q", q_file]),
            ("maxent", ["maxent", "--constraints", constraints]),
            ("posterior", ["posterior", "--model", model]),
            ("elbo", ["elbo", "--model", model, "--q", elbo_q]),
            ("em", ["em", "--model", em_init, "--data", em_data]),
            ("pacbayes", ["pacbayes", "--problem", learning_file, "--beta", repr(pb["beta"]),
                          "--m", str(pb["m"]), "--delta", repr(pb["delta"]),
                          "--trials", str(pb["trials"]), "--seed", str(pb["seed"])]),
            ("klest", ["klest", "--samples-p", samples_p, "--samples-q", samples_q,
                       "--steps", "200", "--lr", "0.5"]),
            ("mirror_neg", ["mirror", "--oracle", "linear", l_arg, "--method", "neg",
                            "--alpha", "0.3", "--iters", "200"]),
            ("mirror_euclidean", ["mirror", "--oracle", "linear", l_arg, "--method", "euclidean",
                                  "--schedule", "backtracking", "--alpha", "1.0", "--iters", "200"]),
            ("figure1", ["figure1", "--n-points", str(self.figure1_points), "--temperatures",
                         ",".join(f"{t:g}" for t in self.figure1_temperatures)]),
        ]
        return CliInputs(commands, d)

    def run(self, inp):
        outputs = {}
        for name, argv in inp.commands:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = femin.cli.main(argv)
            if code != 0:
                raise JobFailed(f"femin {name} exited {code}: {err.getvalue().strip()}")
            outputs[name] = out.getvalue()
        return outputs

    def check(self, inp, outputs):
        d = inp.data
        s = d["solve"]
        doc = json.loads(outputs["solve"])
        sol = doc["solution"]
        _, j_ref = checks.check_closed_form(
            "solve", s["kind"], s["losses"], s["t"], s["prior"], sol["q_opt"], sol["j_opt"], sol.get("tau")
        )
        checks.check_gap("solve fenchel_young_gap", doc["fenchel_young_gap"], s["kind"], s["losses"],
                         s["t"], s["prior"], s["q"], j_ref)

        doc = json.loads(outputs["maxent"])
        me = d["maxent"]
        checks.check_maxent(me["features"], me["targets"], me["tol"], doc["lambdas"], doc["q"])

        lw = d["model"]["log_tilde_p"]
        doc = json.loads(outputs["posterior"])
        checks.check_posterior(lw, doc["posterior"], doc["log_partition"])
        doc = json.loads(outputs["elbo"])
        checks.check_elbo(lw, d["model"]["q"], doc["elbo"], doc["log_partition"], doc["gap"])

        doc = json.loads(outputs["em"])
        em = doc["model"]
        checks.require(len(doc["trace"]) == doc["iterations"], "em iterations differ from the trace length")
        checks.check_em(d["em"]["y"], d["em"]["truth"], em["weights"], em["emissions"]["means"],
                        em["emissions"]["vars"], doc["trace"])

        pb = d["pacbayes"]
        doc = json.loads(outputs["pacbayes"])
        checks.check_pacbayes(pb["problem"], pb["beta"], pb["m"], pb["delta"], pb["trials"], pb["seed"],
                              doc["report"])

        doc = json.loads(outputs["klest"])
        kl = d["klest"]
        checks.check_klest(kl["samples_p"], kl["samples_q"], doc["values"], doc["kl_estimate"], doc["trace"])

        checks.check_mirror(d["mirror"]["l"], outputs["mirror_neg"])
        checks.check_mirror(d["mirror"]["l"], outputs["mirror_euclidean"])
        checks.check_figure1(outputs["figure1"], self.figure1_points, self.figure1_temperatures)


WORKLOADS = {
    "cli_session": CliSession,
    "large_alphabet": LargeAlphabet,
    "em_fit": EmFit,
    "grid_oracle": GridOracle,
}
