"""Print a sha256 of every stdout femin produces on the benchmark's CLI
inputs, of every demo's stdout and of seeded `femin em` runs, one
`<name> <exit code> <sha256>` line each, after a `#` line naming the
Python, numpy, SIMD targets and BLAS they were made with.

The CLI part runs the 10 `cli_session` invocations (bench/workloads.py) on
the inputs of seeds 0-2, jobs 0-5: 180 outputs, in-process through
`femin.cli.main`. The demo part runs each script in demos/ in a fresh
interpreter. The em part fits K = 2, 5, 8 and 9 components of both families
on seeds 0-2 (24 outputs); from K = 8 on, numpy sums a row of K pairwise,
so it shows which layouts round alike. It also fits the `em_fit` benchmark
job (5000 points, K = 3), where the M-step's summation order matters most,
and one observation at K = 9, where the E-step's table is a single column,
on seeds 0-2 each (6 outputs). The maxent part runs four two-constraint
inputs: one whose Newton steps gain less than an ulp of the dual near tol,
a jointly infeasible pair on a triangle, a target on that triangle's edge
and, at `--tol 1e-12`, the dependent features f and 2f, whose covariance is
singular at every q; and two one-constraint inputs whose feature is within
tol of its target at every symbol but not equal to it, and one whose
feature and target share the offset 1e6; its lines hash stderr too, after
stdout. The limit
part runs three step sizes or inverse temperatures near the largest double: a
multiplicative and a Euclidean mirror step at alpha = 1e300 or 1e308, and
`pacbayes` at beta = 1e308 with losses in [2, 3], `posterior` on
log-weights of +-1e308, and `pacbayes` on losses in [0, 1.3e154], where
(b - a)^2 times the KL term overflows; its lines hash stdout and stderr.
The input part runs nineteen inputs that the CLI must reject with exit 2 or 3 and a JSON
error (empty `--l`, `--target` and `--x0`, `klest --lr inf` and
`--alphabet-size 0`, `maxent --alphabet-size` off the features' size,
`figure1 --x-max=inf`, a `figure1` range whose end prior weights
round to zero, a list as `solve`'s penalty, `maxent --tol nan`,
`solve --seed 1`, a flag that `solve` does not declare, `pacbayes` with
b = 1e308, a `figure1 --loss` table spanning
more than the largest double, a string target and mismatched features and
targets in a `maxent` constraints file, `true` in a `klest` features file,
`null` in a `figure1` loss table and a `1.0` line in categorical `em`
data, `solve` losses nested 5000 lists deep). It also runs four Gaussian
`em` inputs at the edge of the doubles: an init mean and an init variance
of 1e308, whose component has (nearly) zero density and ends degenerate;
1000 observations at 1e306, whose M-step sum overflows; and data
[0, 0, 0, 1e152], whose floored variances overflow an E-step square. The
last input is the entropy-regularized `mirror` oracle, whose Euclidean
step reaches a zero coordinate and an infinite gradient. Its lines hash
stdout and stderr together, so a changed error message or warning shows. The pacbayes part runs
the coverage experiment on seeded tables of 8, 9 and 33 hypotheses (numpy
sums rows of 8 or more entries pairwise), at the default `--trials 2000`,
and with a zero entry in `data_model`; its lines hash stdout and stderr.
The large part runs `solve --problem --q` for each of the three penalty
kinds on 2^16 seeded symbols, so the long-vector paths of the closed forms
are covered too; its lines hash stdout and stderr.
Warnings are printed as `<category>: <message>`, without the file and line that raised them, so
stderr hashes compare across checkouts. All
use femin from the `src/` next to this file and one BLAS thread. Run it on two checkouts and diff the
results to see which outputs moved:

    python tools/cli_bytes.py > after.txt

tools/cli_bytes.txt holds the output of the committed code, and
tests/test_fingerprints.py compares a fresh run with it. A change that moves
outputs on purpose rewrites it in the same commit:

    python tools/cli_bytes.py > tools/cli_bytes.txt

bench/ is only imported. Input files are written to a temporary directory
under relative names, because `solve` echoes its input paths to stdout.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREADS)  # before numpy is imported
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import femin.cli  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(3)
JOBS = range(6)
EM_FAMILIES = ("gaussian1d", "categorical")
EM_COMPONENTS = (2, 5, 8, 9)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_lines():
    session = workloads.CliSession()
    home = os.getcwd()
    for seed in SEEDS:
        for job in JOBS:
            with tempfile.TemporaryDirectory() as workdir:
                os.chdir(workdir)
                try:
                    inputs = session.make_inputs(seed, job, ".")
                    for name, argv in inputs.commands:
                        out = io.StringIO()
                        with redirect_stdout(out), redirect_stderr(io.StringIO()):
                            code = femin.cli.main(argv)
                        yield f"cli seed={seed} job={job} {name} {code} {digest(out.getvalue())}"
                finally:
                    os.chdir(home)


def em_inputs(family, k, seed):
    """(model dict, CSV text) of one seeded em run: 100 points per component."""
    rng = np.random.default_rng((seed, k, EM_FAMILIES.index(family)))
    if family == "gaussian1d":
        y = rng.normal(rng.uniform(-3.0 * k, 3.0 * k, k)[rng.integers(0, k, 100 * k)], 1.0)
        init = femin.default_init(y, k, family, seed=seed)
        return femin.cli._write_mixture(init), "".join(f"{v!r}\n" for v in y.tolist())
    truth = rng.dirichlet(np.full(2 * k, 0.5), k)
    comps = rng.integers(0, k, 100 * k)
    y = np.array([rng.choice(2 * k, p=truth[c]) for c in comps])
    init = femin.default_init(y, k, family, seed=seed, n_symbols=2 * k)
    return femin.cli._write_mixture(init), "".join(f"{v}\n" for v in y.tolist())


def em_bench_inputs(seed):
    """The `em_fit` workload's job 0 of a seed: 5000 points, K = 3."""
    y = workloads.EmFit().make_inputs(seed, 0, ".")["y"]
    init = femin.default_init(y, 3, "gaussian1d")
    return femin.cli._write_mixture(init), "".join(f"{v!r}\n" for v in y.tolist())


def em_single_inputs(seed):
    """One observation and nine overlapping Gaussian components."""
    rng = np.random.default_rng((seed, 9, 1))
    weights = femin.FiniteDistribution(rng.dirichlet(np.ones(9)))
    init = femin.MixtureModel.gaussian1d(weights, rng.normal(0.0, 2.0, 9), rng.uniform(1.0, 4.0, 9))
    return femin.cli._write_mixture(init), f"{rng.normal()!r}\n"


def em_runs():
    for family in EM_FAMILIES:
        for k in EM_COMPONENTS:
            for seed in SEEDS:
                yield f"{family} k={k} seed={seed}", em_inputs(family, k, seed)
    for seed in SEEDS:
        yield f"gaussian1d k=3 n=5000 seed={seed}", em_bench_inputs(seed)
    for seed in SEEDS:
        yield f"gaussian1d k=9 n=1 seed={seed}", em_single_inputs(seed)


def show_warning(message, category, *_):
    print(f"{category.__name__}: {message}", file=sys.stderr)


def run_in_tempdir(files, argv):
    """(exit code, stdout, stderr) of femin.cli.main(argv), run in a new
    temporary directory that holds `files` (name -> text)."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, text in files.items():
                Path(name).write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("default")
                warnings.showwarning = show_warning
                code = femin.cli.main(argv)
        finally:
            os.chdir(home)
    return code, out.getvalue(), err.getvalue()


def em_lines():
    for name, (model, data) in em_runs():
        files = {"model.json": json.dumps(model), "data.csv": data}
        code, out, _ = run_in_tempdir(files, ["em", "--model", "model.json", "--data", "data.csv"])
        yield f"em {name} {code} {digest(out)}"


MAXENT_CASES = (
    ("ulp-stall", [[0, 1, 2, 3], [1, 0, 1, 0]], [1.2, 0.4], []),
    ("triangle-infeasible", [[0, 1, 0], [0, 0, 1]], [0.6, 0.6], []),
    ("triangle-boundary", [[0, 1, 0], [0, 0, 1]], [0.5, 0.5], []),
    ("dependent-tol-1e-12", [[0, 1, 2, 3], [0, 2, 4, 6]], [1.2, 2.4], ["--tol", "1e-12"]),
    ("near-constant-0.3", [[0.1 + 0.2] * 3], [0.3], []),
    ("near-constant-1e-10", [[1.0, 1.0 + 1e-10, 1.0]], [1.0 + 1e-10], []),
    ("offset-1e6", [[1e6, 1e6 + 1e-3, 1e6]], [1e6 + 1e-4], []),
)


def maxent_lines():
    for name, features, targets, flags in MAXENT_CASES:
        files = {"constraints.json": json.dumps({"features": features, "targets": targets})}
        code, out, err = run_in_tempdir(files, ["maxent", "--constraints", "constraints.json", *flags])
        yield f"maxent {name} {code} {digest(out)} {digest(err)}"


PACBAYES_HIGH_LOSS = {
    "loss_table": [[2.0, 3.0, 2.5], [2.2, 2.4, 2.9], [3.0, 2.0, 2.1]],
    "a": 2.0,
    "b": 3.0,
    "prior": [0.5, 0.3, 0.2],
    "data_model": [0.2, 0.5, 0.3],
}
PACBAYES_WIDE_LOSS = {
    "loss_table": [[0.0, 1.3e154], [1.3e154, 0.0]],
    "a": 0.0,
    "b": 1.3e154,
    "prior": [0.5, 0.5],
    "data_model": [0.5, 0.5],
}
MIRROR = ["mirror", "--oracle", "linear"]
LIMIT_CASES = (
    ("mirror-neg-1e300", {}, [*MIRROR, "--l=1,2,1", "--x0", "0.2,0.3,0.5", "--method", "neg", "--alpha", "1e300"]),
    ("mirror-neg-1e308", {}, [*MIRROR, "--l=1,2,1", "--x0", "0.2,0.3,0.5", "--method", "neg", "--alpha", "1e308"]),
    ("mirror-euclidean-1e300", {}, [*MIRROR, "--l=-1,0,-1", "--method", "euclidean", "--alpha", "1e300"]),
    (
        "pacbayes-1e308",
        {"problem.json": json.dumps(PACBAYES_HIGH_LOSS)},
        ["pacbayes", "--problem", "problem.json", "--beta", "1e308", "--m", "10", "--delta", "0.05", "--trials", "100"],
    ),
    ("posterior-1e308", {"model.json": json.dumps({"log_tilde_p": [1e308, -1e308]})}, ["posterior", "--model", "model.json"]),
    (
        "pacbayes-width-1.3e154",
        {"problem.json": json.dumps(PACBAYES_WIDE_LOSS)},
        ["pacbayes", "--problem", "problem.json", "--beta", "1", "--m", "1", "--delta", "0.05", "--trials", "100"],
    ),
)


def limit_lines():
    for name, files, argv in LIMIT_CASES:
        code, out, err = run_in_tempdir(files, argv)
        yield f"limit {name} {code} {digest(out)} {digest(err)}"


def em_gaussian_model(means):
    """A two-component gaussian1d model file with equal weights and unit variances."""
    return {"weights": [0.5, 0.5], "family": "gaussian1d", "emissions": {"means": means, "vars": [1.0, 1.0]}}


KLEST_FILES = {"p.csv": "0\n1\n1\n2\n", "q.csv": "0\n2\n1\n0\n"}
KLEST = ["klest", "--samples-p", "p.csv", "--samples-q", "q.csv"]
INPUT_CASES = (
    ("mirror-empty-l", {}, ["mirror", "--l="]),
    ("mirror-empty-target", {}, ["mirror", "--oracle", "quadratic-to-target", "--target="]),
    ("mirror-empty-x0", {}, ["mirror", "--l=0,1", "--x0="]),
    ("klest-lr-inf", KLEST_FILES, [*KLEST, "--lr", "inf"]),
    ("klest-alphabet-size-0", KLEST_FILES, [*KLEST, "--alphabet-size", "0"]),
    (
        "maxent-alphabet-size-5",
        {"constraints.json": json.dumps({"features": [[0, 1, 2]], "targets": [1.2]})},
        ["maxent", "--constraints", "constraints.json", "--alphabet-size", "5"],
    ),
    ("figure1-x-max-inf", {}, ["figure1", "--x-max=inf"]),
    ("figure1-x-range-9", {}, ["figure1", "--x-min=-9", "--x-max=9"]),
    (
        "solve-penalty-list",
        {"problem.json": json.dumps({"losses": [0.0, 1.0], "temperature": 1.0, "penalty": [0.2, 0.8]})},
        ["solve", "--problem", "problem.json"],
    ),
    (
        "maxent-tol-nan",
        {"constraints.json": json.dumps({"features": [[0, 1, 2]], "targets": [1.2]})},
        ["maxent", "--constraints", "constraints.json", "--tol", "nan"],
    ),
    (
        "solve-seed-1",
        {"problem.json": json.dumps({"losses": [0.0, 1.0], "temperature": 1.0, "penalty": {"kind": "neg_entropy"}})},
        ["solve", "--problem", "problem.json", "--seed", "1"],
    ),
    (
        "pacbayes-b-1e308",
        {"problem.json": json.dumps({**PACBAYES_HIGH_LOSS, "b": 1e308})},
        ["pacbayes", "--problem", "problem.json", "--beta", "2", "--m", "10", "--delta", "0.05", "--trials", "100"],
    ),
    (
        "em-mean-1e308",
        {
            "model.json": json.dumps({"weights": [0.5, 0.5], "family": "gaussian1d", "emissions": {"means": [1e308, 1.0], "vars": [1.0, 1.0]}}),
            "data.csv": "-2.5\n-1.5\n2.0\n1.0\n",
        },
        ["em", "--model", "model.json", "--data", "data.csv"],
    ),
    ("figure1-loss-span", {"loss.json": json.dumps([1e308, -1e308] + [0.0] * 9)}, ["figure1", "--loss", "loss.json", "--n-points", "11"]),
    (
        "maxent-string-target",
        {"constraints.json": json.dumps({"features": [[0, 1, 2]], "targets": ["1.2"]})},
        ["maxent", "--constraints", "constraints.json"],
    ),
    (
        "maxent-targets-mismatch",
        {"constraints.json": json.dumps({"features": [[0, 1, 2]], "targets": [1.2, 0.5]})},
        ["maxent", "--constraints", "constraints.json"],
    ),
    (
        "klest-features-true",
        {**KLEST_FILES, "features.json": json.dumps({"features": [[0.0], [True], [2.0]]})},
        [*KLEST, "--class", "linear", "--features", "features.json"],
    ),
    ("figure1-loss-null", {"loss.json": json.dumps([None] + [0.0] * 10)}, ["figure1", "--loss", "loss.json", "--n-points", "11"]),
    (
        "em-categorical-float-line",
        {
            "model.json": json.dumps({"weights": [0.5, 0.5], "family": "categorical", "emissions": [[0.5, 0.5], [0.2, 0.8]]}),
            "data.csv": "0\n1.0\n1\n",
        },
        ["em", "--model", "model.json", "--data", "data.csv"],
    ),
    (
        "em-mean-sum-overflow",
        {"model.json": json.dumps(em_gaussian_model([1e306, 1e306])), "data.csv": "1e+306\n" * 1000},
        ["em", "--model", "model.json", "--data", "data.csv"],
    ),
    (
        "em-square-overflow",
        {"model.json": json.dumps(em_gaussian_model([0.0, 1e152])), "data.csv": "0\n0\n0\n1e+152\n"},
        ["em", "--model", "model.json", "--data", "data.csv"],
    ),
    (
        "em-var-1e308",
        {
            "model.json": json.dumps({"weights": [0.5, 0.5], "family": "gaussian1d", "emissions": {"means": [-1.0, 1.0], "vars": [1e308, 1.0]}}),
            "data.csv": "-2.5\n-1.5\n2.0\n1.0\n",
        },
        ["em", "--model", "model.json", "--data", "data.csv"],
    ),
    ("mirror-entropy-edge", {}, ["mirror", "--oracle", "entropy-regularized-linear", "--l=0,5", "--method", "euclidean"]),
    (
        "solve-losses-nested-5000",
        {"problem.json": '{"losses": ' + "[" * 5000 + "]" * 5000 + ', "temperature": 1, "penalty": {"kind": "neg_entropy"}}'},
        ["solve", "--problem", "problem.json"],
    ),
)


def pacbayes_problem(n_h, n_z, seed, zero_symbol=None):
    """A seeded learning problem: uniform losses in [0, 1], a prior bounded
    away from zero and a Dirichlet data model, zero at `zero_symbol` if given."""
    rng = np.random.default_rng((seed, n_h, n_z))
    data_model = rng.dirichlet(np.ones(n_z))
    if zero_symbol is not None:
        data_model[zero_symbol] = 0.0
        data_model /= data_model.sum()
    return json.dumps(
        {
            "loss_table": rng.uniform(0.0, 1.0, (n_h, n_z)).tolist(),
            "a": 0.0,
            "b": 1.0,
            "prior": (rng.dirichlet(np.ones(n_h)) * 0.9 + 0.1 / n_h).tolist(),
            "data_model": data_model.tolist(),
        }
    )


PACBAYES = ["pacbayes", "--problem", "problem.json"]
PACBAYES_CASES = (
    ("h8-trials-2000", pacbayes_problem(8, 5, 0), ["--beta", "2", "--m", "30", "--delta", "0.1"]),
    ("h9-m257", pacbayes_problem(9, 6, 1), ["--beta", "5", "--m", "257", "--delta", "0.05", "--trials", "300"]),
    ("h33", pacbayes_problem(33, 7, 2), ["--beta", "4", "--m", "50", "--delta", "0.05", "--trials", "200"]),
    (
        "zero-data-model",
        pacbayes_problem(6, 4, 3, zero_symbol=1),
        ["--beta", "3", "--m", "20", "--delta", "0.05", "--trials", "300"],
    ),
)


def pacbayes_lines():
    for name, problem, flags in PACBAYES_CASES:
        code, out, err = run_in_tempdir({"problem.json": problem}, [*PACBAYES, *flags])
        yield f"pacbayes {name} {code} {digest(out)} {digest(err)}"


def input_lines():
    for name, files, argv in INPUT_CASES:
        code, out, err = run_in_tempdir(files, argv)
        yield f"input {name} {code} {digest(out + err)}"


LARGE_N = 2**16
LARGE_KINDS = (femin.NEG_ENTROPY, femin.KL_TO_PRIOR, femin.HALF_SQ_L2)


def large_files(kind, seed):
    """Seeded problem and q files on LARGE_N symbols; the L2 temperature is
    scaled by LARGE_N so that much of the alphabet stays in the support."""
    rng = np.random.default_rng((seed, LARGE_N, LARGE_KINDS.index(kind)))
    losses = rng.normal(size=LARGE_N)
    weights = rng.random(LARGE_N) + 0.1
    q = rng.random(LARGE_N)
    t = float(rng.uniform(0.5, 2.0)) * (LARGE_N if kind == femin.HALF_SQ_L2 else 1)
    penalty = {"kind": kind} if kind == femin.NEG_ENTROPY else {"kind": kind, "prior": (weights / weights.sum()).tolist()}
    problem = {"losses": losses.tolist(), "temperature": t, "penalty": penalty}
    return {"problem.json": json.dumps(problem), "q.json": json.dumps({"probs": (q / q.sum()).tolist()})}


def large_lines():
    for kind in LARGE_KINDS:
        code, out, err = run_in_tempdir(large_files(kind, 0), ["solve", "--problem", "problem.json", "--q", "q.json"])
        yield f"large {kind} n={LARGE_N} {code} {digest(out)} {digest(err)}"


def demo_lines():
    env = {**os.environ, **THREADS, "PYTHONPATH": str(ROOT / "src")}
    for path in sorted((ROOT / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as workdir:  # demo 02 writes a CSV here
            run = subprocess.run(
                [sys.executable, str(path)], cwd=workdir, env=env, capture_output=True, text=True, check=False
            )
        yield f"demo {path.name} {run.returncode} {digest(run.stdout)}"


def platform_line() -> str:
    """The Python, numpy (with the SIMD targets it dispatches to on this CPU)
    and BLAS that the hashes depend on, as a `#` line."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    simd = " ".join(k for k in umath.__cpu_dispatch__ if umath.__cpu_features__.get(k)) or "baseline"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = "unknown"
    return f"# python {platform.python_version()}, numpy {np.__version__} (simd {simd}), blas {blas}, {platform.machine()}"


def main() -> int:
    print(platform_line())
    parts = (cli_lines, demo_lines, em_lines, maxent_lines, limit_lines, input_lines, pacbayes_lines, large_lines)
    for part in parts:
        for line in part():
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
