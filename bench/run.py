"""Benchmark of femin: runs one workload and prints its metrics.

    python3 bench/run.py --workload cli_session --seed 1 --seconds 18 --trace 0

Each workload process is a fresh interpreter (bench/worker.py) with femin
taken from the checkout's src/ and OpenBLAS/OpenMP pools at one thread.
src/ and bench/ are byte-compiled first. With --trace 0 the run starts SETUP_PROBES
set-up-only processes, then the measuring process, and reports the
end-to-end metrics. With --trace 1 it starts only a measuring process, with
spans on and -X importtime, and reports the per-layer metrics. The last line
of output is one JSON object; the lines before it start with '#'. A record
of the run, per-job latencies included, is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60
END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    # One BLAS thread: with a threaded dot product some processes stall.
    env.update({var: "1" for var in THREAD_VARS})
    return env


def lscpu_caches():
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if "cache" in key or key.strip() == "Model name":
            caches[key.strip()] = value.strip()
    return caches


def machine_header():
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "worker_threads": {var: "1" for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "lscpu": lscpu_caches(),
        "platform": platform.platform(),
    }


def run_worker(args, env, timeout, extra=(), importtime=False):
    """Start one worker; return (start time, its JSON result, its stderr)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), WORKER,
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", OUT_DIR, *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def setup_seconds(start, result):
    return result["setup_end"] - start - result["gen_s"]


def end_to_end(args, env):
    setups, errors = [], []
    for _ in range(SETUP_PROBES):
        start, probe, _ = run_worker(args, env, PROBE_TIMEOUT_S, ["--setup-only"])
        setups.append(setup_seconds(start, probe))
        errors += probe["errors"]
    start, result, _ = run_worker(
        args, env, WORKER_TIMEOUT_S, ["--seconds", str(args.seconds)]
    )
    setups.append(setup_seconds(start, result))
    result["errors"] = errors + result["errors"]
    lat_ms = [x * 1e3 for x in result["latencies"]]
    values = {
        "jobs_per_s": len(lat_ms) / result["busy_s"],
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    result["setup_samples_s"] = setups
    return result, metrics


def per_layer(args, env):
    _, result, stderr = run_worker(
        args, env, WORKER_TIMEOUT_S,
        ["--seconds", str(args.seconds), "--trace", "1"],
        importtime=True,
    )
    values = dict(result["per_layer"], **tracing.import_times(stderr))
    units = tracing.per_layer_metric_units()
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    result["traced_jobs_per_s"] = len(result["latencies"]) / result["busy_s"]
    return result, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="least total job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    header = machine_header()
    print("# machine " + json.dumps(header, sort_keys=True), flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    env = worker_env()
    # Byte-compile once, so that no measured import pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC_DIR, BENCH_DIR], env=env,
                   capture_output=True, timeout=PROBE_TIMEOUT_S, check=True)
    try:
        result, metrics = (per_layer if args.trace else end_to_end)(args, env)
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1

    errors = result["errors"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(result["latencies"]),
        "busy_s": round(result["busy_s"], 3),
        "failures": result["failures"][:5],
        "check_errors": errors[:5],
    }
    if args.trace:
        summary["traced_jobs_per_s"] = result["traced_jobs_per_s"]
    print("# run " + json.dumps(summary), flush=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    record = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"machine": header, "args": vars(args), "metrics": metrics, "result": result}, fh)
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
