"""One workload in one fresh interpreter: set-up, then timed jobs.

Started by run.py, which times set-up from just before this process starts.
Set-up ends after `import femin` and one untimed warm-up job; the time spent
generating that job's inputs is reported so that it can be subtracted. Then,
unless --setup-only is given, jobs run one at a time in a closed loop, each
on fresh inputs generated outside its timed span, until at least MIN_JOBS
jobs have run and their spans add up to at least --seconds. Every job's
outputs are checked after its span ends. The last line of output is one JSON
object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import time

import workloads  # imports femin

# Ends the timed phase early if the program becomes so slow that the run
# would not finish in reasonable time; the result then reports it.
MAX_PHASE_S = 100.0
# p90 then has at least ten samples beyond it.
MIN_JOBS = 100


def _check(errors, index, workload, inputs, outputs):
    # Any exception from a checker means the output is not what it must be.
    try:
        workload.check(inputs, outputs)
    except Exception as exc:  # noqa: BLE001
        errors.append(f"job {index}: {type(exc).__name__}: {exc}")


def measure(workload, seed, seconds, min_jobs, trace, setup_only, workdir):
    start = time.monotonic()
    inputs = workload.make_inputs(seed, 0, workdir)
    gen_s = time.monotonic() - start
    outputs = workload.run(inputs)
    setup_end = time.monotonic()
    errors = []
    _check(errors, 0, workload, inputs, outputs)
    result = {"setup_end": setup_end, "gen_s": gen_s, "errors": errors}
    if setup_only:
        return result

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    latencies, failures = [], []
    busy = 0.0
    phase_start = time.monotonic()
    try:
        for index in itertools.count(1):
            inputs = workload.make_inputs(seed, index, workdir)
            start = time.perf_counter()
            try:
                outputs = workload.run(inputs)
            except Exception as exc:  # noqa: BLE001  (a failed job is counted, not fatal)
                busy += time.perf_counter() - start
                failures.append(f"job {index}: {type(exc).__name__}: {exc}")
            else:
                latency = time.perf_counter() - start
                busy += latency
                latencies.append(latency)
                _check(errors, index, workload, inputs, outputs)
            if index >= min_jobs and busy >= seconds:
                break
            if time.monotonic() - phase_start > MAX_PHASE_S:
                errors.append(f"timed phase cut after {index} jobs and {MAX_PHASE_S} s")
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.update(
        attempted=index,
        failures=failures,
        latencies=latencies,
        busy_s=busy,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    if tracer is not None:
        result["per_layer"] = tracer.per_job(max(len(latencies), 1))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True, help="scratch directory for input files")
    args = parser.parse_args(argv)
    workdir = os.path.join(args.workdir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = measure(
            workloads.WORKLOADS[args.workload](),
            args.seed,
            args.seconds,
            MIN_JOBS,
            args.trace,
            args.setup_only,
            workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
