"""Print a sha256 of every stdout femin produces on the benchmark's CLI
inputs and of every demo's stdout, one `<name> <exit code> <sha256>` line each.

The CLI part runs the 10 `cli_session` invocations (bench/workloads.py) on
the inputs of seeds 0-2, jobs 0-5: 180 outputs, in-process through
`femin.cli.main`. The demo part runs each script in demos/ in a fresh
interpreter. Both use femin from the `src/` next to this file and one BLAS
thread. Run it on two checkouts and diff the results to see which outputs
moved:

    python tools/cli_bytes.py > after.txt

bench/ is only imported. Input files are written to a temporary directory
under relative names, because `solve` echoes its input paths to stdout.
"""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREADS)  # before numpy is imported
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import femin.cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(3)
JOBS = range(6)


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


def demo_lines():
    env = {**os.environ, **THREADS, "PYTHONPATH": str(ROOT / "src")}
    for path in sorted((ROOT / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as workdir:  # demo 02 writes a CSV here
            run = subprocess.run(
                [sys.executable, str(path)], cwd=workdir, env=env, capture_output=True, text=True, check=False
            )
        yield f"demo {path.name} {run.returncode} {digest(run.stdout)}"


def main() -> int:
    for line in (*cli_lines(), *demo_lines()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
