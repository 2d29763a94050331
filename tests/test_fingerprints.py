"""The CLI outputs against the fingerprints committed in tools/cli_bytes.txt.

tools/cli_bytes.py hashes every output on a fixed set of inputs. Its hashes
depend on numpy's summation order, its SIMD kernels and the BLAS, so they
are compared only on the platform its first line names. Elsewhere the test
still compares every line's name and exit code, and then skips with both
platforms named, so the skip shows in the summary.
"""

import difflib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_bytes.py"
GOLDEN = ROOT / "tools" / "cli_bytes.txt"
HASH = re.compile(r" [0-9a-f]{64}")


def differing_lines(expected, got):
    diff = difflib.unified_diff(expected, got, str(GOLDEN.relative_to(ROOT)), "this run", lineterm="", n=0)
    return "\n".join(line for line in diff if not line.startswith("@@"))


def test_cli_outputs_match_the_committed_fingerprints():
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=False)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    (golden_platform, *golden), (platform, *got) = GOLDEN.read_text().splitlines(), run.stdout.splitlines()
    if platform != golden_platform:
        names = differing_lines([HASH.sub("", line) for line in golden], [HASH.sub("", line) for line in got])
        assert not names, f"names or exit codes moved:\n{names}"
        pytest.skip(f"hashes not compared: {GOLDEN.name} was made on {golden_platform[2:]}, this is {platform[2:]}")
    moved = differing_lines(golden, got)
    assert not moved, f"outputs moved; if on purpose, rerun python tools/cli_bytes.py > tools/cli_bytes.txt\n{moved}"
