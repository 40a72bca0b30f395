"""Golden command-line outputs: stdout, stderr and exit code, byte for byte.

The expected values in tests/data/cli_golden.json were recorded from an
earlier version of the package; a change that only makes the arithmetic
faster must reproduce them exactly.  Re-record only for a change that is
meant to alter printed results:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from conftest import run_cli

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

# The commands recorded by the re-record block below; the test reads them
# back from the golden file.
CASES = [
    ("verify-all",),
    ("--format", "json", "verify-all"),
    ("verify-all", "--quiver", "d4", "--max-total", "3", "--trials", "4"),
    ("qpoly", "--quiver", "a2", "--orbit", "1,1,1"),
    ("qpoly", "--quiver", "a2", "--orbit", "2,2,2"),
    ("--format", "json", "qpoly", "--quiver", "a2", "--orbit", "2,1,2"),
    ("qpoly", "--quiver", "a3", "--orbit", "1,0,1,0,0,1"),
    ("qpoly", "--quiver", "a3", "--orbit", "1,0,2,0,0,1"),
    ("euler", "--quiver", "a2", "--orbit", "2,2,2"),
    ("euler", "--quiver", "a3", "--orbit", "1,0,2,0,0,1"),
    ("--format", "json", "euler", "--quiver", "a3", "--orbit", "1,0,1,0,1,0"),
    (
        "mul", "--quiver", "a2", "--gamma1", "2,0", "--gamma2", "1,1",
        "--f1", "3*w[1,1]*w[1,2] - 2*w[1,1]^2 - 2*w[1,2]^2",
        "--f2", "5*w[2,1] - 7",
    ),
    (
        "--format", "json", "mul", "--quiver", "a3", "--gamma1", "1,1,0",
        "--gamma2", "0,1,1", "--f1", "4*w[1,1]*w[2,1] + 3",
        "--f2", "-6*w[3,1]^2 + 2*w[2,1]",
    ),
    (
        "mul", "--quiver", "a2", "--gamma1", "2,0", "--gamma2", "1,0",
        "--f1", "w[1,1]^2", "--f2", "1",
    ),
    (
        "residue-mul", "--quiver", "a2", "--gamma1", "2,1", "--gamma2", "1,1",
        "--g", "2*a[1,1]^2*a[1,2] + 3*a[2,1]", "--f2", "w[1,1] - 3*w[2,1]^2",
    ),
    (
        "--format", "json", "residue-mul", "--quiver", "a3", "--gamma1", "1,1,0",
        "--gamma2", "0,1,1", "--g", "3*a[1,1]^2*a[2,1] - 2*a[2,1]",
        "--f2", "5*w[2,1] - 4*w[3,1]",
    ),
]


def record(args):
    result = run_cli(*args)
    return {
        "args": list(args),
        "returncode": result.returncode,
        "stdout": result.stdout,
        "stderr": result.stderr,
    }


GOLDEN_ENTRIES = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "entry", GOLDEN_ENTRIES, ids=[" ".join(e["args"])[:60] for e in GOLDEN_ENTRIES]
)
def test_cli_output_matches_golden(entry):
    assert record(entry["args"]) == entry


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([record(c) for c in CASES], indent=1) + "\n")
    print(f"recorded {len(CASES)} cases in {GOLDEN}", file=sys.stderr)
