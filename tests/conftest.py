import json
import subprocess
import sys
from pathlib import Path

import pytest

from dynkin_coha.quiver import Quiver, validate_dynkin

QUIVER_DIR = Path(__file__).resolve().parents[1] / "src/dynkin_coha/data/quivers"


def load_quiver(name: str) -> Quiver:
    data = json.loads((QUIVER_DIR / f"{name}.json").read_text())
    q, _ = validate_dynkin(data["vertices"], data["edges"])
    return q


def run_cli(*args, optimize=False):
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "dynkin_coha", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def a2() -> Quiver:
    return load_quiver("a2")


@pytest.fixture
def a3() -> Quiver:
    return load_quiver("a3")


@pytest.fixture
def d4() -> Quiver:
    return load_quiver("d4")
