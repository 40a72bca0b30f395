"""Orbit classes too large for the golden CLI file, pinned by digest.

tests/data/large_classes.json holds the sha256 digest of the printed A2
orbit-closure class of each listed orbit, recorded from an earlier version
of the package; a change that only makes the arithmetic faster must
reproduce them exactly.  Re-record only for a change that is meant to alter
printed results:

    PYTHONPATH=src python tests/test_large_classes.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dynkin_coha import coha

from conftest import load_quiver

DIGESTS = Path(__file__).resolve().parent / "data" / "large_classes.json"

# The A2 orbits (multiplicity vectors) recorded by the re-record block below.
ORBITS = [(3, 1, 3), (4, 0, 4)]


def record(m) -> dict:
    text = str(coha.quiver_polynomial(load_quiver("a2"), m).poly)
    return {"quiver": "a2", "orbit": list(m), "sha256": hashlib.sha256(text.encode()).hexdigest()}


ENTRIES = json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[str(tuple(e["orbit"])) for e in ENTRIES])
def test_class_digest_matches_record(entry):
    assert record(tuple(entry["orbit"])) == entry


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps([record(m) for m in ORBITS], indent=1) + "\n")
    print(f"recorded {len(ORBITS)} digests in {DIGESTS}", file=sys.stderr)
