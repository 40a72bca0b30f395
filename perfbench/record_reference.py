"""Record the result digests of the default seed into reference.json.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter printed results; every digest
must otherwise stay as recorded.  Each workload's op list is run once, its
checks must all pass, and the digests are written in op order.
"""

from __future__ import annotations

import json
import signal
import sys

import run as bench
import workloads as wl


def main() -> int:
    sys.path.insert(0, bench.SRC)
    signal.signal(signal.SIGALRM, bench._on_alarm)
    out = {"seed": bench.DEFAULT_SEED, "workloads": {}}
    for name, workload in wl.WORKLOADS.items():
        run = bench.Run(workload, bench.DEFAULT_SEED, None, False, None)
        ops = run.setup(0)
        _, results = run.time_ops(ops)
        run.check(ops, results)
        if run.failures:
            print(f"{name}: {run.failures[:3]}", file=sys.stderr)
            return 1
        out["workloads"][name] = run.first_digests
        print(f"{name}: {len(ops)} digests", file=sys.stderr)
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
