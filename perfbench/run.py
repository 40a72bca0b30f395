"""Seeded benchmark of dynkin-coha: one workload per process.

    python3 perfbench/run.py --workload orbit-classes --seed 1 --seconds 20 --trace 0

A run sets up several times (fresh import of the package from ./src, input
generation from the seed, warm-up) and then repeats one pass over the
workload's op list until --seconds of op time have been measured, and at
least twice.  Every pass starts from a fresh import, so no cache carries
over.  Each op is timed alone, and its time is scaled to a reference host
speed measured by a fixed kernel run around it (see kernel_ms); the metrics
pool every timed call of the run.  Passes alternate between the CPUs the
process may use.

The first pass checks every result (workloads.py) and hashes its printed
form; for the default seed the hashes must match perfbench/reference.json.
Later passes, and the traced pass, must reproduce the first pass's hashes,
except for ops whose inputs a reseeding workload drew anew, which are
checked afresh.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass and
one traced pass and prints the per-layer metrics from perfbench/spans.py.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The line before it holds the run metadata.  The exit code is 0 when every op
passed its checks, 1 when one did not, and 2 when there is no package to
import or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import spans as spans_mod  # noqa: E402
import workloads as wl  # noqa: E402

DEFAULT_SEED = 1
SETUPS = 3  # set-ups before the first pass; each later pass adds one
MIN_PASSES = 2
OP_LIMIT_S = 30.0  # an op running longer fails as a timeout
RUN_LIMIT_S = 150.0  # ops not started by then fail without running
MIN_P90_OPS = 100  # op_p90_ms is reported only from runs at least this large
REFERENCE = os.path.join(HERE, "reference.json")


# Host speed.  Every op is bracketed by runs of a fixed pure-Python kernel
# that calls nothing of the package; an op's time is scaled by REF_KERNEL_MS
# over the kernel's median time around that op, so a host that slows for a
# while (by twofold here, for seconds to minutes, one CPU at a time) slows
# the kernel with it and leaves the reported figure in place.  The kernel is
# the geometric mean of two parts: a small dict-polynomial product, which
# stays in the core's caches and tracked short ops best, and lookups spread
# over a table larger than the 2 MiB per-core L2, which tracked the long,
# memory-heavy ops better; either part alone left more of the host's noise
# in one kind of op.  REF_KERNEL_MS only fixes the unit: reported times are
# milliseconds at a host speed where the kernel takes REF_KERNEL_MS (on the
# host this benchmark was written on, 2 vCPUs and Python 3.11.7, it took
# 1.5-2.6 ms).  Wall times go into the metadata.
REF_KERNEL_MS = 1.0
KERNEL_WINDOW = 3  # kernel runs on each side of an op that set its scale
KERNEL_EVERY_S = 0.01  # op time between kernel runs; shorter ops share one
_POLY = {(i, j): (i * 7 + j) % 11 - 5 for i in range(8) for j in range(9)}
_rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
_TABLE = {(i % 97, i // 97, i % 13): i for i in range(25000)}
KERNEL_TABLE_MB = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - _rss_before) / 1024
_PROBES = [(k % 97, k // 97, k % 13) for k in ((i * 7919) % 25000 for i in range(3000))]


def kernel_ms() -> float:
    """Time the kernel once, in ms."""
    start = time.perf_counter()
    out: dict = {}
    for (i, j), c in _POLY.items():
        for (k, l), d in _POLY.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    mid = time.perf_counter()
    out = {}
    for key in _PROBES:
        v = _TABLE[key]
        short = (key[0], key[2])
        out[short] = out.get(short, 0) + v
    end = time.perf_counter()
    return math.sqrt((mid - start) * (end - mid)) * 1000


def scale(kernel: list[float], index: int) -> float:
    """Factor from wall time to reference time for an op that ran after
    kernel[index] and before kernel[index + 1]."""
    window = kernel[max(0, index + 1 - KERNEL_WINDOW): index + 1 + KERNEL_WINDOW]
    return REF_KERNEL_MS / statistics.median(window)


def hd_median(xs: list[float]) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted by
    the Beta((n+1)/2, (n+1)/2) mass of their slice of [0, 1].  A run's op times
    come in clusters with gaps between them, often at the middle, where the
    sample median jumps from one cluster to the next on a small shift."""
    xs = sorted(xs)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 1.0 if a == 1 else 0.0
        return math.exp(log_norm + (a - 1) * math.log(x * (1 - x)))

    # Simpson's rule on each slice [i/n, (i+1)/n]
    weights = [(pdf(i / n) + 4 * pdf((i + 0.5) / n) + pdf((i + 1) / n)) / (6 * n)
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def fresh_import() -> wl.Package:
    """Drop every loaded module of the package and import it again."""
    for name in [m for m in sys.modules if m == "dynkin_coha" or m.startswith("dynkin_coha.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"dynkin_coha.{name}")
            for name in ("coha", "modrep", "polyblock", "quiver", "residue", "verify",
                         "cli", "roots")}
    return wl.Package(**mods)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """State of one benchmark run: op timings, failures, digests."""

    def __init__(self, workload: wl.Workload, seed: int, max_ops: int | None,
                 plant_defect: bool, reference: list[str] | None):
        self.workload = workload
        self.seed = seed
        self.max_ops = max_ops
        self.plant_defect = plant_defect
        self.started = time.perf_counter()
        self.setup_s: list[float] = []  # reference seconds
        self.setup_wall_s: list[float] = []
        self.op_s: list[float] = []  # every completed op call, reference seconds
        self.op_wall_s: list[float] = []
        self.kernel_ms: list[float] = []  # every kernel run of the run
        self.attempted = 0
        self.failures: list[dict] = []
        self.passes = 0
        self.specs: list[dict] = []
        self.first_digests: list[str | None] | None = None
        self.first_specs: list[dict] = []
        self.reference = reference  # recorded digests of the default seed

    def setup(self, pass_index: int) -> list[wl.Op]:
        kernel = [kernel_ms() for _ in range(KERNEL_WINDOW)]
        start = time.perf_counter()
        pkg = fresh_import()
        self.specs, ops = wl.setup(pkg, self.workload, self.seed, pass_index)
        if self.max_ops is not None:
            self.specs, ops = self.specs[: self.max_ops], ops[: self.max_ops]
        elapsed = time.perf_counter() - start
        kernel += [kernel_ms() for _ in range(KERNEL_WINDOW)]
        self.kernel_ms += kernel
        self.setup_wall_s.append(elapsed)
        self.setup_s.append(elapsed * scale(kernel, KERNEL_WINDOW - 1))
        return ops

    def fail(self, index: int, op: wl.Op, reason: str) -> None:
        self.failures.append({"pass": self.passes, "op": index, "kind": op.kind,
                              "reason": reason, "inputs": op.inputs})

    def time_ops(self, ops: list[wl.Op]) -> tuple[float, list]:
        """Call every op under the time limit; returns the summed op time and
        the results (None for an op that failed)."""
        results = []
        pass_s = 0.0
        kernel: list[float] = []
        timed: list[tuple[int, float]] = []  # (last kernel run before it, op time)
        since_kernel = KERNEL_EVERY_S
        for index, op in enumerate(ops):
            if since_kernel >= KERNEL_EVERY_S:
                kernel.append(kernel_ms())
                since_kernel = 0.0
            self.attempted += 1
            if time.perf_counter() - self.started > RUN_LIMIT_S:
                self.fail(index, op, f"not started: run exceeded {RUN_LIMIT_S:.0f} s")
                results.append(None)
                continue
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            try:
                start = time.perf_counter()
                result = op.call()
                elapsed = time.perf_counter() - start
            except OpTimeout:
                since_kernel = KERNEL_EVERY_S
                self.fail(index, op, f"timeout after {OP_LIMIT_S:.0f} s")
                results.append(None)
                continue
            except Exception as exc:  # an op that raises is a failed op, not a crash
                self.fail(index, op, f"{type(exc).__name__}: {exc}")
                results.append(None)
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            pass_s += elapsed
            since_kernel += elapsed
            timed.append((len(kernel) - 1, elapsed))
            if self.plant_defect and self.passes == 0 and index == 0:
                result = op.corrupt(result)
            results.append(result)
        kernel.append(kernel_ms())
        for k, elapsed in timed:
            self.op_wall_s.append(elapsed)
            self.op_s.append(elapsed * scale(kernel, k))
        self.kernel_ms += kernel
        return pass_s, results

    def check(self, ops: list[wl.Op], results: list) -> None:
        """First pass: check every result and record the digest of its
        printed form.  Later passes: every digest must repeat, except where
        the op's inputs are new (a reseeding workload), which are checked
        afresh."""
        first = self.first_digests is None
        digests: list[str | None] = []
        for index, (op, result) in enumerate(zip(ops, results)):
            if result is None:
                digests.append(None)
                continue
            d = digest(op.render(result))
            problem = None
            if first:
                problem = op.check(result)
                if problem is None and self.reference is not None and (
                    index >= len(self.reference) or self.reference[index] != d
                ):
                    problem = "digest differs from the recorded reference"
            elif self.specs[index] != self.first_specs[index]:
                problem = op.check(result)
            elif self.first_digests[index] not in (None, d):
                problem = "result differs from the first pass"
            if problem is not None:
                self.fail(index, op, problem)
                d = None
            digests.append(d)
        if first:
            self.first_digests = digests
            self.first_specs = self.specs
        self.passes += 1

    def describe(self) -> dict:
        kinds: dict[str, int] = {}
        for spec in self.specs:
            kinds[spec["kind"]] = kinds.get(spec["kind"], 0) + 1
        sizes = [spec["size"] for spec in self.specs]
        return {"ops_per_pass": len(sizes), "ops_by_kind": kinds,
                "input_size_max": max(sizes, default=0),
                "input_size_sum": sum(sizes)}

    def metadata(self, extra: dict) -> dict:
        meta = {
            "workload": self.workload.name,
            "seed": self.seed,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_sha": git_sha(),
            "passes": self.passes,
            "ops_completed": len(self.op_s),
            "inputs": self.describe(),
            "setup_s": [round(s, 6) for s in self.setup_s],
            "setup_wall_s": [round(s, 6) for s in self.setup_wall_s],
            "kernel_ms_quartiles": (statistics.quantiles(self.kernel_ms, n=4)
                                    if len(self.kernel_ms) > 1 else self.kernel_ms),
            "kernel_table_mb": KERNEL_TABLE_MB,
            "fail_rate": len(self.failures) / max(1, self.attempted),
            "failures": self.failures[:20],
        }
        if self.op_wall_s:
            meta["wall_ops_per_s"] = len(self.op_wall_s) / sum(self.op_wall_s)
            meta["wall_op_p50_ms"] = statistics.median(self.op_wall_s) * 1000
        if len(self.op_s) >= MIN_P90_OPS:
            meta["op_p90_ms"] = statistics.quantiles(self.op_s, n=10)[-1] * 1000
        meta.update(extra)
        return meta


def end_to_end(run: Run, seconds: float) -> dict:
    cpus = sorted(os.sched_getaffinity(0))
    measured = 0.0
    try:
        # the kernel must run on the CPU its op runs on
        os.sched_setaffinity(0, {cpus[0]})
        for _ in range(SETUPS - 1):
            run.setup(0)
        while True:
            os.sched_setaffinity(0, {cpus[run.passes % len(cpus)]})
            ops = run.setup(run.passes)
            pass_s, results = run.time_ops(ops)
            run.check(ops, results)
            measured += pass_s
            del ops, results
            gc.collect()
            if run.max_ops is not None or (
                measured >= seconds and run.passes >= MIN_PASSES
            ):
                break
    finally:
        os.sched_setaffinity(0, cpus)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_s = run.op_s
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "ops_per_s": (len(op_s) / sum(op_s) if op_s else 0.0, "1/s"),
        "op_p50_ms": (hd_median(op_s) * 1000 if op_s else 0.0, "ms"),
        "ok_rate": ((run.attempted - len(run.failures)) / max(1, run.attempted), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(run: Run) -> tuple[dict, dict]:
    # both passes on the first pass's inputs, so the traced one must repeat
    # every digest of the untraced one
    ops = run.setup(0)
    untraced_s, results = run.time_ops(ops)
    run.check(ops, results)
    ops = run.setup(0)
    spans = spans_mod.Spans()
    spans.install()
    try:
        missed = spans.unwrapped_bindings()
        traced_s, results = run.time_ops(ops)
    finally:
        spans.uninstall()
    run.check(ops, results)
    if missed:
        run.failures.append({"reason": "traced functions left unwrapped", "names": missed})
    metrics = spans.layer_metrics()
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    extra = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
             "top_spans": spans.top_functions()}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="smoke mode: one pass over the first N ops")
    parser.add_argument("--plant-defect", action="store_true",
                        help="self-test: corrupt the first result, which must then fail")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dynkin_coha", "__init__.py")):
        print(f"run.py: no package at {SRC}/dynkin_coha", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)

    reference = None
    if args.seed == DEFAULT_SEED:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)["workloads"][args.workload]
    run = Run(wl.WORKLOADS[args.workload], args.seed, args.max_ops, args.plant_defect,
              reference)
    if args.trace:
        metrics, extra = per_layer(run)
    else:
        metrics, extra = end_to_end(run, args.seconds), {}

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({"meta": run.metadata(extra)}))
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
