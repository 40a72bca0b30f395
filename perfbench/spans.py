"""Per-layer spans installed from outside the package.

`Spans.install` wraps every public function of each layer module, and every
public method (plus the arithmetic operators) of each class a layer defines.
A wrapper records one span per call: its duration, and its self time, which
is the duration minus the time covered by the spans it caused.  Spans are
folded into per-function totals as they close, so memory stays flat.

`from .x import y` copies a function into another namespace, where a wrapper
set on `x` alone would never see the call.  `install` therefore rebinds the
original in every module of the package, and `unwrapped_bindings` reports
any namespace that still holds an original.

Generator functions are left unwrapped: a span around one would close before
its body runs, so their time stays with the caller's span.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

LAYERS = ("quiver", "roots", "modrep", "linalg", "polyblock", "coha", "residue",
          "qseries", "qalg", "verify")
OPERATORS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__",
             "__truediv__"}
PACKAGE = "dynkin_coha"


def _shuffle_assignments(args):
    f1, f2 = args[0], args[1]
    return math.prod(math.comb(a + b, a) for a, b in zip(f1.gamma, f2.gamma))


def _rank_entries(args):
    return sum(len(row) for row in args[0])


# span key -> (counter name, counter from the call's arguments)
ARGUMENT_COUNTERS = {
    "coha.shuffle_mul": ("coha.shuffle_assignments", _shuffle_assignments),
    "linalg.rank": ("linalg.rank.entries", _rank_entries),
}


def _layer_functions(module):
    """(key, owner, attribute name, function) for every traced callable the
    module defines."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for attr, member in vars(obj).items():
                public = not attr.startswith("_")
                if isinstance(member, (classmethod, staticmethod)) and public:
                    yield f"{layer}.{name}.{attr}", obj, attr, member
                elif inspect.isfunction(member) and (public or attr in OPERATORS):
                    yield f"{layer}.{name}.{attr}", obj, attr, member
        elif (inspect.isfunction(obj) or hasattr(obj, "cache_info")) and not (
            inspect.isgeneratorfunction(obj)
        ):
            yield f"{layer}.{name}", module, name, obj


class Spans:
    """Span totals for one traced run; `install` and `uninstall` bracket it."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {name: 0 for name, _ in ARGUMENT_COUNTERS.values()}
        self.counters["polyblock.peak_terms"] = 0
        self._stack = [0.0]  # time covered by child spans, one slot per open span
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter
        calls[key] = 0
        self_s[key] = 0.0
        counter = ARGUMENT_COUNTERS.get(key)
        counters = self.counters
        peak_terms = key.startswith("polyblock.")

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if counter:
                counters[counter[0]] += counter[1](args)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - child
            if peak_terms:
                terms = getattr(result, "terms", None)
                if isinstance(terms, dict) and len(terms) > counters["polyblock.peak_terms"]:
                    counters["polyblock.peak_terms"] = len(terms)
            return result

        return span

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the layer modules of the currently imported package."""
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for key, owner, name, member in list(_layer_functions(module)):
                if isinstance(member, (classmethod, staticmethod)):
                    fn = member.__func__
                    if id(fn) not in self._wrappers:
                        self._wrappers[id(fn)] = self._wrap(key, fn)
                        self._originals[id(fn)] = fn
                    self._set(owner, name, type(member)(self._wrappers[id(fn)]))
                    continue
                if id(member) not in self._wrappers:  # __rmul__ = __mul__ shares a span
                    self._wrappers[id(member)] = self._wrap(key, member)
                    self._originals[id(member)] = member
                self._set(owner, name, self._wrappers[id(member)])
        for module in self._package_modules():
            for name, value in list(vars(module).items()):
                if self._originals.get(id(value)) is value:
                    self._set(module, name, self._wrappers[id(value)])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    @staticmethod
    def _package_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def unwrapped_bindings(self) -> list[str]:
        """Module-level names that still hold an unwrapped traced function."""
        return [f"{module.__name__}.{name}"
                for module in self._package_modules()
                for name, value in vars(module).items()
                if self._originals.get(id(value)) is value]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals and the named counters, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            keys = [k for k in self.calls if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = (sum(self.calls[k] for k in keys), "count")
            out[f"{layer}.self_s"] = (sum(self.self_s[k] for k in keys), "s")
        for name, key in [
            ("modrep.root_data.calls", "modrep.root_data"),
            ("modrep.indecomposable.calls", "modrep.indecomposable"),
            ("modrep.hom_dim.calls", "modrep.hom_dim"),
            ("linalg.rank.calls", "linalg.rank"),
            ("coha.shuffle_mul.calls", "coha.shuffle_mul"),
            ("polyblock.exact_div_linear.calls", "polyblock.exact_div_linear"),
            ("polyblock.mul.calls", "polyblock.MPoly.__mul__"),
            ("residue.residue_mul.calls", "residue.residue_mul"),
            ("residue.delta_schur.calls", "residue.delta_schur"),
        ]:
            out[name] = (self.calls.get(key, 0), "count")
        for name, value in self.counters.items():
            out[name] = (value, "count")
        return out

    def top_functions(self, limit: int = 12) -> list[dict]:
        """The functions with the largest self time, for the run metadata."""
        ranked = sorted(self.self_s, key=self.self_s.get, reverse=True)[:limit]
        return [{"span": k, "calls": self.calls[k], "self_s": round(self.self_s[k], 6)}
                for k in ranked if self.calls[k]]
