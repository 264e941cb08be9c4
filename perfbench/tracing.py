"""Per-layer tracing of coverkit from outside the package.

``Tracer.install`` wraps every public module-level function of each layer
module, plus the methods and arithmetic of ``CyclotomicElement`` (the
cyclotomic layer's interface is that class), and rebinds every name that
refers to an original: in each ``coverkit`` module and in the modules the
benchmark passes in.  Calls between layers, such as ``covering`` calling
``phi_sum_cardinality`` through its own import, are therefore attributed.
Small per-element methods of the other classes (``value_at``,
``contains``) stay unwrapped; their time counts toward their caller.

Every wrapped call is a span (name, start, end, parent span, operation id).
Self time is a span's duration minus that of its child spans.  Spans are
held in memory until ``flush``, which the benchmark calls between
operations, outside every span and every timed region, and then appended to
the spans file; none is dropped.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

LAYERS = ("numtheory", "fracsets", "cyclotomic", "covering", "_kernels", "oracle", "multidim", "cli")
CYCLOTOMIC_METHODS = (
    "zero", "constant", "lift", "is_zero",
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__eq__",
)  # fmt: skip
SPAN_FIELDS = ["id", "name", "start_ns", "end_ns", "parent", "op"]


def _window_bound_subsets(args, kwargs) -> int:
    k, m = len(args[0]), args[1] if len(args) > 1 else kwargs["m"]
    return math.comb(k, k - m + 1)


def _box_points(args, kwargs) -> int:
    seqs, n0 = args[0], args[1]
    return math.prod(math.lcm(c, *(s.modulus[t] for s in seqs)) for t, c in enumerate(n0))


def _counters() -> dict[str, Callable]:
    """Counts recorded at layer boundaries, from each call's arguments and
    result: name -> hook(counts, args, kwargs, result)."""

    def add(key, value_of):
        def hook(counts, args, kwargs, result):
            counts[key] += value_of(args, kwargs, result)

        return hook

    def both(*hooks):
        def hook(*a):
            for h in hooks:
                h(*a)

        return hook

    length = add("kernels.points", lambda a, kw, r: a[4] if len(a) > 4 else kw["length"])
    fallback = add("covering.exact_fallbacks", lambda a, kw, r: r is None)
    return {
        "cyclotomic.CyclotomicElement.is_zero": both(
            add("cyclotomic.is_zero.nonzero", lambda a, kw, r: not r),
            add("cyclotomic.coeff_terms", lambda a, kw, r: a[0].level),
        ),
        "fracsets.phi_sum_cardinality": add("fracsets.window_points", lambda a, kw, r: r),
        "fracsets.window_bound": both(
            add("fracsets.window_points", lambda a, kw, r: r),
            add("fracsets.window_bound.subsets", lambda a, kw, r: _window_bound_subsets(a, kw)),
        ),
        "covering.cover_scaled": fallback,
        "covering.tables_scaled": fallback,
        "_kernels.cover_counts": length,
        "_kernels.table_sums": length,
        "oracle.brute_cover_verdict": add(
            "oracle.points", lambda a, kw, r: math.lcm(*a[0].moduli, a[1].period)
        ),
        "oracle.brute_tables_zero_verdict": add(
            "oracle.points", lambda a, kw, r: math.lcm(*(t.period for t in a[0]))
        ),
        "oracle.brute_least_period": add("oracle.points", lambda a, kw, r: a[0].period),
        "multidim.is_periodic_mod_vec": add("multidim.box_points", lambda a, kw, r: _box_points(a, kw)),
    }


class Tracer:
    def __init__(self, spans_path: Path):
        self.names: list[str] = []
        self.layer: list[str] = []
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.entries = Counter()  # calls into a layer from outside it
        self.counts = Counter()
        self.spans_written = 0
        self._pending: list[tuple] = []
        self._spans_file = open(spans_path, "w", encoding="utf-8")
        self._spans_file.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name id, child ns]
        self._patches: list[tuple] = []
        self._op_names: dict[str, int] = {}
        self._t0 = time.perf_counter_ns()

    def _name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer.append(layer)
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.names) - 1

    def _open(self, nid: int) -> list:
        stack = self._stack
        layer = self.layer[nid]
        if not stack or self.layer[stack[-1][1]] != layer:
            self.entries[layer] += 1
        frame = [self._next_id, nid, 0]
        self._next_id += 1
        stack.append(frame)
        return frame

    def _close(self, frame: list, start: int, end: int) -> None:
        stack = self._stack
        stack.pop()
        dur = end - start
        nid = frame[1]
        self.self_ns[nid] += dur - frame[2]
        self.calls[nid] += 1
        parent = stack[-1][0] if stack else -1
        if stack:
            stack[-1][2] += dur
        self._pending.append((frame[0], nid, start - self._t0, end - self._t0, parent, self.op))

    def wrap(self, name: str, layer: str, fn: Callable, hook: Callable | None = None) -> Callable:
        nid = self._name(name, layer)
        clock = time.perf_counter_ns
        counts = self.counts

        def traced(*args, **kwargs):
            frame = self._open(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start, clock())
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def run_op(self, op_id: int, kind: str, call: Callable):
        """Run one operation as a root span named op.<kind>."""
        self.op = op_id
        if kind not in self._op_names:
            self._op_names[kind] = self._name(f"op.{kind}", "harness")
        frame = self._open(self._op_names[kind])
        start = time.perf_counter_ns()
        try:
            return call()
        finally:
            self._close(frame, start, time.perf_counter_ns())

    # -- installation --------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap the public functions of every layer and rebind all references."""
        from coverkit.cyclotomic import CyclotomicElement

        hooks = _counters()
        replace: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"coverkit.{layer}")
            names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            for attr in names:
                fn = getattr(module, attr)
                if isinstance(fn, type) or not callable(fn) or getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                replace[id(fn)] = self.wrap(name, layer, fn, hooks.get(name))
        modules = [m for n, m in sys.modules.items() if n == "coverkit" or n.startswith("coverkit.")]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)].__wrapped__ is value:
                    self._patch(module, attr, replace[id(value)])
        for attr in CYCLOTOMIC_METHODS:
            raw = CyclotomicElement.__dict__[attr]
            name = f"cyclotomic.CyclotomicElement.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, "cyclotomic", raw.__func__, hooks.get(name)))
            else:
                wrapped = self.wrap(name, "cyclotomic", raw, hooks.get(name))
            self._patch(CyclotomicElement, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def self_s(self, predicate: Callable[[str, str], bool]) -> float:
        ns = sum(t for n, l, t in zip(self.names, self.layer, self.self_ns) if predicate(n, l))
        return ns / 1e9

    def call_count(self, predicate: Callable[[str, str], bool]) -> int:
        return sum(c for n, l, c in zip(self.names, self.layer, self.calls) if predicate(n, l))

    def flush(self) -> None:
        """Append the spans closed since the last flush to the spans file,
        one JSON list per line with the span's name spelled out."""
        names = self.names
        self._spans_file.writelines(
            json.dumps([sid, names[nid], start, end, parent, op]) + "\n"
            for sid, nid, start, end, parent, op in self._pending
        )
        self.spans_written += len(self._pending)
        self._pending.clear()

    def close(self) -> None:
        self.flush()
        self._spans_file.close()
