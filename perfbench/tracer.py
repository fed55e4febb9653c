"""Span tracer for the traced benchmark run.

It wraps the public functions and methods of each qbernstein layer from the
outside; no file of the package changes.  A span is recorded when a call
enters a layer from a different layer (or from the benchmark itself), so
calls inside a layer cost a stack check and nothing else.  Spans live in a
flat in-memory array and are written out only when the op has ended.

A few functions are additionally counted and timed on every call, including
calls from their own layer (UPoly mul called by compose, for instance), and
every Fraction arithmetic call is counted and timed.
"""

from __future__ import annotations

import array
import gzip
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("cli", "verify", "bernstein", "upoly", "euler", "integrals", "stirling", "qcore", "kernel")
BENCH = "bench"

# Functions timed on every call, by "<layer>.<qualname>".
FUNCTION_METRICS = {
    "upoly.UPoly.__mul__": "upoly.mul",
    "upoly.UPoly.__rmul__": "upoly.mul",
    "upoly.UPoly.compose": "upoly.compose",
    "euler.euler_table": "euler.table",
    "euler.fermionic_sum": "euler.fermionic",
    "integrals.fermionic_basis_sum": "integrals.fermionic_basis",
}

FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__",
    "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)

# Class attributes left alone: object protocol that is not layer work.
_SKIP_METHODS = {"__new__", "__setattr__", "__delattr__", "__init_subclass__", "__class_getitem__"}

_FIELDS = 5  # id, parent id, name index, start ns, end ns


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


class Tracer:
    """Records spans and counters for one op in one process."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans = array.array("q")
        self.stack = [(BENCH, 0)]
        self._ids = itertools.count(1)
        self.fn_calls: dict[str, int] = defaultdict(int)
        self.fn_ns: dict[str, int] = defaultdict(int)
        self.fraction = [0, 0]  # calls, ns
        self.max_bits = 0
        self._bits_seen: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions, methods and properties, and
        the Fraction arithmetic operators."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qbernstein.{layer}")
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-exported from elsewhere, e.g. Fraction
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        # Rebind every module-level reference, including `from x import f` copies.
        for module_name in ("qbernstein", "qbernstein.tables", *(f"qbernstein.{m}" for m in LAYERS)):
            module = importlib.import_module(module_name)
            for name, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, name, replaced[id(value)])
        for name in FRACTION_OPS:
            if name in vars(Fraction):
                setattr(Fraction, name, self._wrap_fraction(getattr(Fraction, name)))

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if not _public(name) or name in _SKIP_METHODS:
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, label))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, layer, label)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, label)))
            elif isinstance(attr, property) and attr.fget is not None:
                setattr(cls, name, property(self._wrap(attr.fget, layer, label), attr.fset, attr.fdel, attr.__doc__))

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _wrap(self, fn, layer: str, name: str):
        stack, spans, ids = self.stack, self.spans, self._ids
        clock = time.perf_counter_ns
        name_idx = self._intern(name)
        metric = FUNCTION_METRICS.get(name)
        fn_calls, fn_ns = self.fn_calls, self.fn_ns
        after = self._note_table_bits if metric == "euler.table" else None

        def wrapper(*args, **kwargs):
            cross = stack[-1][0] != layer
            if not cross and metric is None:
                return fn(*args, **kwargs)
            if cross:
                sid = next(ids)
                parent = stack[-1][1]
                stack.append((layer, sid))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if cross:
                    stack.pop()
                    spans.extend((sid, parent, name_idx, t0, t1))
                if metric is not None:
                    fn_calls[metric] += 1
                    fn_ns[metric] += t1 - t0
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_fraction(self, fn):
        acc = self.fraction
        clock = time.perf_counter_ns

        def op(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                acc[0] += 1
                acc[1] += clock() - t0

        return op

    def _note_table_bits(self, table) -> None:
        key = (table.q, len(table.values))
        if key in self._bits_seen:
            return
        self._bits_seen.add(key)
        for v in table.values:
            self.max_bits = max(self.max_bits, v.numerator.bit_length(), v.denominator.bit_length())

    # -- benchmark-side spans -------------------------------------------------

    def call(self, name: str, fn, *args):
        """Run fn inside a span of the benchmark's own, e.g. one verify suite."""
        sid = next(self._ids)
        parent = self.stack[-1][1]
        self.stack.append((BENCH, sid))
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            self.spans.extend((sid, parent, self._intern(f"{BENCH}.{name}"), t0, t1))

    # -- results ----------------------------------------------------------------

    def counters(self) -> dict:
        """Snapshot of the counters; take it before any post-op checking."""
        return {
            "fn_calls": dict(self.fn_calls),
            "fn_ns": dict(self.fn_ns),
            "fraction_ops": self.fraction[0],
            "fraction_ns": self.fraction[1],
            "max_bits": self.max_bits,
        }

    def span_rows(self):
        s = self.spans
        for i in range(0, len(s), _FIELDS):
            yield s[i], s[i + 1], self.names[s[i + 2]], s[i + 3], s[i + 4]

    def layer_metrics(self) -> dict:
        """Per layer: calls from other layers, inclusive busy time, and self
        time (busy minus the time of child spans).  Spans of the benchmark's
        own are reported by name with their busy time."""
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, parent, _name, t0, t1 in self.span_rows():
            child_ns[parent] += t1 - t0
        out = {f"{layer}.{k}": 0 for layer in LAYERS for k in ("calls", "busy_s", "self_s")}
        bench = {}
        for sid, parent, name, t0, t1 in self.span_rows():
            dur = t1 - t0
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                out[f"{layer}.calls"] += 1
                out[f"{layer}.busy_s"] += dur
                out[f"{layer}.self_s"] += dur - child_ns[sid]
            else:
                key = name.split(".", 1)[1]
                bench[key] = bench.get(key, 0) + dur
        for key in out:
            if not key.endswith(".calls"):
                out[key] /= 1e9
        out["root_busy_s"] = child_ns[0] / 1e9
        out["bench_spans_s"] = {k: v / 1e9 for k, v in bench.items()}
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON line: [op, id, parent, name, start_ns, end_ns]."""
        op = self.op_id
        quoted = [json.dumps(n) for n in self.names]
        s = self.spans
        chunk = 100_000 * _FIELDS
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for lo in range(0, len(s), chunk):
                fh.write("".join(
                    f"[{op},{s[i]},{s[i + 1]},{quoted[s[i + 2]]},{s[i + 3]},{s[i + 4]}]\n"
                    for i in range(lo, min(lo + chunk, len(s)), _FIELDS)
                ))
