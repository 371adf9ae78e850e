"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public functions of every cdcalc module, and
the DiffPoly and CDiffOp methods named in ``METHODS``, at every place they
are bound: the defining module, each module that imported the name (for
example ``cdcalc.spencer.rank``, ``cdcalc.pform.rank``,
``cdcalc.zcr.total_derivative``) and the package namespace.  Nothing under
``src/`` changes.

Each call opens a span on a stack.  When it closes, its duration is added
to its parent's child time, so a span's self time is its duration minus the
time its traced children took.  Spans are kept in memory, aggregated per
(item id, span name), because the symbolic workload makes millions of
DiffPoly calls; the trace file written at the end of a run holds those
aggregates per item.
"""

from __future__ import annotations

import types
from time import perf_counter

MODULES = ("expr", "jet", "ops", "spencer", "linalg", "compat", "zcr", "pform", "cli")

# (module, class) -> {method: span name}
METHODS = {
    ("expr", "DiffPoly"): {
        "__add__": "expr.DiffPoly.add", "__radd__": "expr.DiffPoly.add",
        "__sub__": "expr.DiffPoly.sub", "__rsub__": "expr.DiffPoly.sub",
        "__neg__": "expr.DiffPoly.neg", "__mul__": "expr.DiffPoly.mul",
        "__rmul__": "expr.DiffPoly.mul", "__pow__": "expr.DiffPoly.pow",
        "partial": "expr.DiffPoly.partial", "evaluate": "expr.DiffPoly.evaluate",
    },
    ("ops", "CDiffOp"): {"__matmul__": "ops.compose", "__call__": "ops.apply"},
}
# module functions that only delegate to a traced method; wrapping them too
# would count every composition and application twice
DELEGATES = {("ops", "compose"), ("ops", "apply_op")}

# spans whose self time together makes expr.DiffPoly.self_s
DIFFPOLY_ARITHMETIC = ("add", "sub", "neg", "mul", "pow", "partial")


def _shape(matrix):
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    nnz = sum(1 for row in matrix for x in row if x)
    return rows * cols, nnz


def _count_matrix_arg(rec, args, kwargs, result):
    entries, nnz = _shape(args[0] if args else kwargs["matrix"])
    rec["entries"] += entries
    rec["nnz"] += nnz
    rec["max_entries"] = max(rec["max_entries"], entries)


def _count_fiber_map(rec, args, kwargs, result):
    entries, nnz = _shape(result.matrix)
    rec["entries"] += entries
    rec["nnz"] += nnz


def _count_points(rec, args, kwargs, result):
    rec["points"] += len(result)


COUNTERS = {"linalg.rank": _count_matrix_arg,
            "linalg.kernel_basis": _count_matrix_arg,
            "spencer.fiber_map": _count_fiber_map,
            "jet.generic_points": _count_points}


def _new_record():
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "entries": 0, "nnz": 0,
            "max_entries": 0, "points": 0}


class Tracer:
    """Span stack plus per-(item, span) aggregates."""

    def __init__(self):
        self.item = None
        self.records: dict[tuple, dict] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        records = self.records

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                key = (self.item, name)
                rec = records.get(key)
                if rec is None:
                    rec = records[key] = _new_record()
                duration = end - start
                rec["calls"] += 1
                rec["total_s"] += duration
                rec["self_s"] += duration - frame[0]
                if counter is not None and result is not None:
                    counter(rec, args, kwargs, result)
                if stack:
                    # the parent's child time covers this span and its bookkeeping
                    stack[-1][0] += perf_counter() - start

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced callable wherever it is bound; undo with uninstall()."""
        import importlib

        package = importlib.import_module("cdcalc")
        modules = {m: importlib.import_module(f"cdcalc.{m}") for m in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and (short, attr) not in DELEGATES):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        for namespace in [package, *modules.values()]:
            for attr, value in list(vars(namespace).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._set(namespace, attr, wrappers[value])
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for attr, name in methods.items():
                self._set(cls, attr, self._wrap(name, vars(cls)[attr]))
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def totals(self, exclude=("warmup",)) -> dict:
        """Aggregates over all items except ``exclude``, keyed by span name."""
        out: dict[str, dict] = {}
        for (item, name), rec in self.records.items():
            if item in exclude:
                continue
            acc = out.setdefault(name, _new_record())
            for key, value in rec.items():
                acc[key] = max(acc[key], value) if key == "max_entries" else acc[key] + value
        return out

    def per_item(self) -> dict:
        out: dict[str, dict] = {}
        for (item, name), rec in self.records.items():
            out.setdefault(str(item), {})[name] = rec
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from span totals."""

    def rec(name):
        return totals.get(name, _new_record())

    out = {}

    def put(name, quantity, unit):
        r = rec(name)
        if quantity == "density":
            value = _ratio(r["nnz"], r["entries"])
        else:
            value = r[quantity]
        out[f"{name}.{quantity}"] = (value, unit)

    for fn in ("add", "mul", "partial"):
        put(f"expr.DiffPoly.{fn}", "calls", "count")
    out["expr.DiffPoly.self_s"] = (
        sum(rec(f"expr.DiffPoly.{fn}")["self_s"] for fn in DIFFPOLY_ARITHMETIC), "s")
    put("expr.DiffPoly.evaluate", "calls", "count")
    put("expr.DiffPoly.evaluate", "self_s", "s")
    for name in ("expr.parse_expr", "expr.format_poly", "jet.total_derivative",
                 "ops.adjoint", "ops.compose", "ops.apply", "zcr.mc_residual",
                 "cli.run"):
        put(name, "calls", "count")
        put(name, "self_s", "s")
    put("jet.generic_points", "calls", "count")
    put("jet.generic_points", "points", "count")
    for name in ("jet.parse_problem", "ops.linearize", "ops.green_remainder",
                 "spencer.symbol", "spencer.graded_symbol_matrix",
                 "spencer.symbol_kernel_basis", "spencer.spencer_cohomology",
                 "compat.check_formal_exactness", "compat.cokernel_rank",
                 "compat.parse_complex", "zcr.parse_matrix_forms",
                 "pform.star_operator", "pform.epi_check", "pform.e1_table",
                 "cli.build_parser"):
        put(name, "self_s", "s")
    for quantity, unit in (("calls", "count"), ("self_s", "s"), ("entries", "count"),
                           ("nnz", "count"), ("density", "ratio")):
        put("spencer.fiber_map", quantity, unit)
    for quantity, unit in (("calls", "count"), ("self_s", "s"), ("entries", "count"),
                           ("nnz", "count"), ("density", "ratio"),
                           ("max_entries", "count")):
        put("linalg.rank", quantity, unit)
    for quantity, unit in (("calls", "count"), ("self_s", "s"), ("entries", "count"),
                           ("nnz", "count")):
        put("linalg.kernel_basis", quantity, unit)
    return out
