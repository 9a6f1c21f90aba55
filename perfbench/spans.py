"""Layer tracing from outside the program.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent) while tracing is switched on.  Modules bind functions by
name (``from .poly import gcd``), so a wrapper is installed on every module
attribute and class attribute that holds the original object.

Self time of a span is its duration minus the durations of its traced
children.  Aggregates are kept per (span name, parent span name), which is
enough to attribute, for example, reductions to the operator search that asked
for them.  Raw spans are kept only for the first recorded pass, so memory
stays bounded on long runs.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

# (span name, module, attribute) for functions and (span name, module,
# class, method) for methods.  Every layer named in the README appears here.
FUNCTIONS = [
    ("exactalg.gcd", "isocert.exactalg.poly", "gcd"),
    ("exactalg.exact_div", "isocert.exactalg.poly", "exact_div"),
    ("exactalg.partial_fractions", "isocert.exactalg.factor", "partial_fractions"),
    ("exactalg.upoly", "isocert.exactalg.upoly", "upoly_xgcd"),
    ("exactalg.linear_solve", "isocert.exactalg.linalg", "linear_solve"),
    ("derham.reduce", "isocert.derham", "reduce"),
    ("derham.verify", "isocert.derham", "_check_reduction"),
    ("derham.verify", "isocert.derham", "_check_telescoper"),
    ("derham.telescoper", "isocert.derham", "telescoper"),
    ("curve.reduce", "isocert.curve", "curve_reduce"),
    ("curve.verify", "isocert.curve", "_check_curve_reduction"),
    ("curve.picard_fuchs", "isocert.curve", "picard_fuchs"),
    ("connection.defect", "isocert.connection", "defect"),
    ("connection.flatten", "isocert.connection", "flatten"),
    ("connection.flatten", "isocert.connection", "_flatten_bivariate"),
    ("connection.flatten", "isocert.connection", "_flatten_ansatz"),
    ("connection.flatten", "isocert.connection", "_ansatz_matrices"),
    ("ansatz.monomials", "isocert.ansatz", "monomials_up_to"),
    ("ansatz.match", "isocert.ansatz", "match_coefficients"),
    ("galois.rational_solutions", "isocert.galois", "rational_solutions"),
    ("galois.horizontal_sections", "isocert.galois", "horizontal_sections"),
    ("cli.load", "isocert.cli.files", "load_problem"),
    ("cli.parse", "isocert.cli.exprio", "parse_to_rational"),
    ("cli.parse", "isocert.cli.exprio", "parse_expression"),
    ("cli.run_command", "isocert.cli.main", "run_command"),
    ("cli.render", "isocert.cli.reports", "emit_report"),
    ("cli.validate", "jsonschema", "validate"),
]

METHODS = [
    ("exactalg.poly_mul", "isocert.exactalg.poly", "MultiPoly", ["__mul__"]),
    ("exactalg.rational", "isocert.exactalg.rational", "RationalFunction",
     ["__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
      "__rtruediv__", "__neg__", "__pow__", "_inverse", "derive",
      "derive_index"]),
    ("exactalg.upoly", "isocert.exactalg.upoly", "UPoly",
     ["from_rational", "to_rational", "__add__", "__sub__", "__neg__",
      "__mul__", "scale", "shift", "divmod", "derivative", "eval", "monic"]),
    ("operators.apply", "isocert.operators", "LinearDiffOperator", ["apply"]),
    ("difftower.derive", "isocert.difftower", "Tower", ["derive"]),
    ("difftower.extend_jets", "isocert.difftower", "Tower", ["extend_jets"]),
]

# Per-layer metrics printed by the traced run, in BENCHMARK.json order.
LAYER_METRICS = [
    ("exactalg.gcd.calls", "count"), ("exactalg.gcd.self_ms", "ms"),
    ("exactalg.exact_div.calls", "count"), ("exactalg.exact_div.self_ms", "ms"),
    ("exactalg.poly_mul.calls", "count"), ("exactalg.poly_mul.self_ms", "ms"),
    ("exactalg.rational.calls", "count"), ("exactalg.rational.self_ms", "ms"),
    ("exactalg.partial_fractions.calls", "count"),
    ("exactalg.partial_fractions.self_ms", "ms"),
    ("exactalg.upoly.self_ms", "ms"),
    ("exactalg.linear_solve.calls", "count"),
    ("exactalg.linear_solve.self_ms", "ms"),
    ("exactalg.linear_solve.cells", "count"),
    ("derham.reduce.calls", "count"), ("derham.reduce.self_ms", "ms"),
    ("derham.orders_tried", "count"),
    ("derham.verify.calls", "count"), ("derham.verify.self_ms", "ms"),
    ("curve.reduce.calls", "count"), ("curve.reduce.self_ms", "ms"),
    ("curve.orders_tried", "count"),
    ("curve.verify.calls", "count"), ("curve.verify.self_ms", "ms"),
    ("connection.defect.calls", "count"), ("connection.defect.self_ms", "ms"),
    ("connection.flatten.self_ms", "ms"),
    ("ansatz.monomials.self_ms", "ms"), ("ansatz.match.self_ms", "ms"),
    ("ansatz.cells", "count"),
    ("galois.rational_solutions.self_ms", "ms"),
    ("galois.horizontal_sections.self_ms", "ms"),
    ("difftower.derive.calls", "count"), ("difftower.derive.self_ms", "ms"),
    ("difftower.jets_created", "count"),
    ("cli.import_ms", "ms"), ("cli.validate_ms", "ms"), ("cli.load_ms", "ms"),
    ("cli.parse_ms", "ms"), ("cli.compute_ms", "ms"), ("cli.render_ms", "ms"),
]


class Tracer:
    """Span recorder.  ``agg`` maps (name, parent) to [calls, self_s, incl_s];
    ``counts`` holds counters measured at the same boundaries."""

    def __init__(self):
        self.on = False
        self.stack: list[list] = []   # [name, child_seconds]
        self.agg: dict[tuple[str, str], list[float]] = {}
        self.counts: dict[str, int] = {}
        self.keep_spans = False
        self.spans: list[tuple[str, float, float, int]] = []
        self._span_stack: list[int] = []

    def reset_pass(self) -> None:
        self.agg = {}
        self.counts = {}

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            keep = tracer.keep_spans
            if keep:
                parent_id = tracer._span_stack[-1] if tracer._span_stack else -1
                span_id = len(tracer.spans)
                tracer.spans.append((name, 0.0, 0.0, parent_id))
                tracer._span_stack.append(span_id)
            before = counter.before(args) if counter else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                key = (name, parent)
                entry = tracer.agg.get(key)
                if entry is None:
                    tracer.agg[key] = [1, dur - frame[1], dur]
                else:
                    entry[0] += 1
                    entry[1] += dur - frame[1]
                    entry[2] += dur
                if keep:
                    tracer._span_stack.pop()
                    tracer.spans[span_id] = (name, start, end, parent_id)
            if counter:
                counter.after(tracer, args, before, result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        data = {"names": names,
                "spans": [[index[n], round(s, 7), round(e, 7), p]
                          for n, s, e, p in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(data, handle)


class _CellCounter:
    """Matrix entries passed to linear_solve."""

    def __init__(self, metric: str):
        self.metric = metric

    def before(self, args):
        rows = args[0]
        return sum(len(r) for r in rows)

    def after(self, tracer, args, before, result):
        tracer.count(self.metric, before)


class _AnsatzCells:
    """Rows x unknowns of the Q-linear system an ansatz produces."""

    def before(self, args):
        return None

    def after(self, tracer, args, before, result):
        rows, _ = result
        tracer.count("ansatz.cells", sum(len(r) for r in rows))


class _JetCounter:
    def before(self, args):
        return len(args[0]._jets)

    def after(self, tracer, args, before, result):
        tracer.count("difftower.jets_created", len(args[0]._jets) - before)


_COUNTERS = {
    "exactalg.linear_solve": _CellCounter("exactalg.linear_solve.cells"),
    "ansatz.match": _AnsatzCells(),
    "difftower.extend_jets": _JetCounter(),
}


def _rebind(original, wrapper) -> int:
    """Replace every module-level binding of `original` with `wrapper`."""
    hits = 0
    for mod in list(sys.modules.values()):
        space = getattr(mod, "__dict__", None)
        if not space:
            continue
        for key, value in list(space.items()):
            if value is original:
                setattr(mod, key, wrapper)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function; modules must already be imported."""
    import importlib

    for name, mod_name, attr in FUNCTIONS:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)
        wrapper = tracer.wrap(original, name, _COUNTERS.get(name))
        if _rebind(original, wrapper) == 0:
            raise RuntimeError(f"could not rebind {mod_name}.{attr}")
    for name, mod_name, cls_name, methods in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        for meth in methods:
            raw = cls.__dict__[meth]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = tracer.wrap(fn, name, _COUNTERS.get(name))
            for key, value in list(cls.__dict__.items()):
                bound = value.__func__ if isinstance(value, staticmethod) else value
                if bound is fn:
                    setattr(cls, key, staticmethod(wrapper) if is_static else wrapper)


def _sum(agg, name, field, parent=None, parents=None):
    total = 0.0
    for (n, p), entry in agg.items():
        if n != name:
            continue
        if parent is not None and p != parent:
            continue
        if parents is not None and p not in parents:
            continue
        total += entry[field]
    return total


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since the last reset, with
    times in ms.  cli.import_ms is filled in by the caller."""
    agg = tracer.agg
    out: dict[str, float] = {}

    def calls(name):
        return _sum(agg, name, 0)

    def self_ms(name):
        return 1000.0 * _sum(agg, name, 1)

    def incl_ms(name, **kw):
        return 1000.0 * _sum(agg, name, 2, **kw)

    for layer in ("exactalg.gcd", "exactalg.exact_div", "exactalg.poly_mul",
                  "exactalg.rational", "exactalg.partial_fractions",
                  "exactalg.linear_solve", "derham.reduce", "derham.verify",
                  "curve.reduce", "connection.defect", "difftower.derive"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_ms"] = self_ms(layer)
    out["exactalg.upoly.self_ms"] = self_ms("exactalg.upoly")
    out["exactalg.linear_solve.cells"] = tracer.counts.get("exactalg.linear_solve.cells", 0)
    out["derham.orders_tried"] = _sum(agg, "derham.reduce", 0, parent="derham.telescoper")
    out["curve.orders_tried"] = _sum(agg, "curve.reduce", 0, parent="curve.picard_fuchs")
    # The Picard-Fuchs identity check applies the operator on the curve.
    pf_apply_calls = _sum(agg, "operators.apply", 0, parent="curve.picard_fuchs")
    pf_apply_self = 1000.0 * _sum(agg, "operators.apply", 1, parent="curve.picard_fuchs")
    out["curve.verify.calls"] = calls("curve.verify") + pf_apply_calls
    out["curve.verify.self_ms"] = self_ms("curve.verify") + pf_apply_self
    out["connection.flatten.self_ms"] = self_ms("connection.flatten")
    out["ansatz.monomials.self_ms"] = self_ms("ansatz.monomials")
    out["ansatz.match.self_ms"] = self_ms("ansatz.match")
    out["ansatz.cells"] = tracer.counts.get("ansatz.cells", 0)
    out["galois.rational_solutions.self_ms"] = self_ms("galois.rational_solutions")
    out["galois.horizontal_sections.self_ms"] = self_ms("galois.horizontal_sections")
    out["difftower.jets_created"] = tracer.counts.get("difftower.jets_created", 0)
    out["cli.validate_ms"] = incl_ms("cli.validate")
    out["cli.load_ms"] = self_ms("cli.load")
    # Expression parsing called by a command (not by the problem loader).
    outer_parse = incl_ms("cli.parse", parent="cli.run_command")
    out["cli.parse_ms"] = outer_parse + incl_ms("cli.parse", parent="cli.load")
    out["cli.compute_ms"] = (incl_ms("cli.run_command")
                             - incl_ms("cli.load", parent="cli.run_command")
                             - outer_parse)
    out["cli.render_ms"] = incl_ms("cli.render")
    return out
