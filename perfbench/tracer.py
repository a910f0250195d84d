"""Per-layer spans, recorded from outside the package.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
timing wrapper in every ``singlink`` module namespace that holds the
function object: the modules bind names with ``from .linalg import ...``,
so patching only the defining module would miss those callers.
``uninstall`` puts the originals back, so untimed passes run the package
exactly as shipped.

A span is ``[name, parent, op, t_in, t0, t1, t_out, extra]``: ``t0``..``t1``
is the wrapped call, ``t_in``..``t_out`` also covers the wrapper and the
extra it computes.  Self time is ``t1 - t0`` minus the ``t_in``..``t_out``
of the span's children, so the wrappers' own cost never lands in a layer.
Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter_ns

LAYERS = {
    "sl2z": ("factor_cycle", "cycle_monodromy"),
    "linalg": ("smith_normal_form", "matmul", "symmetric_signature", "solve_rational",
               "determinant"),
    "plumbing": ("boundary_homology",),
    "openbook": ("openbook_homology", "homological_monodromy_action", "curve_homology_classes"),
    "legendrian": ("enumerate_stein_fillings", "canonical_filling"),
    "invariants": ("homology_cross_check", "d3_invariant", "euler_class"),
    "cli": ("run", "emit"),
}


def _snf_extra(args, result):
    matrix = args[0]
    dim = max(len(matrix), len(matrix[0]) if matrix else 0)
    bits = max((abs(x).bit_length() for m in (result.u, result.diag, result.v)
                for row in m for x in row), default=0)
    return [dim, bits]


# What a span records besides its times; every call site passes these
# arguments positionally.
EXTRAS = {
    "linalg.smith_normal_form": _snf_extra,
    "plumbing.boundary_homology": lambda args, result: len(args[0].vertices),
    "openbook.openbook_homology": lambda args, result: args[0].boundary_count,
    "legendrian.enumerate_stein_fillings": lambda args, result: len(result),
    "cli.emit": lambda args, result: len(result),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # identifier shared by the spans of one op
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self._stack, EXTRAS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter_ns()
            span = [name, stack[-1] if stack else -1, self.op, t_in, 0, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[4] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = span[6] = perf_counter_ns()
                stack.pop()
            if extra is not None:
                span[7] = extra(args, result)
                span[6] = perf_counter_ns()
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"singlink.{module_name}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "singlink" and not module_name.startswith("singlink."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by another process, re-basing parent indices."""
        base = len(self.spans)
        for span in spans:
            if span[1] >= 0:
                span[1] += base
            self.spans.append(span)

    def write(self, path) -> None:
        """One JSON list per line, in the order the spans began."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# name, unit, better: the per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = (
    ("sl2z.factor_cycle.calls", "count", "lower"),
    ("sl2z.factor_cycle.self_ms", "ms", "lower"),
    ("sl2z.cycle_monodromy.self_ms", "ms", "lower"),
    ("linalg.smith_normal_form.calls", "count", "lower"),
    ("linalg.smith_normal_form.self_ms", "ms", "lower"),
    ("linalg.smith_normal_form.max_dim", "count", "lower"),
    ("linalg.smith_normal_form.max_bits", "bits", "lower"),
    ("linalg.matmul.calls", "count", "lower"),
    ("linalg.matmul.self_ms", "ms", "lower"),
    ("linalg.symmetric_signature.self_ms", "ms", "lower"),
    ("linalg.solve_rational.self_ms", "ms", "lower"),
    ("linalg.determinant.self_ms", "ms", "lower"),
    ("plumbing.boundary_homology.calls", "count", "lower"),
    ("plumbing.boundary_homology.self_ms", "ms", "lower"),
    ("plumbing.boundary_homology.slope", "exponent", "lower"),
    ("openbook.openbook_homology.calls", "count", "lower"),
    ("openbook.openbook_homology.self_ms", "ms", "lower"),
    ("openbook.openbook_homology.slope", "exponent", "lower"),
    ("openbook.homological_monodromy_action.self_ms", "ms", "lower"),
    ("openbook.curve_homology_classes.calls", "count", "lower"),
    ("openbook.curve_homology_classes.self_ms", "ms", "lower"),
    ("openbook.curve_homology_classes.per_openbook_homology", "ratio", "lower"),
    ("legendrian.enumerate_stein_fillings.calls", "count", "lower"),
    ("legendrian.enumerate_stein_fillings.self_ms", "ms", "lower"),
    ("legendrian.enumerate_stein_fillings.diagrams", "count", "higher"),
    ("legendrian.enumerate_stein_fillings.us_per_diagram", "us", "lower"),
    ("legendrian.canonical_filling.calls", "count", "lower"),
    ("legendrian.canonical_filling.self_ms", "ms", "lower"),
    ("invariants.homology_cross_check.self_ms", "ms", "lower"),
    ("invariants.d3_invariant.self_ms", "ms", "lower"),
    ("invariants.euler_class.calls", "count", "lower"),
    ("invariants.euler_class.self_ms", "ms", "lower"),
    ("linalg.smith_normal_form.per_euler_class_pair", "ratio", "lower"),
    ("cli.run.self_ms", "ms", "lower"),
    ("cli.emit.self_ms", "ms", "lower"),
    ("cli.emit.bytes", "B", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _slope(points) -> float:
    """Least-squares exponent of inclusive call time against size, sizes >= 2.

    Each size contributes the median time of its calls; 0.0 when fewer than
    two sizes were seen.
    """
    by_size = defaultdict(list)
    for size, ns in points:
        if size >= 2:
            by_size[size].append(ns)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(size) for size in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer figures per traced pass, keyed like METRICS (the two
    measured outside the spans, cli.import_ms and trace.overhead_s, are
    left to the caller)."""
    child = [0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child[span[1]] += span[6] - span[3]
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    extras = defaultdict(list)
    snf_under_euler = 0
    for i, (name, parent, _op, _t_in, t0, t1, _t_out, extra) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += t1 - t0 - child[i]
        if extra is not None:
            extras[name].append((extra, t1 - t0))
        if name == "linalg.smith_normal_form" and parent >= 0 \
                and spans[parent][0] == "invariants.euler_class":
            snf_under_euler += 1

    out = {}
    for module, names in LAYERS.items():
        for fn in names:
            name = f"{module}.{fn}"
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_ms"] = self_ns[name] / passes / 1e6
    snf = [e for e, _ in extras["linalg.smith_normal_form"]]
    out["linalg.smith_normal_form.max_dim"] = max((d for d, _ in snf), default=0)
    out["linalg.smith_normal_form.max_bits"] = max((b for _, b in snf), default=0)
    out["plumbing.boundary_homology.slope"] = _slope(extras["plumbing.boundary_homology"])
    out["openbook.openbook_homology.slope"] = _slope(extras["openbook.openbook_homology"])
    diagrams = sum(e for e, _ in extras["legendrian.enumerate_stein_fillings"])
    out["legendrian.enumerate_stein_fillings.diagrams"] = diagrams / passes
    out["legendrian.enumerate_stein_fillings.us_per_diagram"] = (
        self_ns["legendrian.enumerate_stein_fillings"] / diagrams / 1e3 if diagrams else 0.0
    )
    out["cli.emit.bytes"] = sum(e for e, _ in extras["cli.emit"]) / passes
    books = calls["openbook.openbook_homology"]
    out["openbook.curve_homology_classes.per_openbook_homology"] = (
        calls["openbook.curve_homology_classes"] / books if books else 0.0
    )
    eulers = calls["invariants.euler_class"]
    out["linalg.smith_normal_form.per_euler_class_pair"] = (
        snf_under_euler / (eulers / 2) if eulers else 0.0
    )
    return out
