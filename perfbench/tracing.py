"""Span tracing around lmpcirc's public functions, and per-layer metrics from the spans.

The traced run wraps every public function of every lmpcirc module at every
module that binds it (``lmpcirc.assemble_lp``, ``lmpcirc.network.assemble_lp``
and ``lmpcirc.dcopf.assemble_lp`` all get the same wrapper), so a call is
recorded however the program reaches it. Private helpers are not wrapped;
their time is the self time of the public function that calls them.

A span is ``[name, parent, t0, t1, extra]``; ``parent`` is the index of the
enclosing span or -1. Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Called once per serialized float by reports.dumps; wrapping them would trace
# hundreds of thousands of calls per op and measure the tracer, not the program.
UNTRACED = {"lmpcirc.reports.round9", "lmpcirc.reports.fnum"}

# Computed (not measured) cost of one pivot of the numpy kernel on an
# (rows x cols) tableau: the rank-1 update does a multiply and a subtract per
# cell, and reads and writes the tableau and one temporary of the same size.
FLOPS_PER_CELL = 2
BYTES_PER_CELL = 4 * 8


class Tracer:
    """Records spans in memory; ``install`` wraps the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.active = False  # wrapped calls record spans only while active

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, extra: dict | None = None) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[4] = extra
        # also drops spans left open when a time-cap signal landed inside the tracer
        del self._stack[self._stack.index(idx):]

    def add(self, name: str, parent: int, t0: float, t1: float, extra: dict | None = None) -> int:
        self.spans.append([name, parent, t0, t1, extra])
        return len(self.spans) - 1

    def _wrap(self, qualname: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(qualname)
            extra = None
            try:
                result = fn(*args, **kwargs)
                extra = _describe(qualname, args, result)
                return result
            except BaseException as exc:
                extra = {"raised": type(exc).__name__}
                raise
            finally:
                tracer.close(idx, extra)

        return wrapper

    def install(self) -> int:
        """Wrap every public lmpcirc function at every lmpcirc module binding it."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "lmpcirc" or name.startswith("lmpcirc."))}
        targets = {}
        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (callable(obj) and getattr(obj, "__module__", None) == name
                        and type(obj).__name__ == "function" and not attr.startswith("_")):
                    qualname = f"{_layer_module(name)}.{attr}"
                    if f"{name}.{attr}" not in UNTRACED:
                        targets[id(obj)] = (obj, qualname)
        wrappers = {key: self._wrap(qualname, obj) for key, (obj, qualname) in targets.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        return len(wrappers)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


def _layer_module(module_name: str) -> str:
    """'lmpcirc.dcopf' -> 'dcopf'; the pivot kernels all report as 'kernels'."""
    parts = module_name.split(".")
    if len(parts) == 1:
        return "lmpcirc"
    if parts[1] == "_kernels":
        return "kernels"
    return parts[1]


def _describe(qualname: str, args, result) -> dict | None:
    if qualname == "kernels.run_simplex":
        rows, cols = args[0].shape
        status, iters = result
        return {"rows": rows, "cols": cols, "pivots": int(iters), "status": int(status)}
    if qualname == "lp.solve_lp":
        return {"status": result.status}
    if qualname == "reports.dumps":
        return {"bytes": len(result)}
    if qualname in ("circuit.build_circuit", "circuit.circuit_from_parts"):
        return {"sources": len(result.current_sources)}
    return None


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> the functions whose self time it sums
SELF_TIME_METRICS = {
    "cli.main_ms": ("cli.main",),
    "network.parse_ms": ("network.parse_network", "network.load_network"),
    "network.assemble_ms": ("network.assemble_lp", "network.build_b_matrix"),
    "lp.self_ms": ("lp.solve_lp",),
    "kernels.busy_ms": ("kernels.run_simplex",),
    "dcopf.solve_opf_self_ms": ("dcopf.solve_opf",),
    "dcopf.verify_ms": ("dcopf.verify_optimality",),
    "circuit.build_ms": ("circuit.build_circuit", "circuit.circuit_from_parts",
                         "circuit.to_voltage_sources", "circuit.from_voltage_sources"),
    "circuit.solve_ms": ("circuit.solve_circuit", "circuit.solve_voltage_view"),
    "circuit.superpose_ms": ("circuit.superpose",),
    "circuit.kvl_ms": ("circuit.kvl_loop_sums", "circuit.fundamental_cycles",
                       "circuit.loop_sum_along", "circuit.kcl_residuals"),
    "analysis.impact_ms": ("analysis.congestion_impact",),
    "analysis.recover_ms": ("analysis.recover_lmps",),
    "analysis.negative_ms": ("analysis.predict_negative_prices",),
    "reports.dumps_ms": ("reports.dumps",),
}

LAYER_UNITS = {
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
    "network.parse_ms": "ms", "network.assemble_ms": "ms", "network.assemble_calls_per_op": "count",
    "lp.solve_ms": "ms", "lp.self_ms": "ms", "lp.pivots_phase1": "count", "lp.pivots_phase2": "count",
    "lp.std_rows": "count", "lp.std_cols": "count",
    "kernels.busy_ms": "ms", "kernels.pivots": "count", "kernels.us_per_pivot": "us",
    "kernels.flops_computed": "flop", "kernels.bytes_computed": "B",
    "dcopf.solve_opf_self_ms": "ms", "dcopf.verify_ms": "ms",
    "circuit.build_ms": "ms", "circuit.solve_ms": "ms", "circuit.superpose_ms": "ms",
    "circuit.kvl_ms": "ms", "circuit.sources_per_op": "count",
    "analysis.impact_ms": "ms", "analysis.recover_ms": "ms", "analysis.negative_ms": "ms",
    "reports.doc_ms": "ms", "reports.dumps_ms": "ms", "reports.bytes_per_op": "B",
    "fail.attempted": "count", "fail.wrong": "count", "fail.false_infeasible": "count",
    "fail.iter_cap": "count", "fail.timeout": "count", "fail.error": "count",
    "trace.covered_share": "ratio", "trace.overhead_share": "ratio",
}


def layer_metrics(spans: list[list], roots: list[int]) -> dict[str, float]:
    """Per-op layer metrics from the spans below the op roots.

    Times are self times in ms per op, except ``lp.solve_ms`` (inclusive).
    Counts are per op, except ``lp.std_rows``/``lp.std_cols`` (mean per LP
    solve) and ``kernels.us_per_pivot`` (kernel time of the calls that
    finished over their pivots).
    """
    n_ops = max(len(roots), 1)
    for span in spans:  # a span the time-cap signal left open counts as empty
        if span[3] is None:
            span[3] = span[2]
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for idx, (_, parent, t0, t1, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += t1 - t0
            children[parent].append(idx)

    self_by_fn: dict[str, float] = defaultdict(float)
    incl_by_fn: dict[str, float] = defaultdict(float)
    calls_by_fn: dict[str, int] = defaultdict(int)
    covered = 0.0
    root_set = set(roots)
    for idx, (name, _, t0, t1, _) in enumerate(spans):
        self_t = (t1 - t0) - child_time[idx]
        self_by_fn[name] += self_t
        incl_by_fn[name] += t1 - t0
        calls_by_fn[name] += 1
        if idx not in root_set:
            covered += self_t
    op_time = sum(spans[r][3] - spans[r][2] for r in roots)

    out = {name: 1e3 * sum(self_by_fn[f] for f in fns) / n_ops
           for name, fns in SELF_TIME_METRICS.items()}
    out["cli.interp_ms"] = 1e3 * self_by_fn["cli.interp"] / n_ops
    out["cli.import_ms"] = 1e3 * self_by_fn["cli.import"] / n_ops
    out["reports.doc_ms"] = 1e3 * sum(t for f, t in self_by_fn.items()
                                       if f.startswith("reports.") and f != "reports.dumps") / n_ops
    out["lp.solve_ms"] = 1e3 * incl_by_fn["lp.solve_lp"] / n_ops
    out["network.assemble_calls_per_op"] = calls_by_fn["network.assemble_lp"] / n_ops

    # phases: in a solve_lp span with two kernel calls the first is phase 1; a
    # lone call is phase 2 when the solve finished (the problem needed no
    # artificials) and phase 1 when it stopped there (infeasible, or raised)
    phase = {1: 0, 2: 0}
    rows, cols, solves = 0, 0, 0
    for idx, (name, _, _, _, extra) in enumerate(spans):
        if name != "lp.solve_lp":
            continue
        calls = [c for c in children[idx] if spans[c][0] == "kernels.run_simplex"]
        if not calls:
            continue
        first = spans[calls[0]][4] or {}
        if "rows" in first:
            rows += first["rows"] - 1
            cols += first["cols"] - 1
            solves += 1
        reached_phase2 = (extra or {}).get("status") in ("optimal", "unbounded")
        labels = [1, 2] if len(calls) == 2 else ([2] if reached_phase2 else [1])
        for c, ph in zip(calls, labels):
            phase[ph] += (spans[c][4] or {}).get("pivots", 0)
    out["lp.pivots_phase1"] = phase[1] / n_ops
    out["lp.pivots_phase2"] = phase[2] / n_ops
    out["lp.std_rows"] = rows / solves if solves else 0.0
    out["lp.std_cols"] = cols / solves if solves else 0.0

    pivots, busy_done, flops, nbytes = 0, 0.0, 0, 0
    for name, _, t0, t1, extra in spans:
        if name == "kernels.run_simplex" and extra and "pivots" in extra:
            pivots += extra["pivots"]
            busy_done += t1 - t0
            cells = extra["rows"] * extra["cols"] * extra["pivots"]
            flops += FLOPS_PER_CELL * cells
            nbytes += BYTES_PER_CELL * cells
    out["kernels.pivots"] = pivots / n_ops
    out["kernels.us_per_pivot"] = 1e6 * busy_done / pivots if pivots else 0.0
    out["kernels.flops_computed"] = flops / n_ops
    out["kernels.bytes_computed"] = nbytes / n_ops

    out["circuit.sources_per_op"] = sum(
        (extra or {}).get("sources", 0) for name, _, _, _, extra in spans
        if name in ("circuit.build_circuit", "circuit.circuit_from_parts")) / n_ops
    out["reports.bytes_per_op"] = sum(
        (extra or {}).get("bytes", 0) for name, _, _, _, extra in spans if name == "reports.dumps") / n_ops
    out["trace.covered_share"] = covered / op_time if op_time > 0 else 0.0
    return out
