"""Timing spans around splayer's layer boundaries, recorded from outside.

Each public function is wrapped at the name the calling module imported it
under (``splayer.analysis.solve_thomas``, ``splayer.cli.derive_regime``, ...),
so the program itself is unchanged.  A span is ``(name, start, end, parent,
job, ok, work)``; spans stay in memory and are folded into per-layer figures
when the run ends.  One thread only: the parent is the innermost open span.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict


def _text_bytes(text) -> int:
    # ASCII check is O(1) in CPython, so large outputs are not re-encoded
    if not isinstance(text, str):
        return 0
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _rows(system) -> int:
    return int(system.n) + 1


def _table_cells(table) -> tuple[int, int]:
    errors = table.errors
    return int(errors.size), int(sum(1 for e in errors.flat if math.isfinite(e)))


# (module, attribute, span name, work counter(args, result) -> int | tuple)
TARGETS = (
    ("splayer.cli", "main", "cli.main", None),
    ("splayer.cli", "validate", "problem.validate", None),
    ("splayer.cli", "derive_regime", "problem.derive_regime", None),
    ("splayer.cli", "build_mesh", "mesh.build_mesh", lambda a, r: r.n + 1),
    ("splayer.cli", "write_atomic", "cli.write_atomic", lambda a, r: _text_bytes(a[1])),
    ("splayer.analysis", "convergence_table", "analysis.convergence_table",
     lambda a, r: _table_cells(r)),
    ("splayer.analysis", "double_mesh_error", "analysis.double_mesh_error", None),
    ("splayer.analysis", "derive_regime", "problem.derive_regime", None),
    ("splayer.analysis", "build_mesh", "mesh.build_mesh", lambda a, r: r.n + 1),
    ("splayer.analysis", "refine_double", "mesh.refine_double", None),
    ("splayer.analysis", "assemble", "scheme.assemble", lambda a, r: _rows(r)),
    ("splayer.analysis", "solve_thomas", "linalg.solve_thomas", lambda a, r: _rows(a[0])),
    ("splayer.analysis", "table_to_csv", "analysis.format", lambda a, r: _text_bytes(r)),
    ("splayer.analysis", "table_to_markdown", "analysis.format", lambda a, r: _text_bytes(r)),
    ("splayer.analysis", "comparison_to_csv", "analysis.format", lambda a, r: _text_bytes(r)),
    ("splayer.analysis", "comparison_to_markdown", "analysis.format",
     lambda a, r: _text_bytes(r)),
    ("splayer.linalg", "apply_operator", "scheme.apply_operator", None),
    ("splayer.problem", "evaluate_array", "expressions.evaluate_array",
     lambda a, r: int(r.size)),
)


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            ok = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                units = 0
                if ok and work is not None:
                    try:
                        units = work(args, result)
                    except (IndexError, AttributeError, TypeError):
                        pass  # a changed signature loses the count, not the span
                spans[index] = (name, start, end, parent, self.job, ok, units)

        return traced

    def install(self) -> None:
        for module_name, attr, name, work in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # layer renamed or removed: its figures read 0
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, work))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def span_cost_s(self, calls: int = 20000) -> float:
        """Extra seconds one recorded span costs over a direct call."""
        probe = Tracer()
        noop = lambda: None  # noqa: E731
        traced = probe.wrap("probe", noop)
        clock = time.perf_counter
        best = math.inf
        for _ in range(3):
            probe.spans.clear()
            start = clock()
            for _ in range(calls):
                noop()
            direct = clock() - start
            start = clock()
            for _ in range(calls):
                traced()
            best = min(best, (clock() - start - direct) / calls)
        return max(best, 0.0)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_metrics(spans, jobs: int, job_seconds: float, span_cost: float) -> tuple[dict, dict]:
    """Per-job layer figures plus the trace's own bookkeeping.

    Counts, busy and self times are means per job.  Returns the metrics
    (name -> (value, unit)) and a dict describing the trace sanity check:
    the self times of all spans add up to the root spans, and the root
    spans cover the measured job time.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    failed = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    work = defaultdict(int)
    cells_total = cells_ok = 0
    for span, self_s in zip(spans, selfs):
        name, start, end, _, _, ok, units = span
        calls[name] += 1
        failed[name] += 0 if ok else 1
        busy[name] += end - start
        own[name] += self_s
        if name == "analysis.convergence_table":
            if units:
                cells_total += units[0]
                cells_ok += units[1]
        else:
            work[name] += units

    def mean(table, name):
        return table[name] / jobs

    def per_row(name):
        rows = work[name]
        return 1e9 * busy[name] / rows if rows else 0.0

    m = {
        "linalg.solve_thomas.calls": (mean(calls, "linalg.solve_thomas"), "count"),
        "linalg.solve_thomas.rows": (mean(work, "linalg.solve_thomas"), "count"),
        "linalg.solve_thomas.busy_s": (mean(busy, "linalg.solve_thomas"), "s"),
        "linalg.solve_thomas.ns_per_row": (per_row("linalg.solve_thomas"), "ns"),
        "linalg.solve_thomas.failed": (mean(failed, "linalg.solve_thomas"), "count"),
        "linalg.solve_thomas.ops_per_row_computed": (THOMAS_OPS_PER_ROW, "op/row"),
        "linalg.solve_thomas.bytes_per_row_computed": (THOMAS_BYTES_PER_ROW, "B/row"),
        "scheme.assemble.calls": (mean(calls, "scheme.assemble"), "count"),
        "scheme.assemble.rows": (mean(work, "scheme.assemble"), "count"),
        "scheme.assemble.busy_s": (mean(busy, "scheme.assemble"), "s"),
        "scheme.assemble.ns_per_row": (per_row("scheme.assemble"), "ns"),
        "scheme.apply_operator.busy_s": (mean(busy, "scheme.apply_operator"), "s"),
        "mesh.build_mesh.calls": (mean(calls, "mesh.build_mesh"), "count"),
        "mesh.build_mesh.nodes": (mean(work, "mesh.build_mesh"), "count"),
        "mesh.build_mesh.busy_s": (mean(busy, "mesh.build_mesh"), "s"),
        "mesh.refine_double.calls": (mean(calls, "mesh.refine_double"), "count"),
        "mesh.refine_double.busy_s": (mean(busy, "mesh.refine_double"), "s"),
        "problem.derive_regime.calls": (mean(calls, "problem.derive_regime"), "count"),
        "problem.derive_regime.busy_s": (mean(busy, "problem.derive_regime"), "s"),
        "problem.validate.busy_s": (mean(busy, "problem.validate"), "s"),
        "expressions.evaluate_array.calls": (mean(calls, "expressions.evaluate_array"), "count"),
        "expressions.evaluate_array.points": (mean(work, "expressions.evaluate_array"), "count"),
        "expressions.evaluate_array.busy_s": (mean(busy, "expressions.evaluate_array"), "s"),
        "analysis.double_mesh_error.calls": (mean(calls, "analysis.double_mesh_error"), "count"),
        "analysis.double_mesh_error.busy_s": (mean(busy, "analysis.double_mesh_error"), "s"),
        "analysis.double_mesh_error.self_s": (mean(own, "analysis.double_mesh_error"), "s"),
        "analysis.convergence_table.self_s": (mean(own, "analysis.convergence_table"), "s"),
        "analysis.cells_failed": ((cells_total - cells_ok) / jobs, "count"),
        # a job without sweep cells (a single solve) has nothing to fail
        "analysis.cells_ok_ratio": (cells_ok / cells_total if cells_total else 1.0, "ratio"),
        "analysis.format.busy_s": (mean(busy, "analysis.format"), "s"),
        "analysis.format.bytes": (mean(work, "analysis.format"), "B"),
        "cli.main.self_s": (mean(own, "cli.main"), "s"),
        "cli.write_atomic.calls": (mean(calls, "cli.write_atomic"), "count"),
        "cli.write_atomic.bytes": (mean(work, "cli.write_atomic"), "B"),
        "cli.write_atomic.busy_s": (mean(busy, "cli.write_atomic"), "s"),
    }
    overhead = span_cost * len(spans) / job_seconds if job_seconds > 0 else 0.0
    m["trace.overhead_frac"] = (overhead, "ratio")

    roots = sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
    accounted = sum(selfs)
    check = {
        "spans": len(spans),
        "span_cost_s": span_cost,
        "job_s": job_seconds,
        "self_sum_s": accounted,
        "root_span_s": roots,
        "unaccounted_frac": (job_seconds - accounted) / job_seconds if job_seconds else 0.0,
    }
    tolerance = max(overhead, 1e-3)
    check["ok"] = (
        abs(accounted - roots) <= 1e-9 * max(1.0, len(spans))
        and abs(check["unaccounted_frac"]) <= tolerance
    )
    return m, check


# Computed, not measured: float64 work of one solve_thomas call per row.
# Thomas loop: pivot (2), c (1), g (3), back substitution (2) = 8 ops.
# Rowwise residual: A*y (3 mul, 2 add), minus rhs (1), denominators
# (3 mul, 4 abs, 3 add), ratio (abs, div) = 18 ops.
THOMAS_OPS_PER_ROW = 8 + 18
# Compulsory traffic: the loop reads 4 diagonals and writes c, g, re-reads
# c, g and writes y (9 x 8 B); the residual re-reads 4 diagonals and y
# (5 x 8 B).
THOMAS_BYTES_PER_ROW = (9 + 5) * 8
