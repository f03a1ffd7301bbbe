"""Spans around the calls into each layer of mdlsat, recorded from outside.

``Tracer`` replaces the module-level functions that the CLI and the
relaxation pipeline call with wrappers that record a span each: name,
start, end, parent span and instance id.  Nothing under ``src/`` changes,
and leaving the ``with`` block puts the original functions back.  Spans
stay in memory; ``layer_metrics`` folds them into per-layer figures after
the timed work is over, so that counting costs no traced time.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from workloads import domain_size

#: (module, function, span name).  The name is the layer that does the work:
#: ``cli`` imports ``parse_system`` and ``satisfies`` from ``core`` by name.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_system", "core.parse_system"),
    ("core", "parse_system", "core.parse_system"),
    ("cli", "satisfies", "core.satisfies"),
    ("reductions", "encode_3col", "reductions.encode_3col"),
    ("reductions", "parse_meta", "reductions.parse_meta"),
    ("reductions", "restore_encoding", "reductions.restore_encoding"),
    ("reductions", "decode_coloring", "reductions.decode_coloring"),
    ("reductions", "verify_coloring", "reductions.verify_coloring"),
    ("mdl", "solve", "mdl.solve"),
    ("mdl", "normalize_solution", "mdl.normalize_solution"),
    ("idl", "relax_to_idl", "idl.relax_to_idl"),
    ("idl", "solve_idl", "idl.solve_idl"),
    ("idl", "build_graph", "idl.build_graph"),
    ("idl", "check_idl_model", "idl.check_idl_model"),
    ("idl", "check_idl_cycle", "idl.check_idl_cycle"),
)

DECODE_SPANS = ("reductions.parse_meta", "reductions.restore_encoding", "reductions.decode_coloring", "reductions.verify_coloring")


@dataclass
class Span:
    id: int
    name: str
    instance: str | None
    parent: int | None
    start: float
    end: float | None = None
    args: tuple = ()
    result: object = None
    shifts: int = 0

    @property
    def seconds(self) -> float:
        """Zero for a span the time limit cut before it could close."""
        return self.end - self.start if self.end is not None else 0.0


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, prog):
        self.prog = prog
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.instance: str | None = None
        self.missing: list[str] = []
        self._saved: list = []

    def begin(self, instance: str) -> None:
        """Attribute the spans that follow to ``instance``."""
        self.instance = instance
        self.stack.clear()

    def __enter__(self):
        self.missing.clear()
        for module_name, attr, name in WRAPPED:
            self._patch(module_name, attr, functools.partial(self._span_wrapper, name=name))
        self._patch("mdl", "left_pack_steps", self._shift_counter)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.stack.clear()

    def _patch(self, module_name, attr, make_wrapper) -> None:
        module = getattr(self.prog, module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def _span_wrapper(self, original, name):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1].id if self.stack else None
            span = Span(len(self.spans), name, self.instance, parent, time.perf_counter(), args=args)
            self.spans.append(span)
            self.stack.append(span)
            try:
                span.result = original(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                self.stack.pop()

        return wrapper

    def _shift_counter(self, original):
        """``left_pack_steps`` yields once per cluster shift; count them."""

        def wrapper(*args, **kwargs):
            for step in original(*args, **kwargs):
                if self.stack:
                    self.stack[-1].shifts += 1
                yield step

        return wrapper


# --- folding spans into per-layer figures -----------------------------------


def _pairs_and_domain(system):
    """Variable pairs that share a constraint, and the candidate count d."""
    pairs = set()
    for c in system.constraints:
        other = getattr(c.rhs, "var", None)
        if other is not None and other != c.lhs.var:
            pairs.add((min(c.lhs.var, other), max(c.lhs.var, other)))
    bound = (2 * system.max_abs_constant + 1) * system.num_vars
    return len(pairs), domain_size(system.modulus.n, bound)


def span_counts(span: Span) -> dict:
    """Deterministic counters measured at one span's boundary."""
    if span.name == "core.parse_system":
        return {"core.parse_bytes": len(span.args[0].encode())}
    if span.name == "mdl.solve":
        pairs, d = _pairs_and_domain(span.args[0])
        stats = getattr(span.result, "stats", None)
        counts = {"mdl.domain_size": d, "mdl.table_cells": pairs * d * d}
        if stats is not None:
            counts.update({"mdl.nodes": stats.nodes, "mdl.conflicts": stats.conflicts})
        return counts
    if span.name == "mdl.normalize_solution":
        return {"mdl.normalize_shifts": span.shifts}
    if span.name == "idl.build_graph" and span.result is not None:
        return {"idl.vertices": len(span.result.nodes), "idl.edges": len(span.result.edges)}
    if span.name == "idl.solve_idl" and getattr(span.result, "cycle", None) is not None:
        return {"idl.cycle_len": len(span.result.cycle)}
    return {}


def self_seconds(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover."""
    own = {span.id: span.seconds for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.seconds
    return own


COUNTERS = (
    "core.parse_bytes", "mdl.nodes", "mdl.conflicts", "mdl.domain_size", "mdl.table_cells",
    "mdl.normalize_shifts", "idl.vertices", "idl.edges", "idl.cycle_len",
)


def layer_metrics(spans) -> dict:
    """Per-layer times and counters over one traced pass."""
    total = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.seconds
    own = self_seconds(spans)
    counts = dict.fromkeys(COUNTERS, 0)
    for span in spans:
        for key, value in span_counts(span).items():
            counts[key] += value
    metrics = {
        "core.parse_s": total.get("core.parse_system", 0.0),
        "core.recheck_s": total.get("core.satisfies", 0.0),
        "reductions.encode_s": total.get("reductions.encode_3col", 0.0),
        "reductions.decode_s": sum((own[s.id] for s in spans if s.name in DECODE_SPANS), 0.0),
        "mdl.solve_s": total.get("mdl.solve", 0.0),
        "mdl.normalize_s": total.get("mdl.normalize_solution", 0.0),
        "idl.relax_s": total.get("idl.relax_to_idl", 0.0),
        "idl.solve_s": total.get("idl.solve_idl", 0.0),
        "idl.build_graph_s": total.get("idl.build_graph", 0.0),
        "idl.check_s": total.get("idl.check_idl_model", 0.0) + total.get("idl.check_idl_cycle", 0.0),
        "cli.self_s": sum((own[s.id] for s in spans if s.name == "cli.main"), 0.0),
    }
    metrics.update(counts)
    metrics["mdl.conflicts_per_node"] = counts["mdl.conflicts"] / counts["mdl.nodes"] if counts["mdl.nodes"] else 0.0
    return metrics


def instance_counters(spans) -> dict:
    """Instance id -> its deterministic counters, for repeat checks."""
    out: dict = {}
    for span in spans:
        mine = out.setdefault(span.instance, {})
        for key, value in span_counts(span).items():
            mine[key] = mine.get(key, 0) + value
    return out


def span_records(spans) -> list:
    """Spans as JSON-ready dicts, for writing out once the run is over."""
    return [
        {"id": s.id, "name": s.name, "instance": s.instance, "parent": s.parent,
         "start": s.start, "end": s.end, "counts": span_counts(s)}
        for s in spans
    ]
