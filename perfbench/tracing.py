"""Span tracing for the benchmark's traced run, and the per-layer metrics.

Tracing wraps, from outside the package, the names each caller module
imported (``construct.verify``, ``oracle.verify``,
``digraph.set_out_neighborhood`` and so on), records one span per call and
restores the originals afterwards.  No file under ``src/`` changes.

A span is (id, parent id, name, row id, start, end, value).  The row id is
the id of the outermost span, so all spans of one classified row or one
report share it.  ``value`` carries the count a layer reports at its
boundary: the order n for ``verify``, the members expanded for
``set_out_neighborhood``, (nodes, status) for an oracle search.  Spans stay
in memory; ``write_spans`` stores them when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

BUILDERS = ("construct.build_anchor_run", "construct.build_window_run",
            "construct.build_prefix_cover", "construct.build_lower_prefix",
            "construct.find_anchor")
REPORTS = ("cli.debruijn_necessity_report", "cli.kautz_upper_report")


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    row: int
    start: float
    end: float
    value: object


class Tracer:
    """Collects spans from the functions it wraps, in one thread."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, value=None):
        """``fn`` recording a span per call; ``value(args, result)`` gives
        the span's count."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            row = stack[0] if stack else sid
            spans.append(None)  # reserve the id; filled in on return
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                count = value(args, result) if ok and value else None
                spans[sid] = Span(sid, parent, name, row, start, end, count)
        return traced

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


def _search_value(args, result):
    return (result.nodes, result.status)


def targets(dbkdom) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, value function) for every wrapped name.

    Each entry is a name as the calling module sees it, so a call through
    any caller is recorded.
    """
    cli, construct, digraph, oracle = (dbkdom.cli, dbkdom.construct,
                                       dbkdom.digraph, dbkdom.oracle)
    out = [
        (cli, "classify_row", "cli.classify_row", None),
        (cli, "debruijn_necessity_report", REPORTS[0], None),
        (cli, "kautz_upper_report", REPORTS[1], None),
        (cli, "classify", "construct.classify", None),
        (construct, "congruence_witness", "construct.congruence_witness",
         None),
        (construct, "solve_linear_congruence",
         "modular.solve_linear_congruence", None),
        (digraph, "set_out_neighborhood", "digraph.set_out_neighborhood",
         lambda args, _: args[1].mask.bit_count()),
        (digraph.VertexSet, "members", "digraph.members", None),
    ]
    for name in BUILDERS:
        out.append((construct, name.split(".")[1], name, None))
    for owner in (construct, oracle, cli):
        out.append((owner, "verify", "domination.verify",
                    lambda args, _: args[0].n))
    for owner in (construct, oracle, cli):
        out.append((owner, "coverage_table", "oracle.coverage_table", None))
        out.append((owner, "exists_dominating_of_size", "oracle.search",
                    _search_value))
    return out


@contextmanager
def installed(tracer: Tracer, dbkdom):
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, value in targets(dbkdom):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, value))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start)
            - covered_length(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def _outermost(spans: list[Span], by_id: dict, names) -> list[Span]:
    """Spans named in ``names`` with no ancestor also named in ``names``,
    so nested calls are not counted twice."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent is not None and by_id[parent].name not in names:
            parent = by_id[parent].parent
        if parent is None:
            out.append(s)
    return out


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, each per pass of the workload."""
    calls = defaultdict(int)
    values = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        if isinstance(s.value, int):
            values[s.name] += s.value

    by_id = {s.sid: s for s in spans}

    def seconds(*names):
        return sum(s.end - s.start for s in _outermost(spans, by_id, names))

    searches = [s.value for s in spans
                if s.name == "oracle.search" and s.value is not None]
    nodes = sum(v[0] for v in searches)
    decided = sum(1 for v in searches if v[1] in ("found", "absent"))
    search_s = seconds("oracle.search")
    selfs = self_times(spans)
    classify_self = sum(selfs[s.sid] for s in spans
                        if s.name == "construct.classify")
    raw = {
        "domination.verify.calls": calls["domination.verify"],
        "domination.verify.s": seconds("domination.verify"),
        "domination.verify.n_sum": values["domination.verify"],
        "digraph.set_out_neighborhood.calls":
            calls["digraph.set_out_neighborhood"],
        "digraph.set_out_neighborhood.s":
            seconds("digraph.set_out_neighborhood"),
        "digraph.set_out_neighborhood.expanded_members":
            values["digraph.set_out_neighborhood"],
        "digraph.members.s": seconds("digraph.members"),
        "construct.congruence_witness.calls":
            calls["construct.congruence_witness"],
        "construct.congruence_witness.s":
            seconds("construct.congruence_witness"),
        "construct.classify.calls": calls["construct.classify"],
        "construct.classify.self_s": classify_self,
        "construct.builders.s": seconds(*BUILDERS),
        "cli.row_overhead_s": (seconds("cli.classify_row")
                               - seconds("construct.classify")),
        "cli.problem_reports.s": seconds(*REPORTS),
        "oracle.coverage_table.calls": calls["oracle.coverage_table"],
        "oracle.coverage_table.s": seconds("oracle.coverage_table"),
        "oracle.search.calls": len(searches),
        "oracle.search.s": search_s,
        "oracle.nodes": nodes,
        "oracle.inconclusive": len(searches) - decided,
        "modular.solve_linear_congruence.calls":
            calls["modular.solve_linear_congruence"],
    }
    out = {name: value / passes for name, value in raw.items()}
    # ratios are not divided by the pass count
    out["oracle.nodes_per_s"] = nodes / search_s if search_s else 0.0
    out["oracle.decided_ratio"] = decided / len(searches) if searches else 0.0
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def write_spans(spans: list[Span], path: Path) -> None:
    """Store spans as JSON lines, one span per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")
