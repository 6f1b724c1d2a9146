"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import json  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from check import check_report, check_row, dominates  # noqa: E402
from tracing import (Span, Tracer, installed, layer_metrics,  # noqa: E402
                     layer_unit, self_times)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_same_instances(name):
    first = workloads.generate(name, 7)
    assert first == workloads.generate(name, 7)
    assert first.instances != workloads.generate(name, 8).instances
    assert workloads.pass_order(first, 7, 3) == \
        workloads.pass_order(workloads.generate(name, 7), 7, 3)


def test_workload_envelopes():
    defaults = workloads.generate("defaults", 1)
    assert len(defaults.instances) == 1840
    assert defaults.reports and defaults.max_nodes is None
    large = workloads.generate("large-n", 1)
    assert len(large.instances) == 100
    lo, hi = workloads.LARGE_N_RANGE
    assert all(lo <= n <= hi for _, n, _, _ in large.instances)
    budget = workloads.generate("oracle-budget", 1)
    assert len(budget.instances) == 1120
    assert budget.max_nodes == workloads.BUDGET_NODES


def _row(family, n, d, k):
    from dbkdom import cli
    from dbkdom.oracle import OracleLimits
    row = cli.classify_row(family, n, d, k, OracleLimits())
    del row["ms"]
    return row


def _naive_covers(family, n, d, k, members):
    step = ((lambda v: {(d * v + i) % n for i in range(d)})
            if family == "debruijn"
            else (lambda v: {(-d * v - i) % n for i in range(1, d + 1)}))
    covered = frontier = set(members)
    for _ in range(k):
        frontier = set().union(*map(step, frontier))
        covered = covered | frontier
    return len(covered) == n


@pytest.mark.parametrize("instance", [("debruijn", 40, 3, 3),
                                      ("kautz", 55, 2, 2),
                                      ("debruijn", 59, 2, 2)])
def test_check_accepts_and_rejects_tampered_witness(instance):
    family, n, d, k = instance
    row = _row(*instance)
    assert check_row(row, instance) == []
    witness = row["witness"]

    # swap one member for a vertex that leaves something uncovered
    tampered = next([v] + witness[1:] for v in range(n)
                    if v not in witness and
                    not _naive_covers(family, n, d, k, [v] + witness[1:]))
    assert check_row(dict(row, witness=tampered), instance) == \
        ["witness does not dominate"]
    assert check_row(dict(row, witness=witness[1:]), instance)
    assert check_row(dict(row, witness=witness + [witness[0]]), instance)
    assert check_row(dict(row, gamma=row["upper"] + 1), instance)
    assert check_row(dict(row, method="error", error="boom"), instance)


def test_dominates_matches_arc_definitions():
    # de Bruijn 4/2: 0 -> {0, 1}, 1 -> {2, 3}
    assert dominates("debruijn", 4, 2, 1, [1]) is False
    assert dominates("debruijn", 4, 2, 2, [0])
    # Kautz 7/2 at radius 2 is dominated by {0, 1} (the README example)
    assert dominates("kautz", 7, 2, 2, [0, 1])
    assert not dominates("kautz", 7, 2, 1, [0, 1])


def test_check_report_rejects_false_counterexample():
    report = {"problem": "kautz-upper",
              "counts": {"consistent": 0, "counterexample": 1,
                         "inconclusive": 0},
              "rows": [{"family": "kautz", "n": 7, "d": 2, "k": 2,
                        "condition": False, "gamma": 2,
                        "verdict": "counterexample",
                        "certificate": {"set": [0, 1]}}]}
    # upper for Kautz 7/2/2 is ceil(7 / 6) = 2, so 2 is no counterexample
    assert check_report(report, {})
    report["rows"][0]["verdict"] = "consistent"
    assert check_report(report, {})  # counts no longer match the rows
    report["counts"] = {"consistent": 1, "counterexample": 0,
                        "inconclusive": 0}
    assert check_report(report, {}) == []
    assert check_report(report, {("kautz", 7, 2, 2): 3})


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, None, "root", 0, 0.0, 10.0, None),
        Span(1, 0, "a", 0, 1.0, 3.0, None),
        Span(2, 0, "b", 0, 2.0, 5.0, None),    # overlaps a: union 1..5
        Span(3, 0, "c", 0, 8.0, 12.0, None),   # clipped to the root: 8..10
        Span(4, 2, "d", 0, 2.5, 4.5, None),    # grandchild of root
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - 4 - 2)
    assert selfs[1] == pytest.approx(2)
    assert selfs[2] == pytest.approx(3 - 2)
    assert selfs[3] == pytest.approx(4)
    assert selfs[4] == pytest.approx(2)


def test_tracer_records_tree_and_restores_names():
    import dbkdom
    import dbkdom.cli
    from dbkdom.oracle import OracleLimits
    original = dbkdom.construct.verify
    tracer = Tracer()
    with installed(tracer, dbkdom):
        dbkdom.cli.classify_row("debruijn", 40, 3, 3, OracleLimits())
    assert dbkdom.construct.verify is original
    spans = tracer.finished()
    root = spans[0]
    assert root.name == "cli.classify_row" and root.parent is None
    assert all(s.row == root.sid for s in spans)
    names = {s.name for s in spans}
    assert {"construct.classify", "domination.verify",
            "digraph.set_out_neighborhood"} <= names
    by_id = {s.sid: s for s in spans}
    for s in spans[1:]:
        parent = by_id[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    layers = set(layer_metrics([], 1)) | {"trace.overhead_s"} | {
        f"kernel.pure.{key}"
        for key in ("table_build_s", "search_s", "nodes_per_s")}
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {name: layer_unit(name) for name in layers}
