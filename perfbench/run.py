"""End-to-end benchmark of dbkdom: classifier rows and problem reports.

Run from the repository root:

    python3 perfbench/run.py --workload defaults --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout, never from an
installed copy, and runs in this one process (``jobs=1``).  Each workload is
a seeded instance list (see ``workloads.py``); the run repeats passes over it
until ``--seconds`` have passed, every pass in a fresh seeded order, and
finishes the pass it is in.  Rows go through ``cli.classify_row``, the entry
point ``dbkdom sweep`` uses, and the ``defaults`` workload also builds both
``problems`` reports in every pass.

Timings use each row's fastest pass (see ``Measurement.best_row_seconds``):
on a shared machine, slow spells of tens of seconds moved whole-pass rates
by a quarter between identical runs, while the fastest pass per row held
within a few percent.

After the timed passes every distinct row is checked by ``check.py``, which
never calls into dbkdom, and every later pass must reproduce the first pass's
rows exactly (apart from ``ms``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
passes untraced, then again with spans recorded by ``tracing.py``, and prints
the per-layer metrics, per pass, with the tracing overhead and the kernel
timings of ``benchmarks/bench_kernel.py``'s six cases; it writes the spans
to ``.bench_build/perfbench/spans-<workload>.jsonl`` at the end.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from check import check_report, check_row
from probe import ROOT, digest, load_dbkdom
from tracing import Tracer, installed, layer_metrics, layer_unit, write_spans

SETUP_PROBES = 20
SETUP_REPEAT = 3  # back-to-back starts per probe; the probe keeps the fastest
TRACED_SHARE = 0.5  # share of --seconds the untraced half of a trace run gets
TRACED_PASSES = 10  # at most this many traced passes, to bound span memory
SPANS_DIR = ROOT / ".bench_build" / "perfbench"  # ignored by git

# bench_kernel.py's decision problems: (label, family code, n, d, k, size),
# family code 0 = de Bruijn, 1 = Kautz
KERNEL_CASES = [
    ("debruijn 40/3/3 size 1 pruned", 0, 40, 3, 3, 1),
    ("debruijn 59/2/2 size 9 found", 0, 59, 2, 2, 9),
    ("kautz 55/2/2 size 8 absent", 1, 55, 2, 2, 8),
    ("debruijn 110/3/3 size 4 found", 0, 110, 3, 3, 4),
    ("debruijn 230/3/2 size 18 found", 0, 230, 3, 2, 18),
    ("kautz 150/2/3 size 10 absent", 1, 150, 2, 3, 10),
]
KERNEL_REPEAT = 3

END_TO_END_UNITS = {
    "setup_s": "s", "rows_per_s": "1/s", "row_ms_p50": "ms",
    "row_ms_p90": "ms", "exact_share": "ratio", "verified_share": "ratio",
    "peak_rss_mb": "MB",
}


def time_setup(workload, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    dbkdom, selected the kernel and generated ``workload``."""
    command = [sys.executable, str(Path(__file__).with_name("probe.py")),
               workload.name, str(seed)]
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or not line.startswith("ready"):
            sys.exit(f"error: set-up probe failed: {line!r}")
    if line.split()[1] != digest(workload):
        sys.exit("error: set-up probe generated other inputs")
    return ready


class SetupProbes:
    """``SETUP_PROBES`` set-up timings spread evenly over a run.

    Slow spells of a second or two on a shared machine moved the median
    of probes taken back to back by half; spread over the run, one spell
    touches only a few of them.  Each probe is the fastest of
    ``SETUP_REPEAT`` starts in a row, which drops a start slowed by a
    momentary spike, as a row's fastest pass does for row times.
    """

    def __init__(self, workload, seed: int, seconds: float) -> None:
        self.workload, self.seed = workload, seed
        self.interval = seconds / SETUP_PROBES
        self.due = time.perf_counter()
        self.times: list[float] = []

    def __call__(self) -> None:
        """Take a probe if one is due; called between rows."""
        if len(self.times) < SETUP_PROBES and time.perf_counter() >= self.due:
            self.times.append(self.probe())
            self.due += self.interval

    def probe(self) -> float:
        return min(time_setup(self.workload, self.seed)
                   for _ in range(SETUP_REPEAT))

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.times.append(self.probe())
        return statistics.median(self.times)


@dataclass
class Measurement:
    """Timed passes over one workload, plus the first pass's rows.

    ``latencies`` maps each instance to its row time in each pass, in pass
    order, and ``report_seconds`` holds each pass's time in the reports.
    """

    reference: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)
    passes: int = 0
    report_seconds: list = field(default_factory=list)
    latencies: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    mismatches: int = 0

    def best_row_seconds(self, passes: int | None = None) -> list[float]:
        """Each instance's fastest row time over the first ``passes``.

        A row's work is the same in every pass, and a busy machine only
        adds time to it.  Every pass runs the instances in another order,
        so a slow spell lands on different rows in each pass and the
        fastest time drops it.
        """
        return [min(times[:passes]) for times in self.latencies.values()]

    def best_pass_seconds(self, passes: int | None = None) -> float:
        """Time of a pass made of best rows and the best report time."""
        seconds = sum(self.best_row_seconds(passes))
        if self.report_seconds:
            seconds += min(self.report_seconds[:passes])
        return seconds

    def rows_per_second(self) -> float:
        rows = len(self.latencies) + sum(len(r["rows"]) for r in self.reports)
        return rows / self.best_pass_seconds()


def measure(cli, limits, workload, seed: int, *, seconds: float | None = None,
            passes: int | None = None, reference: Measurement | None = None,
            between_rows=None) -> Measurement:
    """Run passes until ``passes`` are done or ``seconds`` have elapsed.

    Rows are compared with ``reference`` (the first pass of this run when
    None) outside the timed region of each pass.  ``between_rows`` runs
    after each row, outside its timing.
    """
    envelope = (list(workloads.DEFAULT_N), list(workloads.DEFAULT_D),
                list(workloads.DEFAULT_K))
    m = Measurement()
    ref = reference or m
    clock = time.perf_counter
    started = clock()
    while True:
        order = workloads.pass_order(workload, seed, m.passes)
        rows = []
        for instance in order:
            row_start = clock()
            rows.append(cli.classify_row(*instance, limits))
            m.latencies[instance].append(clock() - row_start)
            if between_rows:
                between_rows()
        reports = []
        if workload.reports:
            reports_start = clock()
            reports = [cli.debruijn_necessity_report(*envelope, limits),
                       cli.kautz_upper_report(*envelope, limits)]
            m.report_seconds.append(clock() - reports_start)
        m.passes += 1
        m.attempted += len(rows) + sum(len(r["rows"]) for r in reports)
        for row in rows:
            del row["ms"]
        if not ref.reference:
            ref.reference = dict(zip(order, rows))
            ref.reports = reports
        else:
            m.mismatches += sum(row != ref.reference[instance]
                                for instance, row in zip(order, rows))
            m.mismatches += sum(report != known for report, known
                                in zip(reports, ref.reports))
        if passes is not None:
            if m.passes >= passes:
                return m
        elif clock() - started >= seconds:
            return m


def check_measurement(m: Measurement) -> tuple[int, list[str]]:
    """Rows and report problems that fail the independent check, as a
    count per pass, and the problems found."""
    problems = []
    bad = 0
    for instance, row in m.reference.items():
        found = check_row(row, instance)
        bad += bool(found)
        problems += [f"{instance}: {p}" for p in found]
    gammas = {instance: row["gamma"] for instance, row in m.reference.items()
              if row.get("gamma") is not None}
    for report in m.reports:
        found = check_report(report, gammas)
        bad += len(found)
        problems += found
    return bad, problems


def kernel_metrics(dbkdom) -> tuple[dict, dict, int]:
    """Time the six kernel cases on each kernel that imports.

    Returns per-layer metrics of the pure kernel, the same figures for the
    compiled one (None when it is not built) and the number of cases whose
    (status, witness, nodes) differ between the two.
    """
    from dbkdom import _cover_py
    try:
        from dbkdom import _cover_ext
    except ImportError:
        _cover_ext = None
    figures = {}
    outcomes = {}
    for module in (_cover_py, _cover_ext):
        if module is None:
            continue
        build_s = search_s = 0.0
        nodes = 0
        for label, code, n, d, k, size in KERNEL_CASES:
            family = module.DEBRUIJN if code == 0 else module.KAUTZ
            builds, searches = [], []
            for _ in range(KERNEL_REPEAT):
                start = time.perf_counter()
                table = module.KernelTable(family, n, d, k)
                built = time.perf_counter()
                outcome = table.search(size)
                builds.append(built - start)
                searches.append(time.perf_counter() - built)
            build_s += min(builds)
            search_s += min(searches)
            nodes += outcome[2]
            outcomes.setdefault(label, []).append(tuple(outcome))
        figures[module.BACKEND] = {
            "table_build_s": build_s, "search_s": search_s,
            "nodes_per_s": nodes / search_s,
        }
    mismatches = sum(any(r != results[0] for r in results)
                     for results in outcomes.values())
    pure = {f"kernel.pure.{key}": value
            for key, value in figures["pure"].items()}
    return pure, figures.get("compiled"), mismatches


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def percentile_ms(seconds: list, q: int) -> float:
    """q-th percentile, q in 10..90 by tens, in milliseconds."""
    return statistics.quantiles(seconds, n=10)[q // 10 - 1] * 1000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    dbkdom = load_dbkdom()
    cli = dbkdom.cli
    workload = workloads.generate(args.workload, args.seed)
    limits = dbkdom.OracleLimits(max_nodes=workload.max_nodes)

    if not args.trace:
        probes = SetupProbes(workload, args.seed, args.seconds)
        run = measure(cli, limits, workload, args.seed, seconds=args.seconds,
                      between_rows=probes)
        measured = [run]
    else:
        run = measure(cli, limits, workload, args.seed,
                      seconds=args.seconds * TRACED_SHARE)
        tracer = Tracer()
        with installed(tracer, dbkdom):
            traced = measure(cli, limits, workload, args.seed,
                             passes=min(run.passes, TRACED_PASSES),
                             reference=run)
        measured = [run, traced]

    bad, problems = check_measurement(run)
    attempted = sum(m.attempted for m in measured)
    failed = (sum(m.mismatches for m in measured)
              + bad * sum(m.passes for m in measured))
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "kernel_backend": dbkdom.kernel_backend(),
        "dbkdom_pure": bool(os.environ.get("DBKDOM_PURE")),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "passes": run.passes, "rows_per_pass": len(run.reference),
        "latency_samples": len(run.latencies),
        "latency_samples_per_instance": run.passes,
    }

    if not args.trace:
        exact = sum(row["gamma"] is not None
                    for row in run.reference.values())
        best = run.best_row_seconds()
        values = {
            "setup_s": probes.median(),
            "rows_per_s": run.rows_per_second(),
            "row_ms_p50": percentile_ms(best, 50),
            "row_ms_p90": percentile_ms(best, 90),
            "exact_share": exact / len(run.reference),
            "verified_share": (attempted - failed) / attempted,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        info["failed_share"] = failed / attempted
    else:
        spans = tracer.finished()
        values = layer_metrics(spans, traced.passes)
        untraced_pass_s = run.best_pass_seconds(traced.passes)
        values["trace.overhead_s"] = (traced.best_pass_seconds()
                                      - untraced_pass_s)
        pure, compiled, kernel_mismatches = kernel_metrics(dbkdom)
        values.update(pure)
        attempted += len(KERNEL_CASES) * (1 if compiled is None else 2)
        failed += kernel_mismatches
        info.update(spans=len(spans), kernel_compiled=compiled,
                    untraced_pass_s=untraced_pass_s,
                    traced_pass_s=traced.best_pass_seconds())
        if kernel_mismatches:
            problems.append(f"{kernel_mismatches} kernel cases differ "
                            "between the pure and compiled kernels")
        spans_path = SPANS_DIR / f"spans-{args.workload}.jsonl"
        write_spans(spans, spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}

    info["problems"] = problems[:20]
    print("info " + json.dumps(info))
    for name, metric in metrics.items():
        print(f"  {name:48} {metric['value']:14.6g} {metric['unit']}")
    if failed:
        print(f"FAILED: {failed} of {attempted} attempted", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
