"""Time the pure and compiled search kernels, table build and search apart.

The two kernels of one checkout return the same tables and the same
(status, witness, nodes) for every search, so each case does the same work
on both; the script checks that and stops on any difference.  Checkouts
must also agree on the tables and on each search's (status, witness), but
not on its node count, so a change to the search's prunings can be timed
against its parent; each checkout's nodes are printed.  One difference is
allowed: a search the first ``--src`` (the parent) leaves inconclusive
may be decided by a later checkout whose prunings cut more of the tree,
and such a case is printed; where both decide, their answers must agree.
Each case builds one coverage table and, unless it is table-only, runs
one search on it, under the case's node budget if it has one, and
reports the search's nodes per second.
A table-only case reports the build, and the build plus one
``coverer_list`` of every vertex: the pure kernel computes a coverer list
each time it is read, while the compiled kernel builds every list with
the table, so only the second timing does the same work in both kernels.
The proposer cases then time ``oracle.propose_cover`` of this checkout on
each kernel's table: the steps it ran, steps per second, and the cover it
found, which must be the same on every table.
Each table is freed before the next build.  Statuses are compared by the
name of the kernel constant that holds them, so a checkout whose kernels
return int codes compares with one whose kernels return names.

    python benchmarks/bench_kernel.py [--repeat N] [--src LABEL=DIR ...]

Each ``--src`` names a directory holding a ``dbkdom`` package (default:
``current=src`` of the checkout holding this script).  Give it more than
once to compare checkouts: the runs are interleaved repeat by repeat, so a
slow phase of the machine hits every checkout alike.  A compiled kernel is
timed when its extension is built in that directory.  The fastest of the
repeats is printed and written to ``BENCH_kernel.json`` at the root of this
checkout, with the slowest beside the build and search times, so that a
difference inside that spread reads as unresolved.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import sys
import sysconfig
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_kernel.json"

# (label, family code, n, d, k, size, node budget): decision problems of
# increasing difficulty, from a root-level prune to searches in the tens
# of thousands of nodes, two of them cut by the oracle-budget workload's
# 20,000-node budget (the Kautz one takes 17.4 M nodes with no budget; in
# the de Bruijn one a vertex has at most 5 coverers, so a node has few
# children for the covered prefix to skip) and one that the root orbit
# bans decide within it (Kautz 185/4/2 has g = 5; reflection alone takes
# 26,062 nodes), then two
# shallow searches on rows of 8 and 16 words, whose time goes to the root
# and the last picks, then table-only builds (size None) at the oracle's
# table ceiling.  Family codes follow the kernel convention 0 = de Bruijn,
# 1 = Kautz.
CASES = [
    ("debruijn n=40 d=3 k=3 size=1 (pruned)", 0, 40, 3, 3, 1, None),
    ("debruijn n=59 d=2 k=2 size=9 (found)", 0, 59, 2, 2, 9, None),
    ("kautz    n=55 d=2 k=2 size=8 (absent)", 1, 55, 2, 2, 8, None),
    ("debruijn n=110 d=3 k=3 size=4 (found)", 0, 110, 3, 3, 4, None),
    ("debruijn n=230 d=3 k=2 size=18 (found)", 0, 230, 3, 2, 18, None),
    ("kautz    n=150 d=2 k=3 size=10 (absent)", 1, 150, 2, 3, 10, None),
    ("kautz    n=165 d=3 k=2 size=13 (capped)", 1, 165, 3, 2, 13, 20_000),
    ("debruijn n=129 d=4 k=1 size=26 (capped)", 0, 129, 4, 1, 26, 20_000),
    ("kautz    n=185 d=4 k=2 size=9 (absent)", 1, 185, 4, 2, 9, 20_000),
    ("kautz    n=500 d=2 k=6 size=5 (found)", 1, 500, 2, 6, 5, None),
    ("debruijn n=1000 d=3 k=5 size=4 (found)", 0, 1000, 3, 5, 4, None),
    ("debruijn n=5000 d=2 k=2 (table only)", 0, 5000, 2, 2, None, None),
    ("kautz    n=5000 d=2 k=2 (table only)", 1, 5000, 2, 2, None, None),
    ("debruijn n=5000 d=5 k=4 (table only)", 0, 5000, 5, 4, None, None),
    ("kautz    n=5000 d=5 k=4 (table only)", 1, 5000, 5, 4, None, None),
]

# (label, family code, n, d, k, size, steps): local searches of
# oracle.propose_cover at classify's steps for a 20,000-node budget (10) on
# two rows that budget caps and the search settles, and on a capped row it
# does not settle, there also at the 500 steps of a 10**6-node budget
PROPOSER_CASES = [
    ("kautz    n=145 d=3 k=2 size=12 (10 steps)", 1, 145, 3, 2, 12, 10),
    ("kautz    n=149 d=3 k=2 size=12 (10 steps)", 1, 149, 3, 2, 12, 10),
    ("kautz    n=189 d=2 k=2 size=27 (10 steps)", 1, 189, 2, 2, 27, 10),
    ("kautz    n=189 d=2 k=2 size=27 (500 steps)", 1, 189, 2, 2, 27, 500),
]


def load_kernels(src: Path) -> list:
    """The kernel modules of the package in ``src``, loaded from their
    files so that several checkouts can be timed in one process."""
    package = src / "dbkdom"
    files = [package / "_cover_py.py",
             package / ("_cover_ext" + sysconfig.get_config_var("EXT_SUFFIX"))]
    modules = []
    for path in files:
        if path.exists():
            spec = importlib.util.spec_from_file_location(
                f"dbkdom.{path.name.split('.')[0]}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            modules.append(module)
    if not modules:
        raise SystemExit(f"no kernel found in {package}")
    return modules


def run_once(module, case, check: bool):
    """Build one table and time it, then time its search, or for a
    table-only case one ``coverer_list`` of every vertex: (build seconds,
    seconds after the build, the table's digest when ``check``, the search
    outcome as (status, witness list, nodes) or None).  The table is gone
    when this returns, so no build runs beside an earlier case's table."""
    _, code, n, d, k, size, budget = case
    family = module.DEBRUIJN if code == 0 else module.KAUTZ
    started = time.perf_counter()
    table = module.KernelTable(family, n, d, k)
    built = time.perf_counter()
    if size is None:
        outcome = None
        for v in range(n):
            table.coverer_list(v)
    else:
        outcome = table.search(size, budget)
    finished = time.perf_counter()
    if outcome is not None:
        status, witness, nodes = outcome
        outcome = (status_name(module, status),
                   None if witness is None else list(witness), nodes)
    return (built - started, finished - built,
            digest(table, n) if check else None, outcome)


def status_name(module, status) -> str:
    """The name of the kernel constant that holds ``status``, so a
    checkout whose kernels return int codes compares with one whose
    kernels return the names."""
    return next(name.lower() for name in ("FOUND", "ABSENT", "INCONCLUSIVE")
                if getattr(module, name) == status)


def answer(outcome):
    """(status, witness) of a search outcome; None for a table-only case."""
    return None if outcome is None else outcome[:2]


def newly_decided(parent, outcome) -> bool:
    """Whether ``outcome`` decides a search the parent's leaves
    inconclusive, the one answer the checkouts may differ on."""
    return (parent is not None and parent[0] == "inconclusive"
            and outcome[0] != "inconclusive")


def digest(table, n: int) -> str:
    """Hash of max_ball, every ball and every coverer list: equal tables
    give equal digests, and no copy of a large table is kept."""
    h = hashlib.sha256(str(table.max_ball).encode())
    for v in range(n):
        h.update(table.ball_mask(v).to_bytes((n + 7) // 8, "little"))
        h.update(array("i", table.coverer_list(v)).tobytes())
        h.update(b";")
    return h.hexdigest()


def proposer_rows(runs: dict, repeat: int) -> list:
    """Time this checkout's ``oracle.propose_cover`` on the table of each
    kernel of each run, fastest and slowest of ``repeat``, and print it.

    A search stops at its first cover, and a search of more steps repeats
    the first ones, so the steps a found cover took are the fewest with
    which it is found."""
    sys.path.insert(0, str(ROOT / "src"))
    from dbkdom.digraph import GeneralizedDigraph
    from dbkdom.oracle import propose_cover

    header = (f"{'proposer case':42} {'run':>14} {'kernel':>8} "
              f"{'time':>10} {'(max)':>10} {'steps':>6} {'steps/s':>9}  cover")
    print(f"\n{header}\n{'-' * len(header)}")
    rows = []
    for label, code, n, d, k, size, steps in PROPOSER_CASES:
        g = (GeneralizedDigraph.debruijn if code == 0
             else GeneralizedDigraph.kautz)(n, d)
        covers = []  # every table's cover, which must all be the first
        for run, modules in runs.items():
            for module in modules:
                table = module.KernelTable(code, n, d, k)
                times = []
                for _ in range(repeat):
                    started = time.perf_counter()
                    cover = propose_cover(g, k, size, table=table,
                                          steps=steps)
                    times.append(time.perf_counter() - started)
                cover = cover and cover.members()
                covers.append(cover)
                if cover != covers[0]:
                    raise SystemExit(f"{run} {module.BACKEND} proposes "
                                     f"another cover on {label}")
                ran = steps if cover is None else next(
                    s for s in range(steps + 1)
                    if propose_cover(g, k, size, table=table, steps=s))
                rate = ran / min(times)
                rows.append({
                    "case": label, "run": run, "kernel": module.BACKEND,
                    "ms": round(min(times) * 1000, 3),
                    "max_ms": round(max(times) * 1000, 3),
                    "steps": ran, "steps_per_s": round(rate),
                    "cover": cover})
                print(f"{label:42} {run:>14} {module.BACKEND:>8} "
                      f"{min(times) * 1000:8.2f}ms {max(times) * 1000:8.2f}ms "
                      f"{ran:>6} {rate:>9,.0f}  {cover}", flush=True)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per case (fastest is kept)")
    parser.add_argument("--src", action="append", metavar="LABEL=DIR",
                        help="time the kernels of the package in DIR under "
                             "LABEL; repeat to compare checkouts")
    args = parser.parse_args()

    runs = {}
    for spec in args.src or [f"current={ROOT / 'src'}"]:
        label, _, directory = spec.partition("=")
        runs[label] = load_kernels(Path(directory))

    header = (f"{'case':42} {'run':>14} {'kernel':>8} {'build':>10} "
              f"{'(max)':>10} {'search':>10} {'(max)':>10} {'+lists':>10} "
              f"{'nodes':>7} {'nodes/s':>10}")
    print(header)
    print("-" * len(header))
    rows = {label: [] for label in runs}
    for case in CASES:
        label, n, size = case[0], case[2], case[5]
        builds, totals, searches = {}, {}, {}  # the fastest repeats
        slowest = {}  # (build, search) of the slowest repeats
        first_digest = None  # every table must match it
        outcomes = {}  # each run's first outcome
        for repeat in range(args.repeat):
            for run, modules in runs.items():
                for module in modules:
                    key = (run, module.BACKEND)
                    build, after, fingerprint, outcome = run_once(
                        module, case, check=repeat == 0)
                    builds[key] = min(builds.get(key, build), build)
                    totals[key] = min(totals.get(key, build + after),
                                      build + after)
                    searches[key] = min(searches.get(key, after), after)
                    most = slowest.get(key, (build, after))
                    slowest[key] = max(most[0], build), max(most[1], after)
                    first_digest = first_digest or fingerprint
                    ours = outcomes.setdefault(run, outcome)
                    first = next(iter(outcomes.values()))
                    if outcome != ours or (
                            answer(outcome) != answer(first)
                            and not newly_decided(first, outcome)) or (
                            repeat == 0 and fingerprint != first_digest):
                        raise SystemExit(f"{run} {module.BACKEND} kernel "
                                         f"differs on {label}")
        parent = next(iter(outcomes.values()))
        for run, outcome in outcomes.items():
            if newly_decided(parent, outcome):
                print(f"{label}: {run} decides ({outcome[0]}) a search the "
                      f"first checkout leaves inconclusive", flush=True)
        for (run, backend), build in builds.items():
            table_only = size is None
            search = None if table_only else searches[run, backend]
            build_max = slowest[run, backend][0]
            search_max = None if table_only else slowest[run, backend][1]
            total = totals[run, backend] if table_only else None
            nodes = None if table_only else outcomes[run][2]
            rate = None if table_only or not search else nodes / search
            rows[run].append({
                "case": label, "kernel": backend,
                "build_ms": round(build * 1000, 3),
                "build_max_ms": round(build_max * 1000, 3),
                "search_ms": None if search is None
                else round(search * 1000, 3),
                "search_max_ms": None if search_max is None
                else round(search_max * 1000, 3),
                "build_and_lists_ms": None if total is None
                else round(total * 1000, 3),
                "nodes": nodes,
                "nodes_per_s": None if rate is None else round(rate)})
            search_text = "-" if search is None else f"{search * 1000:.2f}ms"
            search_max_text = ("-" if search_max is None
                               else f"{search_max * 1000:.2f}ms")
            total_text = "-" if total is None else f"{total * 1000:.2f}ms"
            rate_text = "-" if rate is None else f"{rate:,.0f}"
            print(f"{label:42} {run:>14} {backend:>8} {build * 1000:8.2f}ms "
                  f"{build_max * 1000:8.2f}ms {search_text:>10} "
                  f"{search_max_text:>10} {total_text:>10} "
                  f"{'-' if nodes is None else nodes:>7} {rate_text:>10}",
                  flush=True)

    OUT.write_text(json.dumps({
        "script": "benchmarks/bench_kernel.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "repeat": args.repeat,
        "runs": rows,
        "proposer": proposer_rows(runs, args.repeat),
    }, indent=1) + "\n")
    print(f"\nwrote {OUT.name}")


if __name__ == "__main__":
    main()
