"""Time the pure and compiled search kernels, table build and search apart.

The two kernels of one checkout return the same tables and the same
(status, witness, nodes) for every search, so each case does the same work
on both; the script checks that and stops on any difference.  Checkouts
must also agree on the tables and on each search's (status, witness), but
not on its node count, so a change to the search's prunings can be timed
against its parent; each checkout's nodes are printed.  Each case builds
one coverage table and, unless it is table-only, runs one search on it,
under the case's node budget if it has one, and reports the search's
nodes per second.
A table-only case reports the build, and the build plus one
``coverer_list`` of every vertex: the pure kernel builds a coverer list
the first time it is read, so only the second timing does the same work
in both kernels.  Each table is freed before the next build.

    python benchmarks/bench_kernel.py [--repeat N] [--src LABEL=DIR ...]

Each ``--src`` names a directory holding a ``dbkdom`` package (default:
``current=src`` of the checkout holding this script).  Give it more than
once to compare checkouts: the runs are interleaved repeat by repeat, so a
slow phase of the machine hits every checkout alike.  A compiled kernel is
timed when its extension is built in that directory.  The fastest of the
repeats is printed and written to ``BENCH_kernel.json`` at the root of this
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
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
# children for the covered prefix to skip), then two
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
    ("kautz    n=500 d=2 k=6 size=5 (found)", 1, 500, 2, 6, 5, None),
    ("debruijn n=1000 d=3 k=5 size=4 (found)", 0, 1000, 3, 5, 4, None),
    ("debruijn n=5000 d=2 k=2 (table only)", 0, 5000, 2, 2, None, None),
    ("kautz    n=5000 d=2 k=2 (table only)", 1, 5000, 2, 2, None, None),
    ("debruijn n=5000 d=5 k=4 (table only)", 0, 5000, 5, 4, None, None),
    ("kautz    n=5000 d=5 k=4 (table only)", 1, 5000, 5, 4, None, None),
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
        outcome = (status, None if witness is None else list(witness), nodes)
    return (built - started, finished - built,
            digest(table, n) if check else None, outcome)


def answer(outcome):
    """(status, witness) of a search outcome; None for a table-only case."""
    return None if outcome is None else outcome[:2]


def digest(table, n: int) -> str:
    """Hash of max_ball, every ball and every coverer list: equal tables
    give equal digests, and no copy of a large table is kept."""
    h = hashlib.sha256(str(table.max_ball).encode())
    for v in range(n):
        h.update(table.ball_mask(v).to_bytes((n + 7) // 8, "little"))
        h.update(array("i", table.coverer_list(v)).tobytes())
        h.update(b";")
    return h.hexdigest()


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
              f"{'search':>10} {'+lists':>10} {'nodes':>7} {'nodes/s':>10}")
    print(header)
    print("-" * len(header))
    rows = {label: [] for label in runs}
    for case in CASES:
        label, n, size = case[0], case[2], case[5]
        builds, totals, searches = {}, {}, {}
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
                    first_digest = first_digest or fingerprint
                    ours = outcomes.setdefault(run, outcome)
                    first = next(iter(outcomes.values()))
                    if outcome != ours or answer(outcome) != answer(first) or (
                            repeat == 0 and fingerprint != first_digest):
                        raise SystemExit(f"{run} {module.BACKEND} kernel "
                                         f"differs on {label}")
        for (run, backend), build in builds.items():
            table_only = size is None
            search = None if table_only else searches[run, backend]
            total = totals[run, backend] if table_only else None
            nodes = None if table_only else outcomes[run][2]
            rate = None if table_only or not search else nodes / search
            rows[run].append({
                "case": label, "kernel": backend,
                "build_ms": round(build * 1000, 3),
                "search_ms": None if search is None
                else round(search * 1000, 3),
                "build_and_lists_ms": None if total is None
                else round(total * 1000, 3),
                "nodes": nodes,
                "nodes_per_s": None if rate is None else round(rate)})
            search_text = "-" if search is None else f"{search * 1000:.2f}ms"
            total_text = "-" if total is None else f"{total * 1000:.2f}ms"
            rate_text = "-" if rate is None else f"{rate:,.0f}"
            print(f"{label:42} {run:>14} {backend:>8} {build * 1000:8.2f}ms "
                  f"{search_text:>10} {total_text:>10} "
                  f"{'-' if nodes is None else nodes:>7} {rate_text:>10}",
                  flush=True)

    OUT.write_text(json.dumps({
        "script": "benchmarks/bench_kernel.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "repeat": args.repeat,
        "runs": rows,
    }, indent=1) + "\n")
    print(f"\nwrote {OUT.name}")


if __name__ == "__main__":
    main()
