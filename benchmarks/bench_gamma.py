"""Time `dbkdom gamma` against the order n, in fresh processes.

Each run starts a new interpreter, so the time includes the process start
and the import, as a user of the command pays them.  Both families run at
d=3, k=3 for n = 10**3 .. 10**7; the package comes from `src/` of the
checkout holding this script.  Run from anywhere:

    python benchmarks/bench_gamma.py [--repeat N] [--max-n N]

Each row gives the fastest of the repeats and the row `gamma` printed.
The in-process rows below also give the slowest repeat beside the
fastest (the ``*_max`` fields), so that a difference inside that spread
reads as unresolved.

Process start hides the expansion at most orders, so the verify rows time
``domination.verify`` in this process, on the witness each order's answer
rests on: for each order, the de Bruijn congruence run (or the anchor run
where none exists) and the Kautz prefix run of length ``upper``, at d=3,
k=3, and one large-degree row, de Bruijn n = 10**5, d = 5000, k = 1.
Each verify row also times ``dset.members()`` on the same witness, the
listing every answer's witness goes through: up to the order
``digraph.INT_TABLE_CEILING`` it copies the shared table's ints, and above
it makes a new int per member, so the rows show both sides.  It also
times ``to_dict()`` of the row ``classify`` returns for the same
instance, which lists that row's witness once; a Kautz row that is a
bracket lists none.

The stage rows time the two run scans of ``classify`` in this process at
their worst case, where they find nothing and so try every candidate: the
run scan on the first de Bruijn order from n on with no congruence run and
no dominating run of length L, and the two-run scan on the first Kautz
order from n on that misses the prefix condition and has no two-run cover
of size L.  ``construct.COVER_SCAN_MAX_N`` is set from these rows.

The rows are printed and written to ``BENCH_gamma.json`` at the root of
this checkout, with the machine information ``BENCH_kernel.json`` carries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "BENCH_gamma.json"
FAMILIES = ("debruijn", "kautz")
ORDERS = [10 ** e for e in range(3, 8)]
STAGE_ORDERS = [500, 1000, 2000, 5000, 10000]
D, K = 3, 3
LARGE_DEGREE = (10 ** 5, 5000, 1)  # (n, d, k) of the large-degree verify row


def run_gamma(family: str, n: int) -> tuple[float, dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "dbkdom.cli", "gamma", "--family", family,
           "-n", str(n), "-d", str(D), "-k", str(K), "--format", "json"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    # a bracket exits non-zero by contract, so only a missing row is a failure
    if proc.stdout.strip() == "":
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return elapsed, json.loads(proc.stdout)


def timed(repeat: int, call) -> tuple[float, float, object]:
    """The fastest and the slowest of ``repeat`` timed calls, and the last
    call's value."""
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        value = call()
        times.append(time.perf_counter() - started)
    return min(times), max(times), value


def verify_rows(repeat: int, max_n: int) -> list[dict]:
    """Time of ``verify`` and of listing the members on each order's
    witness, and of ``to_dict`` on its classified row, in process."""
    from dbkdom import construct
    from dbkdom.digraph import GeneralizedDigraph
    from dbkdom.domination import verify

    def witness(g: GeneralizedDigraph, k: int):
        if g.family == "kautz":
            return "prefix", construct.build_prefix_cover(g, k)
        run = construct.congruence_witness(g, k)
        if run is not None:
            return "congruence", run
        return "anchor", construct.build_anchor_run(g, k)

    cases = [(family, n, D, K) for family in FAMILIES for n in ORDERS]
    cases.append(("debruijn", *LARGE_DEGREE))
    rows = []
    for family, n, d, k in cases:
        if n > max_n:
            continue
        g = GeneralizedDigraph(family, n, d)
        run, dset = witness(g, k)
        *verifying, cert = timed(repeat, lambda: verify(g, dset, k))
        if not cert.valid:
            raise RuntimeError(f"{run} run failed verify: {g}, k={k}")
        *listing, members = timed(repeat, dset.members)
        if len(members) != len(dset):
            raise RuntimeError(f"{run} run listed {len(members)} members")
        result = construct.classify(g, k)
        *dumping, row = timed(repeat, result.to_dict)
        if row["gamma"] != result.gamma:
            raise RuntimeError(f"to_dict gave gamma {row['gamma']}: {g}")
        print(f"{family:<9} {n:>9} {d:>5} {k:>2}  {run:<10} {len(dset):>7} "
              + " ".join(f"{low * 1000:>9.3f} {high * 1000:>9.3f} ms"
                         for low, high in (verifying, listing, dumping)),
              flush=True)
        rows.append({"family": family, "n": n, "d": d, "k": k, "run": run,
                     "size": len(dset), "seconds": round(verifying[0], 6),
                     "seconds_max": round(verifying[1], 6),
                     "members_seconds": round(listing[0], 7),
                     "members_seconds_max": round(listing[1], 7),
                     "to_dict_seconds": round(dumping[0], 7),
                     "to_dict_seconds_max": round(dumping[1], 7)})
    return rows


def stage_rows(repeat: int) -> list[dict]:
    """Worst-case time of the run scan and the two-run scan, in process."""
    from dbkdom import construct
    from dbkdom.digraph import GeneralizedDigraph
    from dbkdom.domination import bounds

    def misses(family: str, n: int) -> bool:
        g = GeneralizedDigraph(family, n, D)
        lower = bounds(g, K).lower
        if family == "debruijn":
            return (construct.congruence_witness(g, K) is None
                    and construct.run_scan(g, K, lower) is None)
        return (not construct.prefix_condition(g, K)
                and construct.two_run_cover(g, K, lower) is None)

    rows = []
    for family, stage, scan in (
            ("debruijn", "run_scan", construct.run_scan),
            ("kautz", "two_run", construct.two_run_cover)):
        for start in STAGE_ORDERS:
            n = next(n for n in range(start, 2 * start)
                     if misses(family, n))
            g = GeneralizedDigraph(family, n, D)
            lower = bounds(g, K).lower
            seconds, slowest, _ = timed(repeat, lambda: scan(g, K, lower))
            print(f"{stage:<9} {n:>9} {seconds * 1000:>8.2f} ms "
                  f"{slowest * 1000:>8.2f} ms", flush=True)
            rows.append({"stage": stage, "family": family, "n": n, "d": D,
                         "k": K, "seconds": round(seconds, 5),
                         "seconds_max": round(slowest, 5)})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per row; the fastest is reported")
    parser.add_argument("--max-n", type=int, default=ORDERS[-1],
                        help="skip orders above this")
    args = parser.parse_args()

    print(f"dbkdom gamma, d={D} k={K}, fastest of {args.repeat} fresh "
          f"processes, python {sys.version.split()[0]}")
    print(f"{'family':<9} {'n':>9} {'seconds':>8}  {'method':<12} value")
    rows = []
    for family in FAMILIES:
        for n in ORDERS:
            if n > args.max_n:
                continue
            times = []
            for _ in range(args.repeat):
                elapsed, row = run_gamma(family, n)
                times.append(elapsed)
            value = (row["gamma"] if row["gamma"] is not None
                     else "bracket {}..{}".format(*row["bracket"]))
            print(f"{family:<9} {n:>9} {min(times):>8.3f}  "
                  f"{row['method']:<12} {value}", flush=True)
            rows.append({"family": family, "n": n, "d": D, "k": K,
                         "seconds": round(min(times), 4),
                         "method": row["method"], "gamma": row["gamma"],
                         "bracket": row["bracket"]})

    sys.path.insert(0, str(SRC))  # the in-process rows import from here
    print(f"\nverify, members() and to_dict() in process, fastest and "
          f"slowest of {args.repeat}")
    print(f"{'family':<9} {'n':>9} {'d':>5} {'k':>2}  {'run':<10} "
          f"{'size':>7} {'verify':>9} {'(max)':>12} {'members':>9} "
          f"{'(max)':>12} {'to_dict':>9} {'(max)':>12}")
    verifies = verify_rows(args.repeat, args.max_n)

    print(f"\nworst-case run scans, d={D} k={K}, fastest and slowest of "
          f"{args.repeat}")
    stages = stage_rows(args.repeat)

    OUT.write_text(json.dumps({
        "script": "benchmarks/bench_gamma.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "repeat": args.repeat,
        "rows": rows,
        "verify": verifies,
        "stages": stages,
    }, indent=1) + "\n")
    print(f"\nwrote {OUT.name}")


if __name__ == "__main__":
    main()
