"""Benchmark the pure-Python search kernel against the compiled one.

Both kernels implement the identical branch-and-bound algorithm, so the
comparison is apples to apples: same tables, same node counts, same
witnesses.  Run from the repository root:

    python benchmarks/bench_kernel.py [--repeat N]

The compiled block is skipped (with a note) when the extension is not
built.
"""

from __future__ import annotations

import argparse
import time

from dbkdom import _cover_py

try:
    from dbkdom import _cover_ext
except ImportError:
    _cover_ext = None

# (family code, n, d, k, size): decision problems of increasing difficulty,
# from a root-level prune to searches in the tens of thousands of nodes.
# Family codes follow the kernel convention 0 = de Bruijn, 1 = Kautz.
CASES = [
    ("debruijn n=40 d=3 k=3 size=1 (pruned)", (0, 40, 3, 3, 1)),
    ("debruijn n=59 d=2 k=2 size=9 (found)", (0, 59, 2, 2, 9)),
    ("kautz    n=55 d=2 k=2 size=8 (absent)", (1, 55, 2, 2, 8)),
    ("debruijn n=110 d=3 k=3 size=4 (found)", (0, 110, 3, 3, 4)),
    ("debruijn n=230 d=3 k=2 size=18 (found)", (0, 230, 3, 2, 18)),
    ("kautz    n=150 d=2 k=3 size=10 (absent)", (1, 150, 2, 3, 10)),
]


def run_case(module, case, repeat):
    code, n, d, k, size = case
    family = module.DEBRUIJN if code == 0 else module.KAUTZ
    best = None
    outcome = None
    for _ in range(repeat):
        started = time.perf_counter()
        table = module.KernelTable(family, n, d, k)
        outcome = table.search(size)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, outcome


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per case (best is kept)")
    args = parser.parse_args()

    print(f"pure kernel:     {_cover_py.BACKEND}")
    if _cover_ext is None:
        print("compiled kernel: NOT BUILT (pure timings only)")
    else:
        print(f"compiled kernel: {_cover_ext.BACKEND}")
    print()
    header = f"{'case':44} {'pure':>10} {'compiled':>10} {'speedup':>8}  nodes"
    print(header)
    print("-" * len(header))

    for label, case in CASES:
        pure_t, pure_out = run_case(_cover_py, case, args.repeat)
        if _cover_ext is None:
            print(f"{label:44} {pure_t * 1000:9.2f}ms {'-':>10} {'-':>8}  "
                  f"{pure_out[2]}")
            continue
        ext_t, ext_out = run_case(_cover_ext, case, args.repeat)
        if (pure_out[0], pure_out[1], pure_out[2]) != \
                (ext_out[0], ext_out[1], ext_out[2]):
            raise SystemExit(
                f"kernel mismatch on {label}: pure={pure_out} ext={ext_out}")
        speedup = pure_t / ext_t if ext_t > 0 else float("inf")
        print(f"{label:44} {pure_t * 1000:9.2f}ms {ext_t * 1000:9.2f}ms "
              f"{speedup:7.1f}x  {ext_out[2]}")


if __name__ == "__main__":
    main()
