"""Exact modular arithmetic: residue runs, geometric sums, linear congruences.

Everything works on plain Python integers, which are exact at any size, so
quantities such as d**k or their sums never overflow or round.  A "run" is a
set of consecutive residues modulo n, given as a plain (start, length) pair;
``run_mask`` turns one into a bitmask.  ``digraph.run_image`` and
``digraph.run_layers`` give the images of runs in closed form, and tests
check them against the reference ``digraph.set_out_neighborhood``.
"""

from __future__ import annotations

import math


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a / b for b >= 1."""
    if b < 1:
        raise ValueError(f"divisor must be >= 1, got {b}")
    return -(-a // b)


def geometric_sum(d: int, k: int) -> int:
    """Sum of d**j for j = 0..k, computed exactly.

    Equals (d**(k+1) - 1) // (d - 1).  This is the size ceiling of a radius-k
    out-ball in a d-regular digraph, hence the denominator in every lower
    bound used by this package.
    """
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if k < 0:
        raise ValueError(f"radius must be >= 0, got {k}")
    return (d ** (k + 1) - 1) // (d - 1)


def run_mask(start: int, length: int, n: int) -> int:
    """Bitmask of the run of ``length`` residues mod n beginning at ``start``."""
    if length <= 0:
        return 0
    if length >= n:
        return (1 << n) - 1
    start %= n
    stop = start + length
    if stop <= n:
        return ((1 << length) - 1) << start
    # wraps: a prefix [0, stop-n) plus a suffix [start, n)
    return ((1 << (stop - n)) - 1) | (((1 << (n - start)) - 1) << start)


def solve_linear_congruence(a: int, b: int, n: int) -> list[int]:
    """All x in [0, n) with a*x == b (mod n), in ascending order.

    Solvable exactly when g = gcd(a mod n, n) divides b, in which case there
    are g solutions spaced n/g apart.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    a %= n
    b %= n
    g = math.gcd(a, n)
    if b % g:
        return []
    m = n // g
    x0 = 0 if m == 1 else (b // g) * pow(a // g, -1, m) % m
    return [x0 + t * m for t in range(g)]
