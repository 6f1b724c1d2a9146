"""Exact modular arithmetic: residue runs, geometric sums, linear congruences.

Everything works on plain Python integers, which are exact at any size, so
quantities such as d**k or their sums never overflow or round.  A "run" is a
set of consecutive residues modulo n; runs are the shape that interval
neighborhood arithmetic produces and consumes, so they get a value type of
their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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


@dataclass(frozen=True)
class ModInterval:
    """A run of ``length`` consecutive residues mod ``modulus`` from ``start``.

    Stored as (start, length) rather than (start, end) so the empty run
    (length 0) and the full ring (length == modulus) are distinct,
    unambiguous values.  Full and empty runs are canonicalized to start 0,
    making dataclass equality coincide with set equality.
    """

    start: int
    length: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.length <= self.modulus:
            raise ValueError(
                f"length must be in [0, {self.modulus}], got {self.length}")
        object.__setattr__(self, "start", self.start % self.modulus)
        if self.length in (0, self.modulus):
            object.__setattr__(self, "start", 0)

    @property
    def end(self) -> int:
        """Last member of a non-empty run."""
        if self.length == 0:
            raise ValueError("empty run has no end")
        return (self.start + self.length - 1) % self.modulus

    def is_empty(self) -> bool:
        return self.length == 0

    def is_full(self) -> bool:
        return self.length == self.modulus

    def __contains__(self, v: int) -> bool:
        return (v - self.start) % self.modulus < self.length

    def __iter__(self):
        n = self.modulus
        for t in range(self.length):
            yield (self.start + t) % n

    def members(self) -> list[int]:
        """Members in run order (wrapping past n - 1 back to 0)."""
        return list(self)

    def mask(self) -> int:
        """Membership bitmask: bit v is set iff v is in the run."""
        return run_mask(self.start, self.length, self.modulus)


def mod_interval(i: int, j: int, n: int) -> ModInterval:
    """Inclusive residue run from i to j modulo n, wrapping when i > j.

    The run has ((j - i) mod n) + 1 members, so i == j (mod n) yields a
    singleton and j == i - 1 (mod n) yields the full ring.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    return ModInterval(i % n, (j - i) % n + 1, n)


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
