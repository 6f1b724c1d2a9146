"""Test-only reference for the search kernels.

The straightforward form of what ``_cover_py.KernelTable`` computes: balls
by breadth-first expansion from the arc formulas, coverers as the transpose
of the ball table, and a recursive search that makes every node a call of
its own.  Both kernels build their tables from layer runs, so breadth-first
balls live only here, as the reference for both: the pure kernel must give
this table, and the compiled kernel the pure kernel's.  This search
counts every node on entry and checks the budget there.  The kernels make
no call for a leaf child and check the budget only at children that
pass the counting bound and at the end of a node's loop; for every
budget they must give the same (status, witness, nodes) as this search
with ``pruned=True``.  ``log`` records where each node sits, so a test
can tell where a budget cuts.

A last pick, a node with one pick left, is an ``expand`` node in the
kernels like any other, where only a full child passes the counting
bound; its children are counted only when one is full.  Here that is
the last-pick test: a node with one pick left and no full, non-banned
child returns before it counts a child.

``pruned=False`` is the search without the kernel's two prunings (root
orbit bans and the last-pick test): wherever it decides, the pruned
search must return its (status, witness) with no more nodes.  The root
orbit of u is its images under the reflection x -> n-1-x and the
translations by multiples of s = n/g, g = gcd(d-1, n) for de Bruijn and
gcd(d+1, n) for Kautz; a root coverer in the orbit of an earlier one is
skipped, and each root child's subtree bans the earlier ones' orbits.
"""

from __future__ import annotations

import sys
from math import gcd

DEBRUIJN = 0

FOUND = "found"
ABSENT = "absent"
INCONCLUSIVE = "inconclusive"


class ReferenceTable:
    def __init__(self, family: int, n: int, d: int, k: int):
        self.n = n
        self.step = n // gcd(d - 1 if family == DEBRUIJN else d + 1, n)
        self.balls = []
        coverers = self.coverers = [[] for _ in range(n)]
        one = ord("1")
        for v in range(n):
            members = self._ball(family, n, d, k, v)
            digits = bytearray(b"0" * n)  # vertex n-1 first
            for y in members:
                digits[n - 1 - y] = one
                coverers[y].append(v)
            self.balls.append(int(digits, 2))
        self.max_ball = max(m.bit_count() for m in self.balls)

    @staticmethod
    def _ball(family: int, n: int, d: int, k: int, v: int) -> set[int]:
        seen = {v}
        frontier = {v}
        for _ in range(k):
            if family == DEBRUIJN:
                image = {(d * u + i) % n for u in frontier for i in range(d)}
            else:
                image = {(-d * u - d + i) % n
                         for u in frontier for i in range(d)}
            frontier = image - seen
            seen |= frontier
            # no new vertex, or no vertex left: no later layer adds one
            if not frontier or len(seen) == n:
                break
        return seen

    def search(self, size: int, max_nodes: int | None = None,
               pruned: bool = True, log: list | None = None):
        """(status, witness, nodes); ``log``, when given, gets one entry
        per node in the order counted: (index of its parent, -1 at the
        root; its remaining picks; whether it passes the counting bound)."""
        n = self.n
        full = (1 << n) - 1
        balls, coverers, max_ball = self.balls, self.coverers, self.max_ball
        budget = -1 if max_nodes is None else max_nodes
        nodes = 0
        chosen: list[int] = []

        def dfs(covered: int, banned: int, remaining: int,
                parent: int) -> int:
            nonlocal nodes
            here = nodes
            nodes += 1
            if log is not None:
                log.append((parent, remaining, remaining * max_ball
                            >= n - covered.bit_count()))
            if 0 <= budget < nodes:
                return INCONCLUSIVE
            if covered == full:
                return FOUND
            if remaining == 0:
                return ABSENT
            if remaining * max_ball < n - covered.bit_count():
                return ABSENT
            low = ~covered & full
            v = (low & -low).bit_length() - 1
            if pruned and remaining == 1 and not any(
                    not (banned >> u) & 1 and balls[u] & low == low
                    for u in coverers[v]):
                return ABSENT  # no last pick covers the rest
            root = pruned and covered == 0
            for u in coverers[v]:
                if (banned >> u) & 1:
                    continue  # at the root also: in an earlier u's orbit
                chosen.append(u)
                r = dfs(covered | balls[u], banned | (1 << u), remaining - 1,
                        here)
                if r != ABSENT:
                    return r
                chosen.pop()
                banned |= 1 << u
                if root:
                    for x in range(u % self.step, n, self.step):
                        banned |= 1 << x | 1 << (n - 1 - x)
            return ABSENT

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, size + 200))
        try:
            status = dfs(0, 0, size, -1)
        finally:
            sys.setrecursionlimit(limit)
        if status == FOUND:
            return FOUND, sorted(chosen), nodes
        return status, None, nodes
