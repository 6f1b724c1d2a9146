"""Pure Python cover-search kernel.

Builds radius-k coverage bitmasks for every vertex of a formula-defined
digraph and runs an exhaustive branch and bound search for a dominating set
of a given size.  The compiled kernel in _cover_ext mirrors this module
operation for operation (same expansion, same branching order, same node
accounting), so the two backends return identical answers and can be
cross-checked; keep them in lockstep when changing either.
"""

from __future__ import annotations

import sys

BACKEND = "pure"

DEBRUIJN = 0
KAUTZ = 1

FOUND = 0
ABSENT = 1
INCONCLUSIVE = 2


class KernelTable:
    """Coverage table plus search state for one (family, n, d, k) instance."""

    def __init__(self, family: int, n: int, d: int, k: int):
        if family not in (DEBRUIJN, KAUTZ):
            raise ValueError(f"unknown family code {family}")
        if n < 1 or d < 1 or k < 0:
            raise ValueError("need n >= 1, d >= 1, k >= 0")
        if d > n:
            # the ring step below wraps base + i with a single subtraction
            raise ValueError(f"need d <= n, got n={n}, d={d}")
        self.family = family
        self.n = n
        self.d = d
        self.k = k
        self.balls = self._build_balls()
        self.max_ball = max(m.bit_count() for m in self.balls)
        self.coverers = self._build_coverers()

    def _build_balls(self) -> list[int]:
        # breadth-first by distance; each vertex is enqueued at most once
        family, n, d, k = self.family, self.n, self.d, self.k
        balls = []
        seen = bytearray(n)
        for v in range(n):
            queue = [v]
            seen[v] = 1
            mask = 1 << v
            head = 0
            for _ in range(k):
                tail = len(queue)
                if head == tail:
                    break
                while head < tail:
                    u = queue[head]
                    head += 1
                    if family == DEBRUIJN:
                        base = (d * u) % n
                    else:
                        base = (-d * u - d) % n
                    for i in range(d):
                        y = base + i
                        if y >= n:
                            y -= n
                        if not seen[y]:
                            seen[y] = 1
                            mask |= 1 << y
                            queue.append(y)
            balls.append(mask)
            for u in queue:
                seen[u] = 0
        return balls

    def _build_coverers(self) -> list[list[int]]:
        # transpose of the ball table: coverers[v] lists u with v in ball(u),
        # ascending because u ascends
        coverers: list[list[int]] = [[] for _ in range(self.n)]
        for u, mask in enumerate(self.balls):
            rest = mask
            while rest:
                low = rest & -rest
                coverers[low.bit_length() - 1].append(u)
                rest ^= low
        return coverers

    def _check_vertex(self, v: int) -> None:
        # a negative v would otherwise index from the end
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def ball_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self.balls[v]

    def coverer_list(self, v: int) -> list[int]:
        self._check_vertex(v)
        return list(self.coverers[v])

    def search(self, size: int,
               max_nodes: int | None = None) -> tuple[int, list[int] | None, int]:
        """Exhaustive search for a covering set of at most ``size`` vertices.

        Branches on the lowest uncovered vertex over its coverers in
        ascending order; coverers already tried at a node are banned in the
        sibling subtrees, so no subset is explored twice.  Returns
        (status, witness, nodes) where the witness is the first cover found
        by this fixed order (ascending members), or None.
        """
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        n = self.n
        full = (1 << n) - 1
        balls = self.balls
        coverers = self.coverers
        max_ball = self.max_ball
        budget = -1 if max_nodes is None else max_nodes
        nodes = 0
        chosen: list[int] = []

        limit = sys.getrecursionlimit()
        if size + 100 > limit:
            sys.setrecursionlimit(size + 200)

        def dfs(covered: int, banned: int, remaining: int) -> int:
            nonlocal nodes
            nodes += 1
            if 0 <= budget < nodes:
                return INCONCLUSIVE
            if covered == full:
                return FOUND
            if remaining == 0:
                return ABSENT
            if remaining * max_ball < n - covered.bit_count():
                return ABSENT
            low = (~covered & full)
            v = (low & -low).bit_length() - 1
            for u in coverers[v]:
                if (banned >> u) & 1:
                    continue
                chosen.append(u)
                r = dfs(covered | balls[u], banned | (1 << u), remaining - 1)
                if r != ABSENT:
                    return r
                chosen.pop()
                banned |= 1 << u
            return ABSENT

        try:
            status = dfs(0, 0, size)
        finally:
            sys.setrecursionlimit(limit)
        if status == FOUND:
            return FOUND, sorted(chosen), nodes
        return status, None, nodes
