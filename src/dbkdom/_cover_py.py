"""Pure Python cover-search kernel.

Builds radius-k coverage bitmasks for every vertex of a formula-defined
digraph and runs an exhaustive branch and bound search for a dominating set
of a given size.  The compiled kernel in _cover_ext returns the same tables
(balls, coverers, max_ball) and, for every search, the same (status,
witness, nodes): the same branching order, prunings and node accounting.
Both build each ball by one rule, from the layer runs of its vertex (see
``KernelTable._spans``); the parity tests pin the outputs.
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
        # a d = 1 layer run never grows, so _spans would take k + 1 steps
        if n < 1 or d < 2 or k < 0:
            raise ValueError("need n >= 1, d >= 2, k >= 0")
        if d > n:
            raise ValueError(f"need d <= n, got n={n}, d={d}")
        self.family = family
        self.n = n
        self.d = d
        self.k = k
        self.balls, self.coverers = self._build()
        self.max_ball = max(m.bit_count() for m in self.balls)
        self._bits = [1 << u for u in range(n)]

    def _spans(self, v: int) -> list[tuple[int, int]]:
        """Ball of v as sorted, disjoint, non-adjacent ranges [a, b).

        Layer j of the ball (the vertices at walk length exactly j) is one
        cyclic run.  de Bruijn: start d**j * v, length d**j.  Kautz: the
        out-arcs of a run [s, s+m) fill [-d*(s+m), -d*s), so layer j+1
        starts at -d*(start_j + len_j) and has length d * len_j.
        """
        family, n, d = self.family, self.n, self.d
        runs = []
        start, length = v, 1
        for _ in range(self.k + 1):
            if length >= n:
                return [(0, n)]
            end = start + length
            if end <= n:
                runs.append((start, end))
            else:
                runs.append((start, n))
                runs.append((0, end - n))
            if family == DEBRUIJN:
                start = start * d % n
            else:
                start = -d * end % n
            length *= d
        runs.sort()
        merged = [runs[0]]
        for a, b in runs[1:]:
            last_a, last_b = merged[-1]
            if a <= last_b:
                if b > last_b:
                    merged[-1] = (last_a, b)
            else:
                merged.append((a, b))
        return merged

    def _build(self) -> tuple[list[int], list[list[int]]]:
        # balls[v] is the OR of v's layer runs; coverers[y] lists the v with
        # y in ball(v), ascending because v ascends and the ranges of one
        # ball are disjoint
        n = self.n
        balls = []
        coverers: list[list[int]] = [[] for _ in range(n)]
        appends = [c.append for c in coverers]
        for v in range(n):
            mask = 0
            for a, b in self._spans(v):
                mask |= ((1 << (b - a)) - 1) << a
                for add in appends[a:b]:
                    add(v)
            balls.append(mask)
        return balls, coverers

    def _require_vertex(self, v: int) -> None:
        # a negative v would otherwise index from the end
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def ball_mask(self, v: int) -> int:
        self._require_vertex(v)
        return self.balls[v]

    def coverer_list(self, v: int) -> list[int]:
        self._require_vertex(v)
        return list(self.coverers[v])

    def search(self, size: int,
               max_nodes: int | None = None) -> tuple[int, list[int] | None, int]:
        """Exhaustive search for a covering set of at most ``size`` vertices.

        Branches on the lowest uncovered vertex over its coverers in
        ascending order; coverers already tried at a node are banned in the
        sibling subtrees, so no subset is explored twice.  Every child is a
        node: it is counted and the budget checked; a child that covers
        everything ends the search; a child with picks left whose counting
        bound (each pick covers at most max_ball vertices) still allows a
        cover is expanded; any other child is a leaf, tested in place
        without a call of its own.

        Two exact prunings cut the tree.  Root reflection: x -> n-1-x maps
        every ball onto a ball, so the subtree of the root's i-th coverer
        also bans the mirrors of the root's earlier coverers, and a root
        coverer that is such a mirror is skipped without being counted; a
        cover lost this way has its mirror in an earlier root branch.
        Last pick: a child with one pick left is expanded only when some
        non-banned coverer of its lowest uncovered vertex covers all that
        is left, otherwise it is a leaf.  Neither removes the first cover
        of the unpruned order, so where that search decides, the witness
        is the same and the node count no higher.

        Returns (status, witness, nodes) where the witness is the first
        cover found by this fixed order (ascending members), or None.  A
        negative ``max_nodes`` means no budget, like None.
        """
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        n = self.n
        full = (1 << n) - 1
        balls = self.balls
        coverers = self.coverers
        max_ball = self.max_ball
        bits = self._bits
        unlimited = max_nodes is None or max_nodes < 0
        # past 2**64 nodes the second test keeps an unlimited search going
        cap = 1 << 64 if unlimited else max_nodes
        nodes = 1  # the root
        chosen: list[int] = []

        def expand(covered: int, banned: int, remaining: int, ban) -> int:
            # covered is short of full, remaining >= 1 and the counting
            # bound holds: test every child in place, recurse into the rest;
            # ban[u] joins the siblings' banned set once u's subtree is done
            nonlocal nodes
            v = (~covered & (covered + 1)).bit_length() - 1
            left = remaining - 1
            # the counting bound: with `left` picks to go a child needs this
            # many covered vertices; a full child always has them, and with
            # no picks left only a full child does
            need = n - left * max_ball
            for u in coverers[v]:
                if banned & bits[u]:
                    continue
                nodes += 1
                if nodes > cap and not unlimited:
                    return INCONCLUSIVE
                child = covered | balls[u]
                if child.bit_count() >= need:
                    if child == full:
                        chosen.append(u)
                        return FOUND
                    if left == 1:
                        # last pick: the child's own children are the
                        # non-banned coverers of its lowest uncovered
                        # vertex, and only a full one is not a leaf
                        rest = full ^ child
                        tried = 0
                        for w in coverers[(rest & -rest).bit_length() - 1]:
                            if banned & bits[w]:
                                continue
                            tried += 1
                            if balls[w] & rest == rest:
                                nodes += tried
                                if nodes > cap and not unlimited:
                                    nodes = cap + 1
                                    return INCONCLUSIVE
                                chosen.extend((u, w))
                                return FOUND
                    else:
                        chosen.append(u)
                        status = expand(child, banned, left, bits)
                        if status != ABSENT:
                            return status
                        chosen.pop()
                banned |= ban[u]
            return ABSENT

        if cap < 1:
            return INCONCLUSIVE, None, nodes
        if size == 0 or size * max_ball < n:
            return ABSENT, None, nodes
        # a root coverer's subtree bans the coverer and its mirror in the
        # later root subtrees; at the root, with no pick made, the counting
        # bound alone already implies the last-pick test
        mirrored = {u: bits[u] | bits[n - 1 - u] for u in coverers[0]}
        limit = sys.getrecursionlimit()
        if size + 100 > limit:
            sys.setrecursionlimit(size + 200)
        try:
            status = expand(0, 0, size, mirrored)
        finally:
            sys.setrecursionlimit(limit)
        if status == FOUND:
            return FOUND, sorted(chosen), nodes
        return status, None, nodes
