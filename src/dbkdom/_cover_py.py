"""Pure Python cover-search kernel.

Builds radius-k coverage bitmasks for every vertex of a formula-defined
digraph and runs an exhaustive branch and bound search for a dominating set
of a given size.  The compiled kernel in _cover_ext is this kernel written
in C: the same layer rule for the balls (see ``KernelTable._balls``) and
the same search shape (``expand`` and its last pick), so it returns the
same tables (balls, coverers, max_ball) and, for every search, the same
(status, witness, nodes); the parity tests pin the outputs.  This kernel
builds only the balls up front: a vertex's coverer list is computed from
a closed form the first time a search or ``coverer_list`` reads it (see
``KernelTable._column``), so a search pays for the lists it reads.
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
        # a d = 1 layer run never grows, so the walk would take k + 1 steps
        if n < 1 or d < 2 or k < 0:
            raise ValueError("need n >= 1, d >= 2, k >= 0")
        if d > n:
            raise ValueError(f"need d <= n, got n={n}, d={d}")
        self.family = family
        self.n = n
        self.d = d
        self.k = k
        # layer j of a ball is a cyclic run of min(d**j, n) vertices, so the
        # walk stops at the first whole ring; a Kautz layer of v at odd j
        # (flip) is the de Bruijn layer of n-1-v, and the mirror x -> n-1-x
        # of the de Bruijn layer of v
        layers = [(1, False)]
        while len(layers) <= k and layers[-1][0] < n:
            layers.append((min(layers[-1][0] * d, n),
                           family == KAUTZ and len(layers) % 2 == 1))
        self._layers = layers
        self.balls = self._balls()
        self.max_ball = max(m.bit_count() for m in self.balls)
        # the q-th coverer of y in a layer of m vertices is (y + q*n) // m,
        # or in a flipped layer (n-1-y + q*n) // m (see _column)
        self._terms = [(-1, q * n + n - 1, m) if flip else (1, q * n, m)
                       for m, flip in layers for q in range(m)]
        self._columns: list[list[int] | None] = [None] * n  # built on read

    def _balls(self) -> list[int]:
        """Every ball as the OR of its vertex's layer runs: the layer of m
        vertices starts at m*v mod n, or for a Kautz odd j at m*(n-1-v),
        since the out-arcs of a Kautz run [s, s+m) fill [-d*(s+m), -d*s)."""
        n = self.n
        full = (1 << n) - 1
        runs = [((1 << m) - 1, m, flip) for m, flip in self._layers]
        balls = []
        for v in range(n):
            mask = 0
            for run, m, flip in runs:
                mask |= run << m * (n - 1 - v if flip else v) % n
            balls.append(mask & full | mask >> n)  # runs past n-1 wrap to 0
        return balls

    def _column(self, y: int) -> list[int]:
        """Coverers of y, the v whose ball holds y, ascending; cached.

        y is in a de Bruijn layer of m vertices of v when y - m*v mod n is
        below m, that is v = (y + q*n) // m for some q below m; it is in a
        flipped layer of v when n-1-y is in the de Bruijn one.
        """
        column = self._columns[y] = sorted(
            {(sign * y + offset) // m for sign, offset, m in self._terms})
        return column

    def _require_vertex(self, v: int) -> None:
        # a negative v would otherwise index from the end
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def ball_mask(self, v: int) -> int:
        self._require_vertex(v)
        return self.balls[v]

    def coverer_list(self, v: int) -> list[int]:
        self._require_vertex(v)
        return list(self._columns[v] or self._column(v))

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
        columns, column = self._columns, self._column
        max_ball = self.max_ball
        # no budget is a cap of 2**63 nodes, which no int64 count passes
        cap = 1 << 63 if max_nodes is None or max_nodes < 0 else max_nodes
        nodes = 1  # the root
        if cap < 1:
            return INCONCLUSIVE, None, nodes
        if size == 0 or size * max_ball < n:
            return ABSENT, None, nodes
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
            for u in columns[v] or column(v):
                if banned & bits[u]:
                    continue
                nodes += 1
                if nodes > cap:
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
                        y = (rest & -rest).bit_length() - 1
                        tried = 0
                        for w in columns[y] or column(y):
                            if banned & bits[w]:
                                continue
                            tried += 1
                            if balls[w] & rest == rest:
                                nodes += tried
                                if nodes > cap:
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

        # a root coverer's subtree bans the coverer and its mirror in the
        # later root subtrees; at the root, with no pick made, the counting
        # bound alone already implies the last-pick test
        bits = [1 << u for u in range(n)]
        mirrored = {u: bits[u] | bits[n - 1 - u]
                    for u in columns[0] or column(0)}
        limit = sys.getrecursionlimit()
        if size + 100 > limit:
            sys.setrecursionlimit(size + 200)
        try:
            status = expand(0, 0, size, mirrored)
        finally:
            sys.setrecursionlimit(limit)
            del expand  # its closure cycle would keep the table until a gc
        if status == FOUND:
            return FOUND, sorted(chosen), nodes
        return status, None, nodes
