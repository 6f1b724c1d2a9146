"""Pure Python cover-search kernel.

Builds radius-k coverage bitmasks for every vertex of a formula-defined
digraph and runs an exhaustive branch and bound search for a dominating set
of a given size.  The compiled kernel in _cover_ext is this kernel written
in C: the same layer rule for the balls (see ``KernelTable._balls``) and
the same search (``expand`` at every node, the root and the last picks
included, only the root's bans carrying mirrors, the budget settled only
at children that pass the counting bound, a child that the covered prefix
rules out skipped before its popcount), so it returns the same tables
(balls, coverers, max_ball) and, for every search, the same (status,
witness, nodes), the status named "found", "absent" or "inconclusive" as
the module constants FOUND, ABSENT and INCONCLUSIVE say; the parity tests
pin the outputs.  This kernel builds only the balls up front: a coverer
list is computed from a closed form when it is read (see
``KernelTable._column``), a vertex's one search record, its coverers with
their ball sizes from it up and their mask, the first time a search
expands a node at it, and the root's bans the first time a search gets
past the root's counting bound, so a search pays for what it reads.
"""

from __future__ import annotations

import sys

BACKEND = "pure"

DEBRUIJN = 0
KAUTZ = 1

FOUND = "found"
ABSENT = "absent"
INCONCLUSIVE = "inconclusive"


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
        # or in a flipped layer (n-1-y + q*n) // m (see _column); a whole
        # ring, the last layer when m = n, alone holds every coverer
        if layers[-1][0] == n:
            layers = layers[-1:]
        self._terms = [(-1, q * n + n - 1, m) if flip else (1, q * n, m)
                       for m, flip in layers for q in range(m)]
        # each vertex's (u, h) pairs and coverer mask, built by a search
        # (see its ``branch``)
        self._branches: list[tuple[list[tuple[int, int]], int] | None] = \
            [None] * n
        # built by the first search past the root's counting bound
        self._root: tuple[list[int], int, dict[int, int]] | None = None

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
        """Coverers of y, the v whose ball holds y, ascending.

        y is in a de Bruijn layer of m vertices of v when y - m*v mod n is
        below m, that is v = (y + q*n) // m for some q below m; it is in a
        flipped layer of v when n-1-y is in the de Bruijn one.
        """
        return sorted(
            {(sign * y + offset) // m for sign, offset, m in self._terms})

    def _root_bans(self) -> tuple[list[int], int, dict[int, int]]:
        """Each vertex's bit 1 << u, the root's banned set, and each root
        child's subtree bans; cached.

        Root reflection: x -> n-1-x maps every ball onto a ball, so the
        subtree of a coverer of 0 bans the earlier children and their
        mirrors, and a coverer that mirrors an earlier child is banned at
        the root; a cover lost this way has its mirror in an earlier root
        subtree.
        """
        n = self.n
        bits = [1 << u for u in range(n)]
        skipped = banned = 0
        bans: dict[int, int] = {}
        for u in self._column(0):
            if banned & bits[u]:
                skipped |= bits[u]
            else:
                bans[u] = banned
                banned |= bits[u] | bits[n - 1 - u]
        self._root = bits, skipped, bans
        return self._root

    def _require_vertex(self, v: int) -> None:
        # a negative v would otherwise index from the end
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def ball_mask(self, v: int) -> int:
        self._require_vertex(v)
        return self.balls[v]

    def coverer_list(self, v: int) -> list[int]:
        self._require_vertex(v)
        return self._column(v)

    def search(self, size: int,
               max_nodes: int | None = None) -> tuple[int, list[int] | None, int]:
        """Exhaustive search for a covering set of at most ``size`` vertices.

        Every node, the root and the last picks included, branches on its
        lowest uncovered vertex over its coverers in ascending order;
        coverers already tried at a node are banned in the sibling
        subtrees, so no subset is explored twice.  Every non-banned child
        is a node.  A child is first tested against the counting bound
        (each pick covers at most max_ball vertices); one that fails is a
        leaf, and costs that one test.  Every vertex below the branching
        vertex v is covered, so a child u covers at most the node's count
        plus h, the size of ball(u) from v up; a child whose sum is below
        the bound is a leaf skipped before its ``covered | ball`` is
        built.  A vertex's record, the (u, h) pairs of its coverers and
        their mask, is built the first time a search branches on it and
        cached per table, and each passing child's popcount is passed down
        as its count.  Only a child that passes is checked against the
        bans, and only there are the node count, the budget and the
        subtree's bans settled: a node's banned set is fixed over its
        loop, so the children so far are one popcount of its coverer mask
        less the banned set, below this child.  The leaves after the last
        passing child are counted the same way at the loop's end.  A
        passing child that covers everything ends the search; one with
        picks left is expanded.

        Two exact prunings cut the tree: root reflection, whose bans are
        cached per table (see ``_root_bans``), and last pick.  At a node
        with one pick left only a full child passes the bound, so the
        first full, non-banned child ends the search, and a node with
        none is a leaf whose children are not counted.  Neither removes
        the first cover of the unpruned order, so where that search
        decides, the witness is the same and the node count no higher.

        Returns (status, witness, nodes) where the witness is the first
        cover found by this fixed order (ascending members), or None.  A
        negative ``max_nodes`` means no budget, like None.  A search cut by
        the budget returns max_nodes + 1 nodes and the status and witness
        of a search that checks the budget at every node: a leaf changes
        nothing before the next passing child or the loop's end.
        """
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        n = self.n
        full = (1 << n) - 1
        balls = self.balls
        column, branches = self._column, self._branches
        max_ball = self.max_ball
        # no budget is a cap of 2**63 nodes, which no int64 count passes
        cap = 1 << 63 if max_nodes is None or max_nodes < 0 else max_nodes
        nodes = 1  # the root
        if cap < 1:
            return INCONCLUSIVE, None, nodes
        if size == 0 or size * max_ball < n:
            return ABSENT, None, nodes
        bits, root_banned, root_bans = self._root or self._root_bans()
        chosen: list[int] = []

        def branch(v: int) -> tuple[list[tuple[int, int]], int]:
            # each coverer u of v, ascending, with h, the size of its ball
            # from v up, and the coverers as a bitmask: their bits are
            # distinct, so the sum is the OR
            coverers = column(v)
            pairs = [(u, (balls[u] >> v).bit_count()) for u in coverers]
            branches[v] = pairs, sum(map(bits.__getitem__, coverers))
            return branches[v]

        def expand(covered: int, count: int, banned: int,
                   remaining: int) -> int:
            # covered (count vertices) is short of full, the counting bound
            # holds and banned is fixed over the loop; at the root (covered
            # is 0) banned and each child's subtree bans are the table's
            nonlocal nodes
            v = (covered ^ (covered + 1)).bit_length() - 1
            left = remaining - 1
            # the counting bound: with `left` picks to go a child needs this
            # many covered vertices; a full child always has them, and at a
            # last pick (left is 0) only a full child does
            need = n - left * max_ball
            # every vertex below v is covered, so a child covers at most
            # count + h; below `short` it fails the bound untried
            short = need - count
            pairs, mask = branches[v] or branch(v)
            live = mask & ~banned
            counted = nodes  # the nodes outside this loop's children
            for u, h in pairs:
                if h < short:
                    continue
                child = covered | balls[u]
                got = child.bit_count()
                if got < need or banned & bits[u]:
                    continue
                # the non-banned siblings before u, now banned in its subtree
                before = live & bits[u] - 1
                at = before.bit_count() + 1
                nodes = counted + at
                if nodes > cap:
                    nodes = cap + 1
                    return INCONCLUSIVE
                chosen.append(u)
                if child == full:
                    return FOUND
                bans = banned | before if covered else root_bans[u]
                status = expand(child, got, bans, left)
                if status != ABSENT:
                    return status
                chosen.pop()
                counted = nodes - at
            if not left:
                return ABSENT  # a last pick with no full child: a leaf
            nodes = counted + live.bit_count()
            if nodes > cap:
                nodes = cap + 1
                return INCONCLUSIVE
            return ABSENT

        limit = sys.getrecursionlimit()
        if size + 100 > limit:
            sys.setrecursionlimit(size + 200)
        try:
            status = expand(0, 0, root_banned, size)
        finally:
            sys.setrecursionlimit(limit)
            del expand  # its closure cycle would keep the table until a gc
        if status == FOUND:
            return FOUND, sorted(chosen), nodes
        return status, None, nodes
