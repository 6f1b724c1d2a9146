"""Exact brute-force oracle for distance domination numbers.

The oracle enumerates nothing it does not have to: it builds the radius-k
coverage mask of every vertex once, then runs an exhaustive branch and bound
search for a dominating set of a given size.  Search answers are three
valued: found (with a witness), absent (the whole tree was exhausted), or
inconclusive (a configured node budget ran out first).  Absent is a proof;
inconclusive never is.  The kernels return these statuses by name, and
FOUND, ABSENT and INCONCLUSIVE here are the pure kernel's constants.
Where a budget cuts a search, ``propose_cover`` runs a local search for a
cover of the same size over the same table; ``verify`` alone accepts what
it proposes, and finding nothing proves nothing.

The search kernel is the compiled extension when it imports and the pure
Python one otherwise; ``kernel_backend()`` names the one in use.  The two
kernels build identical tables and return identical (status, witness,
nodes) for every search, so no answer or node count depends on which one
ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from . import _cover_py
from ._cover_py import ABSENT, FOUND, INCONCLUSIVE
from .digraph import DEBRUIJN, GeneralizedDigraph, VertexSet
from .domination import bounds, verify

try:
    from . import _cover_ext as _kernel
except ImportError:
    _kernel = _cover_py  # type: ignore[assignment]

DEFAULT_TABLE_CEILING = 5000

# nodes of search budget per propose_cover step where classify runs it:
# 10 steps at a budget of 2*10**4 nodes, 500 at 10**6
NODES_PER_STEP = 2000

# propose_cover's generator: x -> (A*x + C) mod 2**32 with the constants of
# Numerical Recipes, seeded by the instance and size written in base
# _SEED_BASE
_LCG_A, _LCG_C, _LCG_MASK = 1664525, 1013904223, (1 << 32) - 1
_SEED_BASE = 1_000_003


def kernel_backend() -> str:
    """Name of the selected search kernel: 'compiled' or 'pure'."""
    return _kernel.BACKEND


@dataclass(frozen=True)
class OracleLimits:
    """Resource limits for oracle use inside classification and sweeps.

    max_nodes is the search node budget (None for unlimited, 0 to skip the
    oracle entirely); max_n is the largest instance the oracle is willing to
    tabulate during classification, at most DEFAULT_TABLE_CEILING, the
    largest order ``coverage_table`` accepts.  Neither may be negative.
    """

    max_nodes: int | None = None
    max_n: int = 500

    def __post_init__(self):
        for key, value in (("max_nodes", self.max_nodes),
                           ("max_n", self.max_n)):
            if value is not None and value < 0:
                raise ValueError(f"{key} must be >= 0, got {value}")
        if self.max_n > DEFAULT_TABLE_CEILING:
            raise ValueError(f"max_n must be at most the coverage table "
                             f"ceiling {DEFAULT_TABLE_CEILING}, "
                             f"got {self.max_n}")

    def allows(self, n: int) -> bool:
        return self.max_nodes != 0 and n <= self.max_n


DEFAULT_LIMITS = OracleLimits()


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a fixed-size or a minimum search; the witness is set
    exactly when the status is found."""

    status: str
    witness: VertexSet | None
    nodes: int

    @property
    def gamma(self) -> int | None:
        """The witness size: the minimum when ``min_dominating`` found it."""
        return None if self.witness is None else len(self.witness)


def _family_code(g: GeneralizedDigraph) -> int:
    return _kernel.DEBRUIJN if g.family == DEBRUIJN else _kernel.KAUTZ


def coverage_table(g: GeneralizedDigraph, k: int):
    """The kernel's radius-k coverage table of ``g``: ``family`` (kernel
    code), ``n``, ``d``, ``k``, ``max_ball``, ``ball_mask(v)``,
    ``coverer_list(v)`` and ``search(size, max_nodes)``, which returns
    (status, witness, nodes) with every non-banned child a node, and
    budget + 1 nodes when the budget cuts it.  Refuses
    n > DEFAULT_TABLE_CEILING, and the kernel refuses k < 0.
    """
    if g.n > DEFAULT_TABLE_CEILING:
        raise ValueError(f"order {g.n} exceeds the oracle table ceiling "
                         f"{DEFAULT_TABLE_CEILING}")
    return _kernel.KernelTable(_family_code(g), g.n, g.d, k)


def _table_for(g: GeneralizedDigraph, k: int, table):
    """``table`` once it is checked to be ``g``'s radius-k table, or that
    table built when it is None."""
    if table is None:
        return coverage_table(g, k)
    if ((table.family, table.n, table.d, table.k)
            != (_family_code(g), g.n, g.d, k)):
        raise ValueError("coverage table belongs to a different instance")
    return table


def exists_dominating_of_size(g: GeneralizedDigraph, k: int, size: int, *,
                              table=None, max_nodes: int | None = None,
                              ) -> SearchResult:
    """Exhaustively decide whether some size-``size`` set k-dominates ``g``.

    The witness, when one exists within budget, is the first cover found by
    the kernel's fixed branching order, so repeated runs return the same
    set.  Every witness is re-verified before being returned.
    """
    status, members, nodes = _table_for(g, k, table).search(size, max_nodes)
    witness = None
    if status == FOUND:
        witness = VertexSet.from_members(g.n, members)
        cert = verify(g, witness, k)
        if not cert.valid:
            raise RuntimeError(
                "kernel returned a non-dominating witness; kernels are "
                f"inconsistent with verification ({g}, k={k}, {members})")
    return SearchResult(status=status, witness=witness, nodes=nodes)


def propose_cover(g: GeneralizedDigraph, k: int, size: int, *,
                  table, steps: int) -> VertexSet | None:
    """A k-dominating set of at most ``size`` vertices that ``verify``
    accepted, found by a local search over ``table``, or None when
    ``steps`` swaps find none.  None proves nothing.

    The start walks the lowest uncovered vertex and takes its coverer that
    covers the most uncovered vertices, until ``size`` members are chosen
    or nothing is uncovered.  Each step then swaps one member, as WalkSAT
    flips one variable (Selman, Kautz & Cohen, "Noise strategies for
    improving local search", AAAI 1994): it draws an uncovered vertex y
    and makes the best swap of a coverer of y in for a member out, the
    member added last excepted.  A swap scores the uncovered vertices the
    coverer covers less the vertices only the member covers that the
    coverer misses.  The coverage counts are bit-sliced (plane i holds bit
    i of every vertex's count), so a ball joins or leaves in a ripple over
    a few ints.

    The draws (the uncovered vertex, and where each scan starts, which
    breaks its ties) come from a 32-bit linear congruential generator
    seeded by the instance and the size, and the search reads only
    ``ball_mask`` and ``coverer_list``, which both kernels return alike,
    so every run on either kernel proposes the same cover.
    """
    table = _table_for(g, k, table)
    n = g.n
    if size < 1:
        return None  # n >= 1 vertices need a member
    full = (1 << n) - 1
    balls = list(map(table.ball_mask, range(n)))
    columns: dict[int, list[int]] = {}
    members: list[int] = []
    planes: list[int] = []

    def column(y: int) -> list[int]:
        if y not in columns:
            columns[y] = table.coverer_list(y)
        return columns[y]

    def join(ball: int) -> None:
        for i, plane in enumerate(planes):
            planes[i] = plane ^ ball
            ball &= plane  # the carry
            if not ball:
                return
        planes.append(ball)

    def leave(ball: int) -> None:
        for i, plane in enumerate(planes):
            planes[i] = plane ^ ball
            ball &= ~plane  # the borrow
            if not ball:
                return

    uncovered = full
    while uncovered and len(members) < size:
        y = (uncovered & -uncovered).bit_length() - 1
        v = max(column(y), key=lambda u: (balls[u] & uncovered).bit_count())
        members.append(v)
        join(balls[v])
        uncovered &= ~balls[v]

    state = (((_family_code(g) * _SEED_BASE + n) * _SEED_BASE + g.d)
             * _SEED_BASE + k) * _SEED_BASE + size

    def draw(m: int) -> int:
        nonlocal state
        state = (state * _LCG_A + _LCG_C) & _LCG_MASK
        return (state >> 16) % m

    held = [balls[u] for u in members]  # the members' balls, in order
    last = -1  # where the last step put its add, which no step drops
    for _ in range(steps):
        if not uncovered:
            break
        # the first uncovered vertex from a drawn place on the ring
        r = draw(n)
        turned = (uncovered >> r | uncovered << n - r) & full
        y = ((turned & -turned).bit_length() - 1 + r) % n
        several = 0
        for plane in planes[1:]:
            several |= plane
        once = planes[0] & ~several
        # what dropping each member uncovers; the member added last gets
        # more than any swap can gain
        lost = [(ball & once).bit_count() for ball in held]
        if last >= 0:
            lost[last] = n + 1
        least = min(lost)
        # the best (add, drop) pair, adds in falling order of gain: an add
        # is a coverer of y, so not a member, and keeps what it covers of
        # the dropped member's vertices; an add that could not beat the
        # best pair so far, even keeping all it covers of `once`, is
        # passed over
        coverers = column(y)
        at = draw(len(coverers))
        coverers = coverers[at:] + coverers[:at]
        gains = [(balls[v] & uncovered).bit_count() for v in coverers]
        best = -n - 2
        for gain, v in sorted(zip(gains, coverers), key=itemgetter(0),
                              reverse=True):
            if gain <= best:
                break  # no pair scores above its add's gain
            kept = balls[v] & once
            if gain - least + kept.bit_count() <= best:
                continue
            loss = lost if not kept else [
                p - (ball & kept).bit_count() for ball, p in zip(held, lost)]
            fewest = min(loss)
            if gain - fewest > best:
                best, add, drop = gain - fewest, v, loss.index(fewest)
        join(balls[add])
        leave(held[drop])
        members[drop], held[drop] = add, balls[add]
        last = drop
        uncovered = full
        for plane in planes:
            uncovered &= ~plane
    if uncovered:
        return None
    witness = VertexSet.from_members(n, members)
    if not verify(g, witness, k).valid:
        raise RuntimeError(
            "local search proposed a non-dominating cover; its counts are "
            f"inconsistent with verification ({g}, k={k}, {members})")
    return witness


def min_dominating(g: GeneralizedDigraph, k: int, *,
                   table=None, max_nodes: int | None = None,
                   start: int | None = None) -> SearchResult:
    """Exact minimum by searching sizes upward from ``start``, by default
    the a priori lower bound; a caller that gives a larger start has
    proved every smaller size absent.  A start above n is refused: the n
    vertices dominate, so no minimum lies above n.

    Stops at the first size that admits a dominating set; its witness is a
    minimum one.  An inconclusive size aborts the whole computation as
    inconclusive: skipping it could misreport the minimum.  ``nodes`` sums
    every size searched.
    """
    size = bounds(g, k).lower if start is None else start
    if size > g.n:
        raise ValueError(f"start {size} exceeds the order {g.n}")
    if table is None:
        table = coverage_table(g, k)
    total_nodes = 0
    while True:  # the n vertices dominate, so size n ends it at the latest
        result = exists_dominating_of_size(
            g, k, size, table=table, max_nodes=max_nodes)
        total_nodes += result.nodes
        if result.status != ABSENT:
            return SearchResult(result.status, result.witness, total_nodes)
        size += 1
