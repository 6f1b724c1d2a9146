"""Exact brute-force oracle for distance domination numbers.

The oracle enumerates nothing it does not have to: it builds the radius-k
coverage mask of every vertex once, then runs an exhaustive branch and bound
search for a dominating set of a given size.  Search answers are three
valued: found (with a witness), absent (the whole tree was exhausted), or
inconclusive (a configured node budget ran out first).  Absent is a proof;
inconclusive never is.  The kernels return these statuses by name, and
FOUND, ABSENT and INCONCLUSIVE here are the pure kernel's constants.

The search kernel is the compiled extension when it imports and the pure
Python one otherwise; ``kernel_backend()`` names the one in use.  The two
kernels build identical tables and return identical (status, witness,
nodes) for every search, so no answer or node count depends on which one
ran.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _cover_py
from ._cover_py import ABSENT, FOUND, INCONCLUSIVE
from .digraph import DEBRUIJN, GeneralizedDigraph, VertexSet
from .domination import bounds, verify

try:
    from . import _cover_ext as _kernel
except ImportError:
    _kernel = _cover_py  # type: ignore[assignment]

DEFAULT_TABLE_CEILING = 5000


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


def exists_dominating_of_size(g: GeneralizedDigraph, k: int, size: int, *,
                              table=None, max_nodes: int | None = None,
                              ) -> SearchResult:
    """Exhaustively decide whether some size-``size`` set k-dominates ``g``.

    The witness, when one exists within budget, is the first cover found by
    the kernel's fixed branching order, so repeated runs return the same
    set.  Every witness is re-verified before being returned.
    """
    if table is None:
        table = coverage_table(g, k)
    elif ((table.family, table.n, table.d, table.k)
          != (_family_code(g), g.n, g.d, k)):
        raise ValueError("coverage table belongs to a different instance")
    status, members, nodes = table.search(size, max_nodes)
    witness = None
    if status == FOUND:
        witness = VertexSet.from_members(g.n, members)
        cert = verify(g, witness, k)
        if not cert.valid:
            raise RuntimeError(
                "kernel returned a non-dominating witness; kernels are "
                f"inconsistent with verification ({g}, k={k}, {members})")
    return SearchResult(status=status, witness=witness, nodes=nodes)


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
