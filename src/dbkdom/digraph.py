"""Implicit generalized de Bruijn and Kautz digraphs.

Vertices are the residues 0..n-1 and arcs are given by a congruence in the
vertex index, so neighborhoods are computed on demand and nothing is stored:

* de Bruijn family: x -> (d*x + i) mod n for i = 0..d-1
* Kautz family:     x -> (-d*x - i) mod n for i = 1..d

Both families require d >= 2 and n >= d.  The out-neighborhood of a single
vertex is always a run of d consecutive residues, and the image of a run is
again a run.  ``run_image`` gives that image in closed form and
``run_layers`` iterates it.  ``set_out_neighborhood`` is the reference
route: it expands every member of an arbitrary set and never consults the
closed form, so tests check the two against each other.  It spreads every
member v at once: it parses the membership bits in base 2**d (past int()'s
base 36, the bits written to every d-th place of a zero bytearray and read
in base 2), which puts v's bit at position d*v, multiplies by 2**d - 1 to
fill the slots d*v .. d*v+d-1 of the arc formula, and folds that
(d*n)-bit integer mod n in d chunks of n bits.  Each step is linear in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

DEBRUIJN = "debruijn"
KAUTZ = "kautz"
FAMILIES = (DEBRUIJN, KAUTZ)

EXPORT_GUARD = 10 ** 7  # refuse to materialize more than this many arcs

_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class GeneralizedDigraph:
    """A generalized de Bruijn or Kautz digraph, identified by (family, n, d)."""

    family: str
    n: int
    d: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.d < 2:
            raise ValueError(f"degree must be >= 2, got {self.d}")
        if self.n < self.d:
            raise ValueError(
                f"order must be >= degree, got n={self.n} < d={self.d}")

    @classmethod
    def debruijn(cls, n: int, d: int) -> "GeneralizedDigraph":
        return cls(DEBRUIJN, n, d)

    @classmethod
    def kautz(cls, n: int, d: int) -> "GeneralizedDigraph":
        return cls(KAUTZ, n, d)


@dataclass(frozen=True)
class VertexSet:
    """An immutable vertex subset stored as a dense membership bitmask."""

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"ground set size must be >= 1, got {self.n}")
        if self.mask < 0 or self.mask.bit_length() > self.n:
            raise ValueError("mask has bits outside [0, n)")

    @classmethod
    def from_members(cls, n: int, members) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range [0, {n})")
            mask |= 1 << v
        return cls(n, mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        # one byte per vertex, lowest vertex first, each 0 or 1
        flags = format(self.mask, "b").encode()[::-1].translate(_BIT_BYTES)
        return compress(range(self.n), flags)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        if self.n != other.n:
            raise ValueError("ground set mismatch")
        return VertexSet(self.n, self.mask | other.mask)

    def members(self) -> list[int]:
        """Members in ascending order."""
        return list(self)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, self.mask ^ ((1 << self.n) - 1))

    def is_empty(self) -> bool:
        return self.mask == 0


def run_image(g: GeneralizedDigraph, start: int,
              length: int) -> tuple[int, int]:
    """The (start, length) of the image of the non-empty run of ``length``
    vertices from ``start``, in closed form.

    de Bruijn images of consecutive vertices abut end to start, Kautz images
    abut in reverse, so the image of a run of length m is a run of length
    min(n, d*m):

    * de Bruijn: starts at d*a where a is the first member
    * Kautz:     starts at -d*b - d where b is the last member
    """
    n, d = g.n, g.d
    if g.family == DEBRUIJN:
        start = d * start
    else:  # -d * last - d, with last = start + length - 1
        start = -d * (start + length)
    return start % n, min(n, d * length)


def run_layers(g: GeneralizedDigraph, start: int, length: int,
               k: int) -> list[tuple[int, int]]:
    """The 0-th through k-th images of a non-empty run, as (start, length)
    runs, stopping at the first full one."""
    layers = [(start, length)]
    for _ in range(k):
        if length >= g.n:
            break
        start, length = run_image(g, start, length)
        layers.append((start, length))
    return layers


def set_out_neighborhood(g: GeneralizedDigraph, s: VertexSet) -> VertexSet:
    """Image of an arbitrary vertex set: the union of members' out-runs.

    This is the reference expansion route.  It never consults ``run_image``
    above, so the two can be checked against each other.  Every member is
    expanded from the de Bruijn arc formula x -> d*x + i; a Kautz
    vertex v steps like the de Bruijn vertex n-1-v with slot d-i, so the
    Kautz set is reflected first.
    """
    if s.n != g.n:
        raise ValueError(f"ground set mismatch: {s.n} != {g.n}")
    n, d = g.n, g.d
    bits = format(s.mask, f"0{n}b")  # vertex n-1 first
    if g.family == KAUTZ:
        bits = bits[::-1]
    if 1 << d <= 36:  # int() accepts bases up to 36
        spread = int(bits, 1 << d)
    else:  # the same digits, d - 1 zeros apart, in base 2
        buf = bytearray(b"0") * (d * n - d + 1)
        buf[::d] = bits.encode()
        spread = int(buf, 2)
    spread *= (1 << d) - 1  # bit d*v -> bits d*v .. d*v + d - 1
    full = (1 << n) - 1
    mask = 0
    while spread:
        mask |= spread & full
        spread >>= n
    return VertexSet(n, mask)


def ball(g: GeneralizedDigraph, s: VertexSet, k: int) -> VertexSet:
    """Union of the 0-th through k-th out-neighborhoods of ``s``: every
    vertex reachable from ``s`` by a directed walk of length <= k."""
    if k < 0:
        raise ValueError(f"radius must be >= 0, got {k}")
    if s.n != g.n:
        raise ValueError(f"ground set mismatch: {s.n} != {g.n}")
    full = (1 << g.n) - 1
    covered = s
    frontier = s
    for _ in range(k):
        if covered.mask == full:
            break
        frontier = set_out_neighborhood(g, frontier)
        covered = covered | frontier
    return covered


def export_lines(g: GeneralizedDigraph, fmt: str = "edges"):
    """Arc list of the digraph as 'edges' (tab separated) or 'dot' text, an
    iterator of newline-terminated lines.

    Arcs are emitted for v = 0..n-1 with the slot index ascending; self loops
    are kept.  Refuses, before the first line, an unknown format and graphs
    with more than EXPORT_GUARD arcs.
    """
    if fmt not in ("edges", "dot"):
        raise ValueError(f"unknown export format {fmt!r}")
    if g.n * g.d > EXPORT_GUARD:
        raise ValueError(
            f"refusing to export {g.n * g.d} arcs (guard {EXPORT_GUARD})")
    return _arc_lines(g, fmt)


def _arc_lines(g: GeneralizedDigraph, fmt: str):
    n, d, edges = g.n, g.d, fmt == "edges"
    if edges:
        yield f"# {g.family} {n} {d}\n"
    else:
        yield f"digraph {g.family}_{n}_{d} {{\n"
    for v in range(n):
        for i in range(d):
            if g.family == DEBRUIJN:
                y = (d * v + i) % n
            else:
                y = (-d * v - (i + 1)) % n
            yield f"{v}\t{y}\n" if edges else f"  {v} -> {y};\n"
    if not edges:
        yield "}\n"
