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
member v at once, a byte of members at a time, over the span of bytes from
the lowest member's to the highest's: d 256-entry tables, one per output
byte, map a byte of the membership mask to the d bytes in which its members
v own the slots d*v .. d*v+d-1 of the arc formula, and the d translated
strings, interleaved, form the spread.  For a span of up to
``SMALL_ORDER`` members a table of 256 ints, one spread per byte, is
cheaper.  The spread is shifted into place and folded mod n by ORing its
upper half of n-bit chunks onto its lower half until one chunk is left, so
a call is linear in d times the span, plus the bits of its image, rather
than in d*n: a run witness's ball costs about its own size.

``VertexSet`` lists a set of at most two runs, as every construction
witness is, run by run, so that costs the runs rather than n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress

DEBRUIJN = "debruijn"
KAUTZ = "kautz"
FAMILIES = (DEBRUIJN, KAUTZ)

EXPORT_GUARD = 10 ** 7  # refuse to materialize more than this many arcs

_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


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
        # one byte per vertex, 0 or 1; the constructor refuses n < 1
        flags = bytearray(max(n, 1))
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range [0, {n})")
            flags[v] = 1
        return cls(n, int(flags[::-1].translate(_BIT_DIGITS), 2))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        mask = self.mask
        starts = mask & ~(mask << 1)  # the first member of each run
        runs = starts.bit_count()
        if runs > 2:
            # one byte per vertex, lowest vertex first, each 0 or 1
            flags = format(mask, "b").encode()[::-1].translate(_BIT_BYTES)
            return compress(range(self.n), flags)
        # every construction witness is one run, or two (a wrapped run, or
        # a two-run cover)
        if runs == 0:
            return iter(())
        ends = mask & ~(mask >> 1)  # the last member of each run
        first = range((starts & -starts).bit_length() - 1,
                      (ends & -ends).bit_length())
        if runs == 1:
            return iter(first)
        return chain(first, range(starts.bit_length() - 1, mask.bit_length()))

    def members(self) -> list[int]:
        """Members in ascending order."""
        return list(self)


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
    if length < 1:
        raise ValueError(f"run length must be >= 1, got {length}")
    layers = [(start, length)]
    for _ in range(k):
        if length >= g.n:
            break
        start, length = run_image(g, start, length)
        layers.append((start, length))
    return layers


# up to a span of this many members (SMALL_ORDER // 8 bytes, from the
# lowest member's byte to the highest's), spreading them a byte at a time by
# one int table beats d translations, by 0.1-2 us a call in process at
# d = 3..5 (at d = 2 the two are within 0.3 us); from a span of about 128
# members on, the translations win
SMALL_ORDER = 128


def _or_table(parts) -> list[int]:
    """The 256 entries b -> the OR of ``parts[t]`` over the bits t set in
    the byte b."""
    table = [0]
    for part in parts:
        table += [entry | part for entry in table]
    return table


@lru_cache(maxsize=32)
def _byte_spreads(d: int, reflect: bool) -> tuple[int, ...]:
    """Entry b is the filled spread of the byte b of members, in which
    member t owns bits d*t .. d*t+d-1, or member 7-t with ``reflect``."""
    parts = [((1 << d) - 1) << d * t for t in range(8)]
    return tuple(_or_table(parts[::-1] if reflect else parts))


@lru_cache(maxsize=32)
def _spread_tables(d: int, reflect: bool) -> tuple[bytes, ...]:
    """Table j maps a byte of members to byte j of its filled spread (see
    ``_byte_spreads``), as a ``bytes.translate`` table.

    Bytes whose slot patterns match share one table, so a large d builds
    few.
    """
    shared = {}
    tables = []
    for j in range(d):
        # bit p of byte j is spread bit 8*j+p, a slot of member (8*j+p) // d
        parts = [0] * 8
        for p in range(8):
            parts[(8 * j + p) // d] |= 1 << p
        key = tuple(parts[::-1] if reflect else parts)
        if key not in shared:
            shared[key] = bytes(_or_table(key))
        tables.append(shared[key])
    return tuple(tables)


def set_out_neighborhood(g: GeneralizedDigraph, s: VertexSet) -> VertexSet:
    """Image of an arbitrary vertex set: the union of members' out-runs.

    This is the reference expansion route.  It never consults ``run_image``
    or ``run_layers`` above, so they can be checked against each other.
    Every member v is expanded from the de Bruijn arc formula x -> d*x + i,
    a byte of members at a time, over the span of bytes from the lowest
    member's to the highest's: its slots d*v .. d*v+d-1 are set by the d
    translation tables of ``_spread_tables``, or for a span of at most
    ``SMALL_ORDER`` members by the int table of ``_byte_spreads``.  The
    spread of the span is shifted into place, member 8*lo at slot
    d*8*lo mod n, and folded mod n, so a call costs the span rather than
    n.  A Kautz vertex v steps like the de Bruijn vertex n-1-v with slot
    d-i, so the Kautz set is reflected first: its bytes are read from the
    other end, and every table reverses the bits of its byte.
    """
    if s.n != g.n:
        raise ValueError(f"ground set mismatch: {s.n} != {g.n}")
    n, d, mask = g.n, g.d, s.mask
    if not mask:
        return s
    reflect = g.family == KAUTZ
    # the span is the member bytes lo .. hi-1; a set holding a vertex under
    # 8 takes the byte of vertex 0 as its first (or, reflected, last) byte,
    # which spares the search for its lowest vertex
    if reflect:  # read from the top, vertex v is member n-1-v
        lo = (n - mask.bit_length()) >> 3
        # vertex n-8*hi, member 8*hi-1, ends the span
        if mask & 255:
            hi = (n + 7) >> 3
            span = mask << 8 * hi - n
        else:  # the lowest vertex is 8 or more, so n-8*hi is 1 or more
            hi = ((n - (mask & -mask).bit_length()) >> 3) + 1
            span = mask >> n - 8 * hi
        width = hi - lo
        members = span.to_bytes(width, "big")
    else:
        if mask & 255:
            lo, span = 0, mask
        else:
            lo = ((mask & -mask).bit_length() - 1) >> 3
            span = mask >> 8 * lo
        width = ((mask.bit_length() + 7) >> 3) - lo
        members = span.to_bytes(width, "little")
    if width <= SMALL_ORDER >> 3:
        spreads = _byte_spreads(d, reflect)
        step = 8 * d
        spread = 0
        for byte in reversed(members):
            spread = spread << step | spreads[byte]
    else:
        spread = bytearray(d * width)
        for j, table in enumerate(_spread_tables(d, reflect)):
            spread[j::d] = members.translate(table)
        spread = int.from_bytes(spread, "little")  # drops the bytearray
    if lo:  # member 8*lo owns slot d*8*lo
        spread <<= 8 * d * lo % n
    chunks = -(-spread.bit_length() // n)  # of n bits; the top may be short
    while chunks > 1:
        chunks = (chunks + 1) >> 1
        shift = chunks * n
        spread = spread & ((1 << shift) - 1) | spread >> shift
    return VertexSet(n, spread)


def ball(g: GeneralizedDigraph, s: VertexSet, k: int) -> VertexSet:
    """Union of the 0-th through k-th out-neighborhoods of ``s``: every
    vertex reachable from ``s`` by a directed walk of length <= k.

    Expansion stops once every vertex is covered, which a non-empty set
    reaches within ceil(log_d n) layers; the empty set reaches nothing, so
    it returns at once whatever k is.
    """
    if k < 0:
        raise ValueError(f"radius must be >= 0, got {k}")
    if s.n != g.n:
        raise ValueError(f"ground set mismatch: {s.n} != {g.n}")
    covered = s.mask
    frontier = s
    for _ in range(k if covered else 0):
        if covered.bit_count() == g.n:
            break
        frontier = set_out_neighborhood(g, frontier)
        covered |= frontier.mask
    return VertexSet(g.n, covered)


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
