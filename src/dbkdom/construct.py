"""Constructive machinery for exact distance domination numbers.

Both families admit dominating sets that are runs of consecutive vertices,
and short arithmetic certificates decide when a run of the smallest
conceivable size exists:

* de Bruijn side: a run of length lower+1 starting at an "anchor" vertex
  always dominates, so the domination number is the lower bound or one more.
  A run of length exactly lower dominates when the congruence
  (d-1)*x == lower - h (mod n) is solvable for some small offset h.  The
  paper's gcd divisibility test and remainder window test are sufficient
  conditions; each implies that congruence, so they are reported but never
  decide a value on their own (tests pin both implications).  All three
  read L and S = geometric_sum(d, k) from the one cached ``bounds``.
* Kautz side: the prefix run {0..c-1} with c = ceil(n/(d**k + d**(k-1)))
  always dominates, and a layer-size test certifies when the prefix of
  length exactly lower suffices; at radius one it always does.

Where no such certificate fires, two scans look for runs that dominate
anyway, up to the order COVER_SCAN_MAX_N: every run of length lower on the
de Bruijn side, and a short prefix plus one more run on the Kautz side.
They screen each candidate with a closed-form ball mask and verify the
first hit: every arc multiplies by e = d (de Bruijn) or -d (Kautz), so the
layers of the run from a are those of the run from 0 (``digraph.run_layers``)
with layer j moved by e**j * a.

Every constructed set is verified before it is returned; a verification
failure raises ConstructionError because it would falsify an argument this
module relies on, and must surface loudly rather than degrade.

``classify`` stitches the conditions and the exact oracle into one
best-effort pipeline whose result always carries a verified witness when it
claims an exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .digraph import DEBRUIJN, GeneralizedDigraph, VertexSet, run_layers
from .domination import bounds, verify
from .modular import ceil_div, run_mask, solve_linear_congruence
from .oracle import (ABSENT, DEFAULT_LIMITS, FOUND, NODES_PER_STEP,
                     OracleLimits, SearchResult, coverage_table,
                     exists_dominating_of_size, min_dominating, propose_cover)

METHOD_CONGRUENCE = "congruence"
METHOD_PREFIX_COVER = "prefix_cover"
METHOD_RADIUS_ONE = "radius_one"
METHOD_RUN_SCAN = "run_scan"
METHOD_TWO_RUN = "two_run"
METHOD_ORACLE = "oracle"
METHOD_LOCAL_SEARCH = "local_search"
METHOD_BRACKET = "bracket"
METHOD_INCONCLUSIVE = "inconclusive"

METHODS = frozenset({
    METHOD_CONGRUENCE, METHOD_PREFIX_COVER, METHOD_RADIUS_ONE,
    METHOD_RUN_SCAN, METHOD_TWO_RUN, METHOD_ORACLE, METHOD_LOCAL_SEARCH,
    METHOD_BRACKET, METHOD_INCONCLUSIVE,
})

# the largest order the run scan and the two-run scan try; a de Bruijn row
# with no dominating run pays one screen per start, about 3.5 ms at n = 5000
# and 15 ms at 10**4 on a 2-core x86-64 machine (benchmarks/bench_gamma.py)
COVER_SCAN_MAX_N = 5000

# two-run candidates {0..m1-1} + R: m1 <= TWO_RUN_MAX_PREFIX, and R ends
# or starts up to 2d + 4 places from the end of the ring or of the prefix
TWO_RUN_MAX_PREFIX = 4


class ConstructionError(RuntimeError):
    """A construction that is guaranteed to dominate failed verification."""


@dataclass(frozen=True)
class GammaResult:
    """Outcome of classifying one instance.

    When the witness is set it is a verified dominating set and gamma is
    its size; otherwise the value lies in ``bracket``, the bounds.  method
    names the rule that settled the value.  conditions reports every
    sufficient condition that was evaluated, whether or not it fired.
    nodes sums the oracle nodes of every search the row ran.
    """

    graph: GeneralizedDigraph
    k: int
    lower: int
    upper: int
    method: str
    witness: VertexSet | None
    conditions: dict[str, bool]
    nodes: int = 0

    # fields set as ``digraph.GeneralizedDigraph`` sets them, and for the
    # same reason
    def __init__(self, graph: GeneralizedDigraph, k: int, lower: int,
                 upper: int, method: str, witness: VertexSet | None,
                 conditions: dict[str, bool], nodes: int = 0):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        fields = self.__dict__
        fields["graph"] = graph
        fields["k"] = k
        fields["lower"] = lower
        fields["upper"] = upper
        fields["method"] = method
        fields["witness"] = witness
        fields["conditions"] = conditions
        fields["nodes"] = nodes

    @property
    def gamma(self) -> int | None:
        return None if self.witness is None else len(self.witness)

    @property
    def bracket(self) -> tuple[int, int] | None:
        return None if self.witness else (self.lower, self.upper)

    def to_dict(self) -> dict:
        # the witness is listed once, and gamma, bracket and witness read
        # that list as the properties read the set, an empty one included
        members = None if self.witness is None else self.witness.members()
        return {
            "family": self.graph.family,
            "n": self.graph.n,
            "d": self.graph.d,
            "k": self.k,
            "lower": self.lower,
            "upper": self.upper,
            "gamma": None if members is None else len(members),
            "bracket": None if members else [self.lower, self.upper],
            "method": self.method,
            "nodes": self.nodes,
            "witness": members or None,
            "conditions": dict(self.conditions),
        }


def _verified_runs(g: GeneralizedDigraph, k: int, what: str,
                   *runs: tuple[int, int]) -> VertexSet:
    """The union of the (start, length) runs, once ``verify`` accepts it."""
    mask = 0
    for start, length in runs:
        mask |= run_mask(start, length, g.n)
    cover = VertexSet(g.n, mask)
    cert = verify(g, cover, k)
    if not cert.valid:
        raise ConstructionError(
            f"{what} failed verification on {g.family} n={g.n} d={g.d} "
            f"k={k}: uncovered {cert.uncovered.members()[:10]}")
    return cover


def find_anchor(g: GeneralizedDigraph, k: int) -> int:
    """Smallest vertex x with x + L - (d-2) <= d*x <= x + L (mod n).

    L is the a priori lower bound.  The window holds d*x exactly when
    (d-1)*x == L - h (mod n) for some h in [0, d-2], so x is the smallest
    first solution over those offsets.  Such a vertex always exists (some
    L - h is a multiple of gcd(d-1, n) <= d-1); none would falsify the
    existence argument this package builds on, hence the loud error.
    """
    lower, n, d = bounds(g, k).lower, g.n, g.d
    firsts = [xs[0] for h in range(d - 1)
              if (xs := solve_linear_congruence(d - 1, lower - h, n))]
    if firsts:
        return min(firsts)
    raise ConstructionError(
        f"no anchor vertex exists for n={n} d={d} k={k}; "
        "this contradicts the anchor existence argument")


def build_anchor_run(g: GeneralizedDigraph, k: int) -> VertexSet:
    """The verified dominating run {x, ..., x + L} of length L + 1.

    This is the construction behind the de Bruijn upper bound L + 1, so the
    domination number is always L or L + 1.
    """
    return _verified_runs(g, k, "anchor run of length lower+1",
                          (find_anchor(g, k), bounds(g, k).lower + 1))


def congruence_witness(g: GeneralizedDigraph, k: int) -> VertexSet | None:
    """The verified dominating run {x, ..., x + L - 1} of length exactly the
    lower bound L, if any.

    (d-1)*x == L - h (mod n) is solvable exactly when gcd(d-1, n) divides
    L - h, so the smallest solvable offset is h = L mod gcd(d-1, n).  It is
    admissible when h*T fits the slack S*L - n, with T = (S-1)/d the sum of
    d**j for j = 0..k-1; a larger offset needs more slack, so if this one
    does not fit none does and the result is None.  The run starts at the
    smallest solution x, so the witness is deterministic.
    """
    b, n, d = bounds(g, k), g.n, g.d
    lower, s = b.lower, b.ball_sum
    h = lower % math.gcd(d - 1, n)
    if h * ((s - 1) // d) > s * lower - n:
        return None
    x = solve_linear_congruence(d - 1, lower - h, n)[0]
    return _verified_runs(g, k, f"congruence run (h={h}, x={x})",
                          (x, lower))


def gcd_divisibility(g: GeneralizedDigraph, k: int) -> bool:
    """The paper's gcd test: S divides n and gcd(d-1, n) divides n/S.

    Then L = n/S leaves no slack and L mod gcd(d-1, n) = 0, so the offset
    h = 0 is admissible and congruence_witness finds a run (the tests pin
    this implication).
    """
    b = bounds(g, k)
    return (b.lower * b.ball_sum == g.n
            and b.lower % math.gcd(g.d - 1, g.n) == 0)


def remainder_window(g: GeneralizedDigraph, k: int) -> bool:
    """True when n = p*S + q with p >= 1 and 1 <= q <= min(1 + 2*T, S - 1).

    S - 1 is the sum of d**j for j = 1..k, and T = (S-1)/d that for j =
    0..k-1.  It reads p = L - 1 and q = n - p*S, which lies in 1..S and is S
    (q = 0 above) exactly when S divides n.  Inside this window the anchor
    run of length exactly L dominates.
    """
    b = bounds(g, k)
    s = b.ball_sum
    q = g.n - (b.lower - 1) * s
    return b.lower >= 2 and q <= min(1 + 2 * ((s - 1) // g.d), s - 1)


def build_window_run(g: GeneralizedDigraph, k: int) -> VertexSet:
    """The verified dominating run {x, ..., x + L - 1} for window instances."""
    if not remainder_window(g, k):
        raise ValueError(f"remainder window condition does not hold for "
                         f"n={g.n} d={g.d} k={k}")
    return _verified_runs(g, k,
                          "anchor run of length lower (window condition)",
                          (find_anchor(g, k), bounds(g, k).lower))


def build_prefix_cover(g: GeneralizedDigraph, k: int) -> VertexSet:
    """The verified Kautz dominating prefix {0..c-1}, c the upper bound
    ceil(n/(d^k+d^(k-1))) that ``bounds`` gives.

    The last two neighborhood layers of this prefix alone cover everything,
    which gives that bound.
    """
    return _verified_runs(g, k, "prefix cover", (0, bounds(g, k).upper))


def prefix_condition(g: GeneralizedDigraph, k: int) -> bool:
    """True when the prefix of length exactly L dominates the Kautz instance.

    Either the two top layers of the prefix are large enough on their own
    ((d**(k-1) + d**k) * L >= n, which holds exactly when L reaches the
    Kautz upper bound, and so equals it), or the layer k-1 image swallows a
    whole radius-one dominating prefix or suffix
    (d**(k-1) * L >= ceil(n/(d+1))).  At k = 1 the second test is trivially
    true.
    """
    b = bounds(g, k)
    return (b.lower == b.upper
            or g.d ** (k - 1) * b.lower >= ceil_div(g.n, g.d + 1))


def build_lower_prefix(g: GeneralizedDigraph, k: int) -> VertexSet:
    """The verified Kautz dominating prefix {0..L-1} for firing instances."""
    if not prefix_condition(g, k):
        raise ValueError(
            f"prefix condition does not hold for n={g.n} d={g.d} k={k}")
    return _verified_runs(g, k, "prefix of length lower",
                          (0, bounds(g, k).lower))


def _run_ball(g: GeneralizedDigraph, k: int, length: int):
    """The function a -> radius-k ball mask of the run of ``length`` > 0
    vertices from a, and the sum of its layer lengths, which no such ball
    exceeds.

    Every arc multiplies by e = d (de Bruijn) or -d (Kautz), so moving the
    run's start by a moves the start of its layer j by e**j * a (mod n);
    the layer's length does not depend on a.
    """
    n, full = g.n, (1 << g.n) - 1
    e = g.d if g.family == DEBRUIJN else -g.d
    spans, most, step = [], 0, 1
    for start, m in run_layers(g, 0, length, k):
        spans.append((start, step, (1 << m) - 1))
        most += m
        step = step * e % n

    def ball(a: int) -> int:
        # each layer shifted into 2n bits, the wrapped part folded back
        wide = 0
        for start, step, mask in spans:
            wide |= mask << (start + step * a) % n
        return (wide | wide >> n) & full
    return ball, most


def run_scan(g: GeneralizedDigraph, k: int, size: int) -> VertexSet | None:
    """The verified run {x, ..., x + size - 1} with the smallest such x
    that k-dominates ``g``, or None when no run of that length does.

    x -> n-1-x is an automorphism of both families and maps the run at x
    onto the run at n - size - x, so every pair of mirrored starts has a
    member in 0 .. (n-size)/2 or n-size+1 .. n - size/2; scanning those
    finds the same first x as scanning every start.
    """
    n, full = g.n, (1 << g.n) - 1
    ball = _run_ball(g, k, size)[0]
    starts = chain(range((n - size) // 2 + 1),
                   range(n - size + 1, (2 * n - size) // 2 + 1))
    for x in starts:
        if ball(x) == full:
            return _verified_runs(g, k, f"run scan (x={x})", (x, size))
    return None


def two_run_cover(g: GeneralizedDigraph, k: int,
                  size: int) -> VertexSet | None:
    """A verified k-dominating set {0..m1-1} + R of ``size`` vertices, or
    None when no candidate dominates.

    m1 runs over 0..TWO_RUN_MAX_PREFIX and R is a run of size - m1
    vertices, disjoint from the prefix, that ends c places before the end
    of the ring or starts c places after the prefix, c = 0..2d+4.  The
    candidates are tried in that order, the end position before the
    start one, so the cover returned is deterministic.  R is never empty:
    the prefix alone is the candidate m1 = 0, R = {0..size-1}.
    """
    n, full = g.n, (1 << g.n) - 1
    vertex_ball = _run_ball(g, k, 1)[0]
    head = 0  # the ball of {0..m1-1}
    for m1 in range(min(size - 1, TWO_RUN_MAX_PREFIX) + 1):
        if m1:
            head |= vertex_ball(m1 - 1)
        m2 = size - m1
        ball, most = _run_ball(g, k, m2)
        if n - head.bit_count() > most:
            continue  # no run of m2 vertices reaches all the head misses
        for c in range(2 * g.d + 5):
            for start in (n - m2 - c, m1 + c):
                # R must lie within m1..n-1, clear of the prefix
                if m1 <= start <= n - m2 and head | ball(start) == full:
                    return _verified_runs(
                        g, k, f"two-run cover (m1={m1}, start={start})",
                        (0, m1), (start, m2))
    return None


def classify(g: GeneralizedDigraph, k: int,
             limits: OracleLimits = DEFAULT_LIMITS) -> GammaResult:
    """Best effort exact value, falling back to a two-sided bracket.

    This is the one place an instance is decided, in the same order for
    both families: a certificate of size lower, a scan for a cover of size
    lower, then the oracle at lower.  Once the oracle proves lower absent,
    a verified cover of size lower+1 is a minimum one, and only without
    one does the oracle search upward from lower+1.  de Bruijn rows take
    the congruence run, the run scan and the anchor run, which always
    exists; gcd divisibility and the remainder window are reported in
    ``conditions`` only, since each implies the congruence run, and
    ``gcd_residue`` marks a congruence run without divisibility.  Kautz
    rows take the prefix condition (always true at radius one, where the
    method reads ``radius_one``) and two-run covers of both sizes.  The
    scans run up to COVER_SCAN_MAX_N and the oracle only inside
    ``limits``.  Where the budget cuts the search, a local search of one
    step per NODES_PER_STEP nodes of budget looks for a cover of the size
    the search stopped at, lower (method ``local_search``) or lower+1
    after an absence at lower (method ``oracle``); without one the answer
    degrades to a bracket tagged inconclusive.

    From radius n.bit_length() + 1 on, d**k > n and every value equals its
    value at that radius, so the work is done there and only the reported
    k is the one given.
    """
    radius = min(k, g.n.bit_length() + 1)
    b = bounds(g, radius)
    n = g.n

    def result(method: str, witness: VertexSet | None = None,
               nodes: int = 0) -> GammaResult:
        return GammaResult(graph=g, k=k, lower=b.lower, upper=b.upper,
                           method=method, witness=witness,
                           conditions=conditions, nodes=nodes)

    if g.family == DEBRUIJN:
        cert = congruence_witness(g, radius)
        divisibility = gcd_divisibility(g, radius)
        conditions = {
            "congruence": cert is not None,
            "gcd_divisibility": divisibility,
            "gcd_residue": cert is not None and not divisibility,
            "remainder_window": remainder_window(g, radius),
        }
        cert_method = METHOD_CONGRUENCE
        scan_method, scan = METHOD_RUN_SCAN, run_scan
    else:
        fired = prefix_condition(g, radius)
        conditions = {"radius_one": k == 1, "prefix_cover": fired}
        cert_method = METHOD_RADIUS_ONE if k == 1 else METHOD_PREFIX_COVER
        cert = build_lower_prefix(g, radius) if fired else None
        scan_method, scan = METHOD_TWO_RUN, two_run_cover

    if cert is not None:
        return result(cert_method, cert)
    if (n <= COVER_SCAN_MAX_N
            and (cover := scan(g, radius, b.lower)) is not None):
        return result(scan_method, cover)
    if not limits.allows(n):
        return result(METHOD_BRACKET)
    table = coverage_table(g, radius)
    search = exists_dominating_of_size(g, radius, b.lower, table=table,
                                       max_nodes=limits.max_nodes)
    size, method = b.lower, METHOD_LOCAL_SEARCH
    if search.status == ABSENT:
        # a verified cover of size lower+1 is now a minimum one; here
        # n <= DEFAULT_TABLE_CEILING <= COVER_SCAN_MAX_N, so Kautz scans
        plus = (build_anchor_run(g, radius) if g.family == DEBRUIJN
                else scan(g, radius, b.lower + 1))
        if plus is not None:
            return result(METHOD_ORACLE, plus, search.nodes)
        rest = min_dominating(g, radius, table=table,
                              max_nodes=limits.max_nodes, start=b.lower + 1)
        search = SearchResult(rest.status, rest.witness,
                              search.nodes + rest.nodes)
        size, method = b.lower + 1, METHOD_ORACLE
    if search.status == FOUND:
        return result(METHOD_ORACLE, search.witness, search.nodes)
    # the budget cut the search at `size` or, past a proven size, above it;
    # a verified cover of `size` is then a minimum one
    steps = (limits.max_nodes or 0) // NODES_PER_STEP
    if steps and (cover := propose_cover(g, radius, size, table=table,
                                         steps=steps)) is not None:
        return result(method, cover, search.nodes)
    return result(METHOD_INCONCLUSIVE, nodes=search.nodes)
