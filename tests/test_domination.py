"""Verification, certificates, and the a priori bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_ball
from dbkdom import domination
from dbkdom.digraph import (DEBRUIJN, FAMILIES, SMALL_ORDER,
                            GeneralizedDigraph, VertexSet)
from dbkdom.domination import bounds, verify
from dbkdom.modular import ceil_div, geometric_sum


def instances(max_n=60):
    return st.tuples(st.sampled_from(sorted(FAMILIES)),
                     st.integers(2, max_n),
                     st.integers(2, 5)).filter(lambda t: t[1] >= t[2])


class TestVerify:
    def test_kautz_headline_pair_is_valid(self):
        g = GeneralizedDigraph.kautz(7, 2)
        cert = verify(g, VertexSet.from_members(7, [0, 1]), 2)
        assert cert.valid
        assert cert.covered.mask == (1 << 7) - 1
        assert cert.uncovered.mask == 0

    def test_whole_vertex_set_always_valid(self):
        for k in (0, 1, 3):
            g = GeneralizedDigraph.debruijn(11, 2)
            assert verify(g, VertexSet(11, (1 << 11) - 1), k).valid

    def test_single_vertex_fails_at_40_3_3(self):
        g = GeneralizedDigraph.debruijn(40, 3)
        cert = verify(g, VertexSet.from_members(40, [0]), 3)
        assert not cert.valid
        # {0} reaches exactly [0..26] within three steps
        assert cert.uncovered.members() == list(range(27, 40))

    def test_empty_set_invalid(self):
        g = GeneralizedDigraph.kautz(5, 2)
        cert = verify(g, VertexSet(5), 2)
        assert not cert.valid
        assert cert.uncovered.mask == (1 << 5) - 1

    def test_empty_set_returns_at_once(self):
        # nothing to expand, so a huge radius costs no layers
        g = GeneralizedDigraph.debruijn(10, 2)
        cert = verify(g, VertexSet(10), 10 ** 9)
        assert not cert.valid
        assert cert.covered.mask == 0
        assert cert.uncovered.members() == list(range(10))

    def test_radius_zero(self):
        g = GeneralizedDigraph.debruijn(6, 2)
        assert not verify(g, VertexSet.from_members(6, [0, 3]), 0).valid
        assert verify(g, VertexSet(6, (1 << 6) - 1), 0).valid

    def test_certificate_json_shape(self):
        g = GeneralizedDigraph.kautz(7, 2)
        payload = verify(g, VertexSet.from_members(7, [0, 1]), 2).to_dict()
        assert payload == {"family": "kautz", "n": 7, "d": 2, "k": 2,
                           "set": [0, 1], "valid": True, "uncovered": []}

    @settings(max_examples=200, deadline=None)
    @given(instances(40), st.data())
    def test_matches_reference_expansion(self, inst, data):
        family, n, d = inst
        k = data.draw(st.integers(0, 4))
        members = data.draw(st.sets(st.integers(0, n - 1)))
        g = GeneralizedDigraph(family=family, n=n, d=d)
        cert = verify(g, VertexSet.from_members(n, members), k)
        covered = naive_ball(family, n, d, set(members), k)
        assert set(cert.covered.members()) == covered
        assert cert.valid == (cert.covered.mask == (1 << n) - 1)
        assert cert.valid == (len(covered) == n)
        assert set(cert.uncovered.members()) == set(range(n)) - covered

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES)),
           st.integers(SMALL_ORDER + 1, 300), st.integers(2, 5),
           st.integers(0, 4), st.data())
    def test_matches_reference_expansion_above_small_order(
            self, family, n, d, k, data):
        # a set spanning more than SMALL_ORDER members walks its layers
        # through the translate tables; a run may wrap the ring
        if data.draw(st.booleans()):
            start = data.draw(st.integers(0, n - 1))
            length = data.draw(st.integers(1, n))
            members = {(start + i) % n for i in range(length)}
        else:
            members = data.draw(st.sets(st.integers(0, n - 1)))
        g = GeneralizedDigraph(family=family, n=n, d=d)
        cert = verify(g, VertexSet.from_members(n, members), k)
        assert set(cert.covered.members()) == \
            naive_ball(family, n, d, members, k)

    @settings(max_examples=150, deadline=None)
    @given(instances(40), st.data())
    def test_completion_and_monotonicity(self, inst, data):
        family, n, d = inst
        k = data.draw(st.integers(0, 3))
        members = data.draw(st.sets(st.integers(0, n - 1)))
        g = GeneralizedDigraph(family=family, n=n, d=d)
        dset = VertexSet.from_members(n, members)
        cert = verify(g, dset, k)
        # adding every uncovered vertex completes coverage
        completed = VertexSet(n, dset.mask | cert.uncovered.mask)
        assert verify(g, completed, k).valid
        if cert.valid:
            # valid stays valid for bigger radius and bigger set
            assert verify(g, dset, k + 1).valid
            extra = data.draw(st.sets(st.integers(0, n - 1)))
            more = dset.mask | VertexSet.from_members(n, extra).mask
            assert verify(g, VertexSet(n, more), k).valid


class TestBounds:
    def test_debruijn_headline(self):
        b = bounds(GeneralizedDigraph.debruijn(40, 3), 3)
        assert b.lower == 1
        assert b.upper == 2

    def test_kautz_headline(self):
        b = bounds(GeneralizedDigraph.kautz(7, 2), 2)
        assert b.lower == 1
        assert b.upper == 2

    def test_kautz_radius_one_bounds_coincide(self):
        for n in range(3, 61):
            for d in (2, 3, 4, 5):
                if n < d:
                    continue
                b = bounds(GeneralizedDigraph.kautz(n, d), 1)
                assert b.lower == b.upper == ceil_div(n, d + 1)

    def test_lower_at_most_uppers(self):
        for family in sorted(FAMILIES):
            for n in range(2, 80):
                for d in (2, 3, 5):
                    if n < d:
                        continue
                    for k in (1, 2, 3, 6):
                        b = bounds(GeneralizedDigraph(
                            family=family, n=n, d=d), k)
                        assert b.ball_sum == geometric_sum(d, k)
                        assert b.lower == ceil_div(n, b.ball_sum)
                        assert b.lower <= ceil_div(n, d ** k)
                        assert b.lower <= b.upper

    def test_radius_zero_rejected(self):
        with pytest.raises(ValueError):
            bounds(GeneralizedDigraph.debruijn(6, 2), 0)

    def test_interleaved_instances_get_their_own_bounds(self):
        # bounds keeps the last instance asked; each call, whatever was
        # asked before it, must give its own instance's formulas, also for
        # an equal digraph built anew
        grid = [(family, n, d, k) for n in range(2, 40)
                for d in (2, 3, 5) for k in (1, 2, 4)
                for family in sorted(FAMILIES) if n >= d]
        order = [instance for pair in zip(grid, reversed(grid))
                 for instance in pair]
        for family, n, d, k in order + order[::3]:
            b = bounds(GeneralizedDigraph(family=family, n=n, d=d), k)
            lower = ceil_div(n, geometric_sum(d, k))
            upper = (lower + 1 if family == DEBRUIJN
                     else ceil_div(n, d ** k + d ** (k - 1)))
            assert (b.lower, b.upper) == (lower, upper), (family, n, d, k)

    def test_alternating_instances_and_equal_copies(self):
        # the cache is keyed by the digraph's fields: an equal digraph
        # built anew reads the same entry, and a different one never does
        pairs = [(DEBRUIJN, 40, 3, 2), ("kautz", 40, 3, 2),
                 (DEBRUIJN, 60_000, 5, 4), ("kautz", 61, 2, 1),
                 (DEBRUIJN, 61, 2, 1), (DEBRUIJN, 61, 2, 3)]
        for first, second in zip(pairs, pairs[1:]):
            made = [GeneralizedDigraph(*first[:3]),
                    GeneralizedDigraph(*second[:3])]
            made += [GeneralizedDigraph(g.family, g.n, g.d) for g in made]
            assert made[0] == made[2] and hash(made[0]) == hash(made[2])
            assert made[1] == made[3] and hash(made[1]) == hash(made[3])
            ks = (first[3], second[3]) * 2
            for g, k in [*zip(made, ks), *zip(made[::-1], ks[::-1])] * 2:
                lower = -(-g.n // sum(g.d ** j for j in range(k + 1)))
                upper = (lower + 1 if g.family == DEBRUIJN
                         else -(-g.n // (g.d ** k + g.d ** (k - 1))))
                b = bounds(g, k)
                assert (b.lower, b.upper) == (lower, upper), (g, k)

    def test_computed_once_per_instance(self, monkeypatch):
        made = []
        original = domination.Bounds

        def counting(*args):
            made.append(args)
            return original(*args)

        monkeypatch.setattr(domination, "Bounds", counting)
        bounds.cache_clear()
        g, other = (GeneralizedDigraph.debruijn(40, 3),
                    GeneralizedDigraph.kautz(40, 3))
        for graph in (g, g, GeneralizedDigraph.debruijn(40, 3), other, g):
            bounds(graph, 2)
        assert made == [(4, 5, 13), (4, 4, 13), (4, 5, 13)]
        bounds.cache_clear()
