"""Digraph families: arc rules, closed-form run images, reference
expansion."""

import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_ball, naive_image, naive_out_neighbors
from dbkdom import digraph
from dbkdom.cli import classify_row
from dbkdom.digraph import (DEBRUIJN, FAMILIES, INT_TABLE_CEILING, KAUTZ,
                            SMALL_ORDER, GeneralizedDigraph, VertexSet, ball,
                            export_lines, run_image, run_layers,
                            set_out_neighborhood)
from dbkdom.modular import run_mask
from dbkdom.oracle import DEFAULT_LIMITS


def instances(max_n=60):
    return st.tuples(st.sampled_from(sorted(FAMILIES)),
                     st.integers(2, max_n),
                     st.integers(2, 5)).filter(lambda t: t[1] >= t[2])


def run_members(run, n):
    """The residues of a (start, length) run, listed one by one."""
    start, length = run
    return {(start + t) % n for t in range(length)}


class TestGeneralizedDigraph:
    def test_constructors(self):
        g = GeneralizedDigraph.debruijn(6, 3)
        assert (g.family, g.n, g.d) == (DEBRUIJN, 6, 3)
        assert GeneralizedDigraph.kautz(9, 2).family == KAUTZ

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneralizedDigraph(family="grid", n=5, d=2)
        with pytest.raises(ValueError):
            GeneralizedDigraph.debruijn(5, 1)
        with pytest.raises(ValueError):
            GeneralizedDigraph.kautz(2, 3)  # n < d


class TestVertexSet:
    def test_membership_iteration(self):
        s = VertexSet.from_members(10, [7, 2, 2, 5])
        assert list(s) == [2, 5, 7]
        assert len(s) == 3
        assert s.mask >> 5 & 1 and not s.mask >> 6 & 1

    def test_from_interval_and_complement(self):
        s = VertexSet(10, run_mask(8, 4, 10))
        assert s.members() == [0, 1, 8, 9]
        outside = VertexSet(10, s.mask ^ ((1 << 10) - 1))
        assert outside.members() == [2, 3, 4, 5, 6, 7]
        assert VertexSet(4).mask == 0

    def test_member_range_checked(self):
        with pytest.raises(ValueError, match=r"vertex 5 out of range \[0, 5\)"):
            VertexSet.from_members(5, [0, 5])
        # a negative vertex is refused, never read as counted from the end
        for v in (-1, -5, -6):
            with pytest.raises(ValueError, match=f"vertex {v} out of range"):
                VertexSet.from_members(5, [1, v])
        with pytest.raises(ValueError, match="ground set size"):
            VertexSet.from_members(0, [])

    def test_large_member_list(self):
        n = 300_000
        assert VertexSet.from_members(n, range(n)).mask == (1 << n) - 1
        s = VertexSet.from_members(n, range(n - 1, -1, -3))
        assert s.mask == int("100" * (n // 3), 2)
        assert len(s) == n // 3

    @pytest.mark.parametrize("n", [1, 5, 64, 65, 1000])
    def test_mask_range_checked(self, n):
        assert VertexSet(n, 0).mask == 0
        assert len(VertexSet(n, (1 << n) - 1)) == n
        for mask in (1 << n, -1):
            with pytest.raises(ValueError, match="outside"):
                VertexSet(n, mask)


class TestOutNeighbors:
    def test_examples(self):
        assert run_image(GeneralizedDigraph.debruijn(6, 3), 2, 1) == (0, 3)
        assert run_image(GeneralizedDigraph.kautz(9, 2), 0, 1) == (7, 2)
        for d in (2, 3, 5):
            g = GeneralizedDigraph.debruijn(20, d)
            assert run_members(run_image(g, 0, 1), 20) == set(range(d))

    def test_exhaustive_small_against_definition(self):
        for family in sorted(FAMILIES):
            for n in range(2, 30):
                for d in (2, 3, 4, 5):
                    if n < d:
                        continue
                    g = GeneralizedDigraph(family=family, n=n, d=d)
                    for v in range(n):
                        assert run_members(run_image(g, v, 1), n) == \
                            naive_out_neighbors(family, n, d, v), (family, n, d, v)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_reflection_maps_arcs_to_arcs(self, family):
        # x -> n-1-x maps the out-run of x onto the out-run of n-1-x, so it
        # is an automorphism of both families; the oracle's root reflection
        # rests on it
        for d in range(2, 8):
            for n in range(d, 301):
                g = GeneralizedDigraph(family=family, n=n, d=d)
                for x in range(n):
                    start, length = run_image(g, x, 1)
                    assert length == d
                    assert run_image(g, n - 1 - x, 1) == \
                        ((n - start - d) % n, d), (n, d, x)

    def test_saturates_only_at_n_equals_d(self):
        assert run_image(GeneralizedDigraph.debruijn(3, 3), 1, 1)[1] == 3
        assert run_image(GeneralizedDigraph.debruijn(4, 3), 1, 1)[1] < 4


class TestIntervalImage:
    def test_examples(self):
        # {3, 4} -> {6..9} (de Bruijn) and {0, 1} -> {3..6} (Kautz)
        assert run_image(GeneralizedDigraph.debruijn(10, 2), 3, 2) == (6, 4)
        assert run_image(GeneralizedDigraph.kautz(7, 2), 0, 2) == (3, 4)

    def test_exhaustive_small_against_reference(self):
        for family in sorted(FAMILIES):
            for n in range(2, 25):
                for d in (2, 3):
                    if n < d:
                        continue
                    g = GeneralizedDigraph(family=family, n=n, d=d)
                    for start in range(n):
                        for length in range(1, n + 1):
                            run = (start, length)
                            assert run_members(run_image(g, *run), n) \
                                == naive_image(family, n, d,
                                               run_members(run, n))


class TestIthImage:
    def test_identity_at_zero(self):
        g = GeneralizedDigraph.kautz(9, 2)
        assert run_layers(g, 3, 3, 0) == [(3, 3)]

    @pytest.mark.parametrize("length", [0, -1])
    def test_empty_run_rejected(self, length):
        # a run of no vertices never grows, so its layers would not stop
        # before the k-th
        g = GeneralizedDigraph.debruijn(10, 2)
        with pytest.raises(ValueError, match="length must be >= 1"):
            run_layers(g, 0, length, 10**6)

    def test_singleton_two_steps(self):
        g = GeneralizedDigraph.debruijn(40, 3)
        for x in range(40):
            assert run_layers(g, x, 1, 2)[2] == (9 * x % 40, 9)

    def test_kautz_saturation(self):
        # the layers stop at the first full run, a fixed point of the image
        g = GeneralizedDigraph.kautz(7, 2)
        assert [m for _, m in run_layers(g, 0, 2, 5)] == [2, 4, 7]

    def test_size_law(self):
        # |O_i(D)| = min(n, d**i * |D|) for consecutive D
        for family in sorted(FAMILIES):
            for (n, d) in ((17, 2), (23, 3), (40, 3), (12, 4)):
                g = GeneralizedDigraph(family=family, n=n, d=d)
                for start in (0, 5, n - 1):
                    for length in (1, 2, 5):
                        layers = run_layers(g, start, length, 5)
                        for i, (_, m) in enumerate(layers):
                            assert m == min(n, d ** i * length)
                        assert len(layers) == 6 or layers[-1][1] == n

    @settings(max_examples=400, deadline=None)
    @given(instances(), st.data())
    def test_matches_iterated_reference(self, inst, data):
        family, n, d = inst
        g = GeneralizedDigraph(family=family, n=n, d=d)
        start = data.draw(st.integers(0, n - 1))
        length = data.draw(st.integers(1, n))
        i = data.draw(st.integers(0, 5))
        expected = run_members((start, length), n)
        for _ in range(i):
            expected = naive_image(family, n, d, expected)
        # the layers stop early only at a full run, which the image keeps
        got = run_layers(g, start, length, i)[-1]
        assert run_members(got, n) == expected

    def test_kautz_prefix_parity(self):
        # images of a prefix alternate: even steps start at 0, odd end at n-1
        for n in (7, 12, 30, 41):
            for d in (2, 3):
                for c in range(1, 5):
                    g = GeneralizedDigraph.kautz(n, d)
                    for i, (start, m) in enumerate(run_layers(g, 0, c, 5)):
                        if m == n:
                            continue
                        if i % 2 == 0:
                            assert start == 0, (n, d, c, i)
                        else:
                            assert (start + m - 1) % n == n - 1, \
                                (n, d, c, i)


class TestSetImage:
    def test_examples(self):
        gb = GeneralizedDigraph.debruijn(6, 3)
        assert set_out_neighborhood(
            gb, VertexSet.from_members(6, [2])).members() == [0, 1, 2]
        assert set_out_neighborhood(gb, VertexSet(6)).mask == 0
        gk = GeneralizedDigraph.kautz(9, 2)
        assert set_out_neighborhood(
            gk, VertexSet.from_members(9, [0, 1])).members() == [5, 6, 7, 8]

    @settings(max_examples=300, deadline=None)
    @given(instances(40), st.data())
    def test_matches_reference_on_arbitrary_sets(self, inst, data):
        family, n, d = inst
        g = GeneralizedDigraph(family=family, n=n, d=d)
        members = data.draw(st.sets(st.integers(0, n - 1)))
        got = set_out_neighborhood(g, VertexSet.from_members(n, members))
        assert set(got.members()) == naive_image(family, n, d, members)

    @pytest.mark.parametrize("d", range(2, 18))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_reference_across_word_edges(self, family, d):
        # every order mod 8 on both sides of SMALL_ORDER, where the int table
        # gives way to the translation tables, and the 64-bit word edges;
        # from d = 8 on one member's slots span whole bytes of the spread
        rng = random.Random(d)
        edges = range(SMALL_ORDER - 8, SMALL_ORDER + 9)
        for n in sorted({d, d + 1, 63, 64, 65, 200, *edges}):
            g = GeneralizedDigraph(family=family, n=n, d=d)
            for members in _sample_sets(n, rng):
                got = set_out_neighborhood(
                    g, VertexSet.from_members(n, members))
                assert set(got) == naive_image(family, n, d, members), \
                    (n, sorted(members))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_reference_at_large_degree(self, family):
        rng = random.Random(40)
        for d in range(18, 41):
            for n in (d, d + 3, 2 * d + 5, 8 * d + 1):
                g = GeneralizedDigraph(family, n, d)
                for members in _sample_sets(n, rng):
                    got = set_out_neighborhood(
                        g, VertexSet.from_members(n, members))
                    assert set(got) == naive_image(family, n, d, members), \
                        (n, d, sorted(members))
        n, d = 20_000, 1_000
        g = GeneralizedDigraph(family, n, d)
        for members in ({0}, {n - 1}, set(range(n - 30, n)) | {n // 3},
                        set(rng.sample(range(n), 40))):
            got = set_out_neighborhood(g, VertexSet.from_members(n, members))
            assert set(got) == naive_image(family, n, d, members)
        assert len(set_out_neighborhood(g, VertexSet(n, (1 << n) - 1))) == n

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cluster_slides_across_every_byte(self, family):
        # {v, v+1, v+w} for every start v: the span of member bytes starts
        # and ends at every byte offset in either reading of the mask, at
        # every n mod 8; w = SMALL_ORDER - 1 puts the span at 16 or 17
        # bytes, on either side of the switch to the translation tables
        for n in (*range(200, 208), *range(1000, 1008)):
            for d in (2, 5):
                g = GeneralizedDigraph(family, n, d)
                for w in (2, SMALL_ORDER - 1):
                    for v in range(n):
                        members = {v, (v + 1) % n, (v + w) % n}
                        got = set_out_neighborhood(
                            g, VertexSet.from_members(n, members))
                        assert set(got) == naive_image(family, n, d,
                                                       members), (n, d, v, w)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sparse_set_costs_its_span(self, family):
        # a cluster anywhere in a large order allocates a few masks of n
        # bits, under n bytes, not the d*n/8 = 125*n bytes of a spread over
        # every byte of the mask
        n, d = 100_000, 1_000
        g = GeneralizedDigraph(family, n, d)
        set_out_neighborhood(g, VertexSet(n, 1))  # builds the int table
        for members in ({n - 9, n - 5, n - 1}, {n // 2, n // 2 + 3}, {7, 8}):
            s = VertexSet.from_members(n, members)
            tracemalloc.start()
            try:
                got = set_out_neighborhood(g, s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert set(got) == naive_image(family, n, d, members)
            assert peak < n, (sorted(members), peak)


def _sample_sets(n, rng):
    """Empty, full, the end singletons, a random singleton, random sets of
    a few densities, a run at a random offset, a cluster inside the top two
    bytes and a wrapped run, over the ground set range(n)."""
    yield set()
    yield set(range(n))
    yield {0}
    yield {n - 1}
    yield {rng.randrange(n)}
    for density in (0.05, 0.3, 0.7):
        yield {v for v in range(n) if rng.random() < density}
    start = rng.randrange(n)
    yield set(range(start, min(n, start + rng.randint(1, 40))))
    top = range(max(0, 8 * (((n + 7) >> 3) - 2)), n)
    yield set(rng.sample(top, min(3, len(top))))
    start = n - rng.randint(1, min(n, 20))
    length = min(n, n - start + rng.randint(1, 20))
    yield {(start + t) % n for t in range(length)}


class TestMembers:
    @pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 65, 128, 129, 200])
    def test_matches_per_bit_test(self, n):
        rng = random.Random(n)
        for members in _sample_sets(n, rng):
            s = VertexSet.from_members(n, members)
            expected = [v for v in range(n) if (s.mask >> v) & 1]
            assert s.members() == expected
            assert list(iter(s)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 63, 64, 65])
    def test_runs(self, n):
        # single runs, wrapped runs and two runs are listed run by run,
        # three or more by the per-vertex scan
        for start in range(n):
            for length in range(n + 1):
                for mask in (run_mask(start, length, n),
                             run_mask(start, length, n)
                             | run_mask(start + length + 1, 2, n),
                             run_mask(start, length, n)
                             | run_mask(start + length + 2, 1, n)
                             | run_mask(start + length + 4, 3, n)):
                    s = VertexSet(n, mask)
                    expected = [v for v in range(n) if (mask >> v) & 1]
                    assert s.members() == expected, (n, start, length)
        assert VertexSet(n).members() == []
        assert VertexSet(n, (1 << n) - 1).members() == list(range(n))

    @pytest.mark.parametrize("n", [INT_TABLE_CEILING, INT_TABLE_CEILING + 1])
    def test_at_the_ceiling(self, n):
        # the last order the shared table serves, and the first it does not
        rng = random.Random(n)
        masks = [0, 1, 1 << n - 1, (1 << n) - 1,
                 run_mask(n - 5, 9, n), run_mask(30_000, 40_000, n),
                 run_mask(0, 7, n) | run_mask(n - 300, 200, n),
                 run_mask(0, 7, n) | run_mask(20, 2, n) | 1 << n - 1,
                 rng.getrandbits(n),
                 # runs are found over the span from the lowest member: a
                 # short run high in the ring, runs ending at n-1, a
                 # wrapped run, a lone member, and two and three runs
                 # clear of vertex 0
                 run_mask(n - 60, 20, n), run_mask(n - 20, 20, n),
                 run_mask(n - 1, 2, n), run_mask(n - 2, 3, n),
                 1 << n - 2, 1 << 40_000,
                 run_mask(5_000, 3, n) | run_mask(n - 40, 40, n),
                 run_mask(n - 9, 4, n) | 1 << n - 1,
                 run_mask(100, 3, n) | run_mask(200, 5, n)
                 | run_mask(n - 50, 10, n),
                 run_mask(n - 8, 2, n) | run_mask(n - 5, 1, n)
                 | run_mask(n - 2, 2, n)]
        for mask in masks:
            s = VertexSet(n, mask)
            expected = [v for v in range(n) if (mask >> v) & 1]
            assert s.members() == expected
            assert list(s) == expected
        assert len(digraph._int_table) <= INT_TABLE_CEILING

    @pytest.mark.parametrize("n", [9, 200, INT_TABLE_CEILING,
                                   INT_TABLE_CEILING + 1])
    def test_one_or_two_runs_are_slices(self, n, monkeypatch):
        # a set of at most two runs of 0..n-1 (a wrapped run is two),
        # anywhere in the ring, is listed by slices, never by the
        # per-vertex compress
        def refuse(*args):
            raise AssertionError("listed by compress")

        monkeypatch.setattr(digraph, "compress", refuse)
        listed = 0
        for start in {0, 1, n // 3, n - 4, n - 2, n - 1}:
            for mask in (run_mask(start, 1, n), run_mask(start, 3, n),
                         run_mask(start, 2, n) | run_mask(start + 4, 1, n),
                         run_mask(start, 1, n) | run_mask(start + 3, 2, n)):
                if len(format(mask, "b").replace("0", " ").split()) > 2:
                    continue
                expected = [v for v in range(n) if (mask >> v) & 1]
                assert VertexSet(n, mask).members() == expected
                listed += 1
        assert listed >= 20

    def test_lists_the_shared_ints(self):
        n = 70
        for mask in (run_mask(60, 20, n), run_mask(3, 50, n),
                     0b1011011 << 50):
            members = VertexSet(n, mask).members()
            assert all(v is digraph._int_table[v] for v in members)

    def test_returned_lists_are_independent(self):
        n = 500
        sets = [VertexSet(n, run_mask(300, 120, n)),
                VertexSet(n, run_mask(450, 100, n)),
                VertexSet(n, run_mask(5, 4, n) | run_mask(40, 3, n)
                          | run_mask(400, 2, n))]
        for s in sets:
            expected = [v for v in range(n) if (s.mask >> v) & 1]
            listed = s.members()
            listed[0] = -1
            listed.append(n)
            listed.sort()
            assert s.members() == expected
            assert list(s) == expected
        assert sets[1].members()[:5] == [0, 1, 2, 3, 4]
        table = digraph._int_table
        assert len(table) >= n and table == list(range(len(table)))

    def test_threads_growing_the_table(self, monkeypatch):
        # a thread that grows the table while others list from it must
        # leave every listing and the table right
        monkeypatch.setattr(digraph, "_int_table", [])
        wrong = []

        def lister(seed):
            rng = random.Random(seed)
            for _ in range(300):
                n = rng.randrange(1, 6000)
                mask = run_mask(rng.randrange(n), rng.randrange(1, n + 1), n)
                if rng.random() < 0.3:
                    mask |= 1 << rng.randrange(n)
                expected = [v for v in range(n) if (mask >> v) & 1]
                if VertexSet(n, mask).members() != expected:
                    wrong.append((n, mask))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lister, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert digraph._int_table == list(range(len(digraph._int_table)))

    def test_import_builds_no_table(self):
        src = str(Path(digraph.__file__).resolve().parents[1])
        code = ("import dbkdom, dbkdom.cli\n"
                "from dbkdom import digraph\n"
                "print(len(digraph._int_table))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_row_above_the_ceiling_leaves_the_table_bounded(self):
        VertexSet(INT_TABLE_CEILING, 1 << INT_TABLE_CEILING - 1).members()
        assert len(digraph._int_table) == INT_TABLE_CEILING
        row = classify_row("debruijn", 100_000, 3, 1, DEFAULT_LIMITS)
        assert row["method"] == "congruence"
        assert len(row["witness"]) == row["gamma"] == 25_000
        assert len(digraph._int_table) == INT_TABLE_CEILING

    def test_large_witness_is_one_slice(self):
        # L = 60000 / 3 = 20000 and (d-1)*x == L (mod n) gives x = 20000
        row = classify_row("debruijn", 60_000, 2, 1, DEFAULT_LIMITS)
        assert row["method"] == "congruence"
        assert row["witness"] == list(range(20_000, 40_000))
        assert all(v is digraph._int_table[v] for v in row["witness"])

    def test_one_run_at_large_order(self):
        n = 10 ** 5
        assert VertexSet(n, run_mask(n - 7, 20, n)).members() == \
            [*range(13), *range(n - 7, n)]
        assert VertexSet(n, run_mask(40_000, 3_000, n)).members() == \
            list(range(40_000, 43_000))


class TestBall:
    def test_kautz_headline(self):
        g = GeneralizedDigraph.kautz(7, 2)
        covered = ball(g, VertexSet.from_members(7, [0, 1]), 2)
        assert covered.mask == (1 << 7) - 1

    def test_no_single_vertex_suffices_at_40_3_3(self):
        g = GeneralizedDigraph.debruijn(40, 3)
        for x in range(40):
            covered = ball(g, VertexSet.from_members(40, [x]), 3)
            assert covered.mask != (1 << 40) - 1, x

    def test_whole_vertex_set_radius_zero(self):
        g = GeneralizedDigraph.debruijn(5, 2)
        assert ball(g, VertexSet(5, (1 << 5) - 1), 0).mask == (1 << 5) - 1

    def test_covered_contains_start_and_grows(self):
        g = GeneralizedDigraph.kautz(11, 3)
        s = VertexSet.from_members(11, [4])
        previous = set()
        for k in range(5):
            covered = set(ball(g, s, k).members())
            assert 4 in covered
            assert covered >= previous
            assert covered == naive_ball("kautz", 11, 3, {4}, k)
            previous = covered

    def test_other_ground_set_and_negative_radius_refused(self):
        g = GeneralizedDigraph.debruijn(10, 2)
        other = VertexSet.from_members(11, [0])
        with pytest.raises(ValueError, match="ground set mismatch: 11 != 10"):
            set_out_neighborhood(g, other)
        with pytest.raises(ValueError, match="ground set mismatch: 11 != 10"):
            ball(g, other, 1)
        with pytest.raises(ValueError, match="radius must be >= 0, got -1"):
            ball(g, VertexSet.from_members(10, [0]), -1)

    def test_never_reads_the_closed_form(self, monkeypatch):
        # ball is the reference that run_image and run_layers are checked
        # against, on both sides of SMALL_ORDER
        def refuse(*args):
            raise AssertionError("ball read the closed form")

        monkeypatch.setattr(digraph, "run_image", refuse)
        monkeypatch.setattr(digraph, "run_layers", refuse)
        rng = random.Random(5)
        for family in sorted(FAMILIES):
            for n, d in ((40, 3), (SMALL_ORDER + 61, 2), (300, 5)):
                g = GeneralizedDigraph(family=family, n=n, d=d)
                members = set(rng.sample(range(n), 3))
                for k in range(4):
                    covered = ball(g, VertexSet.from_members(n, members), k)
                    assert set(covered.members()) == \
                        naive_ball(family, n, d, members, k)


class TestDegreeAccounting:
    def test_out_slots_and_arc_counts(self):
        for family in sorted(FAMILIES):
            for n, d in ((6, 3), (9, 2), (12, 4), (7, 7)):
                g = GeneralizedDigraph(family=family, n=n, d=d)
                slot_total = 0
                arc_total = 0
                in_deg = [0] * n
                for v in range(n):
                    targets = naive_out_neighbors(family, n, d, v)
                    slot_total += d
                    arc_total += len(targets)
                    for y in targets:
                        in_deg[y] += 1
                    assert run_members(run_image(g, v, 1), n) == targets
                assert slot_total == n * d
                assert sum(in_deg) == arc_total <= n * d


def export_text(g, fmt):
    return "".join(export_lines(g, fmt))


class TestExport:
    def test_edge_list_debruijn_6_3(self):
        text = export_text(GeneralizedDigraph.debruijn(6, 3), "edges")
        lines = text.strip().split("\n")
        assert lines[0] == "# debruijn 6 3"
        arcs = [tuple(map(int, line.split("\t"))) for line in lines[1:]]
        assert len(arcs) == 18  # n*d arcs
        assert arcs[:3] == [(0, 0), (0, 1), (0, 2)]
        for v, y in arcs:
            assert y in naive_out_neighbors("debruijn", 6, 3, v)

    def test_edge_list_deduplicates_slots(self):
        # n = d: every vertex's d slots reach all n targets, once each
        text = export_text(GeneralizedDigraph.kautz(2, 2), "edges")
        arcs = [line for line in text.strip().split("\n")[1:]]
        assert len(arcs) == len(set(arcs)) == 4

    @pytest.mark.parametrize("family", FAMILIES)
    def test_exactly_n_times_d_distinct_arcs(self, family):
        # n >= d makes a vertex's d targets d distinct consecutive residues
        for d in range(2, 6):
            for n in range(d, d + 7):
                g = GeneralizedDigraph(family, n, d)
                arcs = export_text(g, "edges").splitlines()[1:]
                assert len(arcs) == len(set(arcs)) == n * d

    def test_dot_output(self):
        text = export_text(GeneralizedDigraph.kautz(9, 2), "dot")
        assert text.startswith("digraph kautz_9_2 {")
        assert text.rstrip().endswith("}")
        assert "  0 -> 8;" in text
        assert text.count("->") == 18

    def test_deterministic(self):
        g = GeneralizedDigraph.debruijn(30, 4)
        assert export_text(g, "edges") == export_text(g, "edges")
        assert export_text(g, "dot") == export_text(g, "dot")

    def test_size_guard(self):
        g = GeneralizedDigraph.debruijn(6 * 10**6, 2)
        with pytest.raises(ValueError):
            export_text(g, "edges")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_lines(GeneralizedDigraph.debruijn(6, 3), "gml")
