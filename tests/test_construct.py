"""Anchor search, run constructions, arithmetic conditions, classify."""

import dataclasses
import inspect
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_is_dominating, power_sum_run
from dbkdom import construct, domination
from dbkdom.construct import (ConstructionError, GammaResult,
                              build_anchor_run, build_lower_prefix,
                              build_prefix_cover, build_window_run, classify,
                              congruence_witness, find_anchor,
                              gcd_divisibility, prefix_condition,
                              remainder_window, run_scan, two_run_cover)
from dbkdom.digraph import FAMILIES, GeneralizedDigraph, VertexSet, ball
from dbkdom.domination import DominationCertificate, bounds, verify
from dbkdom.modular import (ceil_div, geometric_sum, run_mask,
                            solve_linear_congruence)
from dbkdom.oracle import DEFAULT_TABLE_CEILING, OracleLimits, min_dominating
from dbkdom.problems import COUNTEREXAMPLE, debruijn_necessity_report

debruijn, kautz = GeneralizedDigraph.debruijn, GeneralizedDigraph.kautz


def debruijn_instances(max_n=80):
    return st.tuples(st.integers(2, max_n), st.integers(2, 5),
                     st.integers(1, 4)).filter(lambda t: t[0] >= t[1])


def brute_congruence(n, d, k):
    """Reference for the length-L run search: first workable offset h,
    smallest solution x, found by raw scanning."""
    s = geometric_sum(d, k)
    lower = ceil_div(n, s)
    slack = s * lower - n
    h = 0
    while h * geometric_sum(d, k - 1) <= slack:
        for x in range(n):
            if ((d - 1) * x - (lower - h)) % n == 0:
                return h, x
        h += 1
    return None


def first_offset(n, d, k):
    """Arithmetic reference for the length-L run: the first offset h whose
    congruence is solvable within the slack, found by the h loop."""
    s = geometric_sum(d, k)
    lower = ceil_div(n, s)
    slack = s * lower - n
    h = 0
    while h * geometric_sum(d, k - 1) <= slack:
        if solve_linear_congruence(d - 1, lower - h, n):
            return h
        h += 1
    return None


def run_offset(n, d, k, x):
    """The offset h = (x + L - d*x) mod n of the run of length L from x,
    which solves (d-1)*x == L - h (mod n)."""
    return (x + ceil_div(n, geometric_sum(d, k)) - d * x) % n


def run_start(run):
    """The first vertex of a run that is not the whole ring."""
    return next(x for x in run if (x - 1) % run.n not in run)


def scan_anchor(n, d, k):
    """Arithmetic reference for the anchor: the first x whose offset lies
    in [0, d-2], found by scanning x."""
    for x in range(n):
        if run_offset(n, d, k, x) <= d - 2:
            return x
    return None


def default_envelope(family):
    """The README's default sweep rows of one family."""
    return [GeneralizedDigraph(family=family, n=n, d=d)
            for n in range(2, 61) for d in range(2, 6) if n >= d]


def run_set(n, start, length):
    return VertexSet(n, run_mask(start, length, n))


def rejecting_verify(g, dset, k):
    """verify, but reporting vertex 0 uncovered whatever the set."""
    return DominationCertificate(graph=g, dset=dset, k=k,
                                 covered=VertexSet(g.n, (1 << g.n) - 2))


def wide_envelope():
    """d 2..7, k 1..5, d <= n < 3000: the envelope the lemma tests cover."""
    return [(n, d, k) for d in range(2, 8) for k in range(1, 6)
            for n in range(d, 3000)]


class TestFindAnchor:
    def test_degree_two_anchor_is_the_lower_bound(self):
        # d = 2 collapses the window to a point: 2x == x + L, so x = L mod n
        for n in (5, 17, 40, 59):
            for k in (1, 2, 3):
                lower = ceil_div(n, geometric_sum(2, k))
                x = find_anchor(debruijn(n, 2), k)
                assert (x, run_offset(n, 2, k, x)) == (lower % n, 0)

    def test_headline_instance(self):
        x = find_anchor(debruijn(40, 3), 3)
        assert x == 0
        assert run_offset(40, 3, 3, x) == 1  # 3*0 = 0 = 0 + 1 - 1

    def test_small_instance_by_scan(self):
        # first x with 3x mod 6 inside [x+1, x+2] (L = 2) is x = 1
        x = find_anchor(debruijn(6, 3), 1)
        assert (x, run_offset(6, 3, 1, x)) == (1, 0)

    @settings(max_examples=300, deadline=None)
    @given(debruijn_instances(300))
    def test_membership_and_minimality(self, inst):
        n, d, k = inst
        lower = ceil_div(n, geometric_sum(d, k))
        anchor = find_anchor(debruijn(n, d), k)
        assert 0 <= run_offset(n, d, k, anchor) <= d - 2
        window = run_set(n, anchor + lower - (d - 2), d - 1)
        assert (d * anchor) % n in window
        for x in range(anchor):
            earlier = run_set(n, x + lower - (d - 2), d - 1)
            assert (d * x) % n not in earlier

    def test_matches_reference_scan_on_wide_envelope(self):
        for n, d, k in wide_envelope():
            assert find_anchor(debruijn(n, d), k) == scan_anchor(n, d, k), \
                (n, d, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_anchor(debruijn(5, 1), 1)
        with pytest.raises(ValueError):
            find_anchor(debruijn(2, 3), 1)
        with pytest.raises(ValueError):
            find_anchor(debruijn(9, 3), 0)


class TestAnchorRun:
    def test_headline_run_is_minimum(self):
        run = build_anchor_run(debruijn(40, 3), 3)
        assert run.members() == [0, 1]

    def test_length_and_validity(self):
        for (n, d, k) in ((7, 2, 1), (7, 2, 2), (41, 3, 3), (59, 5, 2),
                          (6, 3, 1), (100, 4, 4)):
            run = build_anchor_run(debruijn(n, d), k)
            lower = ceil_div(n, geometric_sum(d, k))
            assert len(run) == lower + 1
            g = GeneralizedDigraph.debruijn(n, d)
            assert verify(g, run, k).valid
            assert naive_is_dominating("debruijn", n, d, run.members(), k)

    @settings(max_examples=200, deadline=None)
    @given(debruijn_instances(200))
    def test_always_dominates(self, inst):
        n, d, k = inst
        run = build_anchor_run(debruijn(n, d), k)
        assert verify(GeneralizedDigraph.debruijn(n, d), run, k).valid


class TestCongruenceWitness:
    def test_absent_on_headline_instance(self):
        assert congruence_witness(debruijn(40, 3), 3) is None

    def test_present_examples(self):
        run = congruence_witness(debruijn(7, 2), 2)
        x = run_start(run)
        assert (x, run_offset(7, 2, 2, x)) == (1, 0)
        assert run.members() == [1]
        run = congruence_witness(debruijn(8, 3), 2)
        x = run_start(run)
        # 2x == 1 (mod 8) is unsolvable, so h = 1 is next
        assert (x, run_offset(8, 3, 2, x)) == (0, 1)

    def test_deterministic(self):
        g = debruijn(30, 3)
        assert congruence_witness(g, 2) == congruence_witness(g, 2)

    @settings(max_examples=300, deadline=None)
    @given(debruijn_instances(150))
    def test_matches_brute_force_tie_break(self, inst):
        n, d, k = inst
        expected = brute_congruence(n, d, k)
        got = congruence_witness(debruijn(n, d), k)
        if expected is None:
            assert got is None
        else:
            x = run_start(got)
            assert (run_offset(n, d, k, x), x) == expected
            lower = ceil_div(n, geometric_sum(d, k))
            assert got == run_set(n, x, lower)
            assert naive_is_dominating("debruijn", n, d, got.members(), k)

    @pytest.mark.parametrize("n, d, k", [
        (7, 2, 2), (36, 3, 2), (40, 3, 3), (364, 3, 5), (60_000, 2, 1),
        (10_001, 5, 4)])
    def test_geometric_sums_once_per_row(self, monkeypatch, n, d, k):
        # classify's three certificates read S from the row's one Bounds,
        # so a de Bruijn row computes it once, in bounds, whichever module
        # of the package would call it
        calls = []

        def counting(d, k):
            calls.append((d, k))
            return geometric_sum(d, k)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dbkdom" and hasattr(
                    module, "geometric_sum"):
                monkeypatch.setattr(module, "geometric_sum", counting)
        bounds.cache_clear()
        result = classify(debruijn(n, d), k)
        bounds.cache_clear()
        assert calls == [(d, k)]
        # each condition from its formula
        s = sum(d ** j for j in range(k + 1))
        t = sum(d ** j for j in range(k))
        lower = -(-n // s)
        congruence = first_offset(n, d, k) is not None
        divisibility = n % s == 0 and (n // s) % math.gcd(d - 1, n) == 0
        assert result.conditions == {
            "congruence": congruence,
            "gcd_divisibility": divisibility,
            "gcd_residue": congruence and not divisibility,
            "remainder_window": (lower >= 2 and n - (lower - 1) * s
                                 <= min(1 + 2 * t, s - 1))}

    def test_degree_two_always_fires(self):
        # d = 2 makes the h = 0 congruence x == L (mod n) always solvable
        for n in range(2, 120):
            for k in (1, 2, 3):
                run = congruence_witness(debruijn(n, 2), k)
                assert run is not None
                assert run_offset(n, 2, k, run_start(run)) == 0


def gcd_tags(n, d, k):
    conditions = classify(GeneralizedDigraph.debruijn(n, d), k).conditions
    return conditions["gcd_divisibility"], conditions["gcd_residue"]


class TestGcdCondition:
    def test_headline_instance_fails_both(self):
        assert not gcd_divisibility(debruijn(40, 3), 3)
        assert gcd_tags(40, 3, 3) == (False, False)

    def test_divisibility(self):
        assert gcd_divisibility(debruijn(7, 2), 2)
        assert gcd_tags(7, 2, 2) == (True, False)

    def test_residue(self):
        assert not gcd_divisibility(debruijn(41, 3), 3)
        assert gcd_tags(41, 3, 3) == (False, True)

    def test_divisibility_implies_congruence_run(self):
        # S | n and gcd(d-1, n) | n/S leave no slack and make h = 0
        # solvable, so the congruence run exists; classify relies on this
        # and never decides a value by the divisibility test
        envelope = wide_envelope()
        assert len(envelope) == 89865
        fired = [(n, d, k) for n, d, k in envelope
                 if gcd_divisibility(debruijn(n, d), k)]
        assert len(fired) == 4070
        for n, d, k in fired:
            assert first_offset(n, d, k) == 0, (n, d, k)


class TestRemainderWindow:
    def test_examples(self):
        assert remainder_window(debruijn(41, 3), 3)      # q = 1
        assert not remainder_window(debruijn(40, 3), 3)  # q = 0
        assert remainder_window(debruijn(20, 2), 2)      # q = 6 == min(7, 6)
        assert not remainder_window(debruijn(6, 2), 2)   # p = 0

    def test_build_window_run(self):
        run = build_window_run(debruijn(20, 2), 2)
        assert len(run) == 3
        assert naive_is_dominating("debruijn", 20, 2, run.members(), 2)
        with pytest.raises(ValueError):
            build_window_run(debruijn(40, 3), 3)

    def test_window_implies_congruence(self):
        # the window q bounds force the first solvable offset into range;
        # classify relies on this and never decides a value by the window
        firing = [(n, d, k) for n, d, k in wide_envelope()
                  if remainder_window(debruijn(n, d), k)]
        assert len(firing) == 41981
        for n, d, k in firing:
            assert first_offset(n, d, k) is not None, (n, d, k)

    def test_window_instances_attain_lower(self):
        for (n, d, k) in ((41, 3, 3), (20, 2, 2), (8, 2, 2), (15, 2, 2)):
            assert remainder_window(debruijn(n, d), k)
            run = build_window_run(debruijn(n, d), k)
            assert len(run) == ceil_div(n, geometric_sum(d, k))


def power_run(d, m, k):
    """The power-sum run of d**m as a set, checked against ``verify``."""
    gamma, members = power_sum_run(d, m, k)
    run = VertexSet.from_members(d ** m, members)
    assert verify(GeneralizedDigraph.debruijn(d ** m, d), run, k).valid
    return gamma, run


class TestDegreePowers:
    def test_spot_values(self):
        gamma, run = power_run(2, 4, 2)
        assert gamma == 3
        assert run.members() == [2, 3, 4]  # power-sum start x = 2
        gamma, run = power_run(3, 3, 1)
        assert gamma == 7
        assert set(run.members()) == set(range(3, 10))
        gamma, run = power_run(2, 5, 1)
        assert gamma == 11
        assert run.members() == list(range(10, 21))

    def test_single_vertex_when_exponent_small(self):
        for (d, m, k) in ((2, 3, 3), (2, 2, 5), (5, 1, 4), (3, 2, 2)):
            gamma, run = power_run(d, m, k)
            assert gamma == 1
            assert len(run) == 1

    def test_formula_and_validity_across_small_powers(self):
        # gcd(d-1, d**m) = 1, so the congruence run settles every power
        for d in (2, 3, 4, 5):
            for m in range(1, 15):
                n = d ** m
                if n > 16384:
                    break
                for k in range(1, 5):
                    gamma, run = power_run(d, m, k)
                    assert gamma == ceil_div(n, geometric_sum(d, k))
                    assert len(run) == gamma
                    result = classify(GeneralizedDigraph.debruijn(n, d), k)
                    assert result.method == "congruence"
                    assert result.gamma == gamma

    def test_power_sum_solves_offset_one(self):
        # the closed-form start satisfies (d-1)*x == L - 1 (mod d**m)
        for d in (2, 3, 5):
            for m in range(2, 9):
                n = d ** m
                if n > 16384:
                    break
                for k in range(1, m):
                    terms = m // (k + 1)
                    x = sum(d ** (m - j * (k + 1))
                            for j in range(1, terms + 1))
                    lower = ceil_div(n, geometric_sum(d, k))
                    assert (d - 1) * x % n == (lower - 1) % n


class TestKautzPrefix:
    def test_prefix_cover_examples(self):
        assert build_prefix_cover(kautz(7, 2), 2).members() == [0, 1]
        assert build_prefix_cover(kautz(9, 2), 1).members() == [0, 1, 2]
        assert build_prefix_cover(kautz(5, 2), 2).members() == [0]

    def test_prefix_cover_validity_grid(self):
        for n in range(2, 70):
            for d in (2, 3, 4, 5):
                if n < d:
                    continue
                for k in (1, 2, 3):
                    run = build_prefix_cover(kautz(n, d), k)
                    assert len(run) == ceil_div(n, d ** k + d ** (k - 1))
                    assert verify(GeneralizedDigraph.kautz(n, d),
                                  run, k).valid

    def test_condition_examples(self):
        assert not prefix_condition(kautz(7, 2), 2)
        assert prefix_condition(kautz(12, 2), 2)
        for n in range(2, 60):
            for d in (2, 3, 4):
                if n >= d:
                    assert prefix_condition(kautz(n, d), 1)

    def test_condition_matches_paper_formula(self):
        # the first clause reads lower == upper in the code and
        # (d**(k-1) + d**k) * L >= n in the paper
        count = 0
        for d in range(2, 9):
            for k in range(1, 7):
                for n in range(d, 4000):
                    g = kautz(n, d)
                    lower = ceil_div(n, geometric_sum(d, k))
                    top_layers = (d ** (k - 1) + d ** k) * lower >= n
                    b = bounds(g, k)
                    assert (b.lower == b.upper) == top_layers, (n, d, k)
                    paper = (top_layers or
                             d ** (k - 1) * lower >= ceil_div(n, d + 1))
                    assert prefix_condition(g, k) == paper, (n, d, k)
                    count += 1
        assert count == 167790

    def test_lower_prefix(self):
        run = build_lower_prefix(kautz(12, 2), 2)
        assert run.members() == [0, 1]
        assert naive_is_dominating("kautz", 12, 2, [0, 1], 2)
        with pytest.raises(ValueError):
            build_lower_prefix(kautz(7, 2), 2)

    def test_lower_prefix_validity_when_condition_fires(self):
        for n in range(2, 70):
            for d in (2, 3, 4):
                if n < d:
                    continue
                for k in (1, 2, 3):
                    if prefix_condition(kautz(n, d), k):
                        run = build_lower_prefix(kautz(n, d), k)
                        assert len(run) == \
                            ceil_div(n, geometric_sum(d, k))


class TestOtherFamily:
    def test_builders_verify_against_the_digraph_given(self):
        # no builder checks the family: given a digraph of the other
        # family, it returns a cover verified on that digraph or raises a
        # ConstructionError that names the family
        errors = 0
        for builder in (build_anchor_run, congruence_witness,
                        build_window_run, build_prefix_cover,
                        build_lower_prefix):
            for g in default_envelope("debruijn") + default_envelope("kautz"):
                for k in (1, 2, 3):
                    try:
                        cover = builder(g, k)
                    except ConstructionError as e:
                        assert f"on {g.family} n={g.n} " in str(e)
                        errors += 1
                        continue
                    except ValueError:
                        continue  # the builder's condition does not hold
                    assert cover is None or verify(g, cover, k).valid
        assert errors > 0


class TestFailureLabels:
    # a failed verification names the construction, its parameters and
    # the instance, then the first uncovered vertices
    @pytest.mark.parametrize("build, g, args, label", [
        (congruence_witness, debruijn(4, 3), (2,),
         "congruence run (h=1, x=0)"),
        (congruence_witness, debruijn(7, 2), (2,),
         "congruence run (h=0, x=1)"),
        (run_scan, debruijn(10, 3), (2, 1), "run scan (x=2)"),
        (two_run_cover, kautz(43, 2), (2, 7),
         "two-run cover (m1=1, start=35)"),
        (build_anchor_run, debruijn(40, 3), (3,),
         "anchor run of length lower+1"),
        (build_window_run, debruijn(17, 2), (2,),
         "anchor run of length lower (window condition)"),
        (build_prefix_cover, kautz(40, 3), (2,), "prefix cover"),
        (build_lower_prefix, kautz(12, 2), (2,), "prefix of length lower"),
    ])
    def test_message_unchanged(self, monkeypatch, build, g, args, label):
        def failing(graph, dset, k):
            return DominationCertificate(graph, dset, k, VertexSet(graph.n))

        monkeypatch.setattr(construct, "verify", failing)
        with pytest.raises(ConstructionError) as caught:
            build(g, *args)
        uncovered = list(range(min(g.n, 10)))
        assert str(caught.value) == (
            f"{label} failed verification on {g.family} n={g.n} d={g.d} "
            f"k={args[0]}: uncovered {uncovered}")


class TestClassify:
    def test_headline_debruijn(self):
        result = classify(GeneralizedDigraph.debruijn(40, 3), 3)
        assert result.gamma == 2
        assert result.method == "oracle"
        assert result.witness.members() == [0, 1]
        assert result.conditions == {"congruence": False,
                                     "gcd_divisibility": False,
                                     "gcd_residue": False,
                                     "remainder_window": False}

    def test_headline_kautz(self):
        result = classify(GeneralizedDigraph.kautz(7, 2), 2)
        assert result.gamma == 2
        assert result.method == "oracle"
        assert verify(GeneralizedDigraph.kautz(7, 2), result.witness, 2).valid

    def test_congruence_path(self):
        result = classify(GeneralizedDigraph.debruijn(7, 2), 2)
        assert result.gamma == 1
        assert result.method == "congruence"
        assert result.witness.members() == [1]

    def test_kautz_radius_one_closed_form(self):
        for n in range(3, 61):
            for d in (2, 3, 4, 5):
                if n < d:
                    continue
                result = classify(GeneralizedDigraph.kautz(n, d), 1)
                assert result.method == "radius_one"
                assert result.gamma == ceil_div(n, d + 1)

    def test_kautz_prefix_path(self):
        result = classify(GeneralizedDigraph.kautz(12, 2), 2)
        assert result.gamma == 2
        assert result.method == "prefix_cover"
        assert result.witness.members() == [0, 1]

    @pytest.mark.parametrize("n, d, k", [(7, 2, 2), (20000, 3, 3)])
    def test_congruence_row_verified_once(self, monkeypatch, n, d, k):
        calls = []
        original = construct.verify

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(construct, "verify", counting)
        result = classify(GeneralizedDigraph.debruijn(n, d), k)
        assert result.method == "congruence"
        assert len(calls) == 1

    def test_congruence_run_at_a_million(self, monkeypatch):
        # n = 10**6, d = 3, k = 3: L = ceil(n / 40) = 25000, gcd(d-1, n) = 2
        # divides L, so h = 0 and the smallest x with 2x == L (mod n) is 12500
        calls = []
        original = construct.verify

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(construct, "verify", counting)
        n = 10 ** 6
        result = classify(GeneralizedDigraph.debruijn(n, 3), 3)
        assert result.gamma == 25000
        assert result.method == "congruence"
        assert result.witness == run_set(n, 12500, 25000)
        assert len(calls) == 1

    @pytest.mark.parametrize("g, k, method", [
        (debruijn(7, 2), 2, "congruence"),
        (kautz(12, 2), 2, "prefix_cover"),
        (debruijn(40, 3), 3, "oracle"),
        (kautz(7, 2), 2, "oracle"),
    ])
    def test_bounds_computed_once(self, monkeypatch, g, k, method):
        # classify and every certificate it asks read one Bounds
        made = []
        original = domination.Bounds

        def counting(*args):
            made.append(args)
            return original(*args)

        monkeypatch.setattr(domination, "Bounds", counting)
        bounds.cache_clear()
        result = classify(g, k)
        bounds.cache_clear()
        assert result.method == method
        assert made == [(result.lower, result.upper, geometric_sum(g.d, k))]

    def test_oracle_decides_upper_value(self):
        # no condition fires and no size-1 set exists, so the anchor run
        # of length lower+1 becomes the witness
        result = classify(GeneralizedDigraph.debruijn(40, 3), 3)
        assert result.lower == 1 and result.upper == 2
        assert len(result.witness) == 2

    def test_budget_zero_degrades_to_bracket(self):
        limits = OracleLimits(max_nodes=0)
        result = classify(GeneralizedDigraph.debruijn(40, 3), 3, limits)
        assert result.gamma is None
        assert result.bracket == (1, 2)
        assert result.method == "bracket"
        result = classify(GeneralizedDigraph.kautz(7, 2), 2, limits)
        assert result.bracket == (1, 2)

    def test_tiny_budget_reports_inconclusive(self):
        # no construction settles 36/3/2 and its search needs two nodes
        limits = OracleLimits(max_nodes=1)
        result = classify(GeneralizedDigraph.debruijn(36, 3), 2, limits)
        assert result.method == "inconclusive"
        assert result.gamma is None
        assert result.bracket == (3, 4)

    def test_order_cap_degrades_to_bracket(self):
        limits = OracleLimits(max_n=30)
        result = classify(GeneralizedDigraph.debruijn(40, 3), 3, limits)
        assert result.method == "bracket"

    def test_deterministic(self):
        g = GeneralizedDigraph.kautz(31, 2)
        assert classify(g, 2).to_dict() == classify(g, 2).to_dict()

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            classify(GeneralizedDigraph.debruijn(9, 2), 0)

    def test_exact_results_carry_valid_minimum_witnesses(self):
        for n in range(2, 40):
            for d in (2, 3):
                if n < d:
                    continue
                for family in ("debruijn", "kautz"):
                    g = GeneralizedDigraph(family=family, n=n, d=d)
                    result = classify(g, 2)
                    assert result.gamma is not None
                    assert len(result.witness) == result.gamma
                    assert verify(g, result.witness, 2).valid
                    assert result.lower <= result.gamma <= result.upper

    def test_to_dict_shape(self):
        payload = classify(GeneralizedDigraph.debruijn(7, 2), 2).to_dict()
        assert payload["family"] == "debruijn"
        assert payload["gamma"] == 1
        assert payload["bracket"] is None
        assert payload["witness"] == [1]
        assert payload["method"] == "congruence"
        assert payload["nodes"] == 0


class TestRadiusCap:
    """From k = n.bit_length() + 1 on, classify works at that radius and
    reports the k it was given; each component must still hold at k."""

    def test_rows_past_the_cap_match_their_components(self):
        for n in (2, 3, 7, 50, 129, 600):
            for d in (2, 3, 5, 7):
                if n < d:
                    continue
                cap = n.bit_length() + 1
                for k in (cap, cap + 1, cap + 5):
                    for family in ("debruijn", "kautz"):
                        g = GeneralizedDigraph(family=family, n=n, d=d)
                        result = classify(g, k)
                        b = bounds(g, k)
                        assert result.k == k
                        assert (result.lower, result.upper) == (
                            b.lower, b.upper)
                        assert verify(g, result.witness, k).valid
                        if family == "kautz":
                            assert result.conditions["prefix_cover"] == (
                                prefix_condition(g, k))
                            continue
                        run = congruence_witness(g, k) is not None
                        divisibility = gcd_divisibility(g, k)
                        assert result.conditions == {
                            "congruence": run,
                            "gcd_divisibility": divisibility,
                            "gcd_residue": run and not divisibility,
                            "remainder_window": remainder_window(g, k),
                        }

    def test_huge_radius_returns(self):
        k = 10 ** 9
        for family in ("debruijn", "kautz"):
            g = GeneralizedDigraph(family=family, n=50, d=3)
            result = classify(g, k)
            assert (result.k, result.gamma) == (k, 1)
            assert verify(g, result.witness, k).valid


class TestGammaResultInvariants:
    def test_bracket_is_the_bounds_exactly_when_gamma_is_unset(self):
        g = GeneralizedDigraph.debruijn(7, 2)
        exact = GammaResult(graph=g, k=2, lower=1, upper=2, method="oracle",
                            witness=VertexSet.from_members(7, [1]),
                            conditions={})
        assert exact.gamma == 1
        assert exact.bracket is None
        open_ = GammaResult(graph=g, k=2, lower=1, upper=2,
                            method="bracket", witness=None, conditions={})
        assert open_.gamma is None
        assert open_.bracket == (1, 2)
        assert open_.to_dict()["bracket"] == [1, 2]

    @pytest.mark.parametrize("witness", [
        None, VertexSet(40), VertexSet(40, run_mask(3, 4, 40)),
        VertexSet(40, run_mask(0, 2, 40) | run_mask(30, 5, 40)),
        VertexSet(40, run_mask(37, 6, 40))])
    def test_to_dict_reads_as_the_properties(self, witness):
        # to_dict lists the witness once; each field must still be what the
        # properties say, for no witness, an empty one and runs of members
        g = GeneralizedDigraph.debruijn(40, 3)
        result = GammaResult(graph=g, k=2, lower=4, upper=5, method="oracle",
                             witness=witness, conditions={})
        payload = result.to_dict()
        assert payload["gamma"] == result.gamma
        assert payload["bracket"] == (list(result.bracket)
                                      if result.bracket else None)
        members = [v for v in range(40) if witness and witness.mask >> v & 1]
        assert payload["witness"] == (members or None)
        if witness is not None and not witness:
            assert (payload["gamma"], payload["bracket"],
                    payload["witness"]) == (0, [4, 5], None)

    def test_unknown_method_rejected(self):
        g = GeneralizedDigraph.debruijn(7, 2)
        with pytest.raises(ValueError):
            GammaResult(graph=g, k=2, lower=1, upper=2,
                        method="guesswork", witness=None, conditions={})


class TestRecordConstructors:
    # these frozen dataclasses write their own __init__; each must still
    # take its fields in order, by position or by name, with the fields'
    # defaults, and stay frozen, compared and copied by field
    @pytest.mark.parametrize("make", [
        lambda: kautz(9, 2),
        lambda: VertexSet(9, 0b101),
        lambda: verify(kautz(9, 2), VertexSet(9, 0b101), 1),
        lambda: classify(kautz(9, 2), 1),
    ])
    def test_dataclass_contract(self, make):
        record = make()
        cls = type(record)
        fields = dataclasses.fields(record)
        empty = {dataclasses.MISSING: inspect.Parameter.empty}
        assert [(p.name, p.default) for p in
                inspect.signature(cls).parameters.values()] == [
            (f.name, empty.get(f.default, f.default)) for f in fields]
        values = {f.name: getattr(record, f.name) for f in fields}
        assert cls(*values.values()) == record == cls(**values)
        assert dataclasses.replace(record) == record
        assert repr(record) == repr(cls(**values))
        for name in values:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, values[name])
        assert vars(record) == values


class TestRunBalls:
    """The closed-form ball masks the two scans screen with."""

    def test_masks_match_the_reference_expansion(self):
        for family in FAMILIES:
            for n in (2, 3, 7, 12, 31, 64, 65, 100):
                for d in (2, 3, 5):
                    if n < d:
                        continue
                    g = GeneralizedDigraph(family=family, n=n, d=d)
                    for k in (1, 2, 3, 8):
                        for length in sorted({1, 2, n // 3 + 1, n}):
                            run_ball, most = construct._run_ball(
                                g, k, length)
                            for a in range(n):
                                want = ball(g, run_set(n, a, length), k).mask
                                assert run_ball(a) == want, (
                                    family, n, d, k, length, a)
                                assert want.bit_count() <= most


class TestRunScan:
    def test_finds_the_first_dominating_run(self):
        # the half scan against verify on every start, in both families
        for family in FAMILIES:
            for n in range(2, 61):
                for d in (3, 4, 5):
                    if n < d:
                        continue
                    g = GeneralizedDigraph(family=family, n=n, d=d)
                    for k in (1, 2, 3):
                        size = bounds(g, k).lower
                        want = next(
                            (run_set(n, x, size) for x in range(n)
                             if verify(g, run_set(n, x, size), k).valid),
                            None)
                        assert run_scan(g, k, size) == want, (
                            family, n, d, k)

    def test_rejected_hit_raises(self, monkeypatch):
        g = GeneralizedDigraph.debruijn(10, 3)
        assert run_scan(g, 2, 1) is not None
        monkeypatch.setattr(construct, "verify", rejecting_verify)
        with pytest.raises(ConstructionError, match="run scan"):
            run_scan(g, 2, 1)
        with pytest.raises(ConstructionError, match="run scan"):
            classify(g, 2)


def two_run_candidates(n, d, size):
    """The two-run family in its documented order, as (m1, start)."""
    for m1 in range(min(size, 4) + 1):
        m2 = size - m1
        if m2 == 0:  # the prefix alone
            yield m1, None
            continue
        for c in range(2 * d + 5):
            for start in (n - m2 - c, m1 + c):
                if m1 <= start and start + m2 <= n:
                    yield m1, start


class TestTwoRunCover:
    def test_finds_the_first_dominating_candidate(self):
        # the screen, its capacity cut included, against verify on every
        # candidate
        for n in range(3, 51):
            for d in (2, 3, 4):
                if n < d:
                    continue
                g = GeneralizedDigraph.kautz(n, d)
                for k in (1, 2, 3):
                    lower = bounds(g, k).lower
                    for size in (lower, lower + 1):
                        want = None
                        for m1, start in two_run_candidates(n, d, size):
                            mask = run_mask(0, m1, n) if m1 else 0
                            if start is not None:
                                mask |= run_mask(start, size - m1, n)
                            cover = VertexSet(n, mask)
                            if verify(g, cover, k).valid:
                                want = cover
                                break
                        assert two_run_cover(g, k, size) == want, (
                            n, d, k, size)

    def test_rejected_hit_raises(self, monkeypatch):
        g = GeneralizedDigraph.kautz(7, 2)
        assert two_run_cover(g, 2, 2) is not None
        monkeypatch.setattr(construct, "verify", rejecting_verify)
        with pytest.raises(ConstructionError, match="two-run"):
            two_run_cover(g, 2, 2)
        with pytest.raises(ConstructionError, match="two-run"):
            classify(g, 2)  # the cover of size lower+1, after the search


class TestScanStages:
    """The run scan and the two-run scan inside classify."""

    def test_scans_reach_every_order_the_oracle_may_take(self):
        # classify runs the Kautz two-run scan at lower+1 after the oracle
        # without testing n, so no oracle row may lie past the scan ceiling
        assert construct.COVER_SCAN_MAX_N >= DEFAULT_TABLE_CEILING

    def test_scan_rows_match_the_oracle(self, oracle_kernel):
        counts = {"run_scan": 0, "two_run": 0}
        for family in FAMILIES:
            for g in default_envelope(family):
                for k in range(1, 5):
                    result = classify(g, k)
                    # the necessity report reads the gcd condition as this
                    c = result.conditions
                    if "congruence" in c:
                        assert c["congruence"] == (c["gcd_divisibility"]
                                                   or c["gcd_residue"])
                    if result.method in counts:
                        counts[result.method] += 1
                        assert result.nodes == 0
                        assert result.gamma == result.lower
                        assert result.gamma == min_dominating(g, k).gamma
        assert counts == {"run_scan": 10, "two_run": 15}

    def test_necessity_counterexamples_need_no_search(self, monkeypatch):
        report = debruijn_necessity_report(range(2, 61), range(2, 6),
                                           range(1, 5))
        found = [row for row in report["rows"]
                 if row["verdict"] == COUNTEREXAMPLE]
        assert len(found) == 10

        def no_table(*args, **kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(construct, "coverage_table", no_table)
        for row in found:
            result = classify(GeneralizedDigraph.debruijn(row["n"], row["d"]),
                              row["k"])
            assert result.method == "run_scan"
            assert result.gamma == row["gamma"] == result.lower

    def test_plus_one_cover_ends_the_search(self, oracle_kernel,
                                            monkeypatch):
        sizes = []
        search = construct.exists_dominating_of_size

        def recording(g, k, size, **kwargs):
            sizes.append(size)
            return search(g, k, size, **kwargs)

        def no_upward_search(*args, **kwargs):
            raise AssertionError("searched upward from lower+1")

        monkeypatch.setattr(construct, "exists_dominating_of_size",
                            recording)
        monkeypatch.setattr(construct, "min_dominating", no_upward_search)
        for n, d, k in ((7, 2, 2), (13, 2, 3), (25, 3, 2), (56, 2, 2)):
            g = GeneralizedDigraph.kautz(n, d)
            sizes.clear()
            result = classify(g, k)
            assert result.method == "oracle"
            assert sizes == [result.lower]
            assert result.gamma == result.lower + 1
            assert result.gamma == min_dominating(g, k).gamma
            assert result.witness == two_run_cover(g, k, result.gamma)
