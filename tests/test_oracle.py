"""Exhaustive search oracle: tables, fixed-size decisions, minimums."""

import hashlib
import json
import os
from functools import reduce
from operator import or_

import pytest

from conftest import (build_kernel, naive_ball, naive_gamma,
                      naive_is_dominating, naive_out_neighbors)
from kernel_reference import ReferenceTable
from dbkdom import _cover_py
from dbkdom.cli import classify_row
from dbkdom.digraph import FAMILIES, GeneralizedDigraph
from dbkdom.domination import bounds, verify
from dbkdom.modular import ceil_div, geometric_sum
from dbkdom.oracle import (ABSENT, DEFAULT_TABLE_CEILING, FOUND,
                           INCONCLUSIVE, OracleLimits, coverage_table,
                           exists_dominating_of_size, kernel_backend,
                           min_dominating)


def reference_coverers(f: int, n: int, d: int, radii: int):
    """The ReferenceTable coverer lists of radius 0, 1, ..., radii-1.

    A vertex within k+1 steps of v is v or within k steps of an
    out-neighbour of v; once that step turns every ball into the whole
    ring, every later coverer list is every vertex, and no table is built.
    """
    family = ("debruijn", "kautz")[f]
    full = (1 << n) - 1
    for k in range(radii):
        ref = ReferenceTable(f, n, d, k)
        yield ref.coverers
        if all(reduce(or_, (ref.balls[u] for u in
                            naive_out_neighbors(family, n, d, v)), 1 << v)
               == full for v in range(n)):
            for _ in range(k + 1, radii):
                yield [list(range(n))] * n
            return


def small_searches(most: int = 400):
    """Each TestKernelParity.GRID table with the sizes 0..min(n, 8) whose
    reference search takes at most ``most`` nodes with no budget:
    ((f, n, d, k), reference table, sizes), tables with no such size left
    out.  The reference, not a kernel under test, picks the sizes, so a
    kernel that miscounts fails rather than drops a search."""
    for f, n, d, k in TestKernelParity.GRID:
        ref = ReferenceTable(f, n, d, k)
        sizes = [size for size in range(min(n, 8) + 1)
                 if ref.search(size, most)[0] != _cover_py.INCONCLUSIVE]
        if sizes:
            yield (f, n, d, k), ref, sizes


# Kautz 55/2/2 at size 8, absent after 670 nodes, in small_searches' form:
# budget 669 cuts it at a root leaf counted at the root's loop end, which
# no search of at most 400 nodes does
ROOT_LOOP_END_SEARCH = ((1, 55, 2, 2), ReferenceTable(1, 55, 2, 2), [8])


def cut_kinds(log: list, budget: int) -> set[str]:
    """Where ``budget`` cuts a search, read off the reference log of the
    search with no budget: the kinds of node ``budget``, the first one the
    budget does not allow.  A leaf is a child that fails the counting
    bound; the kernels count it only at a later sibling that passes the
    bound or at its loop's end.  The root's children (parent 0) get the
    same kinds as any other node's, marked "root"."""
    parent, _, passes = log[budget]
    if parent < 0:
        return {"root"}
    if parent > 0 and log[parent][1] == 1:
        return {"last pick"}
    if passes:
        kinds = {"passing"}
    else:
        siblings = [i for i, entry in enumerate(log) if entry[0] == parent]
        kinds = {"leaf"}
        if any(log[i][2] for i in siblings if i < budget):
            kinds.add("after subtree")
        if not any(log[i][2] for i in siblings if i > budget):
            kinds.add("loop end")
    return {f"root {kind}" for kind in kinds} if parent == 0 else kinds


def ball_members(table, v: int) -> list[int]:
    mask = table.ball_mask(v)
    return [u for u in range(table.n) if (mask >> u) & 1]


class TestCoverageTable:
    def test_balls_match_reference(self):
        for family in sorted(FAMILIES):
            for (n, d) in ((7, 2), (12, 3), (9, 2), (5, 5)):
                for k in (0, 1, 2, 3):
                    g = GeneralizedDigraph(family=family, n=n, d=d)
                    table = coverage_table(g, k)
                    for v in range(n):
                        assert set(ball_members(table, v)) == \
                            naive_ball(family, n, d, {v}, k)

    def test_radius_zero_balls_are_singletons(self):
        table = coverage_table(GeneralizedDigraph.debruijn(11, 2), 0)
        for v in range(11):
            assert ball_members(table, v) == [v]

    def test_no_full_ball_on_headline_instances(self):
        table = coverage_table(GeneralizedDigraph.debruijn(40, 3), 3)
        assert all(table.ball_mask(v).bit_count() < 40 for v in range(40))
        table = coverage_table(GeneralizedDigraph.kautz(7, 2), 2)
        assert all(table.ball_mask(v).bit_count() < 7 for v in range(7))

    def test_ball_size_upper_limit(self):
        for k in (1, 2, 3):
            g = GeneralizedDigraph.kautz(50, 3)
            table = coverage_table(g, k)
            cap = min(50, geometric_sum(3, k))
            assert table.max_ball <= cap
            for v in range(50):
                assert (table.ball_mask(v) >> v) & 1

    def test_ceiling_refused(self):
        with pytest.raises(ValueError):
            coverage_table(GeneralizedDigraph.debruijn(6000, 2), 1)

    def test_negative_radius_refused(self):
        with pytest.raises(ValueError):
            coverage_table(GeneralizedDigraph.debruijn(6, 2), -1)


class TestExistsDominatingOfSize:
    def test_headline_decisions(self):
        gb = GeneralizedDigraph.debruijn(40, 3)
        assert exists_dominating_of_size(gb, 3, 1).status == ABSENT
        found = exists_dominating_of_size(gb, 3, 2)
        assert found.status == FOUND
        assert found.witness.members() == [0, 1]
        gk = GeneralizedDigraph.kautz(7, 2)
        assert exists_dominating_of_size(gk, 2, 1).status == ABSENT

    def test_witnesses_always_verify(self):
        for family in sorted(FAMILIES):
            for n in range(2, 25):
                for d in (2, 3):
                    if n < d:
                        continue
                    g = GeneralizedDigraph(family=family, n=n, d=d)
                    for k in (1, 2):
                        lower = bounds(g, k).lower
                        result = exists_dominating_of_size(g, k, lower)
                        if result.status == FOUND:
                            assert verify(g, result.witness, k).valid
                            assert len(result.witness) == lower

    def test_deterministic_witness_and_node_count(self):
        g = GeneralizedDigraph.kautz(31, 2)
        a = exists_dominating_of_size(g, 2, 5)
        b = exists_dominating_of_size(g, 2, 5)
        assert a == b

    def test_budget_abort_is_inconclusive(self):
        g = GeneralizedDigraph.kautz(7, 2)
        result = exists_dominating_of_size(g, 2, 2, max_nodes=1)
        assert result.status == INCONCLUSIVE
        assert result.witness is None
        # same search unbudgeted succeeds
        assert exists_dominating_of_size(g, 2, 2).status == FOUND

    def test_table_instance_mismatch_rejected(self):
        g = GeneralizedDigraph.debruijn(10, 2)
        for other in (GeneralizedDigraph.debruijn(11, 2),
                      GeneralizedDigraph.debruijn(10, 3),
                      GeneralizedDigraph.kautz(10, 2)):
            with pytest.raises(ValueError):
                exists_dominating_of_size(g, 2, 1,
                                          table=coverage_table(other, 2))
        wrong_k = coverage_table(g, 1)
        with pytest.raises(ValueError):
            exists_dominating_of_size(g, 2, 1, table=wrong_k)
        assert exists_dominating_of_size(
            g, 2, 3, table=coverage_table(g, 2)).status == FOUND


class TestMinDominating:
    def test_headline_minimums(self):
        r = min_dominating(GeneralizedDigraph.debruijn(40, 3), 3)
        assert (r.status, r.gamma) == (FOUND, 2)
        r = min_dominating(GeneralizedDigraph.kautz(7, 2), 2)
        assert (r.status, r.gamma) == (FOUND, 2)
        assert r.witness.members() == [0, 1]
        r = min_dominating(GeneralizedDigraph.debruijn(7, 2), 2)
        assert (r.gamma, r.witness.members()) == (1, [1])

    def test_matches_subset_enumeration(self):
        # raw combinations as ground truth for the branch and bound
        for family in sorted(FAMILIES):
            for n in range(2, 14):
                for d in (2, 3):
                    if n < d:
                        continue
                    for k in (1, 2, 3):
                        g = GeneralizedDigraph(family=family, n=n, d=d)
                        got = min_dominating(g, k)
                        assert got.status == FOUND
                        assert got.gamma == naive_gamma(family, n, d, k), \
                            (family, n, d, k)
                        assert naive_is_dominating(
                            family, n, d, got.witness.members(), k)

    def test_gamma_nonincreasing_in_radius(self):
        for family in sorted(FAMILIES):
            for (n, d) in ((29, 2), (40, 3), (33, 4)):
                g = GeneralizedDigraph(family=family, n=n, d=d)
                values = [min_dominating(g, k).gamma for k in range(1, 6)]
                assert values == sorted(values, reverse=True)

    def test_bounds_sandwich(self):
        for family in sorted(FAMILIES):
            for n in range(2, 45):
                for d in (2, 3, 4):
                    if n < d:
                        continue
                    for k in (1, 2, 3):
                        g = GeneralizedDigraph(family=family, n=n, d=d)
                        b = bounds(g, k)
                        gamma = min_dominating(g, k).gamma
                        # the Tian-Xu bound ceil(n / d**k)
                        assert b.lower <= gamma <= ceil_div(n, d ** k)
                        assert gamma <= b.upper

    def test_fired_conditions_imply_lower_is_attained(self):
        # whenever classify's arithmetic settles an instance at the lower
        # bound, independent search agrees
        from dbkdom.construct import congruence_witness, prefix_condition
        for n in range(2, 61):
            for d in (2, 3, 4, 5):
                if n < d:
                    continue
                for k in (1, 2, 3, 4):
                    g = GeneralizedDigraph.debruijn(n, d)
                    if congruence_witness(g, k) is not None:
                        assert min_dominating(g, k).gamma == \
                            bounds(g, k).lower
                    gk = GeneralizedDigraph.kautz(n, d)
                    if prefix_condition(gk, k):
                        assert min_dominating(gk, k).gamma == \
                            bounds(gk, k).lower

    def test_start_skips_the_sizes_below_it(self):
        g = GeneralizedDigraph.kautz(56, 2)
        full = min_dominating(g, 2)
        lower = bounds(g, 2).lower
        assert full.gamma == lower + 1
        rest = min_dominating(g, 2, start=lower + 1)
        absent = exists_dominating_of_size(g, 2, lower)
        assert absent.status == ABSENT
        assert (rest.status, rest.witness) == (full.status, full.witness)
        assert rest.nodes + absent.nodes == full.nodes

    def test_inconclusive_propagates(self):
        r = min_dominating(GeneralizedDigraph.kautz(7, 2), 2, max_nodes=1)
        assert r.status == INCONCLUSIVE
        assert r.gamma is None and r.witness is None

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            min_dominating(GeneralizedDigraph.debruijn(9, 2), 0)


class TestKernelParity:
    """The pure and compiled kernels return identical tables and identical
    (status, witness, nodes) for every search, node counts included."""

    # n = 63..129 span one to three 64-bit words in the compiled bitsets
    GRID = [(f, n, d, k)
            for f in (0, 1)
            for n in (2, 3, 7, 12, 23, 31, 40, 55, 63, 64, 65, 129)
            for d in (2, 3, 5)
            for k in (1, 2, 3)
            if n >= d]

    # tables only: multi-word bitsets past three words, wrap-around layer
    # runs, and balls of up to 18 layer runs (d = 2, k = 8 and 10)
    LARGE = [(f, n, d, k)
             for f in (0, 1)
             for n, d, k in ((1000, 2, 2), (1000, 5, 4), (5000, 2, 2),
                             (5000, 5, 4), (400, 2, 8), (1000, 2, 10))]

    def test_tables_identical(self, compiled):
        for f, n, d, k in self.GRID + self.LARGE:
            pure = _cover_py.KernelTable(f, n, d, k)
            fast = compiled.KernelTable(f, n, d, k)
            assert pure.max_ball == fast.max_ball
            for v in range(n):
                assert pure.ball_mask(v) == fast.ball_mask(v), (f, n, d, k, v)
                assert pure.coverer_list(v) == list(fast.coverer_list(v))

    def test_searches_identical(self, compiled):
        for f, n, d, k in self.GRID:
            pure = _cover_py.KernelTable(f, n, d, k)
            fast = compiled.KernelTable(f, n, d, k)
            cap = min(n, 8)
            for size in range(cap + 1):
                # 2 and 3 run out inside a last pick, 3 after trying two
                # children there (de Bruijn 12/2/2 size 2)
                for budget in (None, 1, 2, 3, 50):
                    ps, pw, pn = pure.search(size, budget)
                    fs, fw, fn = fast.search(size, budget)
                    assert (ps, pn) == (fs, fn), (f, n, d, k, size, budget)
                    assert (pw is None) == (fw is None)
                    if pw is not None:
                        assert list(pw) == list(fw)

    def test_every_budget_identical(self, compiled):
        # every budget of each small search, up to one past its nodes: the
        # budget is settled where each kernel settles its node count
        for (f, n, d, k), ref, sizes in [*small_searches(),
                                         ROOT_LOOP_END_SEARCH]:
            pure = _cover_py.KernelTable(f, n, d, k)
            fast = compiled.KernelTable(f, n, d, k)
            for size in sizes:
                for budget in range(ref.search(size)[2] + 2):
                    assert fast.search(size, budget) == \
                        pure.search(size, budget), (f, n, d, k, size, budget)

    # rows of 8 and 16 words, searches led by the root and the last picks
    WIDE = [((1, 500, 2, 6), 5, 52_273), ((0, 1000, 3, 5), 4, 2_269)]

    @pytest.mark.parametrize("table, size, nodes", WIDE)
    def test_wide_row_searches_identical(self, compiled, table, size, nodes):
        pure = _cover_py.KernelTable(*table)
        fast = compiled.KernelTable(*table)
        status, _, searched = pure.search(size)
        assert (status, searched) == (_cover_py.FOUND, nodes)
        for budget in (None, 0, 1, 2, 1000, nodes - 1, nodes):
            assert fast.search(size, budget) == pure.search(size, budget), \
                (table, size, budget)

    def test_budgeted_searches_identical(self, compiled):
        for budget in (1, 2, 5, 50, 1000):
            pure = _cover_py.KernelTable(1, 31, 2, 2)
            fast = compiled.KernelTable(1, 31, 2, 2)
            ps, pw, pn = pure.search(5, budget)
            fs, fw, fn = fast.search(5, budget)
            assert (ps, pn) == (fs, fn)
            if pw is not None:
                assert list(pw) == list(fw)

    def test_classify_identical(self, compiled, monkeypatch):
        # tier-1 runs from a checkout with no built extension, where
        # classify would otherwise only ever see the pure kernel
        from dbkdom import oracle
        from dbkdom.construct import classify

        def rows(module):
            monkeypatch.setattr(oracle, "_kernel", module)
            return [classify(GeneralizedDigraph(family=family, n=n, d=d), k,
                             OracleLimits(max_nodes=budget)).to_dict()
                    for budget in (None, 50)
                    for family in sorted(FAMILIES)
                    for n in range(2, 41) for d in (2, 3) if n >= d
                    for k in (1, 2, 3)]

        pure = rows(_cover_py)
        assert rows(compiled) == pure
        methods = {row["method"] for row in pure}
        assert {"oracle", "inconclusive", "run_scan"} <= methods
        # a row's nodes are its searches' nodes, so 0 exactly when none ran
        for row in pure:
            searched = row["method"] in ("oracle", "inconclusive")
            assert (row["nodes"] > 0) == searched, row

    def test_capped_rows_pinned(self, oracle_kernel):
        # `sweep --family both -n 161..169 -d 2..3 -k 2 --oracle-budget
        # 20000 --format json`, ms dropped: 18 of its 36 rows are deep
        # searches cut by the budget, so every node skip by the covered
        # count runs there, and the pin holds their nodes too
        rows = [classify_row(family, n, d, 2, OracleLimits(max_nodes=20_000))
                for family in sorted(FAMILIES)
                for n in range(161, 170) for d in (2, 3)]
        assert sum(row["method"] == "inconclusive" for row in rows) == 18
        for row in rows:
            del row["ms"]
        text = "".join(json.dumps(row) + "\n" for row in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e01de291a518cedddba18a3b8bd682a61f6cec1fbab1493a98cf10164243e4e2")

    @pytest.mark.parametrize("args", [(0, 3, 5, 1), (1, 2, 4000, 1)])
    def test_degree_above_order_rejected(self, kernel, args):
        with pytest.raises(ValueError, match="d <= n"):
            kernel.KernelTable(*args)

    def test_degree_one_rejected(self, kernel):
        # as GeneralizedDigraph: a d = 1 layer run never grows, so the walk
        # would take k + 1 steps per vertex
        with pytest.raises(ValueError, match="d >= 2"):
            kernel.KernelTable(0, 10, 1, 10**7)

    @pytest.mark.parametrize("f", [0, 1])
    @pytest.mark.parametrize("n, d", [(129, 2), (1000, 3), (64, 64)])
    def test_largest_radius_tables_identical(self, compiled, f, n, d):
        # k = 2**31 - 1 is the largest radius the compiled kernel parses;
        # the walk stops at the first layer of n vertices, so both kernels
        # build at once and every ball is the whole ring
        k = 2**31 - 1
        pure = _cover_py.KernelTable(f, n, d, k)
        fast = compiled.KernelTable(f, n, d, k)
        assert pure.max_ball == fast.max_ball == n
        for v in range(n):
            assert pure.ball_mask(v) == fast.ball_mask(v) == (1 << n) - 1
            assert pure.coverer_list(v) == list(fast.coverer_list(v)) \
                == list(range(n))

    @pytest.mark.parametrize("budget", [2**70, -2**70])
    def test_budget_past_64_bits_is_no_budget(self, kernel, budget):
        # above 2**63 nodes the count is never reached; a negative budget
        # is no budget
        table = kernel.KernelTable(1, 31, 2, 2)
        for size in (4, 5):
            assert table.search(size, budget) == table.search(size, None)

    def test_vertex_out_of_range_rejected(self, kernel):
        table = kernel.KernelTable(0, 10, 2, 1)
        for v in (-1, 10, -2**70, 2**70):
            with pytest.raises(ValueError, match="out of range"):
                table.ball_mask(v)
            with pytest.raises(ValueError, match="out of range"):
                table.coverer_list(v)


class TestPureKernelReference:
    """The pure kernel against the test-only reference in kernel_reference:
    same tables, same (status, witness, nodes).  Needs no compiler, so a
    node-order slip in the pure kernel shows even where the compiled
    parity tests skip."""

    @staticmethod
    def assert_tables_equal(f, n, d, k):
        pure = _cover_py.KernelTable(f, n, d, k)
        ref = ReferenceTable(f, n, d, k)
        assert pure.max_ball == ref.max_ball, (f, n, d, k)
        assert pure.balls == ref.balls, (f, n, d, k)
        assert [pure.coverer_list(v) for v in range(n)] == ref.coverers, \
            (f, n, d, k)

    def test_tables_match(self):
        for f, n, d, k in TestKernelParity.GRID:
            self.assert_tables_equal(f, n, d, k)

    @pytest.mark.parametrize("f", [0, 1])
    def test_columns_match(self, f):
        # the coverer lists' closed form, at every order below 120 and at
        # radii past d**k >= n, where a layer is the whole ring
        for n in range(1, 120):
            for d in range(2, min(n, 6) + 1):
                for k, coverers in enumerate(reference_coverers(f, n, d, 6)):
                    pure = _cover_py.KernelTable(f, n, d, k)
                    assert [pure.coverer_list(y) for y in range(n)] == \
                        coverers, (f, n, d, k)

    def test_root_decided_search_builds_no_column(self):
        # coverer lists are built when a search first reads them, and a
        # search the counting bound decides at the root reads none and
        # builds no root bans; the first search past the root builds them,
        # and later searches reuse them
        pure = _cover_py.KernelTable(0, 110, 3, 3)
        assert 2 * pure.max_ball < 110
        assert pure.search(2) == (_cover_py.ABSENT, None, 1)
        assert pure._columns == pure._masks == [None] * 110
        assert pure._root is None
        assert pure.search(4)[0] == _cover_py.FOUND
        assert any(column is not None for column in pure._columns)
        assert any(mask is not None for mask in pure._masks)
        root = pure._root
        bits, skipped, bans = root
        assert bits == [1 << u for u in range(110)]
        # the coverers of 0, split into the root's bans and its children
        assert skipped & sum(bits[u] for u in bans) == 0
        assert skipped | sum(bits[u] for u in bans) == pure._masks[0]
        assert pure.search(5)[0] == _cover_py.FOUND
        assert pure._root is root

    def test_masks_are_coverer_lists(self):
        # a search builds the coverer mask of each vertex it branches on,
        # the OR of its coverer list's bits; coverer_list builds none
        built = 0
        for f, n, d, k in TestKernelParity.GRID:
            pure = _cover_py.KernelTable(f, n, d, k)
            lists = [pure.coverer_list(v) for v in range(n)]
            assert pure._masks == [None] * n
            for size in range(min(n, 8) + 1):
                pure.search(size, 200)
            for v, mask in enumerate(pure._masks):
                if mask is not None:
                    assert mask == reduce(or_, (1 << u for u in lists[v])), \
                        (f, n, d, k, v)
                    built += 1
        assert built > 0

    def test_highs_are_coverers_with_their_balls_from_v_up(self):
        # a search builds, for each vertex v it branches on, v's coverers u
        # with h, the size of ball(u) from v up; a search the counting bound
        # decides at the root builds none
        built = 0
        for f, n, d, k in TestKernelParity.GRID:
            pure = _cover_py.KernelTable(f, n, d, k)
            ref = ReferenceTable(f, n, d, k)
            if pure.max_ball < n:
                assert pure.search(1) == (_cover_py.ABSENT, None, 1)
                assert pure._highs == [None] * n
            for size in range(min(n, 8) + 1):
                pure.search(size, 200)
            for v, pairs in enumerate(pure._highs):
                if pairs is not None:
                    assert pairs == [(u, (ref.balls[u] >> v).bit_count())
                                     for u in ref.coverers[v]], (f, n, d, k, v)
                    built += 1
        assert built > 0

    @pytest.mark.parametrize("f", [0, 1])
    @pytest.mark.parametrize("n", [1000, 5000])
    @pytest.mark.parametrize("d, k", [(2, 2), (5, 4)])
    def test_large_tables_match(self, f, n, d, k):
        self.assert_tables_equal(f, n, d, k)

    def test_every_budget_matches(self):
        # every budget of each small search, up to one past its nodes,
        # cuts at the reference's node, wherever the cut falls: the pure
        # kernel counts a leaf only at a later sibling that passes the
        # counting bound or at its loop's end, the root's children included,
        # and a last pick's children only when one covers the rest
        cuts = set()
        for (f, n, d, k), ref, sizes in [*small_searches(),
                                         ROOT_LOOP_END_SEARCH]:
            pure = _cover_py.KernelTable(f, n, d, k)
            for size in sizes:
                log: list = []
                nodes = ref.search(size, log=log)[2]
                for budget in range(nodes + 2):
                    assert pure.search(size, budget) == \
                        ref.search(size, budget), (f, n, d, k, size, budget)
                cuts.update(kind for budget in range(nodes)
                            for kind in cut_kinds(log, budget))
        assert {"root passing", "root leaf", "root loop end", "passing",
                "last pick", "after subtree", "loop end"} <= cuts, cuts

    def test_searches_match(self):
        # sizes around the lower bound, where the oracle searches; an
        # unlimited search at n = 129 can take minutes, so there the largest
        # budget is the benchmark's 20,000 nodes
        searches = 0
        for f, n, d, k in TestKernelParity.GRID:
            pure = _cover_py.KernelTable(f, n, d, k)
            ref = ReferenceTable(f, n, d, k)
            lower = ceil_div(n, geometric_sum(d, k))
            widest = None if n <= 65 else 20_000
            for size in range(max(0, lower - 1), lower + 3):
                for budget in (widest, 0, 1, 2, 3, 50):
                    assert pure.search(size, budget) == \
                        ref.search(size, budget), (f, n, d, k, size, budget)
                    searches += 1
        assert searches == 4752


class TestPrunings:
    """The search's two prunings, root reflection and the last-pick test,
    against what they rest on and what they must keep."""

    def test_mirror_ball_is_bit_reversal(self, kernel):
        # x -> n-1-x maps ball(v) onto ball(n-1-v), which root reflection
        # relies on
        for f, n, d, k in TestKernelParity.GRID:
            table = kernel.KernelTable(f, n, d, k)
            for v in range(n):
                reversed_bits = format(table.ball_mask(v), f"0{n}b")[::-1]
                assert table.ball_mask(n - 1 - v) == int(reversed_bits, 2), \
                    (f, n, d, k, v)

    def test_decided_searches_keep_witness(self, kernel):
        # wherever the unpruned search decides, the pruned kernels return
        # its (status, witness) with no more nodes; some searches the
        # unpruned one leaves capped now decide
        newly_decided = 0
        for f, n, d, k in TestKernelParity.GRID:
            table = kernel.KernelTable(f, n, d, k)
            ref = ReferenceTable(f, n, d, k)
            lower = ceil_div(n, geometric_sum(d, k))
            widest = None if n <= 65 else 20_000
            for size in range(max(0, lower - 1), lower + 3):
                for budget in (widest, 0, 1, 2, 50):
                    status, witness, nodes = table.search(size, budget)
                    want = ref.search(size, budget, pruned=False)
                    if want[0] == _cover_py.INCONCLUSIVE:
                        newly_decided += status != _cover_py.INCONCLUSIVE
                        continue
                    case = (f, n, d, k, size, budget)
                    assert (status, witness) == want[:2], case
                    assert nodes <= want[2], case
        assert newly_decided > 0


class TestBackendSelection:
    def test_backend_reported(self):
        assert kernel_backend() in ("pure", "compiled")

    @pytest.mark.skipif(os.name != "posix",
                        reason="CC is read as a compiler path on posix")
    def test_build_without_compiler_succeeds(self, tmp_path):
        # the compiled kernel is optional: a build whose compiler is
        # missing still succeeds, with no module, so the pure kernel runs
        build, path = build_kernel(
            tmp_path, env=dict(os.environ, CC=str(tmp_path / "no-such-cc")))
        assert build.returncode == 0, build.stdout + build.stderr
        assert not path.exists()


class TestOracleLimits:
    def test_max_n_above_table_ceiling_rejected(self):
        # coverage_table refuses larger orders, so such a limit would only
        # fail mid-row, inside classify
        with pytest.raises(ValueError, match=str(DEFAULT_TABLE_CEILING)):
            OracleLimits(max_n=DEFAULT_TABLE_CEILING + 1)
        assert OracleLimits(max_n=DEFAULT_TABLE_CEILING).allows(
            DEFAULT_TABLE_CEILING)

    @pytest.mark.parametrize("key", ["max_nodes", "max_n"])
    def test_negative_limit_rejected(self, key):
        # a negative budget used to switch the oracle off without a word,
        # while the kernels read one as no budget at all
        with pytest.raises(ValueError, match=key):
            OracleLimits(**{key: -5})
        assert not OracleLimits(max_nodes=0).allows(1)
        assert OracleLimits(max_nodes=None).allows(1)
