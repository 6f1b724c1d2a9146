"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS line with its measured scope.  Stated time budgets are
asserted, not aspirational."""

import json
import random
import time
from collections import defaultdict

from conftest import power_sum_run
from test_cli import run_cli

from dbkdom.construct import (build_anchor_run, build_lower_prefix,
                              build_prefix_cover, build_window_run,
                              congruence_witness, prefix_condition,
                              remainder_window)
from dbkdom.cli import debruijn_necessity_report, kautz_upper_report
from dbkdom.digraph import (FAMILIES, GeneralizedDigraph, VertexSet,
                            run_image, set_out_neighborhood)
from dbkdom.domination import bounds, verify
from dbkdom.modular import (ceil_div, geometric_sum, run_mask,
                            solve_linear_congruence)
from dbkdom.oracle import ABSENT, exists_dominating_of_size, min_dominating


def test_acceptance_1_headline_debruijn_instance():
    started = time.perf_counter()
    code, out, _ = run_cli("gamma", "--family", "debruijn",
                           "-n", "40", "-d", "3", "-k", "3",
                           "--format", "json")
    row = json.loads(out)
    assert code == 0
    assert row["gamma"] == 2
    assert row["lower"] == 1 and row["upper"] == 2
    assert row["conditions"] and not any(row["conditions"].values())
    assert solve_linear_congruence(2, 1, 40) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: gamma debruijn 40 3 3 == 2 with no sufficient "
          f"condition firing ({elapsed:.3f}s): PASS")


def test_acceptance_2_headline_kautz_instance():
    started = time.perf_counter()
    code, out, _ = run_cli("gamma", "--family", "kautz",
                           "-n", "7", "-d", "2", "-k", "2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["gamma"] == 2
    g = GeneralizedDigraph.kautz(7, 2)
    assert exists_dominating_of_size(g, 2, 1).status == ABSENT
    assert verify(g, VertexSet.from_members(7, [0, 1]), 2).valid
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2: gamma kautz 7 2 2 == 2, no 1-set dominates, "
          f"{{0,1}} verifies ({elapsed:.3f}s): PASS")


def test_acceptance_3_kautz_radius_one_closed_form_sweep():
    started = time.perf_counter()
    checked = 0
    for d in range(2, 6):
        for n in range(3, 61):
            if n < d:
                continue
            g = GeneralizedDigraph.kautz(n, d)
            assert min_dominating(g, 1).gamma == ceil_div(n, d + 1), (n, d)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3: oracle matches ceil(n/(d+1)) on {checked} kautz "
          f"radius-1 instances, zero exceptions ({elapsed:.2f}s): PASS")


def test_acceptance_4_debruijn_two_value_sweep():
    started = time.perf_counter()
    at_lower = at_upper = 0
    for n in range(2, 61):
        for d in range(2, 6):
            if n < d:
                continue
            for k in range(1, 5):
                g = GeneralizedDigraph.debruijn(n, d)
                lower = ceil_div(n, geometric_sum(d, k))
                gamma = min_dominating(g, k).gamma
                assert gamma in (lower, lower + 1), (n, d, k, gamma)
                if gamma == lower:
                    at_lower += 1
                else:
                    at_upper += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"ACCEPTANCE 4: debruijn gamma is lower or lower+1 on "
          f"{at_lower + at_upper} instances ({at_lower} at lower, "
          f"{at_upper} one above, {elapsed:.2f}s): PASS")


def test_acceptance_5_degree_power_spot_checks():
    started = time.perf_counter()
    # n = 16 = 2**4 at radius 2 and n = 27 = 3**3 at radius 1
    assert min_dominating(GeneralizedDigraph.debruijn(16, 2), 2).gamma \
        == ceil_div(16, geometric_sum(2, 2)) == 3
    assert min_dominating(GeneralizedDigraph.debruijn(27, 3), 1).gamma \
        == ceil_div(27, geometric_sum(3, 1)) == 7
    for (d, m, k) in ((2, 4, 2), (3, 3, 1)):
        gamma, members = power_sum_run(d, m, k)
        witness = VertexSet.from_members(d ** m, members)
        assert gamma == ceil_div(d ** m, geometric_sum(d, k))
        cert = verify(GeneralizedDigraph.debruijn(d ** m, d), witness, k)
        assert cert.valid and len(witness) == gamma
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5: gamma_2 of B(2,4) = 3 and gamma_1 of B(3,3) = 7 "
          f"by search, power-sum witnesses verify ({elapsed:.2f}s): PASS")


def _random_instance(rng):
    d = rng.randint(2, 5)
    k = rng.randint(1, 4)
    return rng.randint(d, 4000), d, k


def test_acceptance_6_construction_validity_randomized():
    rng = random.Random(20260815)
    target, cap = 1000, 200000

    def sample(family, condition):
        found = []
        for _ in range(cap):
            n, d, k = _random_instance(rng)
            g = GeneralizedDigraph(family=family, n=n, d=d)
            if condition(g, k):
                found.append((g, k))
                if len(found) == target:
                    return found
        raise AssertionError("sampling cap reached before 1000 instances")

    def check(instances, builder, expect_size):
        for g, k in instances:
            dset = builder(g, k)
            assert verify(g, dset, k).valid, (g, k)
            assert len(dset) == expect_size(g.n, g.d, k), (g, k)

    lower = lambda n, d, k: ceil_div(n, geometric_sum(d, k))

    everything = lambda g, k: True
    check(sample("debruijn", everything), build_anchor_run,
          lambda n, d, k: min(n, lower(n, d, k) + 1))
    check(sample("debruijn",
                 lambda g, k: congruence_witness(g, k) is not None),
          congruence_witness, lower)
    check(sample("debruijn", remainder_window), build_window_run, lower)
    check(sample("kautz", everything), build_prefix_cover,
          lambda n, d, k: ceil_div(n, d ** k + d ** (k - 1)))
    check(sample("kautz", prefix_condition), build_lower_prefix, lower)
    print("ACCEPTANCE 6: five constructions each verified on 1000 "
          "randomized instances, zero failures: PASS")


def test_acceptance_7_closed_form_matches_reference_expansion():
    started = time.perf_counter()
    pairs = 0
    for family in sorted(FAMILIES):
        for n in range(2, 61):
            for d in range(2, 6):
                if n < d:
                    continue
                g = GeneralizedDigraph(family=family, n=n, d=d)
                # reference: iterated one-step set images of each singleton
                layers = [[1 << v for v in range(n)]]
                for _ in range(5):
                    layers.append(
                        [set_out_neighborhood(g, VertexSet(n, m)).mask
                         for m in layers[-1]])
                # closed form: the i-th image of each run, one step a pass
                images = {(s, length): (s, length) for s in range(n)
                          for length in range(1, n + 1)}
                for i in range(6):
                    masks = layers[i]
                    for s in range(n):
                        union = 0
                        for length in range(1, n + 1):
                            union |= masks[(s + length - 1) % n]
                            image = images[s, length]
                            assert run_mask(*image, n) == union, \
                                (family, n, d, i, s, length)
                            images[s, length] = run_image(g, *image)
                            pairs += 1
                if n > 14:
                    continue
                # same claim without the union-of-singletons shortcut:
                # expand the run itself one step at a time
                for s in range(n):
                    for length in range(1, n + 1):
                        closed = (s, length)
                        expanded = VertexSet(n, run_mask(s, length, n))
                        for i in range(6):
                            assert run_mask(*closed, n) == expanded.mask, \
                                (family, n, d, i, s, length)
                            expanded = set_out_neighborhood(g, expanded)
                            closed = run_image(g, *closed)
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 7: closed-form interval image equals iterated "
          f"expansion on {pairs} (run, i) pairs, zero mismatches; "
          f"confirmed convention: one step maps a run [a..b] to the run "
          f"of length min(n, d*len) starting at d*a (debruijn) or at "
          f"-d*b-d (kautz), and the i-fold image is that rule composed "
          f"i times ({elapsed:.1f}s): PASS")


def test_acceptance_8_congruence_solver_exhaustive():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 101):
        buckets = defaultdict(list)
        for a in range(n):
            for x in range(n):
                buckets[(a, a * x % n)].append(x)
        for a in range(n):
            for b in range(n):
                assert solve_linear_congruence(a, b, n) == \
                    buckets.get((a, b), []), (a, b, n)
                checked += 1
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 8: congruence solver equals brute scan on {checked} "
          f"(a, b, n) triples ({elapsed:.1f}s): PASS")


def test_acceptance_9_problem_reports_sound():
    ns, ds, ks = list(range(2, 61)), list(range(2, 6)), list(range(1, 5))
    necessity = debruijn_necessity_report(ns, ds, ks)
    upper = kautz_upper_report(ns, ds, ks)
    hits = {"debruijn-necessity": 0, "kautz-upper": 0}
    for report in (necessity, upper):
        assert report["counts"]["inconclusive"] == 0
        for row in report["rows"]:
            if row["k"] == 1:
                assert row["verdict"] == "consistent", row
            if row["verdict"] != "counterexample":
                continue
            hits[report["problem"]] += 1
            assert row["condition"] is False, row
            cert = row["certificate"]
            g = GeneralizedDigraph(family=row["family"], n=row["n"],
                                   d=row["d"])
            dset = VertexSet.from_members(row["n"], cert["set"])
            assert verify(g, dset, row["k"]).valid, row
            if report["problem"] == "debruijn-necessity":
                assert len(dset) == row["gamma"] == row["lower"], row
            else:
                assert len(dset) == row["gamma"] < row["upper"], row
                # exactness: nothing smaller exists
                got = min_dominating(g, row["k"])
                assert got.gamma == row["gamma"], row
    print(f"ACCEPTANCE 9: problem reports carry zero false counterexample "
          f"rows over the desk envelope ({hits['debruijn-necessity']} "
          f"verified debruijn hits, {hits['kautz-upper']} verified kautz "
          f"hits, radius-1 slices fully consistent): PASS")
