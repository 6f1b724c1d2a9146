"""Empirical reports on the paper's two open problems, read off ``classify``.

* debruijn-necessity: does attaining the lower bound imply that a gcd
  condition fires?
* kautz-upper: do Kautz instances missed by the prefix condition always
  attain the ceil(n / (d**k + d**(k-1))) upper value?

Both are one rule: an instance is a counterexample when its condition did
not fire and its exact value is below ``upper``.  For de Bruijn, whose
value is L or L+1 = ``upper``, that means it attains L.  Each report
classifies every instance of its envelope once, so the reports decide
nothing ``classify`` does not.  A counterexample carries the certificate
of its verified witness; an instance whose exact value is out of reach is
inconclusive, never support.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial

from .construct import classify
from .digraph import DEBRUIJN, KAUTZ, GeneralizedDigraph
from .oracle import DEFAULT_LIMITS, OracleLimits

PROBLEM_DEBRUIJN = "debruijn-necessity"
PROBLEM_KAUTZ = "kautz-upper"

CONSISTENT = "consistent"
COUNTEREXAMPLE = "counterexample"
INCONCLUSIVE_VERDICT = "inconclusive"

# problem: (family, the bound its rows show, condition key, question).
# "congruence" is the de Bruijn gcd condition: divisibility or residue.
_TABLE = {
    PROBLEM_DEBRUIJN: (DEBRUIJN, "lower", "congruence",
                       "does attaining the lower bound imply the gcd "
                       "condition fires?"),
    PROBLEM_KAUTZ: (KAUTZ, "upper", "prefix_cover",
                    "do instances that miss the prefix condition always "
                    "attain ceil(n / (d**k + d**(k-1)))?"),
}
PROBLEMS = tuple(_TABLE)


def instances(families: tuple[str, ...], ns: Sequence[int],
              ds: Sequence[int], ks: Sequence[int]):
    """The (family, n, d, k) instances of the grid in lexicographic order;
    those with n < d are skipped because neither family is defined there."""
    return ((family, n, d, k) for family in sorted(families)
            for n in ns for d in ds if n >= d for k in ks)


def report(problem: str, ns: Sequence[int], ds: Sequence[int],
           ks: Sequence[int], limits: OracleLimits = DEFAULT_LIMITS) -> dict:
    """The ``problem`` report over the envelope: one row per instance, in
    ``instances`` order, and the count of each verdict."""
    family, bound, key, question = _TABLE[problem]
    rows = []
    counts = {CONSISTENT: 0, COUNTEREXAMPLE: 0, INCONCLUSIVE_VERDICT: 0}
    for _, n, d, k in instances((family,), ns, ds, ks):
        result = classify(GeneralizedDigraph(family=family, n=n, d=d), k,
                          limits)
        fired = result.conditions[key]
        gamma = result.gamma
        if gamma is None:
            verdict = INCONCLUSIVE_VERDICT
        elif fired or gamma == result.upper:
            verdict = CONSISTENT
        else:
            verdict = COUNTEREXAMPLE
        # the Kautz question is about the rows the prefix missed only
        if fired and family == KAUTZ:
            gamma = None
        row = {"family": family, "n": n, "d": d, "k": k,
               bound: getattr(result, bound), "condition": fired,
               "gamma": gamma, "verdict": verdict}
        if verdict == COUNTEREXAMPLE:
            # classify returns only witnesses that verify accepted
            row["certificate"] = {
                "family": family, "n": n, "d": d, "k": k,
                "set": result.witness.members(), "valid": True,
                "uncovered": []}
        rows.append(row)
        counts[verdict] += 1
    return {"problem": problem, "question": question,
            "envelope": {"n": list(ns), "d": list(ds), "k": list(ks)},
            "rows": rows, "counts": counts}


debruijn_necessity_report = partial(report, PROBLEM_DEBRUIJN)
kautz_upper_report = partial(report, PROBLEM_KAUTZ)
