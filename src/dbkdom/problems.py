"""Empirical reports on the paper's two open problems, read off ``classify``.

* debruijn-necessity: does attaining the lower bound imply that a gcd
  condition fires?
* kautz-upper: do Kautz instances missed by the prefix condition always
  attain the ceil(n / (d**k + d**(k-1))) upper value?

Each report classifies every instance of its envelope once and maps the
result to a verdict, so the reports decide nothing ``classify`` does not.
A counterexample carries a verified certificate; an instance whose exact
value is out of reach is inconclusive, never support.
"""

from __future__ import annotations

from collections.abc import Sequence

from .construct import GammaResult, classify
from .digraph import DEBRUIJN, KAUTZ, GeneralizedDigraph, VertexSet
from .domination import DominationCertificate
from .oracle import DEFAULT_LIMITS, OracleLimits

PROBLEM_DEBRUIJN = "debruijn-necessity"
PROBLEM_KAUTZ = "kautz-upper"
PROBLEMS = (PROBLEM_DEBRUIJN, PROBLEM_KAUTZ)

CONSISTENT = "consistent"
COUNTEREXAMPLE = "counterexample"
INCONCLUSIVE_VERDICT = "inconclusive"


def _certificate(result: GammaResult) -> dict:
    """The certificate of an exact result's witness.

    ``classify`` returns a witness only after ``verify`` accepted it (a
    construction run or an oracle cover), so it is not checked again.
    """
    g = result.graph
    return DominationCertificate(graph=g, dset=result.witness, k=result.k,
                                 uncovered=VertexSet(g.n)).to_dict()


def instances(families: tuple[str, ...], ns: Sequence[int],
              ds: Sequence[int], ks: Sequence[int]):
    """The (family, n, d, k) instances of the grid in lexicographic order;
    those with n < d are skipped because neither family is defined there."""
    return ((family, n, d, k) for family in sorted(families)
            for n in ns for d in ds if n >= d for k in ks)


def _classified(family: str, ns: Sequence[int], ds: Sequence[int],
                ks: Sequence[int], limits: OracleLimits):
    """classify results over the envelope, in ``instances`` order."""
    for family, n, d, k in instances((family,), ns, ds, ks):
        yield classify(GeneralizedDigraph(family=family, n=n, d=d), k, limits)


def _row(result: GammaResult, bound: str, condition: bool,
         gamma: int | None, verdict: str) -> dict:
    g = result.graph
    row = {"family": g.family, "n": g.n, "d": g.d, "k": result.k,
           bound: getattr(result, bound), "condition": condition,
           "gamma": gamma, "verdict": verdict}
    if verdict == COUNTEREXAMPLE:
        row["certificate"] = _certificate(result)
    return row


def _report(problem: str, question: str, rows: list[dict],
            ns: Sequence[int], ds: Sequence[int], ks: Sequence[int]) -> dict:
    counts = {CONSISTENT: 0, COUNTEREXAMPLE: 0, INCONCLUSIVE_VERDICT: 0}
    for row in rows:
        counts[row["verdict"]] += 1
    return {"problem": problem, "question": question,
            "envelope": {"n": list(ns), "d": list(ds), "k": list(ks)},
            "rows": rows, "counts": counts}


def debruijn_necessity_report(ns: Sequence[int], ds: Sequence[int],
                              ks: Sequence[int],
                              limits: OracleLimits = DEFAULT_LIMITS) -> dict:
    """Is the gcd condition necessary for the lower bound to be attained?

    An instance whose exact value is the lower bound L while neither gcd
    test fired is a counterexample to necessity and carries a verified
    certificate of its size-L witness.
    """
    rows = []
    for result in _classified(DEBRUIJN, ns, ds, ks, limits):
        fired = (result.conditions["gcd_divisibility"]
                 or result.conditions["gcd_residue"])
        if result.gamma is None:
            verdict = INCONCLUSIVE_VERDICT
        elif result.gamma == result.lower and not fired:
            verdict = COUNTEREXAMPLE
        else:
            verdict = CONSISTENT
        rows.append(_row(result, "lower", fired, result.gamma, verdict))
    return _report(PROBLEM_DEBRUIJN,
                   "does attaining the lower bound imply the gcd "
                   "condition fires?", rows, ns, ds, ks)


def kautz_upper_report(ns: Sequence[int], ds: Sequence[int],
                       ks: Sequence[int],
                       limits: OracleLimits = DEFAULT_LIMITS) -> dict:
    """Does every instance missed by the prefix condition sit at the
    ceil(n / (d**k + d**(k-1))) upper value?

    Instances satisfying the prefix condition are vacuously consistent and
    report no gamma.  For the rest an exact value strictly below the upper
    bound is a counterexample and carries a verified certificate of that
    smaller dominating set.
    """
    rows = []
    for result in _classified(KAUTZ, ns, ds, ks, limits):
        fired = result.conditions["prefix_cover"]
        gamma = None if fired else result.gamma
        if fired or gamma == result.upper:
            verdict = CONSISTENT
        elif gamma is None:
            verdict = INCONCLUSIVE_VERDICT
        else:
            verdict = COUNTEREXAMPLE
        rows.append(_row(result, "upper", fired, gamma, verdict))
    return _report(PROBLEM_KAUTZ,
                   "do instances that miss the prefix condition always "
                   "attain ceil(n / (d**k + d**(k-1)))?", rows, ns, ds, ks)
