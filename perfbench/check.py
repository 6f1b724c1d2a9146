"""Independent correctness check of classifier rows and problem reports.

Nothing here imports dbkdom: bounds are recomputed from their formulas and
every witness is expanded vertex by vertex from the arc definitions

* de Bruijn: x -> (d*x + i) mod n for i in 0..d-1
* Kautz:     x -> (-d*x - i) mod n for i in 1..d

so a defect in the package's own ``verify`` cannot hide a bad answer.
Each check returns a list of problems; an empty list means the row passed.
"""

from __future__ import annotations

DEBRUIJN = "debruijn"
KAUTZ = "kautz"


def dominates(family: str, n: int, d: int, k: int, members) -> bool:
    """True when ``members`` reaches every vertex by walks of length <= k."""
    seen = bytearray(n)
    frontier = []
    for v in members:
        if not seen[v]:
            seen[v] = 1
            frontier.append(v)
    covered = len(frontier)
    steps = range(d) if family == DEBRUIJN else range(1, d + 1)
    sign = 1 if family == DEBRUIJN else -1
    for _ in range(k):
        if covered == n:
            break
        reached = []
        for v in frontier:
            for i in steps:
                y = sign * (d * v + i) % n
                if not seen[y]:
                    seen[y] = 1
                    reached.append(y)
        covered += len(reached)
        frontier = reached
    return covered == n


def expected_bounds(family: str, n: int, d: int, k: int) -> tuple[int, int]:
    """(lower, upper): ceil(n / (1 + d + ... + d**k)) and the family's
    constructive upper bound."""
    lower = -(-n // sum(d ** i for i in range(k + 1)))
    if family == DEBRUIJN:
        return lower, lower + 1
    return lower, -(-n // (d ** k + d ** (k - 1)))


def _set_problems(family: str, n: int, d: int, k: int, members,
                  size: int) -> list[str]:
    if members is None:
        return ["no witness"]
    if len(members) != size:
        return [f"witness has {len(members)} members, claimed {size}"]
    if len(set(members)) != len(members):
        return ["witness repeats a member"]
    if not all(0 <= v < n for v in members):
        return ["witness member out of range"]
    if not dominates(family, n, d, k, members):
        return ["witness does not dominate"]
    return []


def check_row(row: dict, instance: tuple) -> list[str]:
    """Problems with one ``classify_row`` result for ``instance``."""
    family, n, d, k = instance
    if row.get("method") == "error":
        return [f"error row: {row.get('error')}"]
    if (row["family"], row["n"], row["d"], row["k"]) != instance:
        return ["row belongs to another instance"]
    lower, upper = expected_bounds(family, n, d, k)
    if (row["lower"], row["upper"]) != (lower, upper):
        return [f"bounds {row['lower']}..{row['upper']}, "
                f"expected {lower}..{upper}"]
    gamma = row["gamma"]
    if gamma is None:
        if row["bracket"] != [lower, upper]:
            return [f"bracket {row['bracket']} is not the bounds"]
        return []
    if not lower <= gamma <= upper:
        return [f"gamma {gamma} outside {lower}..{upper}"]
    return _set_problems(family, n, d, k, row["witness"], gamma)


def check_report(report: dict, gammas: dict) -> list[str]:
    """Problems with one open-problem report.

    ``gammas`` maps instances to exact values from classifier rows; a report
    row that states a value must agree with it.  Counterexample certificates
    are re-expanded from the arc formulas.
    """
    problems = []
    tally = dict.fromkeys(report["counts"], 0)
    for row in report["rows"]:
        tally[row["verdict"]] += 1
        family, n, d, k = row["family"], row["n"], row["d"], row["k"]
        known = gammas.get((family, n, d, k))
        if row["gamma"] is not None and known is not None \
                and row["gamma"] != known:
            problems.append(f"{family} {n} {d} {k}: report gamma "
                            f"{row['gamma']}, classify {known}")
        if row["verdict"] != "counterexample":
            continue
        lower, upper = expected_bounds(family, n, d, k)
        limit = lower if family == DEBRUIJN else upper - 1
        if row["condition"] or row["gamma"] is None \
                or not lower <= row["gamma"] <= limit:
            problems.append(f"{family} {n} {d} {k}: counterexample "
                            "contradicts its own condition or value")
            continue
        members = row["certificate"]["set"]
        problems += [f"{family} {n} {d} {k}: {p}" for p in _set_problems(
            family, n, d, k, members, row["gamma"])]
    if tally != report["counts"]:
        problems.append(f"{report['problem']}: counts {report['counts']} "
                        f"but rows tally {tally}")
    return problems
