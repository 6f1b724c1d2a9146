"""Seeded workload inputs for the benchmark.

A workload is a list of instances ``(family, n, d, k)``, the oracle limits
the classifier runs under, and whether each pass also builds the two
open-problem reports.  Everything is derived from the seed alone, so the
same seed gives the same inputs on every commit.

Row cost varies by orders of magnitude between instances (a budget-capped
oracle row against a closed-form one; verification that grows with n**2;
a de Bruijn row without a congruence run returns a bracket at once), so a
random sample makes the work per pass depend on the seed more than on the
code.  Measured over five seeds each: 512 random rows of the n 61..200
envelope spread rows/s by a third, and 100 large-n rows whose orders the
seed moved by only 2.5% still spread the median row time by 17%.  So every
workload runs a fixed instance set, and the seed permutes its order; the
run also draws a fresh seeded order for every pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEBRUIJN = "debruijn"
KAUTZ = "kautz"

# the README's default sweep and problems envelope
DEFAULT_N = range(2, 61)
DEFAULT_D = range(2, 6)
DEFAULT_K = range(1, 5)

# up to 6e4 rather than 1.2e5: a pass takes about 2 s instead of 5 s, so a
# run makes a dozen passes rather than four or five
LARGE_N_RANGE = (10_000, 60_000)
LARGE_N_PER_CELL = 5

# every fourth order of the n 61..200 envelope: a pass takes about 2 s, so
# a run makes a dozen passes and each row's fastest time is one from a
# quiet moment of the machine (see run.Measurement.best_row_seconds)
BUDGET_N = range(61, 201, 4)
BUDGET_NODES = 20_000


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; ``max_nodes`` None means no node budget."""

    name: str
    instances: tuple[tuple[str, int, int, int], ...]
    max_nodes: int | None
    reports: bool


def _defaults(rng: random.Random) -> Workload:
    grid = [(family, n, d, k) for family in (DEBRUIJN, KAUTZ)
            for n in DEFAULT_N for d in DEFAULT_D for k in DEFAULT_K
            if n >= d]
    rng.shuffle(grid)
    return Workload("defaults", tuple(grid), None, True)


def _large_n(rng: random.Random) -> Workload:
    # each cell gets one order from every fifth of the log range; the
    # cells' offsets interleave, so the 100 orders are distinct and evenly
    # spread in log n
    cells = [(DEBRUIJN, d, k) for d in range(2, 6) for k in range(1, 5)]
    cells += [(KAUTZ, d, 1) for d in range(2, 6)]
    lo, hi = map(math.log, LARGE_N_RANGE)
    step = (hi - lo) / LARGE_N_PER_CELL
    instances = []
    for c, (family, d, k) in enumerate(cells):
        for j in range(LARGE_N_PER_CELL):
            offset = (c + 0.5) / len(cells)
            n = round(math.exp(lo + (j + offset) * step))
            instances.append((family, n, d, k))
    rng.shuffle(instances)
    return Workload("large-n", tuple(instances), None, False)


def _oracle_budget(rng: random.Random) -> Workload:
    grid = [(family, n, d, k) for family in (DEBRUIJN, KAUTZ)
            for n in BUDGET_N for d in range(2, 6) for k in range(1, 5)]
    rng.shuffle(grid)
    return Workload("oracle-budget", tuple(grid), BUDGET_NODES, False)


BUILDERS = {
    "defaults": _defaults,
    "large-n": _large_n,
    "oracle-budget": _oracle_budget,
}


def generate(name: str, seed: int) -> Workload:
    """The inputs of workload ``name`` for ``seed``."""
    return BUILDERS[name](random.Random(seed))


def pass_order(workload: Workload, seed: int, index: int) -> list:
    """Instance order of pass ``index``: a fresh seeded permutation."""
    order = list(workload.instances)
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order
