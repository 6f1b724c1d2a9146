"""Distance domination on generalized de Bruijn and Kautz digraphs.

The package computes, constructs, and certifies minimum distance-k
dominating sets of the two parametric digraph families on {0, ..., n-1}:

* de Bruijn arcs: x -> (d*x + i) mod n for i in 0..d-1
* Kautz arcs:     x -> (-d*x - i) mod n for i in 1..d

Closed-form run images handle consecutive sets, constructive
rules settle most instances outright, and an exhaustive branch-and-bound
oracle provides ground truth at small scale.  Every exact answer returned
anywhere carries a witness set that has been re-verified against the arc
definitions.
"""

from .construct import (ConstructionError, GammaResult, build_anchor_run,
                        build_lower_prefix, build_prefix_cover,
                        build_window_run, classify, congruence_witness,
                        find_anchor, gcd_divisibility, prefix_condition,
                        remainder_window)
from .digraph import (DEBRUIJN, FAMILIES, KAUTZ, GeneralizedDigraph,
                      VertexSet, ball, run_image, run_layers,
                      set_out_neighborhood)
from .domination import Bounds, DominationCertificate, bounds, verify
from .modular import ceil_div, geometric_sum, solve_linear_congruence
from .oracle import (ABSENT, FOUND, INCONCLUSIVE, OracleLimits, SearchResult,
                     coverage_table, exists_dominating_of_size,
                     kernel_backend, min_dominating, propose_cover)

__version__ = "0.1.0"

__all__ = [
    "ABSENT", "Bounds", "ConstructionError", "DEBRUIJN",
    "DominationCertificate", "FAMILIES", "FOUND", "GammaResult",
    "GeneralizedDigraph", "INCONCLUSIVE", "KAUTZ", "OracleLimits",
    "SearchResult", "VertexSet", "ball", "bounds", "build_anchor_run",
    "build_lower_prefix", "build_prefix_cover", "build_window_run",
    "ceil_div", "classify", "congruence_witness", "coverage_table",
    "exists_dominating_of_size", "find_anchor", "gcd_divisibility",
    "geometric_sum", "kernel_backend", "min_dominating", "prefix_condition",
    "propose_cover", "remainder_window", "run_image", "run_layers",
    "set_out_neighborhood", "solve_linear_congruence", "verify",
]
