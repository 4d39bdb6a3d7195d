"""Max Hamming distance between exact-satisfiability (XSAT) models.

An x-model satisfies every clause with exactly one true literal; this
package decides x-satisfiability, enumerates models, and computes the
maximum Hamming distance between any two x-models by three routes: a
brute-force oracle, a subset scan backed by the solver, and a branching
search over satisfactor roles. A recurrence-root helper covers runtime
analysis of branching rules.
"""

from .branching import (
    GeneralizedAssignment,
    gen_h,
    max_hamming_q,
)
from .dimacs import ParseError, load_formula, parse_formula, serialize_formula
from .formula import (
    BOTTOM,
    Assignment,
    Clause,
    Formula,
    HammingResult,
    SearchStats,
    hamming_distance,
    verify_xmodel,
)
from .gen import planted_formula, random_formula
from .oracle import (
    CapExceeded,
    count_allowed_subsets_brute,
    enumerate_xmodels,
    expand_state,
    max_hamming_brute,
)
from .propagation import assign, connected_components
from .solver import find_xmodel
from .subset_scan import allowed_subset_check, max_hamming_p
from .tau import nth_root, parse_branch_spec, tau_root

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BOTTOM",
    "CapExceeded",
    "Clause",
    "Formula",
    "GeneralizedAssignment",
    "HammingResult",
    "ParseError",
    "SearchStats",
    "allowed_subset_check",
    "assign",
    "connected_components",
    "count_allowed_subsets_brute",
    "enumerate_xmodels",
    "expand_state",
    "find_xmodel",
    "gen_h",
    "hamming_distance",
    "load_formula",
    "max_hamming_brute",
    "max_hamming_p",
    "max_hamming_q",
    "nth_root",
    "parse_branch_spec",
    "parse_formula",
    "planted_formula",
    "random_formula",
    "serialize_formula",
    "tau_root",
    "verify_xmodel",
]
