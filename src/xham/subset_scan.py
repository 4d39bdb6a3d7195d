"""Max Hamming distance by scanning variable subsets.

Two x-models differing exactly on a set X leave every clause with 0 or 2
literals over X (one flipped literal alone would break exactly-one). So
only such "allowed" subsets can separate a model pair, and X works iff
the formula stays x-satisfiable after adding flipped copies of the
clauses X touches: a model of that union yields the second model by
flipping X. The scan runs subset sizes from n down and stops at the
first hit, calling the solver only for allowed subsets.

The scan runs on the propagated formula: forced variables never differ,
freed ones always can, and the remaining clauses hold distinct
variables, so a subset is tested with one bitmask per clause, and the
same masks pick the clauses whose flipped copies the solver sees.
`allowed_subset_check` states the test on sets instead; it takes any
formula, counts a repeated variable once per occurrence, and is the
reference the tests hold the scan and the oracle's count against.
"""

from __future__ import annotations

import itertools

from .formula import BOTTOM, Assignment, Formula, HammingResult, SearchStats
from .propagation import PropagationResult, extend_model, normalize
from .solver import find_xmodel


def allowed_subset_check(formula: Formula, subset) -> bool:
    """True iff every clause has 0 or 2 literals of variables in subset."""
    chosen = set(subset)
    for clause in formula.clauses:
        count = sum(1 for lit in clause if abs(lit) in chosen)
        if count not in (0, 2):
            return False
    return True


def max_hamming_p(formula: Formula, stats: SearchStats | None = None) -> HammingResult:
    """Exact max Hamming distance with witnesses, via the subset scan.

    Each variable that propagation freed adds one flip: the first
    witness sets it True, the second False. A satisfiability pre-check
    handles the unsatisfiable case without touching the subset loop (the
    empty subset is the k=0 iteration, so it is not revisited at the end).
    """
    if stats is None:
        stats = SearchStats()
    result = normalize(formula)
    reduced = result.formula
    stats.solver_calls += 1
    base_model = find_xmodel(reduced)
    if base_model is None:
        return HammingResult(BOTTOM)

    variables = reduced.variables()
    position = {v: i for i, v in enumerate(variables)}
    masks = [sum(1 << position[abs(l)] for l in clause) for clause in reduced.clauses]
    freed = len(result.freed)

    for size in range(len(variables), 0, -1):
        for combo in itertools.combinations(variables, size):
            stats.subsets_checked += 1
            bitset = 0
            for v in combo:
                bitset |= 1 << position[v]
            for mask in masks:
                if (bitset & mask).bit_count() not in (0, 2):
                    break
            else:
                stats.solver_calls += 1
                copies = tuple(
                    tuple(-lit if (bitset >> position[abs(lit)]) & 1 else lit for lit in clause)
                    for clause, mask in zip(reduced.clauses, masks)
                    if bitset & mask
                )
                model = find_xmodel(Formula(reduced.num_vars, reduced.clauses + copies))
                if model is not None:
                    return HammingResult(size + freed, _witness_pair(result, model, combo))
    return HammingResult(freed, _witness_pair(result, base_model, ()))


def _witness_pair(result: PropagationResult, model: Assignment, subset):
    """A model of the reduced formula and its flip on subset, both extended
    over the input's variables with freed variables True, respectively False."""
    flipped = {v: value != (v in subset) for v, value in model.items()}
    return extend_model(result, model), extend_model(result, flipped, freed_value=False)
