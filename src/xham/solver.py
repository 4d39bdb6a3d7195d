"""A small XSAT decision procedure.

Branches on which literal of a longest clause is the satisfactor: making
one literal true forces every sibling false under exactly-one semantics,
so each clause yields as many branches as literals. Propagation does the
rest. The search is one loop over an explicit stack, so deep instances
need no recursion. Worst-case bounds are not a goal here; this is the
inner solver for the subset-scan algorithm and a fast satisfiability
filter.
"""

from __future__ import annotations

from .formula import Assignment, Formula
from .propagation import assign, extend_model, normalize


def find_xmodel(formula: Formula) -> Assignment | None:
    """Return a total x-model over Var(formula), or None.

    Deterministic: ties between longest clauses break on clause order,
    branch literals are tried in clause order, and variables left
    unconstrained by propagation are filled positively. The search path
    lives on an explicit stack, one propagation result per level, so
    its depth has no limit.
    """
    result = normalize(formula)
    if result.unsat:
        return None
    path = [(result, iter(max(result.formula.clauses, key=len, default=())))]
    while path:
        result, branches = path[-1]
        if not result.formula.clauses:
            model: Assignment = {}
            for level, _ in reversed(path):
                model = extend_model(level, model)
            return model
        for lit in branches:
            child = assign(result.formula, abs(lit), lit > 0)
            if not child.unsat:
                path.append((child, iter(max(child.formula.clauses, key=len, default=()))))
                break
        else:
            path.pop()
    return None
