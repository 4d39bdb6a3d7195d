"""A small XSAT decision procedure.

Branches on which literal of a longest clause is the satisfactor: making
one literal true forces every sibling false under exactly-one semantics,
so each clause yields as many branches as literals. Propagation does the
rest. The search runs on one propagation engine: each level is a mark, a
force and a propagate, and backing up is an undo to the level's mark
(see `propagation`). A level so costs the clauses its force touches, not
a pass over the remaining formula, and the path lives on an explicit
stack, so deep instances need no recursion. Worst-case bounds are not a
goal here; this is the inner solver for the subset-scan algorithm and a
fast satisfiability filter.
"""

from __future__ import annotations

from .formula import Assignment, Formula
from .propagation import Propagator


def find_xmodel(formula: Formula) -> Assignment | None:
    """Return a total x-model over Var(formula), or None.

    Deterministic: ties between longest clauses break on clause order,
    branch literals are tried in clause order, and variables left
    unconstrained by propagation are filled positively.
    """
    engine = Propagator(formula)
    if not engine.propagate():
        return None
    return solve(engine)


def solve(engine: Propagator, assumptions=()) -> Assignment | None:
    """An x-model of the engine's formula with every literal of
    `assumptions` true, or None; the engine is left as it was found.

    The engine must be at a fixpoint. The model holds every variable the
    engine has forced, its freed variables set True, and the variables of
    its live clauses.
    """
    root = engine.mark()
    for lit in assumptions:
        engine.force(abs(lit), lit > 0)
    model = _search(engine) if engine.propagate() else None
    engine.undo_to(root)
    return model


def _search(engine: Propagator) -> Assignment | None:
    """Depth-first search from the engine's fixpoint, leaving the engine at
    the model it finds, or at its start when there is none."""
    clauses = engine.clauses
    path = []  # (mark, untried branch literals) per level above this one
    branches = None
    while True:
        if branches is None:  # a new level: done, or branch on the first longest clause
            longest = max(filter(None, clauses), key=len, default=None)
            if longest is None:
                model = dict(engine.forced)
                for var in engine.freed:
                    model.setdefault(var, True)
                return model
            branches = iter(longest)
        for lit in branches:
            mark = engine.mark()
            engine.force(abs(lit), lit > 0)
            if engine.propagate():
                path.append((mark, branches))
                branches = None
                break
            engine.undo_to(mark)
        else:
            if not path:
                return None
            mark, branches = path.pop()
            engine.undo_to(mark)
