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


def solve(engine: Propagator, assumptions=(), positions=None) -> Assignment | None:
    """An x-model of the engine's formula with every literal of
    `assumptions` true, or None; the engine is left as it was found.

    The engine must be at a fixpoint. The model holds every variable the
    engine has forced, its freed variables set True, and the variables of
    its live clauses. With `positions`, ascending live positions whose
    clauses share no variable with the other live clauses, and
    assumptions over their variables alone, the search branches on those
    clauses only. The caller must know that the other live clauses have
    an x-model of their own; the model holds none of their variables.
    """
    root = engine.mark()
    for lit in assumptions:
        engine.force(abs(lit), lit > 0)
    if engine.propagate():
        model = _search(engine, range(len(engine.clauses)) if positions is None else positions)
    else:
        model = None
    engine.undo_to(root)
    return model


def _search(engine: Propagator, positions) -> Assignment | None:
    """Depth-first search from the engine's fixpoint over the clauses at
    positions, leaving the engine at the model it finds, or at its start
    when there is none.

    Clauses only shrink or drop on the way down, so a level's scan for its
    first longest clause starts at its parent's first live position and
    stops at the first clause as long as its parent's longest; on a chain
    each level so reads a few clauses, not the whole list.
    """
    clauses = engine.clauses
    path = []  # (mark, untried branch literals, scan start index, longest width) per level above this one
    branches = None
    start, width = 0, None
    while True:
        if branches is None:  # a new level: done, or branch on the first longest clause
            start, longest = _first_longest(clauses, positions, start, width)
            if longest is None:
                model = dict(engine.forced)
                for var in engine.freed:
                    model.setdefault(var, True)
                return model
            branches, width = iter(longest), len(longest)
        for lit in branches:
            mark = engine.mark()
            engine.force(abs(lit), lit > 0)
            if engine.propagate():
                path.append((mark, branches, start, width))
                branches = None
                break
            engine.undo_to(mark)
        else:
            if not path:
                return None
            mark, branches, start, width = path.pop()
            engine.undo_to(mark)


def _first_longest(clauses, positions, start, width):
    """(index in positions of the first live clause at or after start,
    first longest live clause there).

    No live clause may lie before start or be longer than width (None: no
    limit). With no live clause, returns (start, None).
    """
    first, longest, size = None, None, 0
    for index in range(start, len(positions)):
        clause = clauses[positions[index]]
        if not clause:
            continue
        if first is None:
            first = index
        if len(clause) > size:
            longest, size = clause, len(clause)
            if size == width:
                break
    return (start if first is None else first), longest
