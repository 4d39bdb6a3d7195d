"""A small XSAT decision procedure.

Branches on which literal of a longest clause is the satisfactor: making
one literal true forces every sibling false under exactly-one semantics,
so each clause yields as many branches as literals. Propagation does the
rest.

The root is propagated once by a `Propagator`: it forces what the input
forces, frees what vanishes and leaves live clauses of two or more
distinct variables. Those are split into connected components
(`propagation.components`), and each component is searched on its own,
since components share no variable: a formula has an x-model exactly
when every component has one, and the check stops at the first that has
none. Searching each on its own keeps a component without a model from
being refuted once per combination of the choices made in the others.

A component is renumbered to local variables 1..n (`Part`), and its
search keeps one value per literal, indexed by the literal itself, so
negative literals count back from the end of the list. Assignments go
on a trail; a level is the trail's length before its branch literal,
and backing up pops the trail to it, clearing each popped literal's
values. No clause is rewritten: a clause is read through the values, and
at a propagation fixpoint one with an unassigned literal has no true
one, so its unassigned literals, in clause order, are what the
propagation engine would have left of it. The path lives on an explicit
stack, so deep instances need no recursion, and a step costs the
clauses holding the variables it assigns, however many variables the
component has. `models` lists every model, backing up after each, and
`search` is its first; this is the inner solver of the subset scan and
the oracle, and a fast satisfiability filter. `probe` runs failed-literal
probing on the same value list and trail, for the subset scan, whose
questions then search from copies of what it leaves.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple

from .formula import Assignment, Formula
from .propagation import Propagator, components


Part = namedtuple("Part", ["variables", "clauses", "holding"])
Part.__doc__ = """One connected component of a propagated engine's live clauses, in
local numbering.

Local variable i is variables[i - 1]; variables are ascending. clauses
holds the component's live clauses in position order, each literal
renumbered, and holding[lit] every clause that holds the local literal
lit; a negative literal indexes from the end of the list. A
`collections.namedtuple`, since `typing.NamedTuple` would import `typing`.
"""


def _part_of(engine: Propagator, positions) -> Part:
    """The Part of the live clauses at positions, one component of the
    engine at its fixpoint."""
    live = [engine.clauses[pos] for pos in positions]
    variables = sorted(set(map(abs, itertools.chain.from_iterable(live))))
    n = len(variables)
    local = dict(zip(variables, range(1, n + 1)))
    local.update(zip(map(operator.neg, variables), range(-1, -n - 1, -1)))
    clauses = [tuple(map(local.__getitem__, clause)) for clause in live]
    holding = [[] for _ in range(2 * n + 1)]
    for clause in clauses:
        for lit in clause:
            holding[lit].append(clause)
    return Part(variables, clauses, holding)


def find_xmodel(formula: Formula) -> Assignment | None:
    """Return a total x-model over Var(formula), or None.

    Deterministic: ties between longest clauses break on clause order,
    branch literals are tried in clause order, and variables left
    unconstrained by propagation are filled positively.
    """
    found = solve(Propagator(formula))
    return None if found is None else found[0]


def solve(engine: Propagator) -> tuple[Assignment, list[Part]] | None:
    """(an x-model of a new engine's formula, the Parts of its live
    clauses' components in the order of their first positions), or None
    when it has no x-model.

    Propagates the engine, then searches each component, stopping at the
    first that has no model. The model holds every variable the engine
    forced, each component's variables from its search, and the engine's
    freed variables set True.
    """
    if not engine.propagate():
        return None
    model = dict(engine.forced)
    parts = []
    live = [pos for pos, clause in enumerate(engine.clauses) if clause is not None]
    for positions in components(engine, live):
        part = _part_of(engine, positions)
        values = search(part)
        if values is None:
            return None
        model.update(zip(part.variables, values[1:]))
        parts.append(part)
    model.update(dict.fromkeys(engine.freed, True))
    return model, parts


def search(part: Part, assumptions=(), base=None) -> list | None:
    """The first x-model of `models(part, assumptions, base)`, or None."""
    return next(models(part, assumptions, base), None)


def models(part: Part, assumptions=(), base=None):
    """Yield each x-model of part's clauses with every local literal of
    `assumptions` true, once.

    base, when given, is a value list and its trail at a propagation
    fixpoint of part's clauses, such as `probe` returns; the search starts
    from copies of them, so its models are those with the trail's
    literals true as well, and those literals are not propagated again.
    Unit propagation reaches one fixpoint in any order, so these are the
    models, in the same order, of a search that assumes the trail's
    literals and then assumptions.

    A model is the value list, index i holding local variable i's value;
    the search reuses it, so a caller copies what it keeps. Every variable
    is in a clause, so a fixpoint with every variable assigned is a model,
    and the search backs up from it. Clauses only lose literals on the way
    down, so a level's scan for its first longest clause starts at its
    parent's first live clause and stops at the first clause as long as
    its parent's longest, the root's at one as long as the longest clause;
    on a chain each level so reads a few clauses, not the whole list.
    """
    clauses, holding = part.clauses, part.holding
    n = len(part.variables)
    if base is None:
        value, trail = [None] * len(holding), []
    else:
        value, trail = base[0][:], base[1][:]
    if not _propagate(value, trail, assumptions, holding):
        return
    path = []  # (trail length, untried branch literals, scan start index, longest width) per level above this one
    branches = None
    start, longest = 0, max(map(len, clauses))
    while True:
        if branches is None:  # a new level: a model, or branch on the first longest clause
            if len(trail) == n:
                yield value
                branches = iter(())  # back up to the nearest untried branch
            else:
                start, free = _first_longest(clauses, value, start, longest)
                branches, longest = iter(free), len(free)
        for lit in branches:
            mark = len(trail)
            if _propagate(value, trail, (lit,), holding):
                path.append((mark, branches, start, longest))
                branches = None
                break
            _undo(value, trail, mark)
        else:
            if not path:
                return
            mark, branches, start, longest = path.pop()
            _undo(value, trail, mark)


def _propagate(value, trail, literals, holding) -> bool:
    """Make each of literals true and propagate to a fixpoint; False on a
    conflict, with the trail holding what was assigned before it showed.

    A true literal makes the other literals of its clauses false; a
    clause that loses a literal and holds no true one makes its last
    unassigned literal true, and with none left it is a conflict.
    """
    head = len(trail)
    for lit in literals:
        known = value[lit]
        if known is None:
            value[lit], value[-lit] = True, False
            trail.append(lit)
        elif not known:
            return False
    while head < len(trail):
        lit = trail[head]
        head += 1
        for clause in holding[lit]:
            for other in clause:
                known = value[other]
                if known is None:
                    value[other], value[-other] = False, True
                    trail.append(-other)
                elif known and other != lit:
                    return False
        for clause in holding[-lit]:
            unit = None
            for other in clause:
                known = value[other]
                if known is None:
                    if unit is not None:
                        break  # two unassigned: nothing to do yet
                    unit = other
                elif known:
                    break  # satisfied: its true literal settles the rest
            else:
                if unit is None:
                    return False
                value[unit], value[-unit] = True, False
                trail.append(unit)
    return True


def _undo(value, trail, mark) -> None:
    """Pop the trail back to length mark, clearing the popped literals."""
    for lit in trail[mark:]:
        value[lit] = value[-lit] = None
    del trail[mark:]


def probe(part: Part, model) -> tuple[list, list]:
    """(a value list for part, its trail): the literals that failed-literal
    probing around `model`, one x-model of part (a value list as `models`
    yields), shows true in every x-model of part, and what they propagate.

    One pass over the local variables, in order: a variable still
    unassigned has the literal model makes false propagated alone. A
    conflict shows that literal false in every x-model, so it is undone
    and its complement is propagated, and stays; that cannot conflict,
    since model holds every literal asserted so far. Without a conflict
    the probe is undone, and every literal it made true is skipped for
    the rest of the pass: closure under propagation is monotone, so such
    a literal's own probe would not fail at that point either. The pass
    is not repeated to a fixpoint; a backbone literal it misses only
    costs the caller time, as probing asserts nothing that is not true in
    every x-model. A part of one clause is left unprobed: each of its
    literals is true in one of its models, so it has no backbone.
    """
    holding = part.holding
    value = [None] * len(holding)
    trail = []
    if len(part.clauses) == 1:
        return value, trail
    skip = [False] * len(holding)
    for var in range(1, len(part.variables) + 1):
        lit = -var if model[var] else var
        if value[lit] is not None or skip[lit]:
            continue
        mark = len(trail)
        if _propagate(value, trail, (lit,), holding):
            for implied in trail[mark:]:
                skip[implied] = True
            _undo(value, trail, mark)
        else:
            _undo(value, trail, mark)
            _propagate(value, trail, (-lit,), holding)
    return value, trail


def _first_longest(clauses, value, start, width):
    """(index of the first live clause at or after start, the unassigned
    literals of the first longest live clause there, in clause order).

    At a fixpoint a clause is live when some literal is unassigned. Some
    live clause must lie at or after start, and none before it or longer
    than width.
    """
    first, longest, size = None, None, 0
    for index in range(start, len(clauses)):
        free = [lit for lit in clauses[index] if value[lit] is None]
        if not free:
            continue
        if first is None:
            first = index
        if len(free) > size:
            longest, size = free, len(free)
            if size == width:
                break
    return first, longest
