"""Substitution with propagation under exactly-one semantics.

Setting a variable, or rewriting one literal as another's complement, is
more than textual replacement: a literal that becomes true forces every
sibling in its clause false; a false literal is deleted; a clause holding
a complementary pair is satisfied by that pair, so its other literals are
false; a literal occurring twice must be false (two true copies would
oversatisfy); deletions create units which force further values. The
engine runs these rules to a fixpoint: the live clauses that are left,
everything it forced and the variables it freed, or a conflict.

One incremental engine, `Propagator`, does all of this work. It keeps
the clauses by position (a clause only shrinks, is rewritten in place or
drops out), an occurrence list and a degree count per variable, the
forced map, and a work queue: a clause is settled again only when one of
its variables is forced or rewritten, so a fixpoint costs time linear in
the clauses it touches rather than a sweep over the whole formula per
round. The solver, p and q each search one engine: a level or a q
child takes a `mark`, applies its steps, and goes back with `undo_to`.
Every engine keeps its trail from its first mark, so the root's own
propagation and simplification, which nothing undoes, log nothing. The trail is two logs in the order of the steps: every clause
write with the clause it replaced, and the length every occurrence list
had before a rewrite appended to it. Occurrence lists only grow: a force
or a removed literal leaves the list in place, stale, as dropped
clauses' positions already are. The forced map keeps its own order, so
it needs no log. Backing up pops both logs, latest first, cutting each
grown list back to its old length, and the end of the forced map, and
costs what the steps wrote.

Every rule application strictly shrinks (forced variables grow, clauses
or literal counts drop), so the fixpoint always terminates. The fixpoint
does not depend on the order in which the queue settles clauses.
"""

from __future__ import annotations

from collections import defaultdict, deque

from .formula import Assignment, Formula


def assign(formula: Formula, var: int, value: bool) -> "Propagator":
    """A fresh engine on formula with var forced to value and propagated.

    The solver, p and q force on their own engines and never call this.
    It stays because `branching` re-exports it for xbench, whose tracer
    wraps `branching.assign` and whose tests restore it.
    """
    engine = Propagator(formula)
    if var not in engine.degree:
        raise ValueError(f"variable {var} does not occur in the formula")
    engine.force(var, value)
    engine.propagate()
    return engine


def components(engine: "Propagator", positions) -> list[list[int]]:
    """Split sorted live clause positions into connected components.

    Clauses that share a variable connect; the walk follows the engine's
    occurrence lists. Components come in the order of their first
    position, each sorted; an empty clause is a component of its own.
    """
    clauses, occ = engine.clauses, engine.occ
    todo, parts = set(positions), []
    for start in positions:
        if start not in todo:
            continue
        todo.remove(start)
        part = [start]
        for pos in part:  # a breadth-first walk: the loop reaches what it appends
            for lit in clauses[pos]:
                for other in occ.get(abs(lit), ()):
                    if other in todo:
                        todo.remove(other)
                        part.append(other)
        parts.append(sorted(part))
    return parts


def connected_components(formula: Formula) -> list[Formula]:
    """The formula's `components`, each a formula in clause order with its num_vars."""
    clauses = formula.clauses
    parts = components(Propagator(formula), range(len(clauses)))
    return [Formula(formula.num_vars, tuple(clauses[pos] for pos in part)) for part in parts]


#: The trail logs of an engine before its first mark: a sink that keeps nothing.
_UNLOGGED = deque(maxlen=0)


class Propagator:
    """A formula under incremental exactly-one propagation.

    clauses[pos] is the clause at its input position, or None once it
    dropped out. occ maps a variable to the positions of the live clauses
    holding it, plus stale entries: clauses that dropped or no longer hold
    it, and every entry of a variable that left the formula. A position
    may repeat. degree counts the variable's literal occurrences in live
    clauses.
    `force`, `substitute` and `remove_literal` queue exactly the clauses
    they touch; a new engine starts with every clause in the queue.

    `propagate` closes one step: it runs the queue to a fixpoint and
    appends the variables that vanished during the step, sorted, to
    `freed`. Two logs serve a caller that keeps rewriting between steps:
    `changed` collects positions whose clause the caller has not yet seen
    settled (every position of a new engine, then each one whose clause
    shrank or was rewritten), `singles` variables whose degree fell to
    one. The caller drains them.

    The trail runs from the first mark on: `mark` and `undo_to` take the
    engine back to an earlier fixpoint, over every step since that mark
    (see the module docstring).
    """

    def __init__(self, formula: Formula):
        self.clauses: list[tuple[int, ...] | None] = list(formula.clauses)
        occ: defaultdict[int, list[int]] = defaultdict(list)
        for pos, clause in enumerate(self.clauses):
            for lit in clause:
                occ[abs(lit)].append(pos)
        self.occ = occ
        # One occ entry per literal so far, so list lengths are the degrees.
        self.degree = {var: len(positions) for var, positions in occ.items()}
        self.forced: Assignment = {}
        self.freed: list[int] = []
        self.unsat = False
        self.queue = deque(range(len(self.clauses)))
        self.queued = bytearray(b"\x01") * len(self.clauses)
        self.changed: list[int] = list(range(len(self.clauses)))
        self.singles: list[int] = []
        self._vanished: list[int] = []
        # The trail: (pos, replaced clause) per clause write and
        # (var, old length) per occurrence list a rewrite appended to.
        # Nothing undoes past the first mark, so the logs start there.
        self._writes: list[tuple[int, tuple[int, ...]]] | deque = _UNLOGGED
        self._occs: list[tuple[int, int]] | deque = _UNLOGGED

    def _enqueue(self, pos: int) -> None:
        if not self.queued[pos] and self.clauses[pos] is not None:
            self.queued[pos] = 1
            self.queue.append(pos)

    def force(self, var: int, value: bool) -> None:
        """Fix a value and queue the clauses holding the variable."""
        old = self.forced.get(var)
        if old is None:
            self.forced[var] = value
            for pos in self.occ.get(var, ()):
                self._enqueue(pos)
        elif old != value:
            self.unsat = True

    def substitute(self, a: int, b: int) -> None:
        """Rewrite literal a as the complement of b in place; queue those clauses."""
        source, target = abs(a), abs(b)
        clauses, occ, writes = self.clauses, self.occ, self._writes
        moved = occ[target]
        self._occs.append((target, len(moved)))
        for pos in occ[source]:
            clause = clauses[pos]
            if clause is None:
                continue
            rewritten = tuple(-b if lit == a else (b if lit == -a else lit) for lit in clause)
            if rewritten == clause:
                continue  # a repeated entry, already rewritten
            writes.append((pos, clause))
            clauses[pos] = rewritten
            moved.append(pos)
            self.changed.append(pos)
            self._enqueue(pos)
        self.degree[target] += self.degree[source]
        self.degree[source] = 0

    def remove_literal(self, pos: int, lit: int) -> None:
        """Delete the one occurrence of a degree-one literal and queue its clause.

        The variable leaves the formula without counting as freed: the
        caller keeps track of it elsewhere.
        """
        clause = self.clauses[pos]
        self._writes.append((pos, clause))
        self.clauses[pos] = tuple(l for l in clause if l != lit)
        self.degree[abs(lit)] = 0
        self.changed.append(pos)
        self._enqueue(pos)

    def position_of(self, var: int) -> int:
        """Position of the one live clause holding a degree-one variable."""
        for pos in self.occ[var]:
            clause = self.clauses[pos]
            if clause is not None and (var in clause or -var in clause):
                return pos
        raise ValueError(f"variable {var} occurs in no live clause")

    def propagate(self) -> bool:
        """Settle queued clauses to a fixpoint; False when a conflict shows."""
        clauses, queue, queued, forced = self.clauses, self.queue, self.queued, self.forced
        settle, force, writes = _settle_clause, self.force, self._writes
        while queue and not self.unsat:
            pos = queue.popleft()
            queued[pos] = 0
            lits = clauses[pos]
            if lits is None:
                continue  # dropped after a force on its own variables queued it again
            status, live = settle(lits, forced, force)
            if status == "unsat":
                self.unsat = True
                continue
            if status == "drop":
                live = None
            elif len(live) == len(lits):
                continue
            else:
                self.changed.append(pos)
            writes.append((pos, lits))
            clauses[pos] = live
            self._lose(lits, live or ())
        if self.unsat:
            return False
        if self._vanished:
            degree = self.degree
            self.freed.extend(sorted({v for v in self._vanished if not degree[v] and v not in forced}))
            self._vanished = []
        return True

    def mark(self):
        """A fixpoint to come back to with `undo_to`; the queue must be empty.

        A mark holds the lengths of the two trail logs, of the forced map
        and of `freed`, and `unsat`. The first mark starts the logs: the
        writes before it are kept nowhere, and no undo goes back past it.
        """
        if self.queue:
            raise ValueError("a mark needs a fixpoint: propagate first")
        if self._writes is _UNLOGGED:
            self._writes, self._occs = [], []
        return len(self._writes), len(self._occs), len(self.forced), len(self.freed), self.unsat

    def undo_to(self, mark) -> None:
        """Return to the fixpoint at which `mark` was taken.

        Restores the live clauses and degrees from the write log, latest
        first; cuts every occurrence list that grew back to its length at
        the mark (lists are never popped or replaced, so each is the same
        object as at the mark); and drops the forces since the mark from
        the end of the forced map, which keeps them in force order. Also
        restores `freed` and `unsat`; empties the queue and the `changed`
        and `singles` logs. Marks taken after this one are void.
        """
        writes_at, occs_at, forced_at, freed_at, unsat = mark
        clauses, degree, writes = self.clauses, self.degree, self._writes
        while len(writes) > writes_at:
            pos, lits = writes.pop()
            for lit in clauses[pos] or ():
                degree[abs(lit)] -= 1
            for lit in lits:
                degree[abs(lit)] += 1
            clauses[pos] = lits
        occ, occs, forced = self.occ, self._occs, self.forced
        while len(occs) > occs_at:
            var, length = occs.pop()
            del occ[var][length:]
        while len(forced) > forced_at:
            forced.popitem()
        del self.freed[freed_at:]
        self.unsat = unsat
        for pos in self.queue:
            self.queued[pos] = 0
        self.queue.clear()
        self.changed.clear()
        self.singles.clear()
        self._vanished.clear()

    def _lose(self, lits, live) -> None:
        """Lower the degrees of the literals in lits but not in live (a subsequence)."""
        degree = self.degree
        kept, width = 0, len(live)
        for lit in lits:
            if kept < width and live[kept] == lit:
                kept += 1
                continue
            var = abs(lit)
            left = degree[var] - 1
            degree[var] = left
            if left == 0:
                self._vanished.append(var)
            elif left == 1:
                self.singles.append(var)


def _settle_clause(lits, forced, force):
    """Evaluate one clause against the forced map and emit consequences.

    Returns ("unsat"|"drop"|"keep", live_literals). Forces discovered
    here go through `force`, which queues the clauses they touch.
    """
    n_true = 0
    if forced.keys().isdisjoint(map(abs, lits)):
        live = lits
    else:
        live = []
        for lit in lits:
            value = forced.get(abs(lit))
            if value is None:
                live.append(lit)
            elif value == (lit > 0):
                n_true += 1
        if n_true >= 2:
            return "unsat", ()

    if len(set(map(abs, live))) == len(live):
        # Distinct variables: no complementary pair, no repeated literal.
        if n_true == 1:
            for lit in live:
                force(abs(lit), lit < 0)
            return "drop", ()
        if not live:
            return "unsat", ()
        if len(live) == 1:
            force(abs(live[0]), live[0] > 0)
            return "drop", ()
        return "keep", lits if len(live) == len(lits) else tuple(live)

    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    order: list[int] = []
    for lit in live:
        v = abs(lit)
        if v not in pos and v not in neg:
            order.append(v)
        if lit > 0:
            pos[v] = pos.get(v, 0) + 1
        else:
            neg[v] = neg.get(v, 0) + 1

    pair_vars = [v for v in order if pos.get(v, 0) >= 1 and neg.get(v, 0) >= 1]
    if pair_vars:
        # A complementary pair contributes exactly one true literal, so
        # two pairs (or a pair plus a true constant) oversatisfy.
        if len(pair_vars) >= 2 or n_true == 1:
            return "unsat", ()
        v = pair_vars[0]
        p, q = pos.get(v, 0), neg.get(v, 0)
        if min(p, q) >= 2:
            return "unsat", ()
        for lit in live:
            if abs(lit) != v:
                force(abs(lit), lit < 0)
        if p == 1 and q == 1:
            pass  # either value works here; var may be freed overall
        elif p == 1:
            force(v, True)  # the lone positive copy is the single true literal
        else:
            force(v, False)
        return "drop", ()

    if n_true == 1:
        for lit in live:
            force(abs(lit), lit < 0)
        return "drop", ()

    # No true constant, no complementary pair. A literal occurring twice
    # with one polarity must be false; forcing it queues this clause again.
    for v in order:
        if pos.get(v, 0) >= 2:
            force(v, False)
        elif neg.get(v, 0) >= 2:
            force(v, True)
    return "keep", tuple(live)
