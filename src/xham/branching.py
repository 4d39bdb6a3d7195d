"""Max Hamming distance by DPLL-style branching over satisfactor roles.

Under any two x-models a variable either keeps one value or flips. The
recursion branches a longest clause three ways, which partition the
model pairs: its chosen literal, the pivot, is true in both models, false
in both, or flips together with exactly one other literal of the clause
(a clause can never straddle a model pair on just one variable, so flips
come in pairs per clause). The third kind rewrites the pivot as the other
literal's complement, which removes it from the formula but keeps it
linked in the state, and marks it as a pivot that must flip: its score
table reads NEG, below any distance, where its two slots agree, so the
pairs in which it stays, which the first two kinds hold, score nothing.
The table of every variable above it carries that constraint up, and a
live variable that it forces to flip is branched on first, with its flip
children alone.

Simplification keeps the search small: extra singletons sharing a clause
pool into one representative slot, and binary clauses turn into recorded
equivalences. Removed variables survive in per-variable link sets — a
generalized assignment — and leaves are scored by `gen_h`, the exact
maximum pairwise Hamming distance over every concrete assignment the
leaf state represents. Every linked variable keeps a score table of
its subtree, built from its children's tables one level down. A removed
variable's links are final, so its table is built once, when it leaves
the formula; a live or root variable's table is built on its first read
and dropped when it gains a link. `gen_h`, `_bound` and `_evaluate` read
tables through `table`; a live variable that never had a link reads
(0, 1, 1, 0) without a build.

The search is a branch and bound on the paper's zero-or-two lemma:
between two x-models every clause holds 0 or 2 flipping literals, so the
variables that flip have degrees summing to at most twice the clauses.
`_bound` turns that budget into a fractional knapsack over a simplified
formula's live variables (weight: the degree; value: the best flip
reading less the best stay reading, every stay added on top), one
knapsack per connected component; a variable that must flip takes its
degree out of the budget first. The best answer found so far travels
down as an integer threshold `need`: a call returns the exact value of
its subtree when that exceeds `need`, and otherwise BOTTOM (only when the
subtree has no x-model) or some int <= need. A subtree whose x-models
hold no pair in which every must-flip pivot flips has a value near NEG,
below any `need`. A node whose `base` plus bound cannot exceed `need` is
cut off; no bound is computed before `need` reaches `base`, so a search
with no answer yet pays nothing.

A connected part of at most `SMALL_PART_VARS` live variables is not
branched at all: `_evaluate` lists its x-models over the live variables'
slot values and returns the best pair's sum of table entries. That is
what branching the part down to empty formulas finds, since the tables
of the live variables already score everything linked below them. A
node values its small parts first, so their exact values, not bounds,
count in `base` before it bounds and branches the rest.
`SMALL_PART_CAP` bounds the states of one listing, and a part past it is
branched as any other.

A subtlety drives the state layout: once a variable represents a pooled
clause slot, its formula occurrences stop meaning "this variable is
true" and start meaning "the pool supplies this clause's satisfactor",
while the variable's own concrete value can disagree (a pool peer may
take the role). Links therefore record which reading they bind to: pool
memberships carry the member's clause polarity on the link, and dual
links carry whether they follow the parent's slot or its concrete value.
In {(1 2), (2 3 4), (4 5 6)} the binary clause ties variable 1 to the
concrete value of 2 before 2 pools clause (2 3 4); once 3 supplies that
clause's satisfactor, 2 reads false even though its slot is active, and
1 must mirror the concrete false, not the slot. Rewrites recorded after
a pool forms bind the slot instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice

from .formula import BOTTOM, Formula, HammingResult, SearchStats
from .propagation import Propagator, components
from .propagation import assign  # noqa: F401  q never calls it; xbench's tracer wraps it here


@dataclass
class GeneralizedAssignment:
    """Partial assignment plus the link forest for removed variables.

    values: slot values of settled variables (for a pool representative
      the slot says "some pool literal is the satisfactor"). free: roots
      whose clauses vanished with both slot values open. sing maps a
      representative to (member, polarity) pairs: singleton peers pooled
      into its clause slot, each remembered with the value that makes its
      own literal the satisfactor. sat holds the same polarity for the
      representative itself. dual maps a variable to
      (child, flip, slot_anchor) triples: the child was rewritten away
      against this variable and mirrors it (inverted when flip is set),
      following the slot value when slot_anchor is set and the concrete
      value otherwise. flips holds the pivots of flip steps: a pivot
      removed by ("dual", p, lit) must read different slots in the two
      models, since the true and false children hold the pairs in which
      it stays, so its table's stay entries read NEG. score caches a
      linked variable's subtree table (see `table`).

    Every removed variable sits in exactly one sing or dual set and the
    links form a forest rooted at valued, free, or still-live variables.
    Links are final once a variable leaves the formula, so `record_sing`
    and `record_dual` fill the table of the variable they remove, from
    its children's, and drop the cached table of the variable that gains
    the link; that one is built again on its next read.
    """

    values: dict[int, bool] = field(default_factory=dict)
    free: list[int] = field(default_factory=list)
    sing: dict[int, list[tuple[int, bool]]] = field(default_factory=dict)
    dual: dict[int, list[tuple[int, bool, bool]]] = field(default_factory=dict)
    sat: dict[int, bool] = field(default_factory=dict)
    score: dict[int, tuple[int, int, int, int]] = field(default_factory=dict)
    flips: set[int] = field(default_factory=set)

    def copy(self) -> "GeneralizedAssignment":
        sing = {v: list(ms) for v, ms in self.sing.items()}
        dual = {v: list(cs) for v, cs in self.dual.items()}
        return GeneralizedAssignment(
            dict(self.values), list(self.free), sing, dual, dict(self.sat), dict(self.score), set(self.flips)
        )

    def root_vars(self) -> set[int]:
        return set(self.values) | set(self.free)

    def record_sing(self, rep_lit: int, victim_lit: int) -> None:
        """Pool a singleton peer into a representative's clause slot.

        The representative must not already head a pool from another
        clause; a previously pooled victim simply nests, its old pool
        expanding off the slot value this membership hands it.
        """
        rep, victim = abs(rep_lit), abs(victim_lit)
        pol = rep_lit > 0
        if self.sat.setdefault(rep, pol) != pol:
            raise ValueError(f"variable {rep} already pools a different clause slot")
        self.sing.setdefault(rep, []).append((victim, victim_lit > 0))
        self._link(rep, victim)

    def record_dual(self, survivor_lit: int, removed_lit: int) -> None:
        survivor, removed = abs(survivor_lit), abs(removed_lit)
        flip = (removed_lit > 0) == (survivor_lit > 0)
        self.dual.setdefault(survivor, []).append((removed, flip, survivor in self.sat))
        self._link(survivor, removed)

    def _link(self, parent: int, child: int) -> None:
        """The child left the formula below parent: fix its table, drop parent's.

        A pivot in `flips` reads NEG where its two slots agree.
        """
        self.score.pop(parent, None)
        table = self.table(child)
        self.score[child] = (NEG, table[1], table[2], NEG) if child in self.flips else table

    def table(self, var: int) -> tuple[int, int, int, int]:
        """Score table of var's subtree, built on the first read after its last link.

        Entry 2*a + b is the largest Hamming distance within the subtree
        when var's slot reads a in the first model and b in the second.
        The cache answers first. It holds the table of every variable
        that left the formula, a flip pivot's among them, and of every
        linked variable read since its last link. Any other variable
        reads (0, 1, 1, 0) when it has no links, and a linked one, whose
        table `_link` dropped, is built here. Every table is symmetric:
        entry 2*b + a equals entry 2*a + b.
        """
        table = self.score.get(var)
        if table is None:
            if var not in self.sing and var not in self.dual:
                return _UNLINKED
            table = self.score[var] = _table(self, var)
        return table

    def absorb(self, forced, freed) -> None:
        """Fold in (variable, value) pairs an engine forced and variables it freed."""
        for var, value in forced:
            if self.values.setdefault(var, value) != value:
                raise ValueError(f"variable {var} forced to both values")
        if freed:
            known_free = set(self.free)
            for var in freed:
                if var not in known_free and var not in self.values:
                    self.free.append(var)

    def validate(self, require_rooted: bool = False) -> None:
        """Check forest invariants; raise ValueError on ill-formed links."""
        parent: dict[int, int] = {}
        rooted = self.root_vars()
        for var, members in self.sing.items():
            if members and var not in self.sat:
                raise ValueError(f"pool head {var} lacks a slot polarity")
        links = [(m, var) for var, members in self.sing.items() for m, _ in members]
        links += [(c, var) for var, children in self.dual.items() for c, _, _ in children]
        for child, var in links:
            if child in parent:
                raise ValueError(f"variable {child} linked from two sets")
            parent[child] = var
        # Variables whose walk already ended at an acceptable root; a walk
        # that meets one stops there, so each link is followed once.
        reaches_root: set[int] = set()
        for child in parent:
            if child in rooted:
                raise ValueError(f"linked variable {child} also carries a value")
            seen = {child}
            cursor = child
            while cursor in parent and cursor not in reaches_root:
                cursor = parent[cursor]
                if cursor in seen:
                    raise ValueError(f"link cycle through variable {cursor}")
                seen.add(cursor)
            if require_rooted and cursor not in reaches_root and cursor not in rooted:
                raise ValueError(f"link tree root {cursor} has no value and is not free")
            reaches_root |= seen

    def universe(self) -> set[int]:
        """All variables the state speaks for."""
        out = self.root_vars() | set(self.sing) | set(self.dual)
        out.update(m for members in self.sing.values() for m, _ in members)
        out.update(c for children in self.dual.values() for c, _, _ in children)
        return out


def slot_options(state: GeneralizedAssignment, var: int, slot: bool):
    """Concrete readings of a variable's slot value.

    Yields (concrete_value, child_slots) pairs, where child_slots maps
    each child linked below the variable to the slot value it reads. For
    a plain variable the slot is the value. For a pool head whose slot is
    active, any one participant's literal may be the satisfactor; peers
    read the slot values induced by that choice. A dual child mirrors the
    slot or the concrete value, as its link says.
    """
    members = state.sing.get(var, ())
    own_pol = state.sat.get(var)
    active = bool(members) and slot == own_pol
    for chosen in (var, *(m for m, _ in members)) if active else (None,):
        value = own_pol == (chosen == var) if active else slot
        child_slots = {m: pol == (m == chosen) for m, pol in members}
        for child, flip, anchor in state.dual.get(var, ()):
            child_slots[child] = (slot if anchor else value) ^ flip
        yield value, child_slots


_UNLINKED = (0, 1, 1, 0)
#: Stay entry of a pivot that must flip. A reading that includes it stays
#: negative, below any distance and any threshold `need`, for formulas of
#: fewer than 2**28 variables.
NEG = -(1 << 30)


def _table(state: GeneralizedAssignment, var: int) -> tuple[int, int, int, int]:
    """Build var's score table from its children's, one level down.

    Entry 2*a + b is the best, over the `slot_options` of slot a and of
    slot b, of whether the two concrete values differ plus each child's
    table entry for the slots it reads. A dual child reads a pair of
    slots or a pair of concrete values, reversed when its link flips, so
    the dual children sum into two four-entry tables. A pool member reads
    its own polarity where it is the chosen satisfactor and the opposite
    elsewhere, so its entry is its unchosen one plus a gain when one
    model or both choose it; only the choices vary with the slots.
    """
    members = state.sing.get(var, ())
    duals = state.dual.get(var, ())
    if not members and not duals:
        return _UNLINKED
    score = state.score
    by_slot = [0, 0, 0, 0]
    by_value = [0, 0, 0, 0]
    unchosen = 0
    # Gains of choosing member i in the first model, the second or both;
    # index 0 chooses no member.
    first, second, both = [0], [0], [0]
    try:
        for child, flip, anchor in duals:
            t = score[child]
            acc = by_slot if anchor else by_value
            if flip:
                t = t[::-1]
            acc[0] += t[0]
            acc[1] += t[1]
            acc[2] += t[2]
            acc[3] += t[3]
        for member, pol in members:
            t = score[member]
            on, off = int(pol), int(not pol)
            idle = t[3 * off]
            unchosen += idle
            first.append(t[2 * on + off] - idle)
            second.append(t[2 * off + on] - idle)
            both.append(t[3 * on] - idle)
    except KeyError as missing:
        raise ValueError(f"linked variable {missing.args[0]} has no score table") from None
    if not members:  # the slot is the concrete value
        return tuple(by_slot[i] + by_value[i] + _UNLINKED[i] for i in range(4))

    # (concrete value, chosen member) per slot reading: an active slot's
    # satisfactor is var itself or one of its members.
    own = int(state.sat[var])
    chosen = [(1 - own, i) for i in range(1, len(first))]
    out = []
    for a in (0, 1):
        picks_a = [(a, 0)] + (chosen if a == own else [])
        for b in (0, 1):
            picks_b = [(b, 0)] + (chosen if b == own else [])
            best = max(
                (value_a != value_b) + by_value[2 * value_a + value_b] + (both[i] if i == j else first[i] + second[j])
                for value_a, i in picks_a
                for value_b, j in picks_b
            )
            out.append(best + by_slot[2 * a + b] + unchosen)
    return tuple(out)


def gen_h(state: GeneralizedAssignment, roots=None) -> int:
    """Exact maximum pairwise Hamming distance represented by a state.

    Roots are independent, so the total is the sum of per-tree maxima; a
    fixed root still contributes through satisfactor choices inside its
    pool and their ripples along dual chains, and a free root may read
    its slot differently in the two models. Both models are scored
    jointly, which stays exact when a chain hangs off a pool participant
    whose concrete value disagrees with its slot.

    Links are final once a variable leaves the formula, so every child
    has its score table and a root reads its own table (`table`): a
    valued root the entry (value, value), a free root its largest. A link
    not recorded through `record_sing`/`record_dual` raises ValueError.

    The tables honour `flips`: the result is the maximum over the pairs
    in which every variable there reads different slots, and negative
    when no such pair exists.
    """
    if roots is None:
        roots = sorted(state.root_vars())
    total = 0
    for var in roots:
        table = state.table(var)
        value = state.values.get(var)
        # A free root may read its slot either way in the two models.
        total += max(table) if value is None else table[3 * value]
    return total


def _simplify(engine: Propagator, state: GeneralizedAssignment) -> bool:
    """Simplify in place on a propagation engine; False when a conflict shows.

    The engine may carry a q child's branch steps. The state records the
    pools and dual links; the caller folds in what the engine forced and
    freed. Each round propagates to a fixpoint, then pools in the first
    clause, by position, that holds at least two singletons one of which
    heads no pool yet; only when no clause can pool does it eliminate the
    first binary clause by dual substitution, in place on the engine. Two
    position heaps stand in for rescanning the formula, both fed from the
    engine's `changed` and `singles` logs: `to_pool` holds every clause
    that may have become poolable (it shrank, was rewritten, or one of
    its variables fell to degree one) and `binaries` every clause that
    may have become binary. A new engine logs every position; below q's
    root the logs hold only what the node's steps touched since its mark,
    at a fixpoint where nothing pools and no clause is binary. Popping the
    smallest position that passes the check makes the same choice, in the
    same order, as a scan of the whole formula would.
    """
    clauses, degree = engine.clauses, engine.degree
    to_pool: list[int] = []
    binaries: list[int] = []
    while engine.propagate():
        for pos in engine.changed:
            heappush(to_pool, pos)
            clause = clauses[pos]
            if clause is not None and len(clause) == 2:
                heappush(binaries, pos)
        for var in engine.singles:
            if degree[var] == 1:
                heappush(to_pool, engine.position_of(var))
        engine.changed.clear()
        engine.singles.clear()

        if _pool_first(engine, state, to_pool):
            continue
        if not _eliminate_first_binary(engine, state, binaries):
            return True
    return False


def _pool_first(engine: Propagator, state: GeneralizedAssignment, to_pool: list[int]) -> bool:
    """Pool a singleton peer in the first poolable clause; False if none is."""
    clauses, degree = engine.clauses, engine.degree
    while to_pool:
        pos = heappop(to_pool)
        clause = clauses[pos]
        if clause is None:
            continue
        singles = [lit for lit in clause if degree[abs(lit)] == 1]
        if len(singles) < 2:
            continue
        # The pool head must not already head a pool from another
        # clause; a head that went singleton again nests as a member.
        fresh = [lit for lit in singles if abs(lit) not in state.sat]
        if not fresh:
            continue
        rep = fresh[0]
        victim = next(lit for lit in singles if lit != rep)
        state.record_sing(rep, victim)
        engine.remove_literal(pos, victim)
        return True
    return False


def _eliminate_first_binary(engine: Propagator, state: GeneralizedAssignment, binaries: list[int]) -> bool:
    """Dual-substitute away the first binary clause; False if there is none."""
    clauses, degree = engine.clauses, engine.degree
    while binaries:
        clause = clauses[heappop(binaries)]
        if clause is None or len(clause) != 2:
            continue
        first, second = clause
        # Keep a non-singleton alive when there is one; the removed
        # side hangs below the survivor either way.
        if degree[abs(second)] == 1 and degree[abs(first)] > 1:
            removed, survivor = second, first
        else:
            removed, survivor = first, second
        engine.substitute(removed, survivor)
        state.record_dual(survivor, removed)
        return True
    return False


def max_hamming_q(
    formula: Formula,
    counter: SearchStats | None = None,
    leaf_hook=None,
) -> HammingResult:
    """Exact max Hamming distance over x-models, by branch and bound.

    Returns the distance only (no witnesses). `counter` collects
    recursion-tree statistics. `leaf_hook(state, trail)`, if given, is
    invoked whenever the formula of a visited node runs empty, with the
    accumulated state and the branch decisions that led there — an
    observation point for verification. Subtrees the bound prunes are
    not visited, so the hook sees only the leaves the search reaches; a
    connected part valued from its x-models (`_evaluate`) is not
    branched, so the hook sees nothing inside it.

    The trail is a tuple of steps, and a child node receives its own
    steps as its instructions: ("true", p) makes literal p true,
    ("false", p) makes it false, and ("dual", p, lit) rewrites p as the
    complement of lit, so that the two flip together, and requires p to
    flip (`GeneralizedAssignment.flips`). A length-4 split
    contributes two steps: the pivot's "false" step and a step on
    another literal of its clause.

    The search is a branch and bound. The best answer found so far goes
    down the tree as a threshold `need`, -1 at the root; each call
    returns its subtree's exact value when that exceeds `need`, and
    otherwise BOTTOM (only when the subtree has no x-model) or some
    int <= need. A node is cut off when its `base` plus `_bound`, the
    zero-or-two degree budget as a fractional knapsack over its live
    variables, cannot exceed `need`. A connected part of at most
    `SMALL_PART_VARS` live variables is valued from its x-models instead
    of branched. The answer stays exact; `counter` counts the nodes and
    leaves of the tree actually visited (see `SearchStats`).
    """
    if counter is None:
        counter = SearchStats()
    engine = Propagator(formula)
    distance = _q(engine, range(len(formula.clauses)), GeneralizedAssignment(), (), counter, leaf_hook, (), -1)
    return HammingResult(distance)


def _q(engine, positions, state, steps, counter, leaf_hook, trail, need):
    """Apply a child's steps on the search's engine, simplify there, and branch.

    The node's formula is the clauses at `positions`. Below the root the
    caller marks the engine at the parent's fixpoint and undoes to it
    afterwards, and every call below the root carries steps. A step that
    propagates to a conflict makes the child BOTTOM before it counts as a
    node. `need` and the value returned follow the contract in the module
    docstring.

    The live clauses split into connected components. Each part small
    enough for `_evaluate` adds its exact value to `base` first, and a
    part with no x-model makes the node BOTTOM. One loop then branches on
    each other part's first longest clause in turn. When the node has a
    bound, each such part's bound is computed once, here, and a part is
    cut off when its bound cannot beat what is left of `need`. The
    branched parts of a split count one node each, as if each were a
    child of its own; a valued part counts none.
    """
    forced_at, freed_at = len(engine.forced), len(engine.freed)
    for step in steps:
        if step[0] == "dual":
            _, pivot, lit = step
            engine.substitute(pivot, lit)
            # The pivot leaves the formula but stays linked below the
            # literal's variable, so the leaf scoring pays for its subtree;
            # it must flip, so its table is fixed with NEG stay entries.
            state.flips.add(abs(pivot))
            state.record_dual(lit, pivot)
        else:
            kind, pivot = step
            engine.force(abs(pivot), (pivot > 0) == (kind == "true"))
        if not engine.propagate():
            return BOTTOM
    trail += steps
    counter.nodes += 1
    if not _simplify(engine, state):
        return BOTTOM
    # The forced map keeps the order of its forces, as undo removes the latest.
    forced, freed = dict(islice(engine.forced.items(), forced_at, None)), engine.freed[freed_at:]
    state.absorb(forced.items(), freed)
    retired = forced.keys() | freed  # the node's new roots

    base = 0
    if retired:
        counter.leaves += 1
        base = gen_h(state, roots=retired)

    clauses = engine.clauses
    live = [pos for pos in positions if clauses[pos] is not None]
    if not live:
        if leaf_hook is not None:
            leaf_hook(state, trail)
        return base

    parts = components(engine, live)
    split = len(parts) > 1
    to_branch = []
    for part in parts:
        value = _evaluate(engine, part, state)
        if value is None:
            to_branch.append(part)
        elif value is BOTTOM:
            return BOTTOM
        else:
            base += value
    bounds = None
    if to_branch and need >= base:
        bounds = [_bound(engine, part, state) for part in to_branch]
        if base + sum(bounds) <= need:
            return need
    total = base
    for i, part in enumerate(to_branch):
        if split:
            counter.nodes += 1
        # Part i must beat what is left of `need` once the exact values
        # before it and the bounds after it are counted.
        sub_need = -1 if bounds is None else need - total - sum(bounds[i + 1 :])
        if bounds and bounds[i] <= sub_need:
            return need
        clause, must_flip = _pick_branch(engine, part, state)
        assert len(clause) >= 3, "units and binaries are gone after simplification"
        sub = _branch(engine, part, state, clause, (), counter, leaf_hook, trail, sub_need, must_flip)
        if sub is BOTTOM:
            return BOTTOM
        if sub <= sub_need:
            return need
        total += sub
    return total


def _evaluate(engine, positions, state):
    """The exact value of a small connected part, from its x-models; None past the limits.

    A part of at most `SMALL_PART_VARS` live variables is valued without
    branching. A depth-first search lists its x-models over the live
    variables' slot values as bitmasks: each clause in turn picks its
    satisfactor, its other literals go false, and a pick that contradicts
    an earlier clause's is dropped. The value is the best pair of those
    models, A = B included, of the sum over the variables of their table
    entries 2*a + b, the same tables `gen_h` and `_bound` read, so flip
    pivots, pools and dual links count with no rule of their own; a part
    where no pair honours every flip reads negative. A part without an
    x-model is BOTTOM. The search gives up, returning None, once it has
    visited `SMALL_PART_CAP` states (its models among them), so a part
    scores at most that many squared pairs.

    A table entry splits as t00 + d*(a + b) + c*a*b, with d = t01 - t00
    and c = t11 - 2*t01 + t00 (tables are symmetric), so a pair scores
    t00 summed, plus each model's own d-sum, plus the c-sum over the
    variables both models set. Variables are grouped by d and by c, and
    a group sums with one popcount.
    """
    clauses = engine.clauses
    limit = SMALL_PART_VARS
    # Per clause, its variables' bits and, per satisfactor, the variables
    # the pick sets true: those of the negative literals, which are false,
    # with the chosen literal's variable flipped. Clauses at a fixpoint
    # hold distinct variables, so no pick contradicts itself.
    bits = {}
    options = []
    for pos in positions:
        span = negative = 0
        lit_bits = []
        for lit in clauses[pos]:
            var = abs(lit)
            bit = bits.get(var)
            if bit is None:
                bit = bits[var] = 1 << len(bits)
            lit_bits.append(bit)
            span |= bit
            if lit < 0:
                negative |= bit
        if len(bits) > limit:
            return None
        options.append((span, [negative ^ bit for bit in lit_bits]))
    # Each next clause is the one with the fewest variables no earlier
    # clause set, so picks clash as early as they can and fewer parts run
    # past `SMALL_PART_CAP`.
    order, fixed = [], 0
    while options:
        first, fewest = 0, limit + 1
        for i, (span, _) in enumerate(options):
            new = (span & ~fixed).bit_count()
            if new < fewest:
                first, fewest = i, new
        order.append(options.pop(first))
        fixed |= order[-1][0]
    options = order

    models = []
    budget = SMALL_PART_CAP
    depth = len(options)
    stack = [(0, 0, 0)]
    while stack:
        i, fixed, ones = stack.pop()
        budget -= 1
        if budget < 0:
            return None
        if i == depth:
            models.append(ones)
            continue
        span, picks = options[i]
        seen = span & fixed
        for pick in picks:
            if not (pick ^ ones) & seen:
                stack.append((i + 1, fixed | span, ones | pick))
    if not models:
        return BOTTOM

    base = 0
    single, joint = {}, {}
    for var, bit in bits.items():
        t = state.table(var)
        base += t[0]
        d, c = t[1] - t[0], t[3] - 2 * t[1] + t[0]
        if d:
            single[d] = single.get(d, 0) | bit
        if c:
            joint[c] = joint.get(c, 0) | bit
    joint = joint.items()
    own = [(sum(d * (m & mask).bit_count() for d, mask in single.items()), m) for m in models]
    return base + max(
        own_a + own_b + sum(c * (a & b & mask).bit_count() for c, mask in joint)
        for i, (own_a, a) in enumerate(own)
        for own_b, b in own[i:]
    )


#: A connected part with at most this many live variables is valued from
#: its x-models by `_evaluate` instead of branched.
SMALL_PART_VARS = 24
#: The most search states, x-models included, `_evaluate` visits in one
#: part before it leaves the part to branching.
SMALL_PART_CAP = 512


def _bound(engine, positions, state) -> int:
    """Upper bound on the distance a simplified, connected formula can add.

    By the zero-or-two lemma the variables that flip between two x-models
    fill 0 or 2 literals of every clause, so their degrees sum to at most
    twice the live clauses (those at `positions`). A live variable adds its
    best stay reading (its slot the same in both models) or, if it flips,
    its best flip reading; the bound adds every stay and a fractional
    knapsack of the flip gains, weighted by degree, in that capacity.

    A variable whose stay readings are both negative must flip: it adds
    its flip reading and takes its degree from the capacity before the
    knapsack. When those take more than the capacity, no pair of models
    honours every flip and the bound is NEG.
    """
    clauses, degree = engine.clauses, engine.degree
    total = 0
    room = 2 * len(positions)
    gains = []
    for var in sorted({abs(lit) for pos in positions for lit in clauses[pos]}):
        table = state.table(var)
        stay, flip = max(table[0], table[3]), max(table[1], table[2])
        if stay < 0:
            total += flip
            room -= degree[var]
            continue
        total += stay
        if flip > stay:
            gains.append((flip - stay, degree[var]))
    if room < 0:
        return NEG
    # Ratios of ints below 2**26 order exactly as floats, ties included.
    gains.sort(key=lambda gain: gain[0] / gain[1], reverse=True)
    for value, weight in gains:
        if weight > room:
            return total + value * room // weight
        total += value
        room -= weight
    return total


def _branch(engine, positions, state, clause, prefix, counter, leaf_hook, trail, need, must_flip=None):
    """Branch on a clause's pivot; each child applies `prefix` plus its own step.

    The children partition the node's model pairs: the pivot is true in
    both models, false in both, or flips together with exactly one other
    literal of the clause (a clause can never straddle a model pair on
    just one variable). A flip child ("dual", pivot, lit) keeps only the
    pairs in which the pivot flips: the step puts the pivot in `flips`.
    Each child is a mark, its `_q` and an undo. The flip children run only
    when neither the true nor the false child is BOTTOM. `need` is as for
    `_q`; each child after the first must beat the best of `need` and its
    earlier siblings.

    `must_flip`, when given, is a literal of the clause whose variable
    must flip. It is the pivot and gets its flip children only, and
    BOTTOM stays exact: in every x-model of the node either the pivot is
    true and its partner false, or the pivot is false and exactly one
    other literal, its partner, is true. Otherwise the pivot is
    `_pick_pivot`'s.

    For a length-4 clause, setting the pivot false leaves a ternary
    clause worth branching immediately (it balances the recurrence). The
    split is only taken when propagation leaves that ternary clause
    intact (a probe: mark, force, propagate, undo); any cascade falls back
    to the plain false child, which is always sound. The split's children
    re-apply the false step, as an undo clears the logs `_simplify` reads.
    """
    pivot = _pick_pivot(clause, engine.degree) if must_flip is None else must_flip
    rest = tuple(lit for lit in clause if lit != pivot)

    def child(need, *step):
        mark = engine.mark()
        answer = _q(engine, positions, state.copy(), prefix + (step,), counter, leaf_hook, trail, need)
        engine.undo_to(mark)
        return answer

    def flip_children(best, need):
        for lit in rest:
            best = max(best, child(max(need, best), "dual", pivot, lit))
        return best

    if must_flip is not None:
        return flip_children(BOTTOM, need)
    ans_true = child(need, "true", pivot)
    need = max(need, ans_true)
    split = False
    if len(clause) == 4:
        mark = engine.mark()
        engine.force(abs(pivot), pivot < 0)
        split = engine.propagate() and rest in (engine.clauses[pos] for pos in positions)
        engine.undo_to(mark)
    if split:
        steps = prefix + (("false", pivot),)
        ans_false = _branch(engine, positions, state, rest, steps, counter, leaf_hook, trail, need)
    else:
        ans_false = child(need, "false", pivot)
    if ans_true is BOTTOM or ans_false is BOTTOM:
        return max(ans_true, ans_false)
    return flip_children(max(ans_true, ans_false), need)


def _pick_branch(engine, positions, state):
    """The clause a connected part branches on, and its literal that must flip.

    A live variable whose two stay readings are negative has a flip pivot
    below it that ties it to a flip too. The part then branches on the
    longest clause, the first by position among equals, that holds such a
    variable, and names its literal (the lowest-indexed, if several).
    Otherwise it branches on the first longest clause and names none.
    Only the part's linked live variables are read, since no other can
    have a flip pivot below it, and none at all while no flip step lies
    on the path.
    """
    clauses = engine.clauses
    if state.flips:
        sing, dual = state.sing, state.dual
        must = set()
        for var in {abs(lit) for pos in positions for lit in clauses[pos]}:
            if var in sing or var in dual:
                table = state.table(var)
                if table[0] < 0 and table[3] < 0:
                    must.add(var)
        if must:
            clause = max((clauses[pos] for pos in positions if any(abs(lit) in must for lit in clauses[pos])), key=len)
            return clause, min((lit for lit in clause if abs(lit) in must), key=abs)
    return max((clauses[pos] for pos in positions), key=len), None


def _pick_pivot(clause, degree):
    """Lowest-indexed non-singleton literal, or lowest-indexed literal.

    Pooling normally leaves at most one singleton per clause, but a
    pool head may return to degree one, in which case any literal is a
    sound (if less balanced) pivot.
    """
    non_singletons = [lit for lit in clause if degree[abs(lit)] > 1]
    if non_singletons:
        return min(non_singletons, key=abs)
    return min(clause, key=abs)
