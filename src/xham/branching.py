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

A node's live clauses split into connected parts in one walk,
`_parts`, which also numbers the variables of each part of fewer than
`SMALL_PART_CAP` clauses and gives each of its clauses two bitmasks.
Each part is first handed to `_evaluate`, which lists its x-models from
those masks, over the live variables' slot values, and returns the best
pair's sum of table entries (`_best_pair`). That is what branching the
part down to empty formulas finds, since the tables of the live
variables already score everything linked below them. `_best_pair`
groups the models by their bits on the part's linked variables, so a
pair of groups reads those tables once and adds the largest popcount of
the XOR of two of their models on the other bits. `SMALL_PART_CAP`
bounds the states of one listing, and only a part whose listing runs
past it is branched. A node values its parts first, so their exact
values, not bounds, count in `base` before it bounds and branches the
rest.

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

from heapq import heappop, heappush
from itertools import islice

from .formula import BOTTOM, Formula, HammingResult, Record, SearchStats
from .propagation import _UNLOGGED, Propagator
from .propagation import assign  # noqa: F401  q never calls it; xbench's tracer wraps it here


class GeneralizedAssignment(Record):
    """The link forest for removed variables, over the search's engine.

    The roots of the forest live on q's one engine, not here: its forced
    map holds the slot values of settled variables (for a pool
    representative the slot says "some pool literal is the
    satisfactor"), and its freed list the roots whose clauses vanished
    with both slot values open; every other root is still live. The
    engine's map and list, over the path from the root, together with
    this state are the paper's generalized assignment.

    sing maps a representative to (member, polarity) pairs: singleton
    peers pooled into its clause slot, each remembered with the value
    that makes its own literal the satisfactor. sat holds the same
    polarity for the representative itself. dual maps a variable to
    (child, flip, slot_anchor) triples: the child was rewritten away
    against this variable and mirrors it (inverted when flip is set),
    following the slot value when slot_anchor is set and the concrete
    value otherwise. flips holds the pivots of flip steps: a pivot
    removed by ("dual", p, lit) must read different slots in the two
    models, since the true and false children hold the pairs in which
    it stays, so its table's stay entries read NEG. score caches a
    linked variable's subtree table (see `table`).

    Every removed variable sits in exactly one sing or dual set and the
    links form a forest rooted at forced, freed, or still-live variables.
    Links are final once a variable leaves the formula, so `record_sing`
    and `record_dual` fill the table of the variable they remove, from
    its children's, and drop the cached table of the variable that gains
    the link; that one is built again on its next read.
    """

    _fields = ("sing", "dual", "sat", "score", "flips")

    def __init__(
        self,
        sing: dict[int, list[tuple[int, bool]]] | None = None,
        dual: dict[int, list[tuple[int, bool, bool]]] | None = None,
        sat: dict[int, bool] | None = None,
        score: dict[int, tuple[int, int, int, int]] | None = None,
        flips: set[int] | None = None,
    ):
        self.sing = {} if sing is None else sing
        self.dual = {} if dual is None else dual
        self.sat = {} if sat is None else sat
        self.score = {} if score is None else score
        self.flips = set() if flips is None else flips

    def copy(self) -> "GeneralizedAssignment":
        sing = {v: list(ms) for v, ms in self.sing.items()}
        dual = {v: list(cs) for v, cs in self.dual.items()}
        return GeneralizedAssignment(sing, dual, dict(self.sat), dict(self.score), set(self.flips))

    def record_sing(self, rep_lit: int, victim_lit: int) -> None:
        """Pool a singleton peer into a representative's clause slot.

        The representative must not already head a pool from another
        clause; a previously pooled victim simply nests, its old pool
        expanding off the slot value this membership hands it. The victim
        leaves the formula, so its table is final and is filled here: its
        cached one, (0, 1, 1, 0) when it has no links, or `_table`'s. The
        representative's cached table is dropped. Every root pool and every
        pool a chain step takes comes through here, so the body allocates
        nothing but the link and, for a new head, its one-entry list.
        """
        rep = rep_lit if rep_lit > 0 else -rep_lit
        victim = victim_lit if victim_lit > 0 else -victim_lit
        pol = rep_lit > 0
        if self.sat.setdefault(rep, pol) != pol:
            raise ValueError(f"variable {rep} already pools a different clause slot")
        members = self.sing.get(rep)
        if members is None:
            self.sing[rep] = [(victim, victim_lit > 0)]
        else:
            members.append((victim, victim_lit > 0))
        score = self.score
        score.pop(rep, None)
        table = score.get(victim)
        if table is None:
            table = _table(self, victim) if victim in self.sing or victim in self.dual else _UNLINKED
        score[victim] = (NEG, table[1], table[2], NEG) if victim in self.flips else table

    def record_dual(self, survivor_lit: int, removed_lit: int) -> None:
        """Link a variable rewritten away below the survivor it mirrors.

        The removed variable leaves the formula, so its table is final and
        is filled here, as `record_sing` fills a victim's. Every step of a
        chain removes a variable with at most one pool member and at most
        one dual child, and such a table takes `_table`'s closed form here,
        without a call or a list: a lone dual child, every removed variable
        of a binary chain but the first, hands up its table, reversed when
        the link flips, plus (0, 1, 1, 0); a head of one member, every
        removed variable of a longer chain, reads that member's unchosen
        entry, gain and both-model gain against its child's table, which
        the link files by slot or by value. Only a variable with more
        links calls `_table`. A pivot in `flips` reads NEG where its two
        slots agree. The survivor's cached table is dropped.
        """
        survivor = survivor_lit if survivor_lit > 0 else -survivor_lit
        removed = removed_lit if removed_lit > 0 else -removed_lit
        dual, score = self.dual, self.score
        link = (removed, (removed_lit > 0) == (survivor_lit > 0), survivor in self.sat)
        links = dual.get(survivor)
        if links is None:
            dual[survivor] = [link]
        else:
            links.append(link)
        if survivor in score:
            del score[survivor]
        if removed in score:
            table = score[removed]
        else:
            members, children = self.sing.get(removed), dual.get(removed)
            if members and len(members) > 1 or children and len(children) > 1:
                table = _table(self, removed)
            elif members:  # `_table`'s pool-head form with one member and at most one child
                ((member, pol),) = members
                t0, t1, t2, t3 = score[member]
                if not pol:  # read the member's table from its own literal's side
                    t0, t1, t3 = t3, t2, t0
                gain, chosen = t1 - t0, t3 - t0
                s0 = s1 = s2 = s3 = v0 = v1 = v3 = 0  # the by_slot and by_value sums
                if children:
                    ((child, flip, anchor),) = children
                    u0, u1, u2, u3 = score[child]
                    if flip:
                        u0, u1, u2, u3 = u3, u2, u1, u0
                    if anchor:
                        s0, s1, s2, s3 = u0, u1, u2, u3
                    else:
                        v0, v1, v3 = u0, u1, u3
                own = self.sat[removed]
                stay, active, mixed = (v0, v3, v1 + 1) if own else (v3, v0, v1 + 1)
                # max(d(o, o), d(o, x) + G, d(x, x) + B) and max(d(o, x), d(x, x) + G)
                if mixed + gain > active:
                    active = mixed + gain
                if stay + chosen > active:
                    active = stay + chosen
                if stay + gain > mixed:
                    mixed = stay + gain
                low, high = (stay, active) if own else (active, stay)
                table = (s0 + t0 + low, s1 + t0 + mixed, s2 + t0 + mixed, s3 + t0 + high)
            elif children:
                ((child, flip, _),) = children
                t0, t1, t2, t3 = score[child]
                table = (t3, t2 + 1, t1 + 1, t0) if flip else (t0, t1 + 1, t2 + 1, t3)
            else:
                table = _UNLINKED
        score[removed] = (NEG, table[1], table[2], NEG) if removed in self.flips else table

    def table(self, var: int) -> tuple[int, int, int, int]:
        """Score table of var's subtree, built on the first read after its last link.

        Entry 2*a + b is the largest Hamming distance within the subtree
        when var's slot reads a in the first model and b in the second.
        The cache answers first. It holds the table of every variable
        that left the formula, a flip pivot's among them, and of every
        linked variable read since its last link. Any other variable
        reads (0, 1, 1, 0) when it has no links, and a linked one, whose
        table its latest link dropped, is built here. Every table is
        symmetric: entry 2*b + a equals entry 2*a + b.
        """
        table = self.score.get(var)
        if table is None:
            if var not in self.sing and var not in self.dual:
                return _UNLINKED
            table = self.score[var] = _table(self, var)
        return table


_UNLINKED = (0, 1, 1, 0)
#: Stay entry of a pivot that must flip. A reading that includes it stays
#: negative, below any distance and any threshold `need`, for formulas of
#: fewer than 2**28 variables.
NEG = -(1 << 30)


def _table(state: GeneralizedAssignment, var: int) -> tuple[int, int, int, int]:
    """Build var's score table from its children's, one level down.

    Entry 2*a + b is the best, over the readings of slot a and of slot b
    (`slot_options` in tests/conftest.py is the reference), of whether
    the two concrete values differ plus each child's table entry for the
    slots it reads. A dual child reads a pair of
    slots or a pair of concrete values, reversed when its link flips, so
    the dual children sum into two four-entry tables. Without pool members
    the slot is the concrete value, so they sum into one, plus
    (0, 1, 1, 0) for the variable itself. A pool member reads
    its own polarity where it is the chosen satisfactor and the opposite
    elsewhere, so its entry is its unchosen one plus a gain when one
    model or both choose it; only the choices vary with the slots.

    Tables are symmetric (see `table`), so a member gains as much chosen
    in the first model as in the second, and the best choice has a closed
    form. Let o be the slot's own polarity, x = 1 - o and
    d(va, vb) = (va != vb) + by_value[2*va + vb]; let G be the best gain
    of a member chosen in one model, P the best sum of two different
    members' gains and B the best gain of a member chosen in both. A slot
    reading x chooses no member and has value x; a slot reading o has
    value o when var itself is the satisfactor and x when a member is.
    So entry xx reads d(x, x), each mixed entry max(d(o, x), d(x, x) + G)
    and entry oo max(d(o, o), d(o, x) + G, d(x, x) + max(P, B)), each
    plus its by_slot term and every member's unchosen entry. A lone
    member is its own G and B, with no P; a lone dual child, and no
    member, hands up its table, reversed when the link flips, plus
    (0, 1, 1, 0).
    """
    members = state.sing.get(var, ())
    duals = state.dual.get(var, ())
    if not members and not duals:
        return _UNLINKED
    score = state.score
    try:
        if not members:  # the slot is the concrete value: one sum of the children's tables
            if len(duals) == 1:
                child, flip, _ = duals[0]
                t0, t1, t2, t3 = score[child]
                return (t3, t2 + 1, t1 + 1, t0) if flip else (t0, t1 + 1, t2 + 1, t3)
            s0 = s1 = s2 = s3 = 0
            for child, flip, _ in duals:
                t0, t1, t2, t3 = score[child]
                if flip:
                    t0, t1, t2, t3 = t3, t2, t1, t0
                s0 += t0
                s1 += t1
                s2 += t2
                s3 += t3
            return s0, s1 + 1, s2 + 1, s3
        by_slot = [0, 0, 0, 0]
        by_value = [0, 0, 0, 0]
        for child, flip, anchor in duals:
            t = score[child]
            acc = by_slot if anchor else by_value
            if flip:
                t = t[::-1]
            acc[0] += t[0]
            acc[1] += t[1]
            acc[2] += t[2]
            acc[3] += t[3]
        if len(members) == 1:
            ((member, pol),) = members
            t0, t1, t2, t3 = score[member]
            if not pol:  # read the member's table from its own literal's side
                t0, t1, t3 = t3, t2, t0
            unchosen, gain, chosen = t0, t1 - t0, t3 - t0
        else:
            unchosen = 0
            # Per member, the gain of choosing it in one model and in both.
            gains, both = [], []
            for member, pol in members:
                t = score[member]
                if not pol:  # read the member's table from its own literal's side
                    t = t[::-1]
                idle = t[0]
                unchosen += idle
                gains.append(t[1] - idle)
                both.append(t[3] - idle)
            gain, chosen = max(gains), max(both)
            gains.remove(gain)
            chosen = max(chosen, gain + max(gains))
    except KeyError as missing:
        raise ValueError(f"linked variable {missing.args[0]} has no score table") from None

    o = int(state.sat[var])
    x = 1 - o
    stay, mixed = by_value[3 * x], by_value[1] + 1  # d(x, x) and d(o, x)
    active = max(by_value[3 * o], mixed + gain, stay + chosen)
    mixed = max(mixed, stay + gain)
    low, high = (stay, active) if o else (active, stay)
    return (
        by_slot[0] + unchosen + low,
        by_slot[1] + unchosen + mixed,
        by_slot[2] + unchosen + mixed,
        by_slot[3] + unchosen + high,
    )


def gen_h(state: GeneralizedAssignment, forced, freed) -> int:
    """Exact maximum pairwise Hamming distance over the trees of some roots.

    The roots are the (variable, value) pairs of `forced`, settled
    variables, and the variables of `freed`, free ones, as the search's
    engine holds them. Roots are independent, so the total is the sum of
    per-tree maxima; a forced root still contributes through satisfactor
    choices inside its pool and their ripples along dual chains, and a
    free root may read its slot differently in the two models. Both
    models are scored jointly, which stays exact when a chain hangs off a
    pool participant whose concrete value disagrees with its slot.

    Links are final once a variable leaves the formula, so every child
    has its score table and a root reads its own table (`table`): a
    forced root the entry (value, value), a free root its largest. A link
    not recorded through `record_sing`/`record_dual` raises ValueError.

    The tables honour `flips`: the result is the maximum over the pairs
    in which every variable there reads different slots, and negative
    when no such pair exists.
    """
    table = state.table
    total = 0
    for var, value in forced:
        total += table(var)[3 * value]
    for var in freed:
        total += max(table(var))
    return total


def _simplify(engine: Propagator, state: GeneralizedAssignment) -> bool:
    """Simplify in place on a propagation engine; False when a conflict shows.

    The engine may carry a q child's branch steps. The state records the
    pools and dual links; what the engine forced and freed stays on the
    engine, where the caller reads it. Each round propagates to a
    fixpoint, then pools in the first clause, by position, that holds at
    least two singletons one of which heads no pool yet, and again while
    a clause can pool; only when none can does it eliminate the first
    binary clause by dual substitution, in place on the engine. A pool queues its clause only when it leaves
    fewer than two literals, and only then does the next pool wait for a
    round: after any other a round would find the engine idle and make
    the same choice. When the removed side has degree one, as on every
    step of a chain, the clause is its only occurrence, and the loop
    drops it itself, on the engine's fields, with no rewrite: the removed
    side's degree goes to 0 and the survivor's falls by one. Under a mark
    the drop logs one write; before the engine's first mark nothing
    undoes the root, so it builds no trail entry. Otherwise the
    substitution rewrites every clause holding the removed side, drops
    that clause itself with every other clause it turns into a
    complementary pair, such as a copy, and queues a rewrite only when it
    repeats a variable.

    Position queues stand in for rescanning the formula. A binary
    clause comes from one of three: the run, the `changed` log sorted
    when the last run is spent and stepped by index (a new engine logs
    its binary clauses in position order, so at the root the sort is one
    linear pass); `later`, a heap of the positions logged while a run is
    still being stepped; and a survivor's clause that a pool on the spot
    (below) leaves binary, which goes straight to the next step when it
    comes before every pending entry and onto `later` otherwise. Each
    step takes the smallest position of the three and skips a clause no
    longer binary, so the order is that of one heap over every clause
    that may have become binary: the first binary clause by position.
    `to_pool` is a heap fed from the engine's `singles` log alone: a
    clause can only start to pool when one of its variables falls to
    degree one, and each such variable pushes its
    clause once if the clause can pool then (`_pool_pair`). So a clause
    has at least as many entries as fresh singletons (heading no pool),
    one fewer while it holds no pool head: a push is skipped only on a
    clause with fewer than two singletons or no fresh one, which needs no
    entry; a pool uses one entry and takes at least one fresh singleton,
    so a clause that can pool always has an entry left, and a pooled
    clause is not pushed again. `_pool_first` runs only on a heap that
    holds an entry. A new engine logs its binary clauses and degree-one
    variables; below q's root the logs hold only what the node's steps
    touched since its mark, at a fixpoint where nothing pools and no
    clause is binary. So in the first round on an engine before its
    first mark, q's root, the log names every singleton of every clause
    and no pool head exists yet (a caller that steps an engine between
    two simplifications marks it first, as q does): a clause named by k
    degree-one variables can pool exactly when k >= 2, and takes k - 1
    entries, one per name after its first, with no clause read; a
    degree-one variable with one occurrence entry needs no lookup
    either. Popping the smallest position that passes the check makes
    the same choice, in the same order, as a scan of the whole formula
    would.

    A drop changes one degree, the survivor's, and queues nothing, and
    the pools before it ran `to_pool` dry, so no clause can pool. The
    survivor's clause is then the only one that can start to: when the
    survivor falls to degree one in a clause `_pool_pair` takes, the
    loop pools that clause right there, with no entry, removing the
    member with the writes of `Propagator.remove_literal`, but for the
    trail entry before the first mark and for the `changed` entry of a
    clause left with fewer than three literals: the loop queues a binary
    one itself and the engine's queue settles a shorter one. That one
    pool is all the clause can take: before the drop it held at most
    one singleton or no fresh one, and a pool changes no degree but the member's, so it leaves one
    singleton or, the survivor now heading it, none fresh. Then, as
    after a survivor that keeps degree two or more or whose clause
    cannot pool, the loop drops or substitutes the next binary clause at
    once: a round would find the engine at its fixpoint and make these
    same choices. Only a pool that leaves fewer than two literals, which
    queues its clause, and a survivor that leaves the formula, which the
    engine logs as freed, go back round. A chain of any clause length so
    takes two rounds. The drop, the lookup of the survivor's clause,
    tried first at its latest occurrence entry, and the pool's removal
    are written out in the loop. A live variable's occurrence entry names
    a dropped clause or one that holds the variable, since only a force,
    a rewrite away or a pool takes a variable out of a live clause, and
    each takes it out of the formula; so the survivor's clause is its
    first entry whose clause is live. A binary survivor clause whose other
    side has degree two or more holds one singleton, so it is not asked
    about; and `record_dual` builds a removed variable's table with at
    most one pool member and one dual child in closed form. So a step of
    a binary chain makes one call, `record_dual`, and a step of a
    ternary chain three, `record_dual`, `_pool_pair` and `record_sing`.
    Neither touches a heap: a binary chain's run is its clauses in
    order, and each clause a ternary chain's drop pools is the first
    binary one.
    """
    clauses, degree, changed, singles, sat = engine.clauses, engine.degree, engine.changed, engine.singles, state.sat
    occ, writes, queue = engine.occ, engine._writes, engine.queue
    propagate, position_of, substitute = engine.propagate, engine.position_of, engine.substitute
    record_sing, record_dual = state.record_sing, state.record_dual
    to_pool: list[int] = []
    run: list[int] = []  # the first-binary run, sorted, stepped by `at`
    later: list[int] = []  # a heap of positions that turned binary after the run was taken
    at = end = 0
    straight = None
    logged = writes is not _UNLOGGED
    fresh = not logged
    while propagate():
        if fresh:  # the log holds every degree-one variable: a clause two of them name can pool
            fresh, named = False, set()
            for var in singles:
                if degree[var] == 1:
                    positions = occ[var]
                    pos = positions[0] if len(positions) == 1 else position_of(var)
                    if pos in named:
                        heappush(to_pool, pos)
                    named.add(pos)
        else:
            for var in singles:
                if degree[var] == 1:
                    pos = position_of(var)
                    if _pool_pair(clauses[pos], degree, sat):
                        heappush(to_pool, pos)
        singles.clear()
        while to_pool and _pool_first(engine, state, to_pool):
            if queue:
                break  # the pool left fewer than two literals: settle them first
        else:
            if at < end:
                for pos in changed:
                    if len(clauses[pos] or ()) == 2:
                        heappush(later, pos)
            else:  # the run is spent: the log is the next one
                run, at = sorted(changed), 0
                end = len(run)
            changed.clear()
            while True:  # dual-substitute away the first binary clause
                if straight is not None:
                    pos, straight = straight, None
                elif later and (at == end or later[0] < run[at]):
                    pos = heappop(later)
                elif at < end:
                    pos = run[at]
                    at += 1
                else:
                    return True
                clause = clauses[pos]
                if clause is None or len(clause) != 2:
                    continue
                first, second = clause
                gone = first if first > 0 else -first
                var = second if second > 0 else -second
                # Keep a non-singleton alive when there is one; the removed
                # side hangs below the survivor either way.
                if degree[var] == 1 and degree[gone] > 1:
                    removed, survivor, gone, var = second, first, var, gone
                else:
                    removed, survivor = first, second
                if degree[gone] != 1:
                    substitute(removed, survivor)
                    record_dual(survivor, removed)
                    break
                # The drop: the clause is the removed side's one occurrence.
                if logged:
                    writes.append((pos, clause))
                clauses[pos] = None
                degree[gone] = 0
                left = degree[var] - 1
                degree[var] = left
                record_dual(survivor, removed)
                if not left:
                    engine._vanished.append(var)
                    break
                if left == 1:
                    positions = occ[var]
                    pos = positions[-1]  # on a chain the survivor's one live clause is its latest
                    clause = clauses[pos]
                    if clause is None:  # the dropped clause came after it
                        for pos in positions:
                            clause = clauses[pos]
                            if clause is not None:
                                break
                    if len(clause) == 2:
                        first, second = clause
                        if degree[first if first > 0 else -first] + degree[second if second > 0 else -second] > 2:
                            continue  # a binary clause pools only when both are singletons
                    pair = _pool_pair(clause, degree, sat)
                    if pair:  # the one pool the survivor's clause can take
                        head, member = pair
                        record_sing(head, member)
                        if logged:
                            writes.append((pos, clause))
                        cut = clause.index(member)
                        clause = clauses[pos] = clause[:cut] + clause[cut + 1 :]
                        degree[abs(member)] = 0
                        if len(clause) < 2:
                            engine._enqueue(pos)
                            break  # settle it first
                        if len(clause) > 2:
                            changed.append(pos)
                        elif (at < end and run[at] < pos) or (later and later[0] < pos):
                            heappush(later, pos)
                        else:
                            straight = pos  # the first binary clause: it goes next
    return False


def _pool_first(engine: Propagator, state: GeneralizedAssignment, to_pool: list[int]) -> bool:
    """Pool a singleton peer in the first poolable clause; False if none is."""
    clauses, degree = engine.clauses, engine.degree
    while to_pool:
        pos = heappop(to_pool)
        clause = clauses[pos]
        pair = clause is not None and _pool_pair(clause, degree, state.sat)
        if pair:
            rep, victim = pair
            state.record_sing(rep, victim)
            engine.remove_literal(pos, victim)
            return True
    return False


def _pool_pair(clause, degree, sat):
    """The head and the member of the clause's next pool, or None if it cannot pool.

    A clause pools when it holds at least two singletons one of which
    heads no pool: the head must not already head a pool from another
    clause, and a head that went singleton again nests as a member. The
    head is the first such singleton, the member the first other one.
    """
    rep = other = None
    for lit in clause:
        if degree[abs(lit)] == 1:
            if rep is None and abs(lit) not in sat:
                rep = lit
            elif other is None:
                other = lit
            if rep is not None and other is not None:
                return rep, other
    return None


def max_hamming_q(
    formula: Formula,
    counter: SearchStats | None = None,
    leaf_hook=None,
) -> HammingResult:
    """Exact max Hamming distance over x-models, by branch and bound.

    Returns the distance only (no witnesses). `counter` collects
    recursion-tree statistics. `leaf_hook(state, forced, freed, trail)`,
    if given, is invoked whenever the formula of a visited node runs
    empty, with the accumulated state, copies of the engine's forced map
    and freed list (the roots of the state's link forest, over the whole
    path from the root) and the branch decisions that led there — an
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
    variables, cannot exceed `need`. A connected part whose x-model
    listing finishes within `SMALL_PART_CAP` states is valued from its
    x-models instead of branched. The answer stays exact; `counter`
    counts the nodes and leaves of the tree actually visited (see
    `SearchStats`).
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

    The live clauses split into connected parts, walked once by
    `_parts`, which also gives every part under `SMALL_PART_CAP` clauses
    its masks. Each part that `_evaluate` values from them within its cap
    adds its exact value to `base` first, and a part with no x-model
    makes the node BOTTOM. One loop then branches on each other part's
    first longest clause in turn.
    When the node has a bound, each such part's bound is computed once,
    here, and a part is cut off when its bound cannot beat what is left
    of `need`. The branched parts of a split count one node each, as if
    each were a child of its own; a valued part counts none.
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
    base = 0
    if len(engine.forced) > forced_at or len(engine.freed) > freed_at:  # the node retired roots
        counter.leaves += 1
        # The forced map keeps the order of its forces, as undo removes the latest.
        base = gen_h(state, islice(engine.forced.items(), forced_at, None), engine.freed[freed_at:])

    clauses = engine.clauses
    live = [pos for pos in positions if clauses[pos] is not None]
    if not live:
        if leaf_hook is not None:
            leaf_hook(state, dict(engine.forced), list(engine.freed), trail)
        return base

    parts = _parts(engine, live)
    split = len(parts) > 1
    to_branch = []
    for part in parts:
        value = _evaluate(part, state)
        if value is None:
            to_branch.append(part[0])
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


def _parts(engine, positions):
    """The connected parts of the live clauses at sorted `positions`, with their masks.

    Clauses that share a variable connect. As in `propagation.components`,
    the walk is breadth-first over the engine's occurrence lists and reads
    each variable's list once, when it first meets the variable: that read
    puts every clause holding the variable into its part. Parts come in
    the order of their first position, each a triple (positions, bits,
    rows) with its positions sorted.

    While a part holds fewer than `SMALL_PART_CAP` clauses, the walk also
    gives each variable it meets the next bit, in `bits`, and each clause
    it reads its masks: `rows` holds, in position order, a (span,
    negative) pair per clause, the bits of its variables and of its
    negative literals. `_evaluate` lists from those. A part that reaches
    the cap cannot be listed (see `_evaluate`), so the walk stops
    numbering there and returns None for both: a part of thousands of
    variables makes no integers thousands of bits wide.
    """
    clauses, occ, cap = engine.clauses, engine.occ, SMALL_PART_CAP
    todo, parts = set(positions), []
    for start in positions:
        if start not in todo:
            continue
        todo.remove(start)
        part, bits, masks = [start], {}, {}
        walk = iter(part)  # the walk reaches what it appends
        for pos in walk:
            span = negative = 0
            for lit in clauses[pos]:
                var = lit if lit > 0 else -lit
                bit = bits.get(var)
                if bit is None:
                    bit = bits[var] = 1 << len(bits)
                    for other in occ[var]:
                        if other in todo:
                            todo.remove(other)
                            part.append(other)
                span |= bit
                if lit < 0:
                    negative |= bit
            masks[pos] = span, negative
            if len(part) >= cap:
                break
        else:
            part.sort()
            parts.append((part, bits, [masks[pos] for pos in part]))
            continue
        for pos in walk:  # past the cap: the walk alone, `bits` only marking the variables met
            for lit in clauses[pos]:
                var = lit if lit > 0 else -lit
                if var not in bits:
                    bits[var] = 0
                    for other in occ[var]:
                        if other in todo:
                            todo.remove(other)
                            part.append(other)
        part.sort()
        parts.append((part, None, None))
    return parts


def _evaluate(part, state):
    """The exact value of a connected part from `_parts`, from its x-models; None past the cap.

    The part's x-models are listed over the live variables' slot values
    as bitmasks, one clause depth at a time: each clause in turn picks its
    satisfactor, its other literals go false, and a pick that contradicts
    an earlier clause's is dropped. A clause's picks come from its masks
    when the listing reaches it: one per variable bit of its span, setting
    the bits of its negative literals, which are false, with the chosen
    literal's bit flipped. Clauses at a fixpoint hold distinct variables,
    so no pick contradicts itself. The next clause is the first, by
    position, of those with the fewest variables no earlier clause set,
    found in one pass over the clauses left that stops at a clause with
    none. The clause order depends on the clauses alone, so every state
    at one depth has set the same variables, and a state agrees with a
    pick exactly when they match on the clause's variables set earlier.
    The picks are keyed by those bits once per depth, and each state
    finds its agreeing picks with one lookup. The states of a depth are
    the nodes of that depth in the tree of picks, so their running count
    is the number of states a depth-first search of that tree visits,
    and the listing gives up, returning None, once the count passes
    `SMALL_PART_CAP` (models included). A model of d clauses takes d + 1
    states to reach, so a part of at least `SMALL_PART_CAP` clauses
    cannot reach a model within the cap: `_parts` gives it no masks, and
    it returns None before any listing; such a part with no x-model is
    refuted by branching instead. A part without an x-model is BOTTOM.
    The value is `_best_pair`'s over the models.
    """
    _, bits, rows = part
    if bits is None:
        return None
    rows = list(rows)
    models, states, fixed, cap = [0], 1, 0, SMALL_PART_CAP
    while rows:
        first, fewest, free = 0, len(bits) + 1, ~fixed
        for i, (span, _) in enumerate(rows):
            new = (span & free).bit_count()
            if new < fewest:
                first, fewest = i, new
                if not new:
                    break
        span, negative = rows.pop(first)
        seen = span & fixed
        agreeing = {}
        rest = span
        while rest:
            bit = rest & -rest
            rest ^= bit
            pick = negative ^ bit
            agreeing.setdefault(pick & seen, []).append(pick)
        models = [ones | pick for ones in models for pick in agreeing.get(ones & seen, ())]
        states += len(models)
        if states > cap:
            return None
        if not models:
            return BOTTOM
        fixed |= span
    return _best_pair(models, bits, state)


def _best_pair(models, bits, state):
    """The best pair of the models, A = B included, scored by the variables' tables.

    A pair scores the sum over the variables of their table entries
    2*a + b, the same tables `gen_h` and `_bound` read, so flip pivots,
    pools and dual links count with no rule of their own; a part where
    no pair honours every flip reads negative. Only a linked variable (in
    `state.sing` or `state.dual`) has its table read: every other one
    reads (0, 1, 1, 0), one where the pair differs on it. When none is
    linked, the value is `_farthest`'s over the models.

    Otherwise the models fall into classes by their bits on the linked
    variables. A pair of classes (P, Q), P = Q included, scores the
    linked tables' entries read once at (P, Q), plus the largest
    popcount of a ^ b on the unlinked bits over a in P and b in Q: the
    link-free loop, across two classes or within one. Tables are
    symmetric, so (Q, P) scores the same and is not read. The unlinked
    bits add at most their count, so a class pair whose entries plus
    that count cannot beat the best so far, such as one where a pivot
    that must flip stays, is not scored further. The classes hold each
    model once: the memory is linear in the models.
    """
    sing, dual = state.sing, state.dual
    if sing.keys().isdisjoint(bits) and dual.keys().isdisjoint(bits):
        return _farthest(models)
    table, linked, mask = state.table, [], 0
    for var, bit in bits.items():
        if var in sing or var in dual:
            linked.append((bit, table(var)))
            mask |= bit
    classes = {}
    for model in models:
        key = model & mask
        rest = classes.get(key)
        if rest is None:
            classes[key] = [model ^ key]
        else:
            rest.append(model ^ key)
    width = len(bits) - len(linked)
    classes = list(classes.items())
    best = None
    for i, (p, first) in enumerate(classes):
        rows = [(bit, t[2:]) if p & bit else (bit, t[:2]) for bit, t in linked]
        for q, second in classes[i:]:
            score = 0
            for bit, row in rows:
                score += row[1] if q & bit else row[0]
            if best is not None and score + width <= best:
                continue
            if first is second:
                score += _farthest(first)
            else:
                apart = 0
                for a in first:
                    for b in second:
                        n = (a ^ b).bit_count()
                        if n > apart:
                            apart = n
                score += apart
            if best is None or score > best:
                best = score
    return best


def _farthest(models):
    """The largest popcount of a ^ b over pairs of distinct models; 0 for one model."""
    best = 0
    for i, a in enumerate(models):
        for b in models[i + 1 :]:
            apart = (a ^ b).bit_count()
            if apart > best:
                best = apart
    return best


#: The most search states, x-models included, `_evaluate` visits in one
#: connected part before it leaves the part to branching; 0 turns the
#: evaluator off.
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
