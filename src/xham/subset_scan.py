"""Max Hamming distance by scanning the allowed variable subsets.

Two x-models differing exactly on a set X leave every clause with 0 or 2
literals over X (one flipped literal alone would break exactly-one). So
only such "allowed" subsets can separate a model pair. The scan lists
them largest first and stops at the first X the solver accepts.

The scan runs on the propagated formula, read straight off the one
engine that propagated the input: forced variables never differ, freed
ones always can, and the live clauses hold distinct variables, so each
clause is one bitmask over the live variables.

Components. Clauses that share no variable, even through others, flip
independently: the best distance is the sum of each connected
component's best subset size, plus one per freed variable. So after the
base check the live clauses are split with `propagation.components`,
and each component is scanned on its own, over its own variables, in
the order of its first clause. Each component keeps its own variable
order, masks and subset listing; the solver runs on the one engine
throughout, and a subset's assumptions name only its component's
literals. A formula with one component asks the same questions in the
same order as a scan of the whole formula, and k disjoint clauses cost
k small listings, not the product of their sizes.

Generation. `allowed_classes` branches over the clauses in order. A
clause with no chosen variable chooses none or one pair of its undecided
variables, a clause with one chooses exactly one more, a clause with two
chooses none, and a clause with three or more ends the branch; after a
clause, all its variables are decided. So every search state is an
allowed subset of the clauses processed so far. Which variables a
clause leaves undecided (its fresh ones), and their pairs, depend on
the clause's index alone, so they are worked out once per call, before
the search; a state with one chosen variable at a clause with no fresh
one cannot choose a second and is dropped. A state's bound is n
less the decided variables it left out, the largest size it can still
reach. States wait on one explicit stack per bound, and the stacks are
emptied from bound n down, so each state is expanded once and the
allowed subsets come out one size at a time, largest first. Each size is
sorted by the ascending tuple of set positions: the order in which a
loop over `itertools.combinations` from size n down would meet these
subsets, so the solver sees the same subsets in the same order. The scan
stops after the first size with a hit. A state is fixed by the clauses
it has passed and the decided variables it left out, so before the
first hit at size k the search expands at most m + 1 states per subset
of size k or more, about what the old loop tested, and holds no more
than their children: an answer near n costs little. Every allowed X
already meets the degree budget Σ_{v∈X} deg(v) ≤ 2m (each clause holds
0 or 2 of its occurrences), so starting at that bound would skip nothing
that generation does not skip already.

The solver's question. Let a clause C touched by X hold literals l₁, l₂
over X and the rest R. A model of C that stays a model of C with X
flipped is one where every literal in R is false: if some r ∈ R were
true, C would need l₁ and l₂ false, and the flipped C would need them
true; with R false, C makes exactly one of l₁, l₂ true, and flipping
swaps them. So X separates two x-models iff the formula stays
x-satisfiable with every literal of a touched clause whose variable is
outside X made false, and flipping X in such a model gives the second
model. p puts these questions to the engine it propagated: the solver
assumes the complements of those literals, in clause order, searches,
and undoes all of it before the next subset (see `solver.solve`). Each
live clause's complements are listed once per call, each with its
variable's bit, and a subset's assumptions are read off these lists. No
formula is built, at the root or per subset, and the witnesses are the
solver's models.

The contradiction check. Most of these questions contradict themselves:
a variable outside X that is positive in one touched clause and negative
in another is assumed both ways, and the solver's first force fails.
Each clause also keeps the bits of its positive literals and those of
its negative ones; OR-ing them over the clauses X touches gives P and N,
and X is dropped without a solver call when P & N & ~X is nonzero. The
check spots nothing else, so it changes no verdict: only the calls that
would have failed at their first assumption are saved.
"""

from __future__ import annotations

import itertools

from .formula import BOTTOM, Formula, HammingResult, SearchStats
from .propagation import Propagator, components
from .solver import solve


def allowed_classes(masks):
    """The nonempty bitsets meeting each mask in 0 or 2 bits, one list per
    size, largest size first; each list in ascending order of the tuple of
    set bit positions. Empty sizes are skipped.

    A state (index, chosen) has decided every bit of the first index masks
    and waits on the stack of its bound; a child's bound is never above
    its parent's, so once stack k is empty every allowed set of size k has
    reached it as a finished state.

    One pass over the masks first builds, per index, the mask, its fresh
    bits (those no earlier mask holds), their pairs and their count. A
    state meeting the mask in no bit goes on with none or one pair of
    them, in one bit with one of them (none there: the state is dead and
    pushes nothing), in two bits with none, and in more ends its branch.
    """
    table = []  # per clause index: (mask, fresh bits, their pairs, fresh count)
    decided = 0
    for mask in masks:
        bits = _bits(mask & ~decided)
        table.append((mask, bits, [a | b for a, b in itertools.combinations(bits, 2)], len(bits)))
        decided |= mask
    width = decided.bit_count()
    end = len(masks)
    pending = [[] for _ in range(width + 1)]
    pending[width].append((0, 0))
    for size in range(width, 0, -1):
        stack = pending[size]
        found = []
        while stack:
            index, chosen = stack.pop()
            if index == end:
                found.append(chosen)
                continue
            mask, bits, pairs, fresh = table[index]
            count = (chosen & mask).bit_count()
            all_out = size - fresh  # the bound if no fresh bit is chosen
            index += 1
            if count == 0:
                pending[all_out].append((index, chosen))
                if pairs:  # with none, all_out + 2 may lie past the top bound
                    pending[all_out + 2].extend([(index, chosen | pair) for pair in pairs])
            elif count == 1:
                if bits:  # with no fresh bit the clause keeps one chosen bit: dead
                    pending[all_out + 1].extend([(index, chosen | bit) for bit in bits])
            elif count == 2:
                pending[all_out].append((index, chosen))
        if found:
            # Read lowest bit first, a set's binary string puts its lowest
            # position first: among sets of one size, none of these strings
            # is a prefix of another, and larger strings have smaller
            # position tuples.
            found.sort(key=lambda bitset: bin(bitset)[:1:-1], reverse=True)
            yield found


def _bits(bitset: int) -> list[int]:
    """The single-bit parts of bitset, lowest first."""
    bits = []
    while bitset:
        bits.append(bitset & -bitset)
        bitset &= bitset - 1
    return bits


def max_hamming_p(formula: Formula, stats: SearchStats | None = None) -> HammingResult:
    """Exact max Hamming distance with witnesses, via the subset scan.

    One engine on the input does all the work: it propagates, the solver
    checks on it that the propagated formula has a model, and only then
    are the live clauses split into connected components and each
    component's nonempty allowed subsets generated, one size at a time
    from the largest (see the module docstring for their order, for the
    literals the solver assumes with each and for the contradiction
    check that drops a subset without a call). In each component the
    first subset the solver accepts on the same engine is its answer;
    with none, the component adds nothing. The distance is the sum of
    the answers' sizes plus one per variable that propagation freed.

    The first witness is the base model, the solver's model before any
    subset, with each answered component's variables taken from the
    solver's model for its answer; the solver sets every forced variable,
    and every freed one True. The second witness is the first flipped on
    every answer, with the freed variables False.

    `stats.subsets_checked` sums the subsets listed in every component;
    `stats.solver_calls` counts the base check plus one call per subset
    that passes the contradiction check.
    """
    if stats is None:
        stats = SearchStats()
    engine = Propagator(formula)
    stats.solver_calls += 1
    base_model = solve(engine) if engine.propagate() else None
    if base_model is None:
        return HammingResult(BOTTOM)

    clauses = engine.clauses
    first, flips = base_model, set()
    for part in components(engine, [pos for pos, clause in enumerate(clauses) if clause is not None]):
        answer = _scan_component(engine, [clauses[pos] for pos in part], stats)
        if answer is not None:
            values, subset = answer
            first.update(values)
            flips.update(subset)
    freed = engine.freed
    second = {v: value != (v in flips) for v, value in first.items()}
    second.update(dict.fromkeys(freed, False))
    return HammingResult(len(flips) + len(freed), (first, second))


def _scan_component(engine: Propagator, live, stats: SearchStats):
    """For the first allowed subset of one component's live clauses that
    the solver accepts: the solver's model on the component's variables,
    and the subset's variables. None when the solver accepts none.

    One pass builds each clause's row: its mask, the bits of its positive
    and of its negative literals, and the (complement, bit) of each
    literal. A subset's one pass over the rows ORs the sign bits of the
    clauses it touches and keeps their literals; a contradiction drops
    the subset, and otherwise its assumptions are read off those literals.
    """
    variables = sorted({abs(lit) for clause in live for lit in clause})
    position = {v: i for i, v in enumerate(variables)}
    rows = []
    for clause in live:
        literals = [(-lit, 1 << position[abs(lit)]) for lit in clause]
        positive = sum(bit for complement, bit in literals if complement < 0)
        negative = sum(bit for complement, bit in literals if complement > 0)
        rows.append((positive | negative, positive, negative, literals))

    for subsets in allowed_classes([row[0] for row in rows]):
        stats.subsets_checked += len(subsets)
        for bitset in subsets:
            positive = negative = 0
            touched = []
            for mask, pos_bits, neg_bits, literals in rows:
                if bitset & mask:
                    positive |= pos_bits
                    negative |= neg_bits
                    touched.append(literals)
            if positive & negative & ~bitset:
                continue  # some variable outside the subset would be assumed both ways
            stats.solver_calls += 1
            assumptions = tuple(
                complement for literals in touched for complement, bit in literals if not bitset & bit
            )
            model = solve(engine, assumptions)
            if model is not None:
                values = {v: model[v] for v in variables}
                return values, [v for i, v in enumerate(variables) if (bitset >> i) & 1]
    return None
