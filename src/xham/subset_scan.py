"""Max Hamming distance by scanning the allowed variable subsets.

Two x-models differing exactly on a set X leave every clause with 0 or 2
literals over X (one flipped literal alone would break exactly-one). So
only such "allowed" subsets can separate a model pair. The scan lists
them largest first and stops at the first X the solver accepts.

The scan runs on the propagated formula, read straight off the one
engine that propagated the input: forced variables never differ, freed
ones always can, and the live clauses hold distinct variables, so each
clause is one bitmask over the live variables.

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

`allowed_subset_check` states the zero-or-two test on sets instead; it
takes any formula, counts a repeated variable once per occurrence, and is
the reference the tests hold the scan and the oracle's count against.
"""

from __future__ import annotations

import itertools

from .formula import BOTTOM, Assignment, Formula, HammingResult, SearchStats
from .propagation import Propagator
from .solver import solve


def allowed_subset_check(formula: Formula, subset) -> bool:
    """True iff every clause has 0 or 2 literals of variables in subset."""
    chosen = set(subset)
    for clause in formula.clauses:
        count = sum(1 for lit in clause if abs(lit) in chosen)
        if count not in (0, 2):
            return False
    return True


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
            # Reversed, the lowest set position is the highest bit: among
            # sets of one size, larger reversals have smaller position tuples.
            found.sort(key=lambda bitset: int(f"{bitset:0{width}b}"[::-1], 2), reverse=True)
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
    are the nonempty allowed subsets of its live clauses generated, one
    size at a time from the largest (see the module docstring for their
    order and for the literals the solver assumes with each). The first
    one the solver accepts on the same engine is the answer, and with
    none the base model stands alone. That model is the first witness:
    the solver sets every forced variable, and every freed one True.
    Each variable that propagation freed adds one flip, so the second
    witness, the first flipped on the subset, sets them False.

    Each live clause's mask and its literals' (complement, bit) pairs are
    built once per call; every subset's assumptions are read from them.
    """
    if stats is None:
        stats = SearchStats()
    engine = Propagator(formula)
    stats.solver_calls += 1
    base_model = solve(engine) if engine.propagate() else None
    if base_model is None:
        return HammingResult(BOTTOM)

    variables = sorted(var for var, count in engine.degree.items() if count)
    position = {v: i for i, v in enumerate(variables)}
    # Per live clause: its mask and the (complement, bit) of each literal.
    clauses = [
        [(-lit, 1 << position[abs(lit)]) for lit in clause] for clause in engine.clauses if clause is not None
    ]
    masks = [sum(bit for _, bit in clause) for clause in clauses]
    live = list(zip(masks, clauses))
    freed = tuple(engine.freed)

    for subsets in allowed_classes(masks):
        stats.subsets_checked += len(subsets)
        for bitset in subsets:
            stats.solver_calls += 1
            assumptions = tuple(
                complement
                for mask, clause in live
                if bitset & mask
                for complement, bit in clause
                if not bitset & bit
            )
            model = solve(engine, assumptions)
            if model is not None:
                subset = {v for i, v in enumerate(variables) if (bitset >> i) & 1}
                return HammingResult(len(subset) + len(freed), _witness_pair(model, subset, freed))
    return HammingResult(len(freed), _witness_pair(base_model, (), freed))


def _witness_pair(model: Assignment, subset, freed):
    """The solver's model and its flip on subset, in which the variables
    that propagation freed read False."""
    flipped = {v: value != (v in subset) for v, value in model.items()}
    flipped.update(dict.fromkeys(freed, False))
    return model, flipped
