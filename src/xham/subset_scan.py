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
component's best subset size, plus one per freed variable. The base
check already splits the live clauses with `propagation.components` and
renumbers each component to local variables 1..n, ascending (a
`solver.Part`); each component is then scanned on its own, over its own
variables, in the order of its first clause. A component's masks are
read off its local clauses, bit i - 1 for local variable i, and every
question about it searches its clauses alone (see `solver.search`). A
formula with one component asks the same questions in the same order as
a scan of the whole formula, and k disjoint clauses cost k small
listings, not the product of their sizes, and k small searches, not k
searches of the whole formula.

Probing. A variable that keeps one value in every x-model (a backbone
variable) is in no flip set, so a scan over it lists subsets that can
only fail. The base check gives a model M of each component, and
`solver.probe` makes one pass of failed-literal probing around it: the
literal M makes false is propagated alone, and a conflict asserts its
complement, true in M, and what that propagates. This is sound: a
literal asserted so is true in every x-model, since its complement
propagated to a conflict on clauses every model satisfies. A probe that
does not conflict puts the literals it made true on a skip set, whose
literals are not probed later in the pass: closure under propagation is
monotone, so their probes could not fail at that point. A backbone
variable the pass misses only costs time. A component of one clause, or
of binary clauses alone, has no backbone and is not probed. The scan
then reads each clause through the probe's values: a clause with a true
literal has all its other literals false and drops, and every other
clause becomes one row over its unassigned literals, so no listed
subset holds an asserted variable. A component's rows are listed
together: its x-models are its backbone values with one x-model of the
rows, and each question still searches the whole component, starting
from the probe's value list.
Removing the backbone can leave rows that share no variable, and one
listing then lists unions of their subsets; when each part answers with
its largest subset, that union comes first and is the only question,
where listing the parts apart would ask one per part.

Generation. `allowed_subsets` branches over the rows, called clauses in
this paragraph, in a walk order fixed once per call: fewest undecided
variables (fresh ones) first, ties by position. A heap of (fresh count,
position) entries, fed by a variable -> clauses index as variables get
decided, gives the walk in O(m log m) plus the clauses' sizes. A clause
whose variables are all decided is a pure check and comes as soon as its
last variable does, and the walk goes from a clause to the clauses that
share its variables, so a state that breaks a clause dies early:
fail-first with forward checking. A clause with no chosen variable
chooses none or one pair of its fresh variables, a clause with one
chooses exactly one more, a clause with two chooses none, and a clause
with three or more ends the branch; after a clause, all its variables
are decided. So every search state is an allowed subset of the clauses
walked so far. A clause's fresh variables, and their pairs, depend on
its place in the walk alone, so they are worked out once per call,
before the search; a state with one chosen variable at a clause with no
fresh one cannot choose a second and is dropped. A state's bound is n
less the decided variables it left out, the largest size it can still
reach. States wait on one explicit stack per bound, and the stacks are
emptied from bound n down, so each state is expanded once and the
allowed subsets come out largest size first, each as soon as its state
finishes, and p asks about it at once. The walk order decides the order
within a size. The scan stops at the first hit; before a hit at size k
the search holds only states of bound k or more, so an answer near n
costs little. Every allowed X already meets the degree budget Σ_{v∈X}
deg(v) ≤ 2m (each clause holds 0 or 2 of its occurrences), so starting
at that bound would skip nothing that generation does not skip already.

The solver's question. Let a clause C touched by X hold literals l₁, l₂
over X and the rest R. A model of C that stays a model of C with X
flipped is one where every literal in R is false: if some r ∈ R were
true, C would need l₁ and l₂ false, and the flipped C would need them
true; with R false, C makes exactly one of l₁, l₂ true, and flipping
swaps them. So X separates two x-models iff the formula stays
x-satisfiable with every literal of a touched clause whose variable is
outside X made false, and flipping X in such a model gives the second
model. The outside literals of a touched clause that probing assigned
are false in every model, so p puts each question to the solver's search
of the component, which starts from a copy of the probe's value list and
trail and assumes the complements of the outside literals of the touched
rows: the asserted literals are set already and are not propagated again,
and a question marks, forces or undoes nothing on the engine, which is
left as the base check found it. No formula is built, at the root or per
subset, and the witnesses are the solver's models.

The check before a call. Most of these questions contradict themselves.
A variable outside X that is positive in one touched clause and negative
in another is assumed both ways. So each listing state carries P and N,
the bits of the positive and of the negative literals of the rows it
touches; every bit of them is decided, so a state with P & N & ~X
nonzero cannot recover and is dropped at once, and such an X is never
listed. A listed X comes with its P and N: P & ~X holds the variables
its assumptions make false and N & ~X those they make true, and the
assumptions are read off these bits, variable by variable. The solver
makes them all true, on the probe's values, before it propagates, and
unit propagation reaches one fixpoint, or a conflict, in any order, so
their order changes no answer and no model. Every listed X is asked. Its
assumptions may still make some row two-true or all-false; the solver's
first propagation refutes such a question at once, so the sign check is
the only one before a call, and p makes one call per listed subset.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict

from .formula import BOTTOM, Formula, HammingResult, SearchStats
from .propagation import Propagator
from .solver import Part, probe, search, solve


def allowed_subsets(masks, negatives):
    """Yield (X, P, N) for each nonempty bitset X meeting each mask in 0
    or 2 bits and free of sign contradictions, once each, largest size
    first; P and N are the positive and negative bits of the masks X
    meets.

    negatives[i] holds the bits of masks[i] whose literals are negative;
    its other bits are positive. A bitset X has a sign contradiction when
    some bit outside X is positive in one mask that X meets and negative
    in another: when P & N & ~X is nonzero.

    A state (index, chosen, P, N) has decided every bit of the first
    index masks of the walk (`_walk`), and P and N hold the positive and
    negative bits of the masks it meets; it waits on the stack of its
    bound. A child's bound is never above its parent's, so stack k holds
    the finished states of size k, each yielded as it is popped, and once
    it is empty every allowed set of size k has come out.

    One pass over the walk first builds, per index, the mask, its fresh
    bits (those no earlier mask holds), their pairs, their count and the
    mask's sign bits. A state meeting the mask in no bit goes on with
    none or one pair of them, in one bit with one of them (none there:
    the state is dead and pushes nothing), in two bits with none, and in
    more ends its branch. The children that meet the mask are dropped
    when P & N & ~chosen is nonzero; no fresh bit is in P or N, so
    which fresh bits a child chose does not matter.
    """
    table = []  # per walk index: (mask, fresh bits, their pairs, fresh count, positive bits, negative bits)
    width = 0
    for i, places in _walk(masks):
        mask, negative = masks[i], negatives[i]
        bits = [1 << place for place in places]
        pairs = [a | b for a, b in itertools.combinations(bits, 2)]
        table.append((mask, bits, pairs, len(bits), mask ^ negative, negative))
        width += len(bits)
    end = len(masks)
    pending = [[] for _ in range(width + 1)]
    pending[width].append((0, 0, 0, 0))
    for size in range(width, 0, -1):
        stack = pending[size]
        while stack:
            index, chosen, positive, negative = stack.pop()
            if index == end:
                yield chosen, positive, negative
                continue
            mask, bits, pairs, fresh, mask_positive, mask_negative = table[index]
            count = (chosen & mask).bit_count()
            all_out = size - fresh  # the bound if no fresh bit is chosen
            index += 1
            if count == 0:
                pending[all_out].append((index, chosen, positive, negative))  # the mask stays unmet
                children, bound = pairs, all_out + 2
            elif count == 1:
                children, bound = bits, all_out + 1  # none: the mask keeps one chosen bit, dead
            elif count == 2:
                children, bound = (0,), all_out
            else:
                continue
            if children:
                positive |= mask_positive
                negative |= mask_negative
                if not positive & negative & ~chosen:  # no fresh bit is in P or N: one test for all
                    pending[bound].extend([(index, chosen | extra, positive, negative) for extra in children])


def _walk(masks) -> list[tuple[int, list[int]]]:
    """(mask index, positions of its fresh bits) in walk order: fewest
    fresh bits (bits no earlier mask of the walk holds) first, ties by
    index.

    A heap holds (fresh count, index) per mask, and a mask gets a new
    entry each time one of its bits is decided; an entry whose count is
    no longer its mask's is stale and skipped. Each bit's masks are
    listed once, by bit position, and dropped when the bit is decided.
    """
    holders = defaultdict(list)  # undecided bit position -> indices of the masks holding it
    spans = []  # per mask: the positions of its bits, lowest first
    for i, mask in enumerate(masks):
        places = _places(mask)
        spans.append(places)
        for place in places:
            holders[place].append(i)
    fresh = [len(places) for places in spans]
    heap = [(count, i) for i, count in enumerate(fresh)]
    heapq.heapify(heap)
    order = []
    while heap:
        count, i = heapq.heappop(heap)
        if count != fresh[i]:
            continue
        fresh[i] = -1  # walked: no entry matches it again
        decided = []
        for place in spans[i]:
            others = holders.pop(place, None)
            if others is None:
                continue  # decided by an earlier mask
            decided.append(place)
            for j in others:  # every mask but i holding an undecided bit is still unwalked
                if j != i:
                    fresh[j] -= 1
                    heapq.heappush(heap, (fresh[j], j))
        order.append((i, decided))
    return order


def _places(mask: int) -> list[int]:
    """The positions of mask's set bits, lowest first.

    The trailing zeros go in one shift, so a few bits high up in a wide
    mask cost a few operations on the wide number, not a few per bit.
    """
    if not mask:
        return []
    base = (mask & -mask).bit_length() - 1
    mask >>= base
    places = []
    while mask:
        low = mask & -mask
        places.append(base + low.bit_length() - 1)
        mask ^= low
    return places


def max_hamming_p(formula: Formula, stats: SearchStats | None = None) -> HammingResult:
    """Exact max Hamming distance with witnesses, via the subset scan.

    One engine on the input propagates it, and the solver checks that the
    propagated formula has a model, component by component (see
    `solver.solve`). Each component is then probed around its base model
    (`solver.probe`), and for the rows of the clauses the probe leaves
    unsettled the nonempty allowed subsets with no sign contradiction are
    listed, largest size first, each asked about as it comes (see the
    module docstring for their order, for the literals the solver assumes
    with each and for the probe). In each component the first subset the
    solver accepts, searching that component alone, is its answer; with
    none, the component adds nothing. The distance is the sum of the answers'
    sizes plus one per variable that propagation freed.

    The first witness is the base model, the solver's model before any
    subset, with each answered component's variables taken from the
    solver's model for its answer; the solver sets every forced variable,
    and every freed one True. The second witness is the first flipped on
    every answer, with the freed variables False.

    `stats.subsets_checked` sums, over the components, the subsets listed
    up to the component's answer, that one included (all of them when
    none answers), those with a sign contradiction left out;
    `stats.solver_calls` counts the base check, once however many
    components it searches, plus one call per listed subset, so it is
    `1 + stats.subsets_checked` on a formula with an x-model and 1 on
    one without. Probes are not solver calls.
    """
    if stats is None:
        stats = SearchStats()
    engine = Propagator(formula)
    stats.solver_calls += 1
    found = solve(engine)
    if found is None:
        return HammingResult(BOTTOM)

    first, parts = found
    flips = set()
    for part in parts:
        answer = _scan_component(part, [None, *map(first.__getitem__, part.variables)], stats)
        if answer is not None:
            values, subset = answer
            first.update(values)
            flips.update(subset)
    freed = engine.freed
    second = {v: value != (v in flips) for v, value in first.items()}
    second.update(dict.fromkeys(freed, False))
    return HammingResult(len(flips) + len(freed), (first, second))


def _scan_component(part: Part, model, stats: SearchStats):
    """For the first allowed subset of one component's probed rows that
    the solver accepts: the solver's model on the component's variables,
    and the subset's variables. None when the solver accepts none. The
    component's base model is the value list `model`.

    `solver.probe` asserts the component's backbone literals it finds.
    One pass then builds a row per clause with no true literal: the mask
    of its unassigned literals (bit i - 1 for local variable i) and the
    bits of the negative ones; a clause with a true literal has every
    other literal false and drops. The listing drops sign contradictions
    and yields each subset X with its P and N, and the solver searches the
    component for every one, one call each, from a copy of the probe's
    value list and trail, assuming the literals read off P & ~X (made
    false) and N & ~X (made true).
    """
    probed = probe(part, model)
    value = probed[0]
    masks, negatives = [], []
    for clause in part.clauses:
        positive = negative = 0
        for lit in clause:
            known = value[lit]
            if known is None:
                if lit > 0:
                    positive |= 1 << (lit - 1)
                else:
                    negative |= 1 << (-lit - 1)
            elif known:
                break  # settled: its other literals are false
        else:
            masks.append(positive | negative)
            negatives.append(negative)

    for bitset, positive, negative in allowed_subsets(masks, negatives):
        stats.subsets_checked += 1
        stats.solver_calls += 1
        false, true = positive & ~bitset, negative & ~bitset  # the variables the assumptions make false, true
        assumptions = [-1 - place for place in _places(false)] + [1 + place for place in _places(true)]
        answer = search(part, assumptions, probed)
        if answer is not None:
            variables = part.variables
            values = dict(zip(variables, answer[1:]))
            return values, [v for i, v in enumerate(variables) if (bitset >> i) & 1]
    return None
