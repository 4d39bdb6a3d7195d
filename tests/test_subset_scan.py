import functools
import itertools
import operator
import random
import sys

import pytest

import xham
from xham import (
    BOTTOM,
    Formula,
    SearchStats,
    enumerate_xmodels,
    find_xmodel,
    hamming_distance,
    max_hamming_brute,
    max_hamming_p,
    max_hamming_q,
    planted_formula,
    random_formula,
    verify_xmodel,
)
from xham import solver, subset_scan
from xham.propagation import components
from xham.solver import search, solve

from conftest import (
    allowed_subset_check,
    chain,
    clause_count,
    count_allowed_subsets_brute,
    count_builds,
    count_search_work,
    engine_solve,
    formula,
    guarded_grid,
    live_clauses,
    probe_reference,
    propagated,
    reduced_rows,
    repeated_variable_corpus,
    scan_xmodels,
)

REPEATED = repeated_variable_corpus(300, 9100)
# Distinct-variable clauses that share variables with each other.
OVERLAPPING = [
    random_formula(n, clause_count(n, length), length, seed=9700 + 13 * n + length)
    for length in (2, 3, 4, 5)
    for n in range(max(5, length + 2), 13)
]


def random_masks(rng):
    """1 to 8 clause masks over at most 9 bits, renumbered so that the bits
    in use are 0, 1, …: random sets, one-bit sets, repeats of an earlier
    mask and sets of bits that earlier masks hold already."""
    width = rng.randint(1, 9)
    masks = []
    for _ in range(rng.randint(1, 8)):
        seen = [i for i in range(width) if any((mask >> i) & 1 for mask in masks)]
        kind = rng.randrange(4)
        if kind == 1 and masks:
            masks.append(rng.choice(masks))
            continue
        if kind == 2 and seen:
            bits = rng.sample(seen, rng.randint(1, min(4, len(seen))))
        elif kind == 3:
            bits = [rng.randrange(width)]
        else:
            bits = rng.sample(range(width), rng.randint(1, min(5, width)))
        masks.append(sum(1 << i for i in bits))
    used = [i for i in range(width) if any((mask >> i) & 1 for mask in masks)]
    return [sum(1 << new for new, old in enumerate(used) if (mask >> old) & 1) for mask in masks]


def random_negatives(rng, masks):
    """Per mask, a random part of its bits: the bits of negative literals."""
    return [sum(1 << i for i in range(mask.bit_length()) if (mask >> i) & 1 and rng.random() < 0.5) for mask in masks]


def outside_literals(clauses, subset) -> list[int]:
    """The literals of the clauses that subset touches whose variables lie
    outside it, in clause order: the literals p's question makes false."""
    touched = [clause for clause in clauses if any(abs(lit) in subset for lit in clause)]
    return [lit for clause in touched for lit in clause if abs(lit) not in subset]


def assumed(assumptions, base):
    """The literals a search takes as true: the trail of its base, when
    it starts from one, then its assumptions."""
    return tuple(assumptions) if base is None else (*base[1], *assumptions)


def in_input_variables(part, assumptions):
    """A search's part clauses and assumptions, in the input's variables."""
    variables = part.variables

    def named(lit):
        return variables[lit - 1] if lit > 0 else -variables[-lit - 1]

    return tuple(tuple(map(named, clause)) for clause in part.clauses), tuple(map(named, assumptions))


def sign_consistent(clauses, subset) -> bool:
    """No variable outside subset is positive in one touched clause and
    negative in another: the set form of the listing's P & N & ~X check."""
    outside = set(outside_literals(clauses, subset))
    return not any(-lit in outside for lit in outside)


class TestAllowedSubsetCheck:
    def test_two_of_three(self):
        assert allowed_subset_check(formula((1, 2, 3)), {1, 2})

    def test_one_of_three(self):
        assert not allowed_subset_check(formula((1, 2, 3)), {1})

    def test_across_clauses(self, tiny):
        assert allowed_subset_check(tiny, {1, 3, 4})

    def test_empty_subset(self, tiny):
        assert allowed_subset_check(tiny, set())

    def test_every_model_pair_satisfies_it(self):
        """Model pairs never straddle a clause on one or three variables."""
        for length in (2, 3, 4):
            for i in range(60):
                n = 4 + (i % 7)
                f = random_formula(n, clause_count(n, length), length, seed=880 + 7 * i + length)
                models = enumerate_xmodels(f)
                for a, b in itertools.combinations(models, 2):
                    assert allowed_subset_check(f, {v for v in a if a[v] != b[v]})


class TestFlippedUnion:
    """What p asks the solver: first whether the reduced formula has a
    model, then for each allowed subset whether it has one with, in clause
    order, every literal of a touched clause whose variable is outside the
    subset false; the same question as the formula plus flipped copies of
    the touched clauses. The spy reads each search the solver runs, the
    base check's one per component and then p's questions: the clauses it
    searches and the literals it assumes true, both in the input's
    variables."""

    @staticmethod
    def solver_inputs(monkeypatch, f):
        seen = []

        def spy(part, assumptions=(), base=None):
            seen.append(in_input_variables(part, assumed(assumptions, base)))
            return search(part, assumptions, base)

        monkeypatch.setattr(solver, "search", spy)
        monkeypatch.setattr(subset_scan, "search", spy)
        max_hamming_p(f)
        return seen

    def test_flips_touched_clause(self, monkeypatch):
        assert self.solver_inputs(monkeypatch, formula((1, 2, 3))) == [
            (((1, 2, 3),), ()),
            (((1, 2, 3),), (-1,)),
        ]

    def test_untouched_clause_not_duplicated(self, monkeypatch):
        """{1, 3, 4, 6} leaves 2 of (1 2 3) and -5 of (-4 -5 6) outside."""
        f = formula((1, 2, 3), (3, 4), (-4, -5, 6))
        assert self.solver_inputs(monkeypatch, f)[1] == (f.clauses, (-2, 5))

    def test_a_question_searches_only_its_component(self, monkeypatch):
        """(1 2 3) and (4 5 6) share no variable: the base check searches
        each of them, and each question after it names and searches one."""
        f = formula((1, 2, 3), (4, 5, 6))
        assert self.solver_inputs(monkeypatch, f) == [
            (((1, 2, 3),), ()),
            (((4, 5, 6),), ()),
            (((1, 2, 3),), (-1,)),
            (((4, 5, 6),), (-4,)),
        ]

    @staticmethod
    def scan_walk(monkeypatch, f):
        """p's questions on f, read against what `allowed_subsets` listed.

        Returns None when f has no x-model. Otherwise returns, per
        component in p's order, (its live clauses, its variables, the
        literals `probe_reference` asserts around the base model, the rows
        they leave (`reduced_rows`), its listing rows, whether the solver
        accepted a subset). A listing row is (bitset over the component's
        variables, the asserted literals and then the complements of the
        outside literals of the rows the subset touches, whether p asked
        the solver), one per listed subset up to the one the solver
        accepts. A subset counts as asked when p's next question searches
        the component's live clauses and assumes exactly those literals,
        as a set and each once; every question must be matched so.
        """
        listed = []  # per `allowed_subsets` call, the bitsets it listed
        bases = []  # per base check, its model, or None
        calls = []  # per question: (clauses searched, assumptions, accepted)
        allowed_subsets = subset_scan.allowed_subsets

        def spy_subsets(masks, negatives):
            listed.append([])
            for found in allowed_subsets(masks, negatives):
                listed[-1].append(found[0])
                yield found

        def spy_solve(engine):
            found = solve(engine)
            bases.append(None if found is None else dict(found[0]))
            return found

        def spy_search(part, assumptions=(), base=None):
            model = search(part, assumptions, base)
            calls.append((*in_input_variables(part, assumed(assumptions, base)), model is not None))
            return model

        monkeypatch.setattr(subset_scan, "allowed_subsets", spy_subsets)
        monkeypatch.setattr(subset_scan, "solve", spy_solve)
        monkeypatch.setattr(subset_scan, "search", spy_search)
        if max_hamming_p(f).distance is BOTTOM:
            assert (bases, calls, listed) == ([None], [], [])
            return None
        assert len(bases) == 1 and bases[0] is not None
        engine = propagated(f)
        scanned = []
        for part in components(engine, [pos for pos, clause in enumerate(engine.clauses) if clause is not None]):
            live = [engine.clauses[pos] for pos in part]
            backbone = probe_reference(live, bases[0])
            scanned.append((live, backbone, reduced_rows(live, backbone)))
        assert len(scanned) == len(listed)
        questions = iter(calls)
        question = next(questions, None)
        walked = []
        for (live, backbone, reduced), bitsets in zip(scanned, listed):
            variables = sorted({abs(lit) for clause in live for lit in clause})
            rows, accepted = [], False
            for bitset in bitsets:
                subset = {v for i, v in enumerate(variables) if (bitset >> i) & 1}
                assumptions = tuple(backbone) + tuple(-lit for lit in outside_literals(reduced, subset))
                asked = question is not None and sorted(question[1]) == sorted(set(assumptions))
                rows.append((bitset, assumptions, asked))
                if asked:
                    assert question[0] == tuple(live)
                    accepted, question = question[2], next(questions, None)
                    if accepted:
                        break
            walked.append((live, variables, backbone, reduced, rows, accepted))
        assert question is None, "a question matched no listed subset"
        return walked

    def test_assumptions_are_the_outside_literals_of_touched_clauses(self, monkeypatch):
        """Every question p asks after the base check assumes the literals
        the probe asserts and the complement of each literal of a touched
        row whose variable lies outside the subset, each once, and searches
        only the subset's component; the subsets are all the ones
        `allowed_subsets` lists for each component's rows, in its order. A
        touched clause's outside literals that the probe assigned are false
        in every model, so the question still makes every outside literal
        of a touched clause false."""
        scan_shaped = [random_formula(n, (n + 1) // 2, 3, 9900 + 10 * n + i) for n in range(18, 23) for i in range(3)]
        asked = 0
        for f in REPEATED + OVERLAPPING + scan_shaped:
            walked = self.scan_walk(monkeypatch, f)
            if walked is None:
                continue  # f has no x-model
            asked += sum(row[-1] for *_, rows, _ in walked for row in rows)
        assert asked == 113

    def test_contradiction_check_is_exact(self, monkeypatch):
        """Of each component's allowed subsets of its rows, from the
        largest size down to the size of the one the solver accepts, p
        lists those with no sign contradiction, each once and sizes never
        growing: every one larger than the answer, and at the answer's
        size some of them. It asks every listed one. The first
        `propagate` after the probe's literals and the assumptions refutes
        every subset the sign check drops; sign drops are counted over
        every size down to the answer's."""
        counts = {"sign": 0, "asked": 0}
        for f in OVERLAPPING + REPEATED + SCAN_SHAPED:
            walked = self.scan_walk(monkeypatch, f)
            if walked is None:
                continue
            engine = propagated(f)
            for live, variables, backbone, reduced, rows, accepted in walked:
                rows_formula = Formula(f.num_vars, tuple(reduced))
                free = rows_formula.variables()
                listed = [row[0] for row in rows]
                smallest = listed[-1].bit_count() if accepted else 1
                allowed = [
                    combo
                    for size in range(len(free), smallest - 1, -1)
                    for combo in itertools.combinations(free, size)
                    if allowed_subset_check(rows_formula, combo)
                ]
                bitsets = [sum(1 << variables.index(v) for v in combo) for combo in allowed]
                consistent = {bitset for bitset, combo in zip(bitsets, allowed) if sign_consistent(reduced, set(combo))}
                assert len(set(listed)) == len(listed)
                assert [bitset.bit_count() for bitset in listed] == sorted((b.bit_count() for b in listed), reverse=True)
                assert set(listed) <= consistent
                assert {bitset for bitset in consistent if bitset.bit_count() > smallest or not accepted} <= set(listed)
                assert all(row[2] for row in rows)
                counts["asked"] += len(rows)
                for bitset, combo in zip(bitsets, allowed):
                    if bitset in consistent:
                        continue  # listed and asked, or at the answer's size, not reached before the answer
                    mark = engine.mark()
                    for lit in [*backbone, *(-lit for lit in outside_literals(reduced, set(combo)))]:
                        engine.force(abs(lit), lit > 0)
                    assert not engine.propagate()
                    engine.undo_to(mark)
                    counts["sign"] += 1
        assert counts == {"sign": 187, "asked": 134}

    def test_unit_form_matches_flipped_copies(self):
        """For every allowed subset X of the reduced formula, the formula
        plus flipped copies of the clauses X touches is x-satisfiable iff
        the formula plus the unit clauses is, and flipping X in a model of
        the unit form gives a model of the formula."""
        outcomes = []
        for f in REPEATED + OVERLAPPING:
            engine = propagated(f)
            if engine.unsat:
                continue
            reduced = Formula(f.num_vars, live_clauses(engine))
            variables = reduced.variables()
            for size in range(1, len(variables) + 1):
                for combo in itertools.combinations(variables, size):
                    if not allowed_subset_check(reduced, combo):
                        continue
                    touched = [c for c in reduced.clauses if any(abs(l) in combo for l in c)]
                    copies = tuple(tuple(-l if abs(l) in combo else l for l in c) for c in touched)
                    units = tuple((-l,) for c in touched for l in c if abs(l) not in combo)
                    union = find_xmodel(Formula(reduced.num_vars, reduced.clauses + copies))
                    model = find_xmodel(Formula(reduced.num_vars, reduced.clauses + units))
                    assert (union is None) == (model is None)
                    if model is not None:
                        flipped = {v: value != (v in combo) for v, value in model.items()}
                        assert verify_xmodel(reduced, flipped)
                    outcomes.append(model is not None)
        assert (len(outcomes), sum(outcomes)) == (500, 211)  # both answers occur


def listed_classes(masks, negatives):
    """What `allowed_subsets` yields, as one set per size, largest first.

    Checks on the way that each subset comes once, that sizes never grow,
    and that each yielded P and N are the OR of the positive and of the
    negative bits of the masks the subset meets."""
    classes, seen = [], set()
    for bitset, positive, negative in subset_scan.allowed_subsets(masks, negatives):
        assert bitset not in seen
        seen.add(bitset)
        met = [(mask, bits) for mask, bits in zip(masks, negatives) if bitset & mask]
        assert positive == functools.reduce(operator.or_, (mask & ~bits for mask, bits in met), 0)
        assert negative == functools.reduce(operator.or_, (bits for _, bits in met), 0)
        size = bitset.bit_count()
        if not classes or size < classes[-1][0]:
            classes.append((size, set()))
        assert size == classes[-1][0]
        classes[-1][1].add(bitset)
    return [found for _, found in classes]


def by_size(subsets):
    """subsets as one set per size, largest first, empty sizes left out."""
    sizes = sorted({bitset.bit_count() for bitset in subsets}, reverse=True)
    return [{bitset for bitset in subsets if bitset.bit_count() == size} for size in sizes]


class TestAllowedClasses:
    """The listing, `allowed_subsets`: each size's subsets are compared as
    a set, since the walk order decides the order within a size."""

    @staticmethod
    def masks(reduced):
        position = {v: i for i, v in enumerate(reduced.variables())}
        return [sum(1 << position[abs(l)] for l in clause) for clause in reduced.clauses]

    def test_lists_the_allowed_subsets_in_scan_order(self):
        """With no sign bits, the nonempty subsets passing the set-based
        check, each once, largest size first."""
        for f in REPEATED + OVERLAPPING:
            engine = propagated(f)
            if engine.unsat:
                continue  # p lists no subsets of a formula without an x-model
            reduced = Formula(f.num_vars, live_clauses(engine))
            variables = reduced.variables()
            want = [
                sum(1 << variables.index(v) for v in combo)
                for size in range(len(variables), 0, -1)
                for combo in itertools.combinations(variables, size)
                if allowed_subset_check(reduced, combo)
            ]
            masks = self.masks(reduced)
            assert listed_classes(masks, [0] * len(masks)) == by_size(want)

    def test_matches_a_brute_force_reference_on_random_masks(self):
        """Seeded mask lists of width at most 9, with duplicate masks,
        one-bit masks and masks whose bits all appeared earlier, and no
        sign bits: the listing holds every nonempty bitset meeting each
        mask in 0 or 2 bits, each once, largest size first. (0 2) walks
        last, with no fresh bit, and meets the state {0, 1} in one bit
        only, so that state is dead."""
        assert list(subset_scan.allowed_subsets([0b11, 0b111, 0b101], [0, 0, 0])) == []
        for seed in range(3000):
            masks = random_masks(random.Random(seed))
            width = functools.reduce(operator.or_, masks).bit_length()
            want = [
                subset
                for subset in range(1, 1 << width)
                if all((subset & mask).bit_count() in (0, 2) for mask in masks)
            ]
            assert listed_classes(masks, [0] * len(masks)) == by_size(want), masks

    @staticmethod
    def signed_reference(masks, negatives):
        """Every nonempty bitset X meeting each mask in 0 or 2 bits with no
        bit outside X positive in one mask X meets and negative in another,
        one set per size, largest first."""
        width = functools.reduce(operator.or_, masks).bit_length()
        found = []
        for subset in range(1, 1 << width):
            if any((subset & mask).bit_count() not in (0, 2) for mask in masks):
                continue
            met = [(mask & ~negative, negative) for mask, negative in zip(masks, negatives) if subset & mask]
            positive = functools.reduce(operator.or_, (bits for bits, _ in met), 0)
            negative = functools.reduce(operator.or_, (bits for _, bits in met), 0)
            if not positive & negative & ~subset:
                found.append(subset)
        return by_size(found)

    def test_drops_sign_contradictions_as_a_brute_force_reference_does(self):
        """The same seeded mask lists, with random sign bits: the listing
        holds the allowed bitsets with no sign contradiction, and both
        kinds of drop occur."""
        contradicted = 0
        for seed in range(3000):
            rng = random.Random(seed)
            masks = random_masks(rng)
            negatives = random_negatives(rng, masks)
            want = self.signed_reference(masks, negatives)
            assert listed_classes(masks, negatives) == want, (masks, negatives)
            contradicted += sum(map(len, self.signed_reference(masks, [0] * len(masks)))) - sum(map(len, want))
        assert contradicted > 1000

    def test_permuting_the_masks_changes_no_list(self):
        """The walk order depends on the masks' order; the subsets of each
        size, as a set, do not."""
        for seed in range(1000):
            rng = random.Random(seed)
            masks = random_masks(rng)
            rows = list(zip(masks, random_negatives(rng, masks)))
            want = listed_classes(*map(list, zip(*rows)))
            for _ in range(3):
                rng.shuffle(rows)
                assert listed_classes(*map(list, zip(*rows))) == want, rows

    def test_walk_takes_fewest_fresh_bits_first(self):
        """Each mask comes with its fresh bits. (2 3) goes first, as the
        first of the shortest; then (1 2), whose bit 2 is decided; then
        (0 1 2), with one fresh bit left, which leaves (0 1 5) with one
        too, ahead of (6 7) with two. A chain given back to front walks
        from its first clause to its neighbours."""
        masks = [0b111, 0b1100, 0b11000000, 0b110, 0b100011]
        assert subset_scan._walk(masks) == [(1, [2, 3]), (3, [1]), (0, [0]), (4, [5]), (2, [6, 7])]
        chain = [0b11 << i for i in range(5)][::-1]
        assert subset_scan._walk(chain) == [(0, [4, 5]), (1, [3]), (2, [2]), (3, [1]), (4, [0])]

    def test_long_binary_chain_has_no_recursion_limit(self):
        """Each clause of (1 2), (2 3), … forces its second variable to
        follow its first, so all 3,001 variables flip together or not at all."""
        masks = [0b11 << i for i in range(3000)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            got = listed_classes(masks, [0] * len(masks))
        finally:
            sys.setrecursionlimit(limit)
        assert got == [{(1 << 3001) - 1}]


class TestMaxHammingP:
    def test_unsat(self):
        assert max_hamming_p(formula((1,), (-1,))).distance is BOTTOM

    def test_single_clause(self):
        result = max_hamming_p(formula((1, 2, 3)))
        assert result.distance == 2

    def test_two_clauses(self, tiny):
        assert max_hamming_p(tiny).distance == 3

    def test_witnesses_are_models_at_reported_distance(self, tiny):
        result = max_hamming_p(tiny)
        a, b = result.witnesses
        assert verify_xmodel(tiny, a) and verify_xmodel(tiny, b)
        assert hamming_distance(a, b) == result.distance

    def test_unique_model_gives_zero_with_witnesses(self):
        result = max_hamming_p(formula((1,)))
        assert result.distance == 0
        assert result.witnesses == ({1: True}, {1: True})


def test_one_engine_and_no_formula_per_scan(monkeypatch):
    """p propagates, checks and scans on one `Propagator` built on its
    input, and its witnesses come from the solver's models: no `Formula`."""
    instances = [random_formula(n, (n + 1) // 2, k, 8100 + n) for k in (3, 4) for n in (10, 12, 14)]
    instances += [planted_formula(n, k, 2, seed) for n, k in ((12, 3), (12, 4)) for seed in range(3)]
    instances += REPEATED[:40]
    built = count_builds(monkeypatch)
    calls = 0
    for f in instances:
        built.update(engines=0, formulas=0)
        stats = SearchStats()
        max_hamming_p(f, stats)
        assert built == {"engines": 1, "formulas": 0}, f
        calls += stats.solver_calls
    assert calls == 76


def test_agrees_with_oracle_on_random_suite():
    for length in (2, 3, 4, 5):
        for i in range(60):
            n = max(4, length) + (i % 7)
            f = random_formula(n, clause_count(n, length), length, seed=5100 + 17 * i + length)
            want = max_hamming_brute(f)
            got = max_hamming_p(f)
            assert (got.distance is BOTTOM) == (want.distance is BOTTOM)
            if want.distance is not BOTTOM:
                assert got.distance == want.distance


def test_pruning_soundness():
    """A subset failing the check never separates a model pair."""
    for i in range(40):
        n = 4 + (i % 5)
        f = random_formula(n, clause_count(n, 3), 3, seed=6400 + i)
        models = enumerate_xmodels(f)
        differing = {
            frozenset(v for v in f.variables() if a[v] != b[v])
            for a, b in itertools.combinations(models, 2)
        }
        for size in range(n + 1):
            for combo in itertools.combinations(f.variables(), size):
                if not allowed_subset_check(f, combo):
                    assert frozenset(combo) not in differing


def test_solver_calls_bounded_by_allowed_subsets():
    for i in range(25):
        n = 5 + (i % 4)
        f = random_formula(n, clause_count(n, 3), 3, seed=7300 + i)
        stats = SearchStats()
        max_hamming_p(f, stats)
        assert 0 < stats.solver_calls <= count_allowed_subsets_brute(f)


def test_agrees_with_oracle_when_clauses_repeat_variables():
    """p scans the propagated formula; freed variables come back as one flip each."""
    for f in REPEATED:
        want = max_hamming_brute(f).distance
        got = max_hamming_p(f)
        assert got.distance == want
        assert max_hamming_q(f).distance == want
        if want is BOTTOM:
            continue
        a, b = got.witnesses
        assert a.keys() == b.keys() == set(f.variables())
        assert verify_xmodel(f, a) and verify_xmodel(f, b)
        assert hamming_distance(a, b) == want


def test_oracle_count_matches_check_when_clauses_repeat_variables():
    """Also on overlapping clauses of distinct variables, where the disjoint
    clauses of criterion 4 leave the count untested."""
    for f in REPEATED + OVERLAPPING:
        variables = f.variables()
        allowed = sum(
            allowed_subset_check(f, combo)
            for size in range(len(variables) + 1)
            for combo in itertools.combinations(variables, size)
        )
        assert count_allowed_subsets_brute(f) == allowed


# (family, num_vars, clause_length, seed, distance, solver_calls,
# subsets_checked); a distance of None means unsatisfiable. Uniform rows
# have the criterion-8 shape (m = (n + 1) // 2); a "repeated" row's seed
# is its index in REPEATED. Every row's live clauses form one component.
# subsets_checked counts, over the rows the probe leaves, the allowed
# subsets the listing keeps, those with no sign contradiction, up to the
# answer, and solver_calls the base check and one call per listed subset.
# The last field only names the test: an id is
# family-n-length-seed-distance and then the solver_calls and filtering-scan
# counts the row was first recorded with, kept fixed so that re-recording a
# count does not rename a test.
SCAN_WORK = [
    ("uniform", 10, 3, 8103100, None, 1, 0, "1-0"),
    ("uniform", 10, 3, 8103101, 6, 2, 1, "4-83"),
    ("uniform", 11, 3, 8103110, 5, 2, 1, "6-214"),
    ("uniform", 11, 3, 8103111, 5, 2, 1, "3-74"),
    ("uniform", 12, 3, 8103120, 2, 2, 1, "15-969"),
    ("uniform", 12, 3, 8103121, 6, 2, 1, "5-207"),
    ("uniform", 13, 3, 8103130, 0, 1, 0, "8-1023"),
    ("uniform", 13, 3, 8103131, 8, 2, 1, "9-1422"),
    ("uniform", 14, 3, 8103140, 8, 2, 1, "12-1406"),
    ("uniform", 14, 3, 8103141, 9, 2, 1, "5-598"),
    ("uniform", 10, 4, 8104100, 5, 2, 1, "16-604"),
    ("uniform", 10, 4, 8104101, 0, 1, 0, "22-1023"),
    ("uniform", 11, 4, 8104110, 0, 1, 0, "10-1023"),
    ("uniform", 11, 4, 8104111, None, 1, 0, "1-0"),
    ("uniform", 12, 4, 8104120, None, 1, 0, "1-0"),
    ("uniform", 12, 4, 8104121, None, 1, 0, "1-0"),
    ("uniform", 13, 4, 8104130, 0, 1, 0, "36-8191"),
    ("uniform", 13, 4, 8104131, 7, 2, 1, "7-3677"),
    ("uniform", 14, 4, 8104140, None, 1, 0, "1-0"),
    ("uniform", 14, 4, 8104141, None, 1, 0, "1-0"),
    ("repeated", 8, None, 1, 3, 2, 1, "2-1"),
    ("repeated", 7, None, 4, 2, 2, 1, "2-2"),
    ("repeated", 7, None, 6, 3, 2, 1, "2-1"),
    ("repeated", 7, None, 10, 3, 2, 1, "2-1"),
]


def scan_formula(family, n, length, seed):
    return REPEATED[seed] if family == "repeated" else random_formula(n, (n + 1) // 2, length, seed)


@pytest.mark.parametrize(
    "family,n,length,seed,distance,solver_calls,subsets",
    [pytest.param(*row[:7], id="-".join(map(str, row[:5])) + "-" + row[7]) for row in SCAN_WORK],
)
def test_scan_work_is_pinned(family, n, length, seed, distance, solver_calls, subsets):
    f = scan_formula(family, n, length, seed)
    stats = SearchStats()
    got = max_hamming_p(f, stats).distance
    assert (None if got is BOTTOM else got, stats.solver_calls, stats.subsets_checked) == (
        distance,
        solver_calls,
        subsets,
    )
    if distance is not None:
        # Over the rows the probe leaves in the one component
        # (`probe_reference` around the base model, then `reduced_rows`):
        # every nonempty allowed subset with no sign contradiction larger
        # than the answer, and then at the answer's size at least the
        # answer and at most its whole class; with no nonempty answer,
        # every such subset. The answer is brute's on the rows, and it is
        # the distance less the freed variables.
        engine = propagated(f)
        positions = [pos for pos, clause in enumerate(engine.clauses) if clause is not None]
        assert len(components(engine, positions)) == 1
        live = live_clauses(engine)
        reduced = reduced_rows(live, probe_reference(live, solve(propagated(f))[0]))
        rows = Formula(f.num_vars, tuple(reduced))
        free = rows.variables()
        answer = max_hamming_brute(rows).distance
        assert answer == distance - len(engine.freed)
        counts = [
            sum(
                allowed_subset_check(rows, combo) and sign_consistent(reduced, set(combo))
                for combo in itertools.combinations(free, size)
            )
            for size in range(len(free) + 1)
        ]
        if answer == 0:
            assert subsets == sum(counts[1:])
        else:
            larger = sum(counts[answer + 1 :])
            assert 1 <= subsets - larger <= counts[answer]


def test_scan_generates_where_filtering_would_not_finish():
    """On n=24 the filter checked 2,093,332 subsets to make 504 solver
    calls; the scan per component listed 28 subsets with no sign
    contradiction and asked about 7. Over the rows the probe leaves it
    lists 2 and asks about both. On n=40 the filter would face 2^40."""
    stats = SearchStats()
    assert max_hamming_p(random_formula(24, 12, 3, 903), stats).distance == 4
    assert (stats.solver_calls, stats.subsets_checked) == (3, 2)
    f = random_formula(40, 20, 3, 901)
    assert max_hamming_p(f).distance == max_hamming_q(f).distance == 9


def test_scan_stops_at_the_first_size_with_a_hit():
    """20 disjoint binary clauses have 2^20 - 1 nonempty allowed subsets;
    each clause is a component whose first subset, both its variables,
    answers, so one subset is listed and asked per component."""
    stats = SearchStats()
    f = Formula.from_clauses([(2 * i + 1, 2 * i + 2) for i in range(20)])
    assert max_hamming_p(f, stats).distance == 40
    assert (stats.solver_calls, stats.subsets_checked) == (21, 20)


def test_disjoint_length_four_clauses_scan_per_component():
    """12 disjoint length-4 clauses: a whole-formula scan would list the
    6^12 subsets of the top size class before its first call; per
    component the first of each clause's 6 pairs answers, so it lists
    one subset and asks one question."""
    stats = SearchStats()
    f = Formula.from_clauses([tuple(range(4 * i + 1, 4 * i + 5)) for i in range(12)])
    result = max_hamming_p(f, stats)
    assert result.distance == 24
    assert (stats.subsets_checked, stats.solver_calls) == (12, 13)
    a, b = result.witnesses
    assert verify_xmodel(f, a) and verify_xmodel(f, b)
    assert hamming_distance(a, b) == 24


@pytest.mark.parametrize("k,forces", [(6, 48), (12, 96), (24, 192)])
def test_questions_search_only_their_component(monkeypatch, k, forces):
    """k disjoint length-4 clauses: the base check assigns 4 values per
    clause, and each clause's one question assigns its 2 assumptions and
    2 more values in its own clause alone, so the work is 8k assignments,
    not the 4k per question of a search over every clause."""
    work = count_search_work(monkeypatch)
    stats = SearchStats()
    f = Formula.from_clauses([tuple(range(4 * i + 1, 4 * i + 5)) for i in range(k)])
    assert max_hamming_p(f, stats).distance == 2 * k
    assert (stats.solver_calls, work["assignments"]) == (k + 1, forces)


# The scan-p benchmark's shape, uniform length 3 with m = (n + 1) // 2 at
# n 18-22, and planted degree-2 instances up to n = 24.
SCAN_SHAPED = [random_formula(n, (n + 1) // 2, 3, 9950 + 10 * n + i) for n in range(18, 23) for i in range(8)]
PLANTED = [planted_formula(n, 3, 2, seed) for n in (12, 15, 18, 21, 24) for seed in range(4)]
PLANTED += [planted_formula(n, 4, 2, seed) for n in (12, 16, 20, 24) for seed in range(4)]
# Small uniform instances with a guarded grid (`guarded_grid`) on one of
# their variables, either sign: a backbone literal that probing misses, so
# p's questions that assume it false are refused.
GUARDED = [
    guarded_grid(random_formula(n, (n + 1) // 2, 3, 7700 + 10 * n + i), (1 + i % n) * (-1) ** i, 7800 + 10 * n + i)
    for n in range(6, 13, 2)
    for i in range(4)
]


def test_clause_check_and_assumptions_read_off_the_sign_bits(monkeypatch):
    """Per component, p lists the rows that the probe leaves
    (`probe_reference` around the base model, then `reduced_rows`) in
    one listing. For every subset X the listing yields with its P and N,
    in the component's local variables, p asks the solver at once, with
    no clause check before the call, and the question assumes the probe's
    literals and the complements of the outside literals of the rows X
    touches (`outside_literals`), as a set and each once."""
    # ("part", part, base model), ("listing", masks, negatives), ("listed", X, P, N)
    # and ("asked", assumptions), in p's order
    events = []
    scan, listing, question = subset_scan._scan_component, subset_scan.allowed_subsets, subset_scan.search

    def spy_scan(part, model, stats):
        events.append(("part", part, list(model)))
        return scan(part, model, stats)

    def spy_listing(masks, negatives):
        events.append(("listing", list(masks), list(negatives)))
        for found in listing(masks, negatives):
            events.append(("listed", *found))
            yield found

    def spy_search(part, assumptions=(), base=None):
        events.append(("asked", assumed(assumptions, base)))
        return question(part, assumptions, base)

    monkeypatch.setattr(subset_scan, "_scan_component", spy_scan)
    monkeypatch.setattr(subset_scan, "allowed_subsets", spy_listing)
    monkeypatch.setattr(subset_scan, "search", spy_search)

    counts = {"listed": 0, "asked": 0}
    for f in REPEATED + OVERLAPPING + SCAN_SHAPED + GUARDED:
        events.clear()
        max_hamming_p(f)
        events.append(("end",))
        for event, following in zip(events, events[1:]):
            if event[0] == "part":
                assert following[0] == "listing"
                backbone = probe_reference(event[1].clauses, event[2])
                reduced = reduced_rows(event[1].clauses, backbone)
            elif event[0] == "listing":
                masks = [sum(1 << (abs(lit) - 1) for lit in clause) for clause in reduced]
                negatives = [sum(1 << (-lit - 1) for lit in clause if lit < 0) for clause in reduced]
                assert (event[1], event[2]) == (masks, negatives)
            elif event[0] == "listed":
                bitset = event[1]
                assert following[0] == "asked"
                subset = {i + 1 for i in range(bitset.bit_length()) if (bitset >> i) & 1}
                assumptions = following[1]
                assert len(set(assumptions)) == len(assumptions)
                want = backbone | {-lit for lit in outside_literals(reduced, subset)}
                assert set(assumptions) == want, (reduced, subset)
                counts["listed"] += 1
            elif event[0] == "asked":
                counts["asked"] += 1
    assert counts == {"listed": 956, "asked": 956}


def test_every_search_gives_the_engine_search_model(monkeypatch):
    """Each search p runs, the base check's one per component and every
    question, gives the model, or None, that the engine search the solver
    ran before (`engine_solve`) gives for the same component and
    assumptions, and find_xmodel gives that search's model of the whole
    formula."""
    runs = []

    def spy(kind):
        def spied(part, assumptions=(), base=None):
            model = search(part, assumptions, base)
            runs.append((kind, part, assumed(assumptions, base), model))
            return model

        return spied

    monkeypatch.setattr(solver, "search", spy("base"))
    monkeypatch.setattr(subset_scan, "search", spy("question"))
    outcomes = {"base": [0, 0], "question": [0, 0]}  # per kind of search: (no model, model) counts
    for f in REPEATED + OVERLAPPING + SCAN_SHAPED + PLANTED + GUARDED:
        engine = propagated(f)
        assert find_xmodel(f) == (None if engine.unsat else engine_solve(engine))
        if engine.unsat:
            continue
        parts = components(engine, [pos for pos, clause in enumerate(engine.clauses) if clause is not None])
        positions = {tuple(sorted({abs(lit) for pos in part for lit in engine.clauses[pos]})): part for part in parts}
        runs.clear()
        max_hamming_p(f)
        for kind, part, assumptions, model in runs:
            variables = part.variables
            named = [variables[lit - 1] if lit > 0 else -variables[-lit - 1] for lit in assumptions]
            want = engine_solve(engine, named, positions[tuple(variables)])
            got = None if model is None else dict(zip(variables, model[1:]))
            assert got == (None if want is None else {v: want[v] for v in variables}), (f, part, assumptions)
            outcomes[kind][got is not None] += 1
    assert outcomes == {"base": [36, 197], "question": [823, 169]}


def test_questions_start_from_the_probe(monkeypatch):
    """Each question starts from the probe's value list and trail: no
    propagation a question runs assigns a literal the probe asserted for
    its component, so the asserted literals are propagated once, by the
    probe, not once more per question."""
    probe, question, propagate = subset_scan.probe, subset_scan.search, solver._propagate
    state = {"asserted": set(), "asking": False}
    counts = {"questions": 0, "on_asserted": 0, "assigned": 0, "again": 0}

    def spy_probe(part, model):
        found = probe(part, model)
        state["asserted"] = set(found[1])
        return found

    def spy_search(*args):
        counts["questions"] += 1
        counts["on_asserted"] += bool(state["asserted"])
        state["asking"] = True
        try:
            return question(*args)
        finally:
            state["asking"] = False

    def spy_propagate(value, trail, literals, holding):
        head = len(trail)
        consistent = propagate(value, trail, literals, holding)
        if state["asking"]:
            counts["assigned"] += len(trail) - head
            counts["again"] += len(state["asserted"].intersection(trail[head:]))
        return consistent

    monkeypatch.setattr(subset_scan, "probe", spy_probe)
    monkeypatch.setattr(subset_scan, "search", spy_search)
    monkeypatch.setattr(solver, "_propagate", spy_propagate)
    for f in SCAN_SHAPED + PLANTED + GUARDED:
        max_hamming_p(f)
    assert counts == {"questions": 893, "on_asserted": 630, "assigned": 8402, "again": 0}


def test_one_solver_call_per_listed_subset():
    """p asks the solver about every subset it lists, with no check before
    the call: on a formula with an x-model it makes the base check and one
    call per listed subset, and on one without, the base check alone."""
    kinds = {"sat": 0, "unsat": 0, "subsets": 0}
    for f in SCAN_SHAPED + PLANTED + GUARDED + [formula((1,), (-1,)), formula((1, 2), (1, 3), (2, 3))]:
        stats = SearchStats()
        if max_hamming_p(f, stats).distance is BOTTOM:
            assert (stats.solver_calls, stats.subsets_checked) == (1, 0)
            kinds["unsat"] += 1
        else:
            assert stats.solver_calls == 1 + stats.subsets_checked
            kinds["sat"] += 1
            kinds["subsets"] += stats.subsets_checked
    assert kinds == {"sat": 79, "unsat": 15, "subsets": 893}


def test_scan_never_calls_the_set_based_check():
    """p's bitmask listing is its only zero-or-two test: the set-based
    check lives with the tests, and the package does not hold it."""
    assert not hasattr(subset_scan, "allowed_subset_check")
    assert not hasattr(xham, "allowed_subset_check")
    assert not hasattr(xham, "count_allowed_subsets_brute")


def probed(f):
    """Per component of f's propagated clauses, in p's order: (the Part,
    its base model as a value list, `solver.probe`'s value list and
    trail). None when f has no x-model."""
    found = solve(propagated(f))
    if found is None:
        return None
    model, parts = found
    out = []
    for part in parts:
        local = [None, *map(model.__getitem__, part.variables)]
        out.append((part, local, *solver.probe(part, local)))
    return out


UNIFORM = [random_formula(n, (n + 1) // 2, k, 9300 + 10 * n + k) for k in (3, 4, 5) for n in range(12, 22, 3)]
# Components where the skip set changes what the pass asserts: a literal a
# consistent probe made true is not probed later, when an asserted literal
# would have made its probe fail.
SKIP_MATTERS = [
    formula((6, 2), (3, 7), (8, 7, -2, 6), (-9, -4, 1), (8, -4, -1, -3), (-5, 8)),
    formula((-5, -1, 4, 2), (-5, 2, -6, -3), (-6, 4, 1), (2, 3, -7)),
]


def test_probe_asserts_only_literals_true_in_every_model():
    """Every literal `solver.probe` asserts, in the input's variables, is
    true in every x-model of the formula (`scan_xmodels`); its trail is
    the set `probe_reference` asserts, each once, and its value list
    holds exactly the trail's values."""
    found = {"components": 0, "asserted": 0}
    small = [f for f in PLANTED + GUARDED if f.num_vars <= 20]
    for f in REPEATED + OVERLAPPING + SCAN_SHAPED + UNIFORM + small + SKIP_MATTERS:
        found_parts = probed(f)
        if found_parts is None:
            continue
        models = scan_xmodels(f)
        for part, model, value, trail in found_parts:
            assert len(set(trail)) == len(trail)
            assert set(trail) == probe_reference(part.clauses, model)
            n = len(part.variables)
            assert [lit for lit in range(-n, n + 1) if lit and value[lit]] == sorted(trail)
            for lit in trail:
                var = part.variables[abs(lit) - 1]
                assert all(m[var] == (lit > 0) for m in models), (f, lit)
            found["components"] += 1
            found["asserted"] += len(trail)
    assert found == {"components": 178, "asserted": 588}


def test_a_component_of_binary_clauses_is_not_probed(monkeypatch):
    """Flipping every variable of an x-model of a component whose clauses
    are all binary gives another x-model, so the component has no
    backbone, and `solver.probe` leaves it without a propagation: none
    on a 2,001-variable binary chain with random polarities, where p
    still lists 1 subset, every variable, and asks 2 questions."""
    f = chain(2001, 2, 5)
    model, [part] = solve(propagated(f))
    local = [None, *map(model.__getitem__, part.variables)]
    propagations, propagate = [], solver._propagate
    monkeypatch.setattr(solver, "_propagate", lambda *args: propagations.append(args[2]) or propagate(*args))
    value, trail = solver.probe(part, local)
    assert propagations == [] and trail == [] and value.count(None) == len(value)
    stats = SearchStats()
    assert max_hamming_p(f, stats).distance == 2001
    assert (stats.subsets_checked, stats.solver_calls) == (1, 2)


def test_each_component_lists_its_probed_rows_once(monkeypatch):
    """(1 2 5), (3 4 5), (6 7), (6 7 5) is one component, and 5 is false
    in every x-model: 5 true makes 6 and 7 false, and (6 7) then holds no
    true literal. The probe asserts -5, which leaves the rows (1 2), (3 4),
    (6 7) and (6 7), with no variable shared between the three pairs. One
    listing of the four rows lists the union of the pairs first, and it
    answers alone: 1 subset and 1 question after the base check. On the
    scan-shaped, planted and guarded instances p lists each component's
    rows (`reduced_rows` of the probe's trail) once, in order, and its
    witness pair verifies at brute's distance."""
    stats = SearchStats()
    f = formula((1, 2, 5), (3, 4, 5), (6, 7), (6, 7, 5))
    result = max_hamming_p(f, stats)
    assert (result.distance, stats.subsets_checked, stats.solver_calls) == (6, 1, 2)
    a, b = result.witnesses
    assert verify_xmodel(f, a) and verify_xmodel(f, b) and hamming_distance(a, b) == 6

    listings, listing = [], subset_scan.allowed_subsets

    def spy(masks, negatives):
        listings.append(list(masks))
        yield from listing(masks, negatives)

    monkeypatch.setattr(subset_scan, "allowed_subsets", spy)
    for f in SCAN_SHAPED + PLANTED + GUARDED:
        found_parts = probed(f)
        if found_parts is None:
            continue
        want = [
            [sum(1 << (abs(lit) - 1) for lit in row) for row in reduced_rows(part.clauses, set(trail))]
            for part, _, _, trail in found_parts
        ]
        listings.clear()
        result = max_hamming_p(f)
        assert listings == want
        a, b = result.witnesses
        assert verify_xmodel(f, a) and verify_xmodel(f, b)
        assert hamming_distance(a, b) == result.distance == max_hamming_brute(f).distance
