import itertools
import sys

import pytest

from xham import (
    BOTTOM,
    Formula,
    SearchStats,
    allowed_subset_check,
    count_allowed_subsets_brute,
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
from xham import subset_scan
from xham.solver import solve

from conftest import clause_count, count_builds, formula, live_clauses, propagated, repeated_variable_corpus

REPEATED = repeated_variable_corpus(300, 9100)
# Distinct-variable clauses that share variables with each other.
OVERLAPPING = [
    random_formula(n, clause_count(n, length), length, seed=9700 + 13 * n + length)
    for length in (2, 3, 4, 5)
    for n in range(max(5, length + 2), 13)
]


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
    the touched clauses. The spy reads the engine's live clauses and the
    literals assumed true."""

    @staticmethod
    def solver_inputs(monkeypatch, f):
        seen = []

        def spy(engine, assumptions=()):
            seen.append((tuple(filter(None, engine.clauses)), tuple(assumptions)))
            return solve(engine, assumptions)

        monkeypatch.setattr(subset_scan, "solve", spy)
        max_hamming_p(f)
        return seen

    def test_flips_touched_clause(self, monkeypatch):
        assert self.solver_inputs(monkeypatch, formula((1, 2, 3))) == [
            (((1, 2, 3),), ()),
            (((1, 2, 3),), (-3,)),
        ]

    def test_untouched_clause_not_duplicated(self, monkeypatch):
        f = formula((1, 2, 3), (3, 4), (-4, -5, 6))
        assert self.solver_inputs(monkeypatch, f)[1] == (f.clauses, (-3, 4))

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


class TestAllowedClasses:
    @staticmethod
    def masks(reduced):
        position = {v: i for i, v in enumerate(reduced.variables())}
        return [sum(1 << position[abs(l)] for l in clause) for clause in reduced.clauses]

    def test_lists_the_allowed_subsets_in_scan_order(self):
        """The nonempty subsets passing the set-based check, one list per
        size, in the order a loop over combinations from the largest size
        down meets them."""
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
            classes = list(subset_scan.allowed_classes(self.masks(reduced)))
            assert [bitset for found in classes for bitset in found] == want
            assert [{bitset.bit_count() for bitset in found} for found in classes] == [
                {size} for size in sorted({bitset.bit_count() for bitset in want}, reverse=True)
            ]

    def test_long_binary_chain_has_no_recursion_limit(self):
        """Each clause of (1 2), (2 3), … forces its second variable to
        follow its first, so all 3,001 variables flip together or not at all."""
        masks = [0b11 << i for i in range(3000)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            got = list(subset_scan.allowed_classes(masks))
        finally:
            sys.setrecursionlimit(limit)
        assert got == [[(1 << 3001) - 1]]


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
    assert calls > 100


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
# filtered, subsets_checked); a distance of None means unsatisfiable.
# Uniform rows have the criterion-8 shape (m = (n + 1) // 2); a "repeated"
# row's seed is its index in REPEATED. `filtered` is the count of the
# old filtering scan, kept only because the test names carry it.
SCAN_WORK = [
    ("uniform", 10, 3, 8103100, None, 1, 0, 0),
    ("uniform", 10, 3, 8103101, 6, 4, 83, 6),
    ("uniform", 11, 3, 8103110, 5, 6, 214, 6),
    ("uniform", 11, 3, 8103111, 5, 3, 74, 2),
    ("uniform", 12, 3, 8103120, 2, 15, 969, 15),
    ("uniform", 12, 3, 8103121, 6, 5, 207, 7),
    ("uniform", 13, 3, 8103130, 0, 8, 1023, 7),
    ("uniform", 13, 3, 8103131, 8, 9, 1422, 16),
    ("uniform", 14, 3, 8103140, 8, 12, 1406, 23),
    ("uniform", 14, 3, 8103141, 9, 5, 598, 9),
    ("uniform", 10, 4, 8104100, 5, 16, 604, 16),
    ("uniform", 10, 4, 8104101, 0, 22, 1023, 21),
    ("uniform", 11, 4, 8104110, 0, 10, 1023, 9),
    ("uniform", 11, 4, 8104111, None, 1, 0, 0),
    ("uniform", 12, 4, 8104120, None, 1, 0, 0),
    ("uniform", 12, 4, 8104121, None, 1, 0, 0),
    ("uniform", 13, 4, 8104130, 0, 36, 8191, 35),
    ("uniform", 13, 4, 8104131, 7, 7, 3677, 7),
    ("uniform", 14, 4, 8104140, None, 1, 0, 0),
    ("uniform", 14, 4, 8104141, None, 1, 0, 0),
    ("repeated", 8, None, 1, 3, 2, 1, 1),
    ("repeated", 7, None, 4, 2, 2, 2, 3),
    ("repeated", 7, None, 6, 3, 2, 1, 1),
    ("repeated", 7, None, 10, 3, 2, 1, 1),
]


def scan_formula(family, n, length, seed):
    return REPEATED[seed] if family == "repeated" else random_formula(n, (n + 1) // 2, length, seed)


@pytest.mark.parametrize(
    "family,n,length,seed,distance,solver_calls,filtered,subsets",
    SCAN_WORK,
    ids=["-".join(map(str, row[:7])) for row in SCAN_WORK],
)
def test_scan_work_is_pinned(family, n, length, seed, distance, solver_calls, filtered, subsets):
    f = scan_formula(family, n, length, seed)
    stats = SearchStats()
    got = max_hamming_p(f, stats).distance
    assert (None if got is BOTTOM else got, stats.solver_calls, stats.subsets_checked) == (
        distance,
        solver_calls,
        subsets,
    )
    if distance is not None:
        # Every nonempty allowed subset at least as large as the answer's.
        engine = propagated(f)
        live = Formula(f.num_vars, live_clauses(engine))
        variables = sorted(var for var, count in engine.degree.items() if count)
        assert subsets == sum(
            allowed_subset_check(live, combo)
            for size in range(max(distance - len(engine.freed), 1), len(variables) + 1)
            for combo in itertools.combinations(variables, size)
        )


def test_scan_generates_where_filtering_would_not_finish():
    """On n=24 the filter checked 2,093,332 subsets to make 504 solver
    calls; on n=40 it would face 2^40."""
    stats = SearchStats()
    assert max_hamming_p(random_formula(24, 12, 3, 903), stats).distance == 4
    assert (stats.solver_calls, stats.subsets_checked) == (504, 505)
    f = random_formula(40, 20, 3, 901)
    assert max_hamming_p(f).distance == max_hamming_q(f).distance == 9


def test_scan_stops_at_the_first_size_with_a_hit():
    """20 disjoint binary clauses have 2^20 - 1 nonempty allowed subsets;
    the first, all 40 variables, answers, and no smaller one is listed."""
    stats = SearchStats()
    f = Formula.from_clauses([(2 * i + 1, 2 * i + 2) for i in range(20)])
    assert max_hamming_p(f, stats).distance == 40
    assert (stats.solver_calls, stats.subsets_checked) == (2, 1)


def test_scan_never_calls_the_set_based_check(monkeypatch):
    """p's bitmask filter is its only zero-or-two test."""

    def refuse(*args):
        raise AssertionError("max_hamming_p called allowed_subset_check")

    monkeypatch.setattr(subset_scan, "allowed_subset_check", refuse)
    for row in SCAN_WORK:
        max_hamming_p(scan_formula(*row[:4]))
