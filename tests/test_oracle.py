import random

import pytest

from xham import (
    BOTTOM,
    CapExceeded,
    Formula,
    GeneralizedAssignment,
    enumerate_xmodels,
    hamming_distance,
    max_hamming_brute,
    planted_formula,
    random_formula,
    verify_xmodel,
)
from xham.propagation import Propagator

from conftest import (
    clause_count,
    count_allowed_subsets_brute,
    expand_state,
    formula,
    repeated_variable_corpus,
    scan_brute,
    scan_xmodels,
)


class TestEnumerate:
    def test_one_clause(self):
        models = enumerate_xmodels(formula((1, 2, 3)))
        assert len(models) == 3
        assert all(sum(m.values()) == 1 for m in models)

    def test_contradiction(self):
        assert enumerate_xmodels(formula((1,), (-1,))) == []

    def test_two_clauses(self, tiny):
        models = enumerate_xmodels(tiny)
        assert models == [
            {1: False, 2: False, 3: True, 4: True},
            {1: False, 2: True, 3: False, 4: False},
            {1: True, 2: False, 3: False, 4: False},
        ]

    def test_lexicographic_order(self):
        models = enumerate_xmodels(formula((1, 2)))
        keys = [tuple(m[v] for v in (1, 2)) for m in models]
        assert keys == sorted(keys)

    def test_cap(self):
        f = formula(tuple(range(1, 26)))
        with pytest.raises(CapExceeded):
            enumerate_xmodels(f)

    def test_empty_formula_has_empty_model(self):
        assert enumerate_xmodels(formula(n=2)) == [{}]


class TestMaxHammingBrute:
    def test_binary_clause(self):
        assert max_hamming_brute(formula((1, 2))).distance == 2

    def test_two_clauses(self, tiny):
        result = max_hamming_brute(tiny)
        assert result.distance == 3
        a, b = result.witnesses
        assert hamming_distance(a, b) == 3
        assert verify_xmodel(tiny, a) and verify_xmodel(tiny, b)

    def test_unique_model_distance_zero(self):
        result = max_hamming_brute(formula((1,)))
        assert result.distance == 0
        assert result.witnesses == ({1: True}, {1: True})

    def test_unsat(self):
        assert max_hamming_brute(formula((1,), (-1,))).distance is BOTTOM

    def test_first_maximizing_pair(self, tiny):
        result = max_hamming_brute(tiny)
        models = enumerate_xmodels(tiny)
        variables = tiny.variables()
        pairs = [
            (i, j)
            for i in range(len(models))
            for j in range(i + 1, len(models))
            if sum(models[i][v] != models[j][v] for v in variables) == result.distance
        ]
        first = pairs[0]
        assert result.witnesses == (models[first[0]], models[first[1]])


def drawn_with_replacement(count: int, seed_base: int) -> list[Formula]:
    """Formulas of at most 14 variables whose clauses draw each literal
    independently, so they hold repeated literals and complementary pairs,
    plus a clause (x -x l) on a fresh variable x, which propagation frees
    when the formula has a model, as (1 -1 2) frees 1."""
    out = []
    for i in range(count):
        rng = random.Random(seed_base + i)
        n = rng.randint(1, 13)
        clauses = [
            tuple(rng.choice((-1, 1)) * rng.randint(1, n) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(0, n))
        ]
        n += 1
        clauses.insert(rng.randint(0, len(clauses)), (n, -n, rng.choice((-1, 1)) * rng.randint(1, n - 1)))
        out.append(Formula(n, tuple(clauses)))
    return out


def scan_corpus() -> list[Formula]:
    """At most 20 variables each: uniform and planted instances of clause
    lengths 1-6, clauses drawn with replacement, the repeated-variable
    corpus and hand-written edge cases."""
    out = []
    for length in range(1, 7):
        for i in range(100):
            n = max(length, 2) + i % (17 - max(length, 2))
            m = clause_count(n, length) + i % 3 - 1
            out.append(random_formula(n, max(m, 1), length, seed=900_000 + 1000 * length + i))
    # A scan of 2^20 assignments takes about 0.15 s, so the larger shapes take fewer seeds.
    for length, degree, n, seeds in (
        (2, 2, 12, 12), (3, 2, 12, 12), (4, 2, 16, 12), (3, 3, 15, 12), (5, 2, 15, 12),
        (3, 2, 18, 4), (6, 2, 18, 4), (4, 2, 20, 3), (5, 2, 20, 3),
    ):
        out += [planted_formula(n, length, degree, seed=910_000 + seed) for seed in range(seeds)]
    out += drawn_with_replacement(250, 920_000)
    out += repeated_variable_corpus(150, 930_000)
    out += [
        formula(()),
        formula((1, 2), ()),
        formula(n=5),
        formula((1, -1)),
        formula((1, -1, 2)),
        formula((1, -1, 2), (2, 3, 4)),
        formula((1, 1, 2), (2, 3)),
        formula((1, 1, 1)),
        formula((-3,), (1, -1), (2, 4)),
        formula(*[(2 * i + 1, 2 * i + 2) for i in range(8)]),
        formula(*[(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(6)], (19, -19, 20)),
    ]
    return out


def test_listing_and_brute_match_the_scan():
    """enumerate_xmodels lists what the 2^n scan does, in its order, and
    max_hamming_brute gives the scan-based brute's distance and witness
    pair, on every formula of the corpus."""
    corpus = scan_corpus()
    assert len(corpus) >= 1000 and max(f.num_vars for f in corpus) == 20
    listed = freed = 0
    for f in corpus:
        models = scan_xmodels(f)
        assert enumerate_xmodels(f) == models, f
        want, got = scan_brute(f), max_hamming_brute(f)
        assert (got.distance, got.witnesses) == (want.distance, want.witnesses), f
        listed += len(models)
        engine = Propagator(f)
        freed += engine.propagate() and bool(engine.freed) and bool(models)  # the listing takes both values of a freed variable
    assert listed > 2000 and freed > 100


class TestCountAllowedSubsets:
    def test_single_clause_length_four(self):
        assert count_allowed_subsets_brute(formula((1, 2, 3, 4))) == 7

    def test_two_disjoint_length_four(self):
        assert count_allowed_subsets_brute(formula((1, 2, 3, 4), (5, 6, 7, 8))) == 49

    def test_binary_clause(self):
        assert count_allowed_subsets_brute(formula((1, 2))) == 2

    def test_closed_form_for_disjoint_singleton_clauses(self):
        for length in (2, 3, 4, 5):
            for k in (1, 2, 3):
                clauses = [
                    tuple(range(1 + j * length, 1 + (j + 1) * length)) for j in range(k)
                ]
                f = formula(*clauses)
                per_clause = length * (length - 1) // 2 + 1
                assert count_allowed_subsets_brute(f) == per_clause ** k

    def test_cap(self):
        f = formula(tuple(range(1, 22)))
        with pytest.raises(CapExceeded):
            count_allowed_subsets_brute(f)


class TestExpandState:
    def test_satisfactor_pool(self):
        # from (a b c): a carries the pool, exactly one of a, b, c true
        state = GeneralizedAssignment(sing={1: [(2, True), (3, True)]}, sat={1: True})
        out = expand_state(state, {1: True}, [])
        assert out == [
            {1: False, 2: False, 3: True},
            {1: False, 2: True, 3: False},
            {1: True, 2: False, 3: False},
        ]

    def test_all_fixed(self):
        assert expand_state(GeneralizedAssignment(), {1: True, 2: False}, []) == [{1: True, 2: False}]

    def test_free_root_with_dual_chain(self):
        # from (a b): b free, a mirrors it inverted
        state = GeneralizedAssignment(dual={2: [(1, True, False)]})
        assert expand_state(state, {}, [2]) == [
            {1: False, 2: True},
            {1: True, 2: False},
        ]

    def test_double_link_rejected(self):
        state = GeneralizedAssignment(sing={1: [(3, True)], 2: [(3, True)]}, sat={1: True, 2: True})
        with pytest.raises(ValueError):
            expand_state(state, {1: True, 2: True}, [])

    def test_pool_matches_source_formula_models(self):
        from xham import max_hamming_q

        f = formula((1, 2, 3))
        captured = []
        max_hamming_q(f, leaf_hook=lambda s, forced, freed, t: captured.append((s.copy(), forced, freed)))
        assert captured
        got = {tuple(sorted(m.items())) for m in expand_state(*captured[0])}
        want = {tuple(sorted(m.items())) for m in enumerate_xmodels(f)}
        assert got == want
