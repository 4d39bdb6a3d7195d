import itertools

import pytest

from xham import (
    BOTTOM,
    ScanStats,
    allowed_subset_check,
    count_allowed_subsets_brute,
    enumerate_xmodels,
    flipped_union,
    hamming_distance,
    max_hamming_brute,
    max_hamming_p,
    max_hamming_q,
    random_formula,
    verify_xmodel,
)

from conftest import clause_count, formula, repeated_variable_corpus

REPEATED = repeated_variable_corpus(300, 9100)


class TestAllowedSubsetCheck:
    def test_two_of_three(self):
        assert allowed_subset_check(formula((1, 2, 3)), {1, 2})

    def test_one_of_three(self):
        assert not allowed_subset_check(formula((1, 2, 3)), {1})

    def test_across_clauses(self, tiny):
        assert allowed_subset_check(tiny, {1, 3, 4})

    def test_empty_subset(self, tiny):
        assert allowed_subset_check(tiny, set())


class TestFlippedUnion:
    def test_flips_touched_clause(self):
        f = flipped_union(formula((1, 2, 3)), {1, 2})
        assert f.clauses == ((1, 2, 3), (-1, -2, 3))

    def test_empty_subset_is_identity(self):
        f = formula((1, 2, 3))
        assert flipped_union(f, set()) == f

    def test_untouched_clause_not_duplicated(self):
        f = flipped_union(formula((1, 2), (3, 4)), {3, 4})
        assert f.clauses == ((1, 2), (3, 4), (-3, -4))

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            flipped_union(formula((1, 2, 3)), {1})


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
        stats = ScanStats()
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
    for f in REPEATED:
        variables = f.variables()
        allowed = sum(
            allowed_subset_check(f, combo)
            for size in range(len(variables) + 1)
            for combo in itertools.combinations(variables, size)
        )
        assert count_allowed_subsets_brute(f) == allowed
