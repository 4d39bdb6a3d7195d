import pytest

from xham import (
    BOTTOM,
    CapExceeded,
    GeneralizedAssignment,
    enumerate_xmodels,
    hamming_distance,
    max_hamming_brute,
    verify_xmodel,
)

from conftest import count_allowed_subsets_brute, expand_state, formula


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
        state = GeneralizedAssignment(
            values={1: True}, sing={1: [(2, True), (3, True)]}, sat={1: True}
        )
        out = expand_state(state)
        assert out == [
            {1: False, 2: False, 3: True},
            {1: False, 2: True, 3: False},
            {1: True, 2: False, 3: False},
        ]

    def test_all_fixed(self):
        state = GeneralizedAssignment(values={1: True, 2: False})
        assert expand_state(state) == [{1: True, 2: False}]

    def test_free_root_with_dual_chain(self):
        # from (a b): b free, a mirrors it inverted
        state = GeneralizedAssignment(free=[2], dual={2: [(1, True, False)]})
        assert expand_state(state) == [
            {1: False, 2: True},
            {1: True, 2: False},
        ]

    def test_double_link_rejected(self):
        state = GeneralizedAssignment(
            values={1: True, 2: True},
            sing={1: [(3, True)], 2: [(3, True)]},
            sat={1: True, 2: True},
        )
        with pytest.raises(ValueError):
            expand_state(state)

    def test_pool_matches_source_formula_models(self):
        from xham import max_hamming_q

        f = formula((1, 2, 3))
        captured = []
        max_hamming_q(f, leaf_hook=lambda s, t: captured.append(s.copy()))
        assert captured
        got = {tuple(sorted(m.items())) for m in expand_state(captured[0])}
        want = {tuple(sorted(m.items())) for m in enumerate_xmodels(f)}
        assert got == want
