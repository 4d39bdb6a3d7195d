import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xham import (
    BOTTOM,
    Formula,
    HammingResult,
    SearchStats,
    connected_components,
    hamming_distance,
    planted_formula,
    random_formula,
    verify_xmodel,
)

from conftest import formula, repeated_variable_corpus


class TestBottom:
    def test_orders_below_every_distance(self):
        assert BOTTOM < 0
        assert BOTTOM < 5
        assert not BOTTOM < BOTTOM
        assert 0 > BOTTOM

    def test_absorbs_addition(self):
        assert BOTTOM + 1 is BOTTOM
        assert 1 + BOTTOM is BOTTOM
        assert BOTTOM + 0 is BOTTOM

    def test_max_ignores_bottom(self):
        assert max(BOTTOM, 3) == 3
        assert max(3, BOTTOM) == 3
        assert max(BOTTOM, 0) == 0
        assert max(BOTTOM, 2, BOTTOM, 5, BOTTOM) == 5

    def test_max_of_all_bottom_is_bottom(self):
        assert max([BOTTOM]) is BOTTOM
        assert max(BOTTOM, BOTTOM) is BOTTOM


class TestHammingResult:
    def test_unsat_flag(self):
        assert HammingResult(BOTTOM).unsat
        assert not HammingResult(0).unsat

    def test_witness_pair(self):
        a, b = {1: True}, {1: False}
        result = HammingResult(1, (a, b))
        assert hamming_distance(*result.witnesses) == result.distance

    def test_record_contract(self):
        """Positional and keyword construction, witnesses None by default,
        field-wise == and hash, and the field-naming repr."""
        result = HammingResult(3)
        assert result.witnesses is None
        assert result == HammingResult(distance=3, witnesses=None)
        assert hash(result) == hash(HammingResult(3, None))
        assert result != HammingResult(2) and result != (3, None)
        assert repr(result) == "HammingResult(distance=3, witnesses=None)"
        assert repr(HammingResult(BOTTOM)) == "HammingResult(distance=BOTTOM, witnesses=None)"

    def test_fields_are_read_only(self):
        result = HammingResult(1, ({1: True}, {1: False}))
        with pytest.raises(AttributeError):
            result.distance = 2
        with pytest.raises(AttributeError):
            result.witnesses = None
        with pytest.raises(AttributeError):
            del result.distance
        assert result.distance == 1


class TestSearchStats:
    def test_record_contract(self):
        """Every count starts at 0; positional and keyword construction,
        field-wise ==, the field-naming repr, and no hash, since it counts."""
        stats = SearchStats()
        assert (stats.nodes, stats.leaves, stats.subsets_checked, stats.solver_calls) == (0, 0, 0, 0)
        assert SearchStats(1, 2, 3, 4) == SearchStats(nodes=1, leaves=2, subsets_checked=3, solver_calls=4)
        assert SearchStats(1) == SearchStats(nodes=1) != stats
        stats.nodes += 5
        assert stats == SearchStats(5)
        assert repr(stats) == "SearchStats(nodes=5, leaves=0, subsets_checked=0, solver_calls=0)"
        with pytest.raises(TypeError):
            hash(stats)


class TestFormula:
    def test_variables(self):
        f = formula((1, -3), (2, 3))
        assert f.variables() == [1, 2, 3]

    def test_rejects_zero_literal(self):
        for clauses in (((1, 0),), ((0,),)):
            with pytest.raises(ValueError):
                Formula(2, clauses)

    def test_rejects_out_of_range(self):
        for num_vars, clauses in ((2, ((1, 3),)), (1, ((2,),)), (-1, ())):
            with pytest.raises(ValueError):
                Formula(num_vars, clauses)

    def test_record_contract(self):
        """Positional and keyword construction, clauses held as tuples,
        field-wise == and hash, and the field-naming repr."""
        f = Formula(3, ((1, 2, 3),))
        assert f == Formula(num_vars=3, clauses=[[1, 2, 3]])
        assert f.clauses == ((1, 2, 3),)
        assert f != Formula(3, ((1, 2, -3),)) and f != Formula(4, ((1, 2, 3),))
        assert f != (3, ((1, 2, 3),))
        assert hash(f) == hash(Formula(3, [(1, 2, 3)]))
        assert len({f, Formula(3, ((1, 2, 3),)), Formula(3, ())}) == 2
        assert repr(f) == "Formula(num_vars=3, clauses=((1, 2, 3),))"

    def test_fields_are_read_only(self):
        f = Formula(3, ((1, 2, 3),))
        with pytest.raises(AttributeError):
            f.num_vars = 4
        with pytest.raises(AttributeError):
            f.clauses = ()
        with pytest.raises(AttributeError):
            del f.clauses
        assert f == Formula(3, ((1, 2, 3),))

    def test_from_clauses_infers_num_vars(self):
        assert Formula.from_clauses([(1, -4)]).num_vars == 4

    def test_duplicate_clauses_kept(self):
        f = formula((1, 2), (1, 2))
        assert f.num_clauses == 2


class TestVerifyXmodel:
    def test_exactly_one_true(self):
        f = formula((1, 2, 3))
        assert verify_xmodel(f, {1: True, 2: False, 3: False})

    def test_oversatisfied(self):
        f = formula((1, 2, 3))
        assert not verify_xmodel(f, {1: True, 2: True, 3: False})

    def test_unsatisfied(self):
        f = formula((1, 2, 3))
        assert not verify_xmodel(f, {1: False, 2: False, 3: False})

    def test_partial_assignment_rejected(self):
        f = formula((1, 2, 3))
        with pytest.raises(ValueError):
            verify_xmodel(f, {1: True, 2: False})

    @given(st.integers(1, 6), st.data())
    def test_matches_definition_unfolding(self, n, data):
        clauses = data.draw(
            st.lists(
                st.lists(
                    st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])),
                    min_size=1,
                    max_size=4,
                ),
                min_size=1,
                max_size=4,
            )
        )
        f = Formula.from_clauses([tuple(c) for c in clauses], num_vars=n)
        model = {v: data.draw(st.booleans()) for v in range(1, n + 1)}
        by_def = all(
            sum(1 for lit in c if model[abs(lit)] == (lit > 0)) == 1 for c in f.clauses
        )
        assert verify_xmodel(f, model) == by_def


class TestHammingDistance:
    def test_counts_disagreements(self):
        assert hamming_distance({1: True, 2: False}, {1: False, 2: False}) == 1

    def test_requires_same_variables(self):
        with pytest.raises(ValueError):
            hamming_distance({1: True}, {2: True})


class TestConnectedComponents:
    def test_disjoint_clauses_split(self):
        f = formula((1, 2), (3, 4))
        parts = connected_components(f)
        assert [p.clauses for p in parts] == [((1, 2),), ((3, 4),)]

    def test_shared_variable_joins(self):
        f = formula((1, 2), (2, 3))
        assert len(connected_components(f)) == 1

    def test_chained_components(self):
        f = formula((1, 2, 3), (3, 4), (5, 6))
        parts = connected_components(f)
        assert [p.clauses for p in parts] == [((1, 2, 3), (3, 4)), ((5, 6),)]

    def test_partition_properties(self):
        f = formula((1, 2), (2, 3), (4, 5), (6, -4))
        parts = connected_components(f)
        all_clauses = sorted(c for p in parts for c in p.clauses)
        assert all_clauses == sorted(f.clauses)
        seen = [set(p.variables()) for p in parts]
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                assert not (seen[i] & seen[j])
        assert set().union(*seen) == set(f.variables())


def reference_components(f: Formula) -> list[tuple]:
    """Clauses per connected component by union-find over variables.

    Components are ordered by their first clause and keep clause order;
    each empty clause is a component of its own.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for clause in f.clauses:
        vs = [abs(lit) for lit in clause]
        for v in vs:
            parent.setdefault(v, v)
        for v, w in itertools.pairwise(vs):
            rv, rw = find(v), find(w)
            if rv != rw:
                parent[rw] = rv
    groups: dict[object, list] = {}
    for i, clause in enumerate(f.clauses):
        key = find(abs(clause[0])) if clause else ("empty", i)
        groups.setdefault(key, []).append(clause)
    return [tuple(clauses) for clauses in groups.values()]


def with_empty_clauses(f: Formula, seed: int) -> Formula:
    rng = random.Random(seed)
    clauses = list(f.clauses)
    for _ in range(rng.randint(1, 3)):
        clauses.insert(rng.randint(0, len(clauses)), ())
    return Formula(f.num_vars, tuple(clauses))


def test_components_match_a_union_find_reference():
    """The occurrence-list walk gives the union-find's components, in the
    same order and with the same clause order, on uniform, planted,
    repeated-variable and empty-clause formulas."""
    uniform = [random_formula(n, m, k, 4700 + 31 * n + m) for k in (2, 3, 4) for n in range(6, 26, 3) for m in (2, n // 3, n // 2)]
    planted = [planted_formula(n, k, d, seed) for n, k, d in ((12, 3, 2), (16, 4, 2), (20, 4, 3)) for seed in range(8)]
    repeated = repeated_variable_corpus(150, 4800)
    empties = [with_empty_clauses(f, 4900 + i) for i, f in enumerate(uniform[::2] + repeated[:40])]
    splits = 0
    for f in uniform + planted + repeated + empties:
        parts = connected_components(f)
        assert [part.clauses for part in parts] == reference_components(f), f
        assert all(part.num_vars == f.num_vars for part in parts)
        splits += len(parts) > 1
    assert splits > 100
