import sys

import pytest

from xham import (
    BOTTOM,
    Formula,
    SearchStats,
    find_xmodel,
    max_hamming_p,
    planted_formula,
    random_formula,
    solver,
    verify_xmodel,
)

from conftest import (
    clause_count,
    count_search_work,
    extend_model,
    formula,
    live_clauses,
    propagated,
    repeated_variable_corpus,
    scan_xmodels,
)


def test_unit():
    assert find_xmodel(formula((1,))) == {1: True}


def test_contradiction():
    assert find_xmodel(formula((1,), (-1,))) is None


def test_picks_one_of_the_models(tiny):
    model = find_xmodel(tiny)
    assert model in scan_xmodels(tiny)


def test_deterministic(tiny):
    assert find_xmodel(tiny) == find_xmodel(tiny)


def test_empty_formula_has_empty_model():
    assert find_xmodel(formula(n=3)) == {}


def test_soundness_and_completeness_random_suite():
    """Solver finds a model exactly when the 2^n scan does."""
    instances = 0
    for length in (2, 3, 4, 5):
        for i in range(250):
            n = max(4, length) + (i % 7)
            f = random_formula(n, clause_count(n, length), length, seed=4200 + 31 * i + length)
            model = find_xmodel(f)
            models = scan_xmodels(f)
            if model is None:
                assert not models
            else:
                assert models
                assert set(model) == set(f.variables())
                assert verify_xmodel(f, model)
            instances += 1
    assert instances == 1000


def test_deep_search_has_no_recursion_limit():
    """(1 2 3), (3 4 5), ... over 801 variables: each branch leaves the next
    clause binary, so the search goes about 200 levels deep."""
    chain = Formula(801, tuple((v, v + 1, v + 2) for v in range(1, 801, 2)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        model = find_xmodel(chain)
    finally:
        sys.setrecursionlimit(limit)
    assert model is not None
    assert set(model) == set(chain.variables()) and verify_xmodel(chain, model)


def visits_solving_chain(monkeypatch, n):
    """Clause visits while find_xmodel solves the ternary chain (1 2 3), (3 4 5), ..."""
    work = count_search_work(monkeypatch)
    chain = Formula(n, tuple((v, v + 1, v + 2) for v in range(1, n, 2)))
    assert verify_xmodel(chain, find_xmodel(chain))
    return work["visits"]


def test_chain_search_settles_linearly_many_clauses(monkeypatch):
    """Each level visits only the clauses holding the values it assigns;
    a fresh engine per level settled every remaining clause again."""
    small = visits_solving_chain(monkeypatch, 1001)
    large = visits_solving_chain(monkeypatch, 2001)
    assert small >= 500
    assert large <= 2.5 * small


# Five clauses over variables 2..7 with no x-model, which root propagation
# leaves as they are: no clause is a unit and no variable repeats.
CORE = ((7, -4, 6), (7, -3, 4), (-2, -3, 7), (-5, 6, -7), (7, 6, 3))


def disjoint_clauses_then_core(k):
    """k disjoint length-4 clauses over variables from 8 up, then CORE."""
    return Formula(7 + 4 * k, tuple(tuple(range(8 + 4 * i, 12 + 4 * i)) for i in range(k)) + CORE)


@pytest.mark.parametrize("k,assignments", [(6, 37), (12, 61), (24, 109)])
def test_a_component_without_a_model_is_refuted_once(monkeypatch, k, assignments):
    """Each of the k clauses is a component that its first branch solves
    with 4 assignments, and CORE is refuted once, with 13: 4k + 13 in all.
    A search of the whole formula branched on the k clauses first and
    refuted CORE once per combination of their branches, 4^k times."""
    f = disjoint_clauses_then_core(k)
    assert live_clauses(propagated(f)) == f.clauses
    work = count_search_work(monkeypatch)
    assert find_xmodel(f) is None
    assert work["assignments"] == assignments == 4 * k + 13
    stats = SearchStats()
    assert max_hamming_p(f, stats).distance is BOTTOM
    assert (stats.solver_calls, stats.subsets_checked) == (1, 0)
    assert work["assignments"] == 2 * assignments


def reference_find_xmodel(formula):
    """The search with a fresh engine per level: each branch forces its
    literal on a new engine built from its level's live clauses, and the
    model is extended back up the path."""
    root = propagated(formula)
    if root.unsat:
        return None
    path = [(root, iter(max(live_clauses(root), key=len, default=())))]
    while path:
        engine, branches = path[-1]
        clauses = live_clauses(engine)
        if not clauses:
            model = {}
            for level, _ in reversed(path):
                model = extend_model(level, model)
            return model
        for lit in branches:
            child = propagated(Formula(formula.num_vars, clauses), force=(abs(lit), lit > 0))
            if not child.unsat:
                path.append((child, iter(max(live_clauses(child), key=len, default=()))))
                break
        else:
            path.pop()
    return None


def test_same_models_as_a_fresh_engine_per_level():
    instances = [
        random_formula(n, clause_count(n, length) + extra, length, seed=61000 + i)
        for i in range(5000)
        for n, length, extra in [(6 + i % 9, 2 + i % 4, i % 3 - 1)]
    ]
    instances += repeated_variable_corpus(300, 62000)
    found = 0
    for f in instances:
        model = find_xmodel(f)
        assert model == reference_find_xmodel(f)
        found += model is not None
    assert 0 < found < len(instances)


def full_scan_first_longest(clauses, value, start, width):
    """The pick as a scan of every clause, dead ones included."""
    free = ([lit for lit in clause if value[lit] is None] for clause in clauses)
    return 0, max(filter(None, free), key=len, default=None)


def test_longest_pick_matches_a_full_scan(monkeypatch):
    """Each level's scan starts where its parent's live clauses start and
    stops at a clause as long as its parent's longest; models, p's solver
    calls and p's answers are those a scan of the whole list gives.

    The ternary chains branch once per two clauses, so a full scan costs
    the square of their length: it runs on the 2,001-variable chain, and
    the 16,001-variable one checks that the linear pick finds a model."""
    instances = [
        random_formula(n, clause_count(n, length) + extra, length, seed=63000 + i)
        for i in range(600)
        for n, length, extra in [(6 + i % 13, 2 + i % 4, i % 3 - 1)]
    ]
    instances += [planted_formula(n, length, 2, seed) for n, length in ((21, 3), (20, 4)) for seed in range(20)]
    instances += repeated_variable_corpus(100, 64000)
    chain, long_chain = (Formula(n, tuple((v, v + 1, v + 2) for v in range(1, n, 2))) for n in (2001, 16001))

    def answers():
        out = [find_xmodel(f) for f in instances + [chain]]
        for f in instances[:200]:
            stats = SearchStats()
            out.append((max_hamming_p(f, stats), stats.solver_calls))
        return out

    linear = answers()
    assert verify_xmodel(long_chain, find_xmodel(long_chain))
    monkeypatch.setattr(solver, "_first_longest", full_scan_first_longest)
    assert linear == answers()
    assert verify_xmodel(chain, linear[len(instances)])
