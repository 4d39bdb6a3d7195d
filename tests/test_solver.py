import sys

from xham import (
    Formula,
    SearchStats,
    enumerate_xmodels,
    find_xmodel,
    max_hamming_p,
    planted_formula,
    propagation,
    random_formula,
    solver,
    verify_xmodel,
)

from conftest import (
    clause_count,
    extend_model,
    formula,
    live_clauses,
    propagated,
    repeated_variable_corpus,
)


def test_unit():
    assert find_xmodel(formula((1,))) == {1: True}


def test_contradiction():
    assert find_xmodel(formula((1,), (-1,))) is None


def test_picks_one_of_the_models(tiny):
    model = find_xmodel(tiny)
    assert model in enumerate_xmodels(tiny)


def test_deterministic(tiny):
    assert find_xmodel(tiny) == find_xmodel(tiny)


def test_empty_formula_has_empty_model():
    assert find_xmodel(formula(n=3)) == {}


def test_soundness_and_completeness_random_suite():
    """Solver finds a model exactly when exhaustive enumeration does."""
    instances = 0
    for length in (2, 3, 4, 5):
        for i in range(250):
            n = max(4, length) + (i % 7)
            f = random_formula(n, clause_count(n, length), length, seed=4200 + 31 * i + length)
            model = find_xmodel(f)
            models = enumerate_xmodels(f)
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


def settled_clauses_solving_chain(monkeypatch, n):
    """Clause settlements while find_xmodel solves the ternary chain (1 2 3), (3 4 5), ..."""
    real = propagation._settle_clause
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return real(*args)

    monkeypatch.setattr(propagation, "_settle_clause", counting)
    chain = Formula(n, tuple((v, v + 1, v + 2) for v in range(1, n, 2)))
    assert verify_xmodel(chain, find_xmodel(chain))
    return count


def test_chain_search_settles_linearly_many_clauses(monkeypatch):
    """Each level settles only the clauses its force touches; a fresh
    engine per level settled every remaining clause again."""
    small = settled_clauses_solving_chain(monkeypatch, 1001)
    large = settled_clauses_solving_chain(monkeypatch, 2001)
    assert small >= 500
    assert large <= 2.5 * small


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


def full_scan_first_longest(clauses, start, width):
    """The pick as a scan of the whole clause list, dead positions included."""
    return 0, max(filter(None, clauses), key=len, default=None)


def test_longest_pick_matches_a_full_scan(monkeypatch):
    """Each level's scan starts where its parent's live clauses start and
    stops at a clause as long as its parent's longest; models, p's solver
    calls and p's answers are those a scan of the whole list gives."""
    instances = [
        random_formula(n, clause_count(n, length) + extra, length, seed=63000 + i)
        for i in range(600)
        for n, length, extra in [(6 + i % 13, 2 + i % 4, i % 3 - 1)]
    ]
    instances += [planted_formula(n, length, 2, seed) for n, length in ((21, 3), (20, 4)) for seed in range(20)]
    instances += repeated_variable_corpus(100, 64000)
    chain = Formula(16001, tuple((v, v + 1, v + 2) for v in range(1, 16001, 2)))

    def answers():
        out = [find_xmodel(f) for f in instances + [chain]]
        for f in instances[:200]:
            stats = SearchStats()
            out.append((max_hamming_p(f, stats), stats.solver_calls))
        return out

    linear = answers()
    monkeypatch.setattr(solver, "_first_longest", full_scan_first_longest)
    assert linear == answers()
    assert verify_xmodel(chain, linear[len(instances)])
