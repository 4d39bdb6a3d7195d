import sys

from xham import Formula, enumerate_xmodels, find_xmodel, random_formula, verify_xmodel

from conftest import clause_count, formula


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
