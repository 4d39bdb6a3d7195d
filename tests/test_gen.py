from collections import Counter

import pytest

from xham import find_xmodel, planted_formula


@pytest.mark.parametrize("n,length,degree", [(12, 3, 2), (16, 4, 2), (12, 4, 3), (9, 3, 3), (5, 1, 1)])
@pytest.mark.parametrize("seed", range(4))
def test_planted_is_regular_and_satisfiable(n, length, degree, seed):
    f = planted_formula(n, length, degree, seed)
    assert f.num_vars == n and f.num_clauses == n * degree // length
    assert all(len({abs(l) for l in c}) == length for c in f.clauses)
    assert Counter(abs(l) for c in f.clauses for l in c) == {v: degree for v in range(1, n + 1)}
    assert find_xmodel(f) is not None
    assert planted_formula(n, length, degree, seed) == f


@pytest.mark.parametrize("args", [(10, 3, 2), (3, 4, 1), (6, 0, 2), (6, 3, -1), (12, 12, 12)])
def test_planted_rejects_impossible_shapes(args):
    with pytest.raises(ValueError):
        planted_formula(*args, seed=0)

