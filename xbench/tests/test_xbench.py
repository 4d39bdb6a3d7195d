"""Tests of the benchmark's own parts: generators, span arithmetic, checker.

    python3 -m pytest xbench/tests -q
"""

from collections import Counter

import numpy as np
import pytest

from xham import Formula, max_hamming_brute
from xbench import families
from xbench.check import check_call
from xbench.spans import Tracer, by_name, self_times
from xbench.workloads import WORKLOADS, draw_indices


@pytest.mark.parametrize("n,k,d", [(12, 3, 2), (16, 4, 2), (12, 4, 3), (9, 3, 3)])
@pytest.mark.parametrize("seed", range(5))
def test_planted_degree_length_and_model(n, k, d, seed):
    num_vars, clauses = families.planted(n, k, d, seed)
    assert num_vars == n
    assert all(len(c) == k and len({abs(l) for l in c}) == k for c in clauses)
    assert Counter(abs(l) for c in clauses for l in c) == {v: d for v in range(1, n + 1)}
    assert not max_hamming_brute(Formula(num_vars, clauses)).unsat
    assert families.planted(n, k, d, seed) == (num_vars, clauses)


def test_planted_rejects_sizes_that_do_not_fill_clauses():
    with pytest.raises(ValueError):
        families.planted(10, 3, 2, 0)


@pytest.mark.parametrize("length,n", [(2, 2), (2, 9), (3, 3), (3, 11), (4, 13)])
@pytest.mark.parametrize("seed", range(4))
def test_chain_reference_matches_brute(length, n, seed):
    num_vars, clauses = families.chain(n, length, seed)
    assert all(abs(c[-1]) == abs(nxt[0]) for c, nxt in zip(clauses, clauses[1:]))
    expected = max_hamming_brute(Formula(num_vars, clauses)).distance
    assert families.chain_max_hamming(clauses) == expected
    if length == 2:
        assert expected == n  # the only two models are complements


def test_uniform_clauses_have_distinct_variables():
    num_vars, clauses = families.uniform(20, 30, 5, "s")
    assert all(len({abs(l) for l in c}) == 5 and max(abs(l) for l in c) <= num_vars for c in clauses)


def test_pool_entries_regenerate_deterministically():
    workload = WORKLOADS["planted-q"]
    assert workload.pool_instance(3) == workload.pool_instance(3)
    assert workload.pool_instance(3) != workload.pool_instance(4)


def test_draw_takes_one_entry_per_cost_band():
    costs = [float(c) for c in range(100, 0, -1)]  # entry i costs 100 - i
    picked = draw_indices(costs, 10, "s", fixed=2)
    assert picked == draw_indices(costs, 10, "s", fixed=2)
    assert sorted(int(costs[i] - 1) // 10 for i in picked) == list(range(10))
    # The two costliest bands give their middle entries whatever the seed.
    assert {costs.index(86.0), costs.index(96.0)} <= set(picked)
    assert any(draw_indices(costs, 10, s, fixed=2) != picked for s in "abc")


def test_self_time_subtracts_children_only():
    # root 0..100 holds a 10..40 (which holds 20..30) and b 50..90.
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 90])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]
    spans = {"name": np.array([0, 1, 1, 2]), "start": start, "end": end, "parent": parent,
             "flag": np.array([0, 1, 0, 0], dtype=np.int8)}
    layers = by_name(["root", "a", "b"], spans)
    assert layers["a"]["calls"] == 2 and layers["a"]["flagged"] == 1
    assert layers["a"]["self_ms"] * 1e6 == pytest.approx(30)
    assert layers["root"]["total_ms"] * 1e6 == pytest.approx(100)


def test_tracer_records_nesting_and_restores_call_sites():
    from xham import branching, cli

    originals = (cli.load_formula, branching.assign)
    tracer = Tracer()
    outer = tracer.wrap(lambda: inner(), "outer")
    inner = tracer.wrap(lambda: None, "inner")
    tracer.current_instance = 7
    outer()
    spans = tracer.arrays()
    assert spans["parent"].tolist() == [-1, 0]
    assert spans["instance"].tolist() == [7, 7]
    assert (spans["end"] >= spans["start"]).all()
    tracer.install()
    assert cli.load_formula is not originals[0]
    tracer.uninstall()
    assert (cli.load_formula, branching.assign) == originals


TWO_CLAUSES = ((1, 2, 3), (1, 2, 4))  # models 1000, 0100, 0011: max distance 3


def test_checker_accepts_right_answer_and_reads_stats():
    out = "s MAXHAM 3\nc stats nodes=2 leaves=1\n"
    outcome = check_call(TWO_CLAUSES, 3, 10, out)
    assert outcome.ok and outcome.counts == {"nodes": 2, "leaves": 1}


def test_checker_flags_wrong_distance_and_verdicts():
    assert check_call(TWO_CLAUSES, 3, 10, "s MAXHAM 2\n").wrong
    assert check_call(TWO_CLAUSES, 3, 20, "s UNSATISFIABLE\n").wrong
    assert check_call(TWO_CLAUSES, None, 10, "s MAXHAM 0\n").wrong
    assert check_call(TWO_CLAUSES, None, 20, "s UNSATISFIABLE\n").ok


def test_checker_flags_bad_witnesses():
    good = "s MAXHAM 3\nv 1 -2 -3 -4 0\nv -1 -2 3 4 0\n"
    assert check_call(TWO_CLAUSES, 3, 10, good, witness=True).ok
    not_a_model = "s MAXHAM 3\nv 1 2 -3 -4 0\nv -1 -2 3 4 0\n"
    assert "not an x-model" in check_call(TWO_CLAUSES, 3, 10, not_a_model, witness=True).failure
    too_close = "s MAXHAM 3\nv 1 -2 -3 -4 0\nv 1 -2 -3 -4 0\n"
    assert "apart" in check_call(TWO_CLAUSES, 3, 10, too_close, witness=True).failure
    missing = "s MAXHAM 3\nv 1 -2 -3 0\nv -1 -2 3 4 0\n"
    assert check_call(TWO_CLAUSES, 3, 10, missing, witness=True).wrong
    assert check_call(TWO_CLAUSES, 3, 10, "s MAXHAM 3\n", witness=True).wrong


def test_checker_counts_crashes_as_failures_not_wrong_answers():
    outcome = check_call(TWO_CLAUSES, 3, None, "", raised=RecursionError("deep"))
    assert outcome.failure == "raised RecursionError" and not outcome.wrong
    outcome = check_call(TWO_CLAUSES, 3, 1, "")
    assert outcome.failure == "exit code 1" and not outcome.wrong
