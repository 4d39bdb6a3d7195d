"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines
as they print.
"""

import itertools
import math
import statistics

import pytest

from xham import (
    BOTTOM,
    Formula,
    GeneralizedAssignment,
    SearchStats,
    allowed_subset_check,
    branching,
    count_allowed_subsets_brute,
    enumerate_xmodels,
    hamming_distance,
    max_hamming_brute,
    max_hamming_p,
    max_hamming_q,
    nth_root,
    planted_formula,
    random_formula,
    tau_root,
    verify_xmodel,
)

from conftest import assert_model_preservation, chain, clause_count

LENGTH_CLASSES = (2, 3, 4, 5, 6)
INSTANCES_PER_CLASS = 1000


def branched_q(f):
    """q with its evaluator off, so every part is branched down to empty
    formulas: the paper's search, checked against the oracles on its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(branching, "SMALL_PART_VARS", 0)
        return max_hamming_q(f)


@pytest.fixture(scope="module")
def agreement_suite():
    """Seeded instances per clause-length class, with all three answers and
    q's answer with its evaluator off."""
    suite = {}
    for length in LENGTH_CLASSES:
        records = []
        lo = max(4, length)
        for i in range(INSTANCES_PER_CLASS):
            n = lo + (i % (12 - lo + 1))
            m = clause_count(n, length)
            f = random_formula(n, m, length, seed=100_000 * length + i)
            records.append(
                (f, max_hamming_brute(f), max_hamming_p(f), max_hamming_q(f), branched_q(f))
            )
        suite[length] = records
    return suite


def test_criterion_1_oracle_triple_agreement(agreement_suite):
    checked = 0
    for length, records in agreement_suite.items():
        for f, brute, scan, branch, branched in records:
            assert scan.unsat == brute.unsat == branch.unsat == branched.unsat, (length, f)
            if not brute.unsat:
                assert scan.distance == brute.distance == branch.distance == branched.distance, (length, f)
            checked += 1
    assert checked == len(LENGTH_CLASSES) * INSTANCES_PER_CLASS
    print(f"criterion 1 PASS: p/q/brute agree on {checked} instances, q also with its evaluator off")


# (length, degree, num_vars) of the planted shapes in the corpus below.
PLANTED_SHAPES = [
    (3, 2, 9), (3, 2, 12), (3, 2, 15), (4, 2, 8), (4, 2, 10), (4, 2, 12), (4, 2, 14), (4, 2, 16),
    (5, 2, 10), (5, 2, 15), (6, 2, 12), (3, 3, 9), (3, 3, 12), (3, 3, 15), (4, 3, 8), (4, 3, 12),
    (4, 3, 16), (5, 3, 10), (5, 3, 15),
]
# n = 18 costs brute about ten times what n = 15 does, so these take fewer seeds.
PLANTED_SHAPES_18 = [(3, 2, 18), (4, 2, 18), (6, 2, 18), (3, 3, 18)]


def test_agreement_on_planted_instances_and_chains():
    """p, q and brute agree on the families that reach pooling, dual links on
    grouped variables and the length-4 split, which uniform instances rarely do;
    q runs with its evaluator on and off."""
    instances = [
        planted_formula(n, length, degree, seed=700_000 + seed)
        for shapes, seeds in ((PLANTED_SHAPES, 40), (PLANTED_SHAPES_18, 15))
        for length, degree, n in shapes
        for seed in range(seeds)
    ]
    instances += [chain(n, 2, 710_000 + 100 * n + seed) for n in range(2, 19) for seed in range(6)]
    instances += [chain(n, 3, 720_000 + 100 * n + seed) for n in range(3, 18, 2) for seed in range(6)]
    for f in instances:
        brute = max_hamming_brute(f).distance
        assert max_hamming_p(f).distance == brute, f
        assert max_hamming_q(f).distance == brute, f
        assert branched_q(f).distance == brute, f
    print(f"corpus PASS: p/q/brute agree on {len(instances)} planted instances and chains")


# Constants quoted for the branching analysis, four decimals each. The
# printed decrement vector for the 1.7888 case has eight branches but the
# constant is the root of the nine-branch variant (6,5,4^4,3^3); the
# eight-branch vector roots at 1.7378, so the quoted bound still holds.
TAU_TABLE = [
    ((2, 2), 1.4142),
    ((1, 3), 1.4656),
    ((5, 1, 4, 4, 4, 4), 1.7921),
    ((7, 7, 3, 3, 3, 3, 3, 3), 1.8348),
    ((6, 4, 4, 4, 4, 3, 3, 3), 1.7605),
    ((5, 5, 4, 4, 4, 4, 4, 4), 1.6393),
    ((6, 5, 4, 4, 4, 4, 3, 3, 3), 1.7888),
    ((5, 5, 4, 4, 4, 4, 4, 3), 1.6749),
    ((5, 5, 5, 5, 4, 4, 4, 4), 1.5971),
    ((6, 6, 5, 4, 3, 3, 3, 3), 1.7416),
    ((6, 5, 5, 4, 3, 3, 3, 3), 1.7549),
    ((4, 3, 2, 2), 1.7107),
]

ROOT_POWERS = [((2, 2), 1.4142), ((7, 4), 1.6266), ((11, 5), 1.6154)]


def test_criterion_2_tau_regression():
    for decrements, expected in TAU_TABLE:
        root = tau_root(decrements)
        assert root == pytest.approx(expected, abs=1e-4), decrements
        residual = 1.0 - sum(root ** -r for r in decrements)
        assert abs(residual) < 1e-8, decrements
    for (value, degree), expected in ROOT_POWERS:
        assert nth_root(value, degree) == pytest.approx(expected, abs=1e-4)
    assert tau_root((6, 5, 4, 4, 4, 3, 3, 3)) == pytest.approx(1.7378, abs=1e-4)
    assert tau_root((6, 5, 4, 4, 4, 3, 3, 3)) <= 1.7888  # quoted bound holds
    assert tau_root((2, 2)) < tau_root((1, 3))  # balanced branching effect
    print(f"criterion 2 PASS: {len(TAU_TABLE)} roots and {len(ROOT_POWERS)} root powers at 1e-4")


def test_criterion_3_differing_sets_touch_clauses_zero_or_two_times():
    instances = pairs = 0
    for i in range(500):
        length = 2 + (i % 3)
        n = max(4, length) + (i % 7)  # n <= 10
        m = max(1, clause_count(n, length) // 2)  # sparse: plenty of model pairs
        f = random_formula(n, m, length, seed=200_000 + i)
        models = enumerate_xmodels(f)
        differing = set()
        for a, b in itertools.combinations(models, 2):
            diff = frozenset(v for v in f.variables() if a[v] != b[v])
            assert allowed_subset_check(f, diff), (f, a, b)
            differing.add(diff)
            pairs += 1
        # a subset failing the allowed check never separates a model pair
        if n <= 8:
            for size in range(n + 1):
                for combo in itertools.combinations(f.variables(), size):
                    if not allowed_subset_check(f, combo):
                        assert frozenset(combo) not in differing
        instances += 1
    assert instances == 500
    print(f"criterion 3 PASS: zero-or-two property on {pairs} model pairs of 500 instances")


def test_criterion_4_allowed_subset_counts_match_closed_form():
    grid = {2: range(1, 9), 3: range(1, 6), 4: range(1, 5), 5: range(1, 4), 6: range(1, 3)}
    cases = 0
    for length, ks in grid.items():
        for k in ks:
            clauses = [
                tuple(range(1 + j * length, 1 + (j + 1) * length)) for j in range(k)
            ]
            f = Formula.from_clauses(clauses)
            expected = (math.comb(length, 2) + 1) ** k
            assert count_allowed_subsets_brute(f) == expected, (length, k)
            cases += 1
    per_var = {length: nth_root(math.comb(length, 2) + 1, length) for length in grid}
    best = max(per_var, key=per_var.get)
    assert best == 4
    assert per_var[4] == pytest.approx(1.6266, abs=1e-4)
    print(f"criterion 4 PASS: {cases} exact counts; length 4 maximizes at {per_var[4]:.4f}")


def test_criterion_5_witnesses_verify_at_reported_distance(agreement_suite):
    checked = 0
    for records in agreement_suite.values():
        for f, brute, scan, *_ in records:
            for result in (brute, scan):
                if result.unsat:
                    assert result.witnesses is None
                    continue
                a, b = result.witnesses
                assert verify_xmodel(f, a) and verify_xmodel(f, b)
                assert hamming_distance(a, b) == result.distance
                checked += 1
    print(f"criterion 5 PASS: {checked} witness pairs verified")


def test_criterion_6_propagation_preserves_model_sets():
    operations = 0
    for i in range(500):
        length = 2 + (i % 3)
        n = max(4, length) + (i % 7)  # n <= 10
        f = random_formula(n, clause_count(n, length), length, seed=300_000 + i)
        variables = f.variables()
        assert_model_preservation(f)
        operations += 1
        for var in variables:
            for value in (False, True):
                assert_model_preservation(f, force=(var, value))
                operations += 1
        for a, b in [(variables[0], -variables[1]), (-variables[1], variables[-1])]:
            if abs(a) == abs(b):
                continue
            assert_model_preservation(f, substitute=(a, b))
            operations += 1
    print(f"criterion 6 PASS: model sets preserved across {operations} propagation calls")


def _shift(f: Formula, offset: int) -> Formula:
    clauses = tuple(
        tuple(lit + offset if lit > 0 else lit - offset for lit in c) for c in f.clauses
    )
    return Formula(f.num_vars + offset, clauses)


def test_criterion_7_additivity_and_symmetry():
    import random as _random

    unions = 0
    for i in range(200):
        n1, n2 = 4 + (i % 4), 4 + ((i // 4) % 4)
        f1 = random_formula(n1, clause_count(n1, 3), 3, seed=400_000 + i)
        f2 = _shift(random_formula(n2, clause_count(n2, 3), 3, seed=410_000 + i), n1)
        union = Formula(n1 + n2, f1.clauses + f2.clauses)
        d1, d2 = max_hamming_q(f1).distance, max_hamming_q(f2).distance
        du = max_hamming_q(union).distance
        if d1 is BOTTOM or d2 is BOTTOM:
            assert du is BOTTOM
        else:
            assert du == d1 + d2
        unions += 1

    rng = _random.Random(99)
    symmetric = 0
    for i in range(200):
        n = 5 + (i % 5)
        f = random_formula(n, clause_count(n, 3), 3, seed=420_000 + i)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        flips = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        clauses = tuple(
            tuple(
                (1 if (lit > 0) != flips[abs(lit)] else -1) * perm[abs(lit) - 1]
                for lit in c
            )
            for c in f.clauses
        )
        g = Formula(n, clauses)
        assert max_hamming_q(f).distance == max_hamming_q(g).distance
        symmetric += 1
    print(f"criterion 7 PASS: additivity on {unions} unions, symmetry on {symmetric} pairs")


def test_criterion_8_node_counts_logged_against_branching_bound():
    report = []
    for length, base in ((4, 1.8348), (5, 1.7921)):
        for n in (14, 16, 18, 20):
            m = (n + 1) // 2
            nodes = []
            for i in range(50):
                f = random_formula(n, m, length, seed=500_000 + 1000 * length + 100 * n + i)
                counter = SearchStats()
                max_hamming_q(f, counter)
                assert counter.leaves <= counter.nodes
                nodes.append(counter.nodes)
            median = statistics.median(nodes)
            bound = base ** n
            report.append(
                f"  len={length} n={n} m={m}: median nodes {median}, max {max(nodes)},"
                f" bound {base}^{n} = {bound:.0f} ({'below' if median < bound else 'ABOVE'})"
            )
            assert len(nodes) == 50
    print("criterion 8 PASS (report artifact, medians logged, not asserted):")
    for line in report:
        print(line)
