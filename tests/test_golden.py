"""Golden search-tree sizes: any change to q's node or leaf count fails here.

Each row is (family, num_vars, clause_length, seed, distance, nodes,
leaves, plain_nodes, plain_leaves, nodes_before, leaves_before); a
distance of None means unsatisfiable. nodes and leaves are q's figures
with its branch and bound and its valuation of small parts from their
x-models; plain_nodes and plain_leaves are those of the plain branching
search, with the bound and that valuation switched off, which visits
every subtree and which either may only lower. nodes_before and leaves_before are the
plain figures of the search before the bound and before the flip
children kept only pairs in which the pivot flips. Test ids name a row
by its distance and those figures, so they stay put when the figures are
recorded again. Uniform rows have the criterion-8 shape
(m = (n + 1) // 2); "planted" rows are degree-2 and "planted3" rows
degree-3 instances from `planted_formula`; "chain" rows
are binary or ternary chains whose clauses share their end variables.
The first 60 rows were recorded with the whole-formula sweep propagation
that the incremental engine replaced, the rest with the incremental
engine before q children applied their own branch steps. p gives the
same distances, and the chain rows match an exact dynamic program over
the chain. The bound pruned 22 planted rows and kept every other row's
figures; the 80 rows' nodes went from 7,123 to 1,410. Flip children that
keep only pairs in which the pivot flips moved the figures of 25 rows and
the plain figures of one more: nodes went from 1,410 to 971, and the
plain search's from 7,123 to 1,890. Valuing connected parts from their
x-models (of at most 24 live variables at first) moved the figures of 46
rows and no plain figure: nodes went from 971 to 80, one per row, and
leaves from 890 to 4. Bounding that valuation by its `SMALL_PART_CAP`
search states alone moved no figure. The plain search switches it off
with `SMALL_PART_CAP = 0`.
"""

import pytest

from xham import BOTTOM, SearchStats, branching, max_hamming_q, planted_formula, random_formula

from conftest import chain

GOLDEN = [
    ("uniform", 14, 4, 7000000, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 16, 4, 7000001, 3, 1, 0, 2, 1, 2, 1),
    ("uniform", 18, 4, 7000002, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 20, 4, 7000003, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 14, 5, 7000004, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 16, 5, 7000005, None, 1, 0, 3, 2, 3, 2),
    ("uniform", 18, 5, 7000006, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 20, 5, 7000007, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 14, 4, 7000008, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 16, 4, 7000009, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 18, 4, 7000010, 0, 1, 0, 3, 2, 3, 2),
    ("uniform", 20, 4, 7000011, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 14, 5, 7000012, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 16, 5, 7000013, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 18, 5, 7000014, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 20, 5, 7000015, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 14, 4, 7000016, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 16, 4, 7000017, 0, 1, 0, 3, 2, 3, 2),
    ("uniform", 18, 4, 7000018, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 20, 4, 7000019, None, 1, 0, 2, 1, 2, 1),
    ("uniform", 14, 5, 7000020, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 16, 5, 7000021, None, 1, 0, 4, 3, 4, 3),
    ("uniform", 18, 5, 7000022, None, 1, 0, 2, 1, 2, 1),
    ("uniform", 20, 5, 7000023, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 14, 4, 7000024, 0, 1, 0, 2, 1, 2, 1),
    ("uniform", 16, 4, 7000025, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 18, 4, 7000026, None, 1, 0, 2, 0, 2, 0),
    ("uniform", 20, 4, 7000027, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 14, 5, 7000028, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 16, 5, 7000029, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 18, 5, 7000030, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 20, 5, 7000031, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 14, 4, 7000032, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 16, 4, 7000033, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 18, 4, 7000034, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 20, 4, 7000035, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 14, 5, 7000036, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 16, 5, 7000037, 0, 1, 0, 2, 1, 2, 1),
    ("uniform", 18, 5, 7000038, None, 1, 0, 1, 0, 1, 0),
    ("uniform", 20, 5, 7000039, None, 1, 0, 1, 0, 1, 0),
    ("planted", 15, 3, 7100000, 2, 1, 0, 5, 4, 5, 4),
    ("planted", 18, 3, 7100001, 12, 1, 0, 43, 42, 83, 82),
    ("planted", 21, 3, 7100002, 10, 1, 0, 44, 43, 83, 82),
    ("planted", 24, 3, 7100003, 13, 1, 0, 50, 49, 210, 209),
    ("planted", 16, 4, 7100004, 8, 1, 0, 26, 25, 43, 42),
    ("planted", 20, 4, 7100005, 10, 1, 0, 16, 14, 25, 22),
    ("planted", 24, 4, 7100006, 12, 1, 0, 553, 552, 3942, 3939),
    ("planted", 15, 3, 7100007, 9, 1, 0, 20, 19, 43, 42),
    ("planted", 18, 3, 7100008, 12, 1, 0, 46, 43, 89, 82),
    ("planted", 21, 3, 7100009, 12, 1, 0, 78, 77, 156, 154),
    ("planted", 24, 3, 7100010, 9, 1, 0, 3, 2, 3, 2),
    ("planted", 16, 4, 7100011, 7, 1, 0, 13, 12, 13, 12),
    ("planted", 20, 4, 7100012, 9, 1, 0, 106, 105, 440, 439),
    ("planted", 24, 4, 7100013, 6, 1, 0, 4, 3, 4, 3),
    ("planted", 15, 3, 7100014, 10, 1, 0, 43, 42, 65, 64),
    ("planted", 18, 3, 7100015, 10, 1, 0, 42, 41, 116, 115),
    ("planted", 21, 3, 7100016, 8, 1, 0, 31, 30, 43, 42),
    ("planted", 24, 3, 7100017, 15, 1, 0, 156, 155, 632, 631),
    ("planted", 16, 4, 7100018, 5, 1, 0, 28, 27, 24, 23),
    ("planted", 20, 4, 7100019, 6, 1, 0, 23, 22, 34, 33),
    # Length 5 and degree 3 branch five ways and pool grouped variables;
    # chains reduce to dual links alone.
    ("planted", 15, 5, 7200000, 6, 1, 0, 61, 60, 78, 77),
    ("planted", 20, 5, 7200001, 2, 1, 0, 9, 8, 9, 8),
    ("planted", 15, 5, 7200002, 5, 1, 0, 15, 14, 14, 13),
    ("planted", 20, 5, 7200003, 4, 1, 0, 20, 19, 32, 31),
    ("planted", 15, 5, 7200004, 5, 1, 0, 19, 16, 19, 16),
    ("planted", 20, 5, 7200005, 6, 1, 0, 72, 71, 69, 68),
    ("planted", 15, 5, 7200006, 4, 1, 0, 12, 11, 13, 12),
    ("planted", 20, 5, 7200007, 7, 1, 0, 153, 152, 399, 398),
    ("planted", 15, 5, 7200008, 6, 1, 0, 50, 49, 89, 88),
    ("planted", 20, 5, 7200009, 7, 1, 0, 64, 63, 258, 257),
    ("planted3", 12, 3, 7200010, 0, 1, 0, 2, 1, 2, 1),
    ("planted3", 15, 3, 7200011, 8, 1, 0, 7, 6, 10, 9),
    ("planted3", 18, 3, 7200037, 4, 1, 0, 3, 2, 3, 2),
    ("planted3", 16, 4, 7200014, 0, 1, 0, 3, 2, 3, 2),
    ("planted3", 20, 4, 7200015, 0, 1, 0, 2, 1, 2, 1),
    ("planted3", 24, 4, 7200029, 4, 1, 0, 9, 8, 11, 10),
    ("chain", 50, 2, 7200016, 50, 1, 1, 1, 1, 1, 1),
    ("chain", 300, 2, 7200017, 300, 1, 1, 1, 1, 1, 1),
    ("chain", 51, 3, 7200018, 35, 1, 1, 1, 1, 1, 1),
    ("chain", 301, 3, 7200019, 200, 1, 1, 1, 1, 1, 1),
]

# Planted degree-2 instances past the pools' sizes, where many parts run
# past `SMALL_PART_CAP` and are branched: (length, num_vars, seed, distance,
# nodes, leaves). The golden rows now take one node each, so they no
# longer reach the evaluator's give-up boundary; these rows do. Recorded
# with the depth-first listing the per-depth one replaced, which gave up
# on 153 of its 416 calls here.
GIVE_UP = [
    (3, 36, 0, 22, 5, 4), (3, 36, 1, 20, 3, 2), (3, 36, 2, 18, 7, 6), (3, 36, 3, 23, 9, 8),
    (3, 42, 0, 22, 11, 10), (3, 42, 1, 20, 7, 6), (3, 42, 2, 25, 21, 20), (3, 42, 3, 24, 15, 14),
    (3, 48, 0, 29, 57, 56), (3, 48, 1, 16, 7, 6), (3, 48, 2, 27, 18, 17), (3, 48, 3, 28, 20, 19),
    (4, 36, 0, 12, 2, 1), (4, 36, 1, 13, 1, 0), (4, 36, 2, 8, 1, 0), (4, 36, 3, 15, 1, 0),
    (4, 42, 0, 12, 6, 5), (4, 42, 1, 20, 68, 67), (4, 42, 2, 12, 8, 7), (4, 42, 3, 21, 36, 35),
    (4, 48, 0, 21, 32, 31), (4, 48, 1, 7, 6, 5), (4, 48, 2, 13, 24, 23), (4, 48, 3, 22, 59, 58),
]


def build(family, n, length, seed):
    if family == "uniform":
        return random_formula(n, (n + 1) // 2, length, seed)
    if family == "chain":
        return chain(n, length, seed)
    return planted_formula(n, length, 3 if family == "planted3" else 2, seed)


def row_id(row):
    family, n, length, seed, distance, *_, nodes_before, leaves_before = row
    return "-".join(map(str, (family, n, length, seed, distance, nodes_before, leaves_before)))


def search(f):
    counter = SearchStats()
    got = max_hamming_q(f, counter).distance
    return None if got is BOTTOM else got, counter.nodes, counter.leaves


@pytest.mark.parametrize("row", GOLDEN, ids=row_id)
def test_search_tree_size_is_pinned(row, monkeypatch):
    family, n, length, seed, distance, nodes, leaves, plain_nodes, plain_leaves, _, _ = row
    f = build(family, n, length, seed)
    assert search(f) == (distance, nodes, leaves)
    monkeypatch.setattr(branching, "_bound", lambda engine, positions, state: 10**9)
    monkeypatch.setattr(branching, "SMALL_PART_CAP", 0)
    assert search(f) == (distance, plain_nodes, plain_leaves)


def test_bound_never_adds_nodes_or_leaves():
    grew = [row for row in GOLDEN if row[5] > row[7] or row[6] > row[8]]
    assert grew == []


def test_search_tree_size_is_pinned_where_the_evaluator_gives_up(monkeypatch):
    real, calls = branching._evaluate, []

    def evaluate(part, state):
        value = real(part, state)
        calls.append(value is None)
        return value

    monkeypatch.setattr(branching, "_evaluate", evaluate)
    got = [(k, n, seed, *search(planted_formula(n, k, 2, seed))) for k, n, seed, *_ in GIVE_UP]
    assert got == GIVE_UP
    assert (len(calls), sum(calls)) == (416, 153)
