import collections
import inspect
import itertools
import random
import sys
import tracemalloc

import pytest

from xham import (
    BOTTOM,
    Formula,
    GeneralizedAssignment,
    SearchStats,
    branching,
    enumerate_xmodels,
    expand_state,
    gen_h,
    max_hamming_brute,
    max_hamming_q,
    planted_formula,
    random_formula,
    subset_scan,
)
from xham.branching import slot_options
from xham.propagation import Propagator, components

from conftest import chain, clause_count, count_builds, formula, repeated_variable_corpus
from test_golden import GOLDEN, build


class TestSimplifyState:
    """`_simplify` on an engine over the whole input, as q runs it at the root."""

    def test_all_singleton_clause_pools_and_forces(self):
        engine, state = Propagator(formula((1, 2, 3))), GeneralizedAssignment()
        assert branching._simplify(engine, state)
        state.absorb(engine.forced.items(), engine.freed)
        assert all(clause is None for clause in engine.clauses)
        # peers pool under one slot (nested), the surviving unit is forced
        # true with its satisfactor polarity recorded
        [(root, value)] = state.values.items()
        assert value is True and state.sat[root] is True
        assert state.universe() == {1, 2, 3}
        got = {tuple(sorted(m.items())) for m in expand_state(state)}
        want = {
            ((1, True), (2, False), (3, False)),
            ((1, False), (2, True), (3, False)),
            ((1, False), (2, False), (3, True)),
        }
        assert got == want

    def test_binary_clause_records_dual_link(self):
        state = GeneralizedAssignment()
        assert branching._simplify(Propagator(formula((1, 2), (2, 3, 4))), state)
        assert (1, True, False) in state.dual[2]

    def test_fixpoint_when_nothing_applies(self, tiny):
        engine, state = Propagator(tiny), GeneralizedAssignment()
        assert branching._simplify(engine, state)
        assert tuple(clause for clause in engine.clauses if clause is not None) == tiny.clauses
        assert not engine.forced and not engine.freed
        assert state == GeneralizedAssignment()

    def test_unsat_surfaces_as_empty_clause(self):
        engine = Propagator(formula((1,), (-1,)))
        assert not branching._simplify(engine, GeneralizedAssignment())
        assert engine.unsat


def leaf_state(**kw):
    return GeneralizedAssignment(**kw)


class TestValidate:
    def test_pool_head_without_slot_polarity(self):
        state = leaf_state(values={1: True}, sing={1: [(2, True)]})
        with pytest.raises(ValueError, match="pool head 1 lacks a slot polarity"):
            state.validate()

    def test_variable_linked_from_two_sets(self):
        state = leaf_state(values={1: True, 3: False}, dual={1: [(2, True, False)], 3: [(2, False, False)]})
        with pytest.raises(ValueError, match="variable 2 linked from two sets"):
            state.validate()

    def test_linked_variable_with_a_value(self):
        state = leaf_state(values={1: True, 2: False}, dual={1: [(2, True, False)]})
        with pytest.raises(ValueError, match="linked variable 2 also carries a value"):
            state.validate()

    def test_link_cycle(self):
        state = leaf_state(dual={1: [(2, True, False)], 2: [(3, True, False)], 3: [(1, True, False)]})
        with pytest.raises(ValueError, match="link cycle through variable"):
            state.validate()

    def test_unrooted_tree_only_when_rooting_is_required(self):
        state = leaf_state(dual={1: [(2, True, False)]})
        state.validate()
        with pytest.raises(ValueError, match="link tree root 1 has no value and is not free"):
            state.validate(require_rooted=True)

    def test_long_chain_is_rooted(self):
        n = 5000
        state = leaf_state(values={1: True}, dual={v: [(v + 1, True, False)] for v in range(1, n)})
        state.validate(require_rooted=True)
        state.dual[n] = [(1, True, False)]
        del state.values[1]
        with pytest.raises(ValueError, match="link cycle"):
            state.validate()


class TestGenH:
    def test_satisfactor_pool(self):
        # A free head scores 2 only when both models read its slot active.
        for root in ({"values": {1: True}}, {"free": [1]}):
            state = leaf_state(**root)
            state.record_sing(1, 2)
            state.record_sing(1, 3)
            assert (state.sing, state.sat) == ({1: [(2, True), (3, True)]}, {1: True})
            assert gen_h(state) == 2

    def test_all_fixed_no_links(self):
        state = leaf_state(values={1: True, 2: False})
        assert gen_h(state) == 0

    def test_free_root_with_dual_chain(self):
        state = leaf_state(free=[2])
        state.record_dual(2, 1)
        assert state.dual == {2: [(1, True, False)]}
        assert gen_h(state) == 2

    def test_hand_built_links_have_no_score(self):
        """gen_h scores links recorded through record_sing/record_dual only."""
        state = leaf_state(free=[2], dual={2: [(1, True, False)]})
        with pytest.raises(ValueError, match="linked variable 1 has no score"):
            gen_h(state)

    def test_matches_brute_maximum_over_expansions(self, monkeypatch):
        """Binding contract: gen_h equals the pairwise max over expand_state,
        taken over the pairs in which every `flips` variable reads different
        slots, and is negative when no such pair exists. The leaves come
        from branching alone: parts valued from their x-models have none."""
        monkeypatch.setattr(branching, "SMALL_PART_VARS", 0)
        rng = random.Random(77)
        instances = []
        for length in (2, 3, 4, 5):
            for i in range(30):
                n = max(4, length) + rng.randrange(6)
                instances.append(random_formula(n, clause_count(n, length), length, seed=9900 + 97 * i + length))
        # Planted instances reach flip children far more often.
        instances += [planted_formula(n, k, 2, seed) for n, k in ((9, 3), (12, 3), (8, 4), (12, 4)) for seed in range(6)]
        seen = {"plain": 0, "flips": 0, "none": 0}
        for f in instances:
            leaves = []
            max_hamming_q(f, leaf_hook=lambda s, t: leaves.append(s.copy()))
            for state in leaves[:4]:
                try:
                    expansions = expand_state(state)
                except ValueError:
                    continue
                keys = sorted(state.universe())
                best = None if state.flips else 0
                for a, b in itertools.combinations(expansions, 2):
                    if all(slot_reading(state, a, v) != slot_reading(state, b, v) for v in state.flips):
                        distance = sum(1 for v in keys if a[v] != b[v])
                        best = distance if best is None else max(best, distance)
                if best is None:
                    assert gen_h(state) < 0
                else:
                    assert gen_h(state) == best
                seen["none" if best is None else "flips" if state.flips else "plain"] += 1
        assert seen["plain"] > 50 and seen["flips"] > 20 and seen["none"] > 20, seen


def slot_reading(state, model, var):
    """The slot var reads in a concrete model: a pool head's slot is active
    when its own literal or any member's slot literal holds."""
    members = state.sing.get(var)
    if not members:
        return model[var]
    own = state.sat[var]
    return own if model[var] == own or any(slot_reading(state, model, m) == pol for m, pol in members) else not own


def reference_table(state, var):
    """var's score table read down its whole subtree through `slot_options`.

    Only readings in which every `flips` variable reads different slots
    count; an entry with no such reading is None.
    """
    memo = {}

    def reading(var, a, b):
        if (var, a, b) not in memo:
            best = None
            if not (var in state.flips and a == b):
                for value_a, slots_a in slot_options(state, var, a):
                    for value_b, slots_b in slot_options(state, var, b):
                        children = [reading(child, slot, slots_b[child]) for child, slot in slots_a.items()]
                        if None not in children:
                            best = max(-1 if best is None else best, int(value_a != value_b) + sum(children))
            memo[var, a, b] = best
        return memo[var, a, b]

    return tuple(reading(var, a, b) for a in (False, True) for b in (False, True))


class TestScoreTables:
    def test_cached_tables_match_a_full_reading_at_every_leaf(self, monkeypatch):
        """Tables built at link time or on a read, and dropped when their
        variable gains a link, equal the whole subtree read from scratch.
        The leaves come from branching alone."""
        monkeypatch.setattr(branching, "SMALL_PART_VARS", 0)
        instances = [
            random_formula(n, (n + 1) // 2, k, 6100 + 100 * seed + 7 * n + k)
            for k in (3, 4, 5)
            for n in range(10, 21, 2)
            for seed in range(4)
        ]
        shapes = ((15, 3), (21, 3), (24, 3), (16, 4), (20, 4), (24, 4))
        instances += [planted_formula(n, k, 2, seed) for n, k in shapes for seed in range(6)]
        instances += [chain(n, k, seed) for n, k in ((21, 2), (21, 3), (22, 4)) for seed in range(4)]
        checked = {"pool": 0, "dual": 0, "plain": 0, "no pair": 0}

        def check(state, trail):
            for var, table in state.score.items():
                reference = reference_table(state, var)
                assert all(want is None and got < 0 or got == want for got, want in zip(table, reference)), var
                kind = "pool" if state.sing.get(var) else "dual" if state.dual.get(var) else "plain"
                checked[kind] += 1
                checked["no pair"] += None in reference

        for f in instances:
            max_hamming_q(f, leaf_hook=check)
        assert checked["pool"] > 200 and checked["dual"] > 2000 and checked["no pair"] > 1000, checked

    def test_star_center_is_scored_once_not_per_link(self, monkeypatch):
        """The clauses (1, i) link 4,000 leaves below variable 1. Building
        its table at every link would read its children quadratically often;
        built on its next read, each child is read a constant number of times."""
        leaves = 4000
        rng = random.Random(3)
        star = Formula(leaves + 1, tuple((1, i if rng.random() < 0.5 else -i) for i in range(2, leaves + 2)))
        real = branching._table
        calls = reads = 0

        def counting(state, var):
            nonlocal calls, reads
            calls += 1
            reads += len(state.sing.get(var, ())) + len(state.dual.get(var, ()))
            return real(state, var)

        monkeypatch.setattr(branching, "_table", counting)
        assert max_hamming_q(star).distance == leaves + 1
        assert calls <= 2 * leaves + 2 and reads <= 2 * leaves


class TestMaxHammingQ:
    def test_unsat(self):
        assert max_hamming_q(formula((1,), (-1,))).distance is BOTTOM

    def test_disjoint_components_add(self):
        assert max_hamming_q(formula((1, 2), (3, 4))).distance == 4

    def test_two_clauses(self, tiny):
        assert max_hamming_q(tiny).distance == 3

    def test_no_witnesses(self, tiny):
        assert max_hamming_q(tiny).witnesses is None

    def test_counter_tracks_nodes_and_leaves(self, tiny):
        counter = SearchStats()
        max_hamming_q(tiny, counter)
        assert counter.nodes >= 1
        assert 0 <= counter.leaves <= counter.nodes

    def test_deterministic_node_count(self, tiny):
        a, b = SearchStats(), SearchStats()
        max_hamming_q(tiny, a)
        max_hamming_q(tiny, b)
        assert (a.nodes, a.leaves) == (b.nodes, b.leaves)

    def test_length_four_clause_splits_on_its_false_side(self, monkeypatch):
        """The pivot's false step is followed, in the same node, by a step on its clause's rest."""
        monkeypatch.setattr(branching, "SMALL_PART_VARS", 0)  # the branching path alone
        f = planted_formula(8, 4, 2, 0)
        trails = []
        max_hamming_q(f, leaf_hook=lambda s, t: trails.append(t))
        splits = [
            t[:2]
            for t in trails
            if len(t) >= 2
            and t[0][0] == "false"
            and any(t[0][1] in clause and t[1][1] in clause for clause in f.clauses)
        ]
        assert (("false", -1), ("true", 3)) in splits

    def test_one_engine_per_search_and_no_formula_below_the_root(self, monkeypatch):
        """Every child is a mark, its steps, simplification and an undo on the
        root's engine: one `Propagator` per call, and no `Formula` built."""
        monkeypatch.setattr(branching, "SMALL_PART_VARS", 0)  # the branching path alone
        shapes = ((21, 3, 2), (20, 4, 2), (24, 4, 2))
        instances = [planted_formula(n, k, d, seed) for n, k, d in shapes for seed in range(4)]
        instances += [random_formula(n, clause_count(n, k), k, 7300 + n) for k in (3, 4, 5) for n in (12, 16)]
        built = count_builds(monkeypatch)
        nodes = 0
        for f in instances:
            built.update(engines=0, formulas=0)
            counter = SearchStats()
            max_hamming_q(f, counter)
            assert built == {"engines": 1, "formulas": 0}, f
            nodes += counter.nodes
        assert nodes > 500

    def test_a_split_branches_its_parts_in_its_own_node(self, monkeypatch):
        """No `_q` call below the root comes without steps, and each
        component's bound is taken at most once per node; a node is named
        by its trail, which no other node shares. Runs with the evaluator
        off and at its limit; at the limit, parts small enough to value are
        not branched, so the joined instances give split parts too large
        for it, next to small ones, and a valued part is never bounded."""
        shapes = ((21, 3, 2), (24, 3, 2), (20, 4, 2), (24, 4, 2))
        instances = [planted_formula(n, k, d, seed) for n, k, d in shapes for seed in range(5)]
        instances += [random_formula(n, (n + 1) // 2, k, 7700 + n) for k in (3, 4, 5) for n in (24, 32, 40)]
        # Seeds 7 and 8 still split bounded parts now that flip children
        # keep only pairs in which the pivot flips.
        instances += [planted_formula(24, 3, 2, seed) for seed in range(5, 10)]
        instances += [
            joined(planted_formula(n, 3, 2, seed), planted_formula(other, 3, 2, seed + 10))
            for n, other in ((27, 27), (30, 30), (30, 15))
            for seed in range(4)
        ]
        real_q, real_bound, real_components, real_evaluate = branching._q, branching._bound, branching.components, branching._evaluate
        path, seen, bounds, split_parts, valued = [], set(), collections.Counter(), set(), set()

        def q(engine, positions, state, steps, counter, leaf_hook, trail, need):
            assert steps or not path, f"a call below the root without steps, at {trail}"
            assert trail + steps not in seen
            seen.add(trail + steps)
            path.append(trail + steps)
            try:
                return real_q(engine, positions, state, steps, counter, leaf_hook, trail, need)
            finally:
                path.pop()

        def bound(engine, positions, state):
            bounds[path[-1], tuple(positions)] += 1
            return real_bound(engine, positions, state)

        def components(engine, positions):
            parts = real_components(engine, positions)
            if len(parts) > 1:
                split_parts.update((path[-1], tuple(part)) for part in parts)
            return parts

        def evaluate(engine, positions, state):
            value = real_evaluate(engine, positions, state)
            if value is not None:
                valued.add((path[-1], tuple(positions)))
            return value

        monkeypatch.setattr(branching, "_q", q)
        monkeypatch.setattr(branching, "_bound", bound)
        monkeypatch.setattr(branching, "components", components)
        monkeypatch.setattr(branching, "_evaluate", evaluate)
        for small in (0, branching.SMALL_PART_VARS):
            monkeypatch.setattr(branching, "SMALL_PART_VARS", small)
            bounded_parts = mixed = 0
            for f in instances:
                for log in (seen, bounds, split_parts, valued):
                    log.clear()
                max_hamming_q(f)
                assert max(bounds.values(), default=1) == 1, f
                assert not valued & bounds.keys(), f
                bounded = bounds.keys() & split_parts
                bounded_parts += len(bounded)
                mixed += len({node for node, _ in bounded} & {node for node, _ in valued & split_parts})
            assert bounded_parts > 0, small
            assert mixed > 0 or not small, small

    def test_a_must_flip_pivot_gets_its_flip_children_alone(self, monkeypatch):
        """A pivot that must flip makes no true or false child, only the k - 1
        flip children of its length-k clause, and each of those removes at
        least k - 1 variables: the pivot, and the k - 2 literals that its
        complementary pair forces false."""
        monkeypatch.setattr(branching, "SMALL_PART_VARS", 0)  # the branching path alone
        shapes = ((21, 3), (24, 3), (20, 4), (24, 4))
        instances = [planted_formula(n, k, 2, seed) for n, k in shapes for seed in range(5)]
        real_q, real_branch = branching._q, branching._branch
        open_branches = []  # [must_flip, clause length, children] per `_branch` in progress
        removals = collections.Counter()

        def live_vars(engine, positions):
            return {abs(lit) for pos in positions if engine.clauses[pos] is not None for lit in engine.clauses[pos]}

        def branch(engine, positions, state, clause, *rest):
            must_flip = rest[-1] if len(rest) == 6 else None
            open_branches.append([must_flip, len(clause), 0])
            try:
                return real_branch(engine, positions, state, clause, *rest)
            finally:
                must_flip, length, children = open_branches.pop()
                assert must_flip is None or children == length - 1

        def q(engine, positions, state, steps, *rest):
            if not open_branches or open_branches[-1][0] is None:
                return real_q(engine, positions, state, steps, *rest)
            must_flip, length, _ = open_branches[-1]
            open_branches[-1][2] += 1
            assert steps[-1][:2] == ("dual", must_flip), steps
            before = live_vars(engine, positions)
            answer = real_q(engine, positions, state, steps, *rest)
            if answer is not BOTTOM:
                removed = len(before - live_vars(engine, positions))
                assert removed >= length - 1, (steps, removed)
                removals[length] += 1
            return answer

        monkeypatch.setattr(branching, "_q", q)
        monkeypatch.setattr(branching, "_branch", branch)
        for f in instances:
            max_hamming_q(f)
        assert removals[3] > 100 and removals[4] > 100, removals

    def test_structure_left_by_the_one_engine_search(self):
        from xham import formula as formula_module

        assert list(inspect.signature(Propagator).parameters) == ["formula"]
        assert "union" not in inspect.getsource(formula_module).lower()
        for method in (Propagator.substitute, Propagator.remove_literal):
            assert "cannot be undone" not in inspect.getsource(method)
        assert not hasattr(Formula, "trusted")
        scan_names = vars(subset_scan)
        assert "normalize" not in scan_names and "extend_model" not in scan_names
        assert not hasattr(branching, "simplify_state")
        assert not hasattr(Propagator, "result")  # the engine is propagation's one interface

        # One trail from the first mark, of two logs: clause writes, and the
        # lengths of the occurrence lists that rewrites grew.
        engine = Propagator(formula((1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 1)))
        assert not hasattr(engine, "equivalences") and not hasattr(engine, "_forces")
        assert engine.propagate()
        lists = {var: (positions, list(positions)) for var, positions in engine.occ.items()}
        mark = engine.mark()
        engine.substitute(1, 3)
        engine.force(5, True)
        engine.propagate()
        assert engine._occs and all(type(var) is int and type(length) is int for var, length in engine._occs)
        assert engine._writes and all(type(lits) is tuple for _, lits in engine._writes)
        engine.undo_to(mark)
        assert {var: (positions, list(positions)) for var, positions in engine.occ.items()} == lists
        assert all(engine.occ[var] is positions for var, (positions, _) in lists.items())

    def test_root_writes_stay_off_the_trail_on_a_long_chain(self):
        """The root's simplification of a 5,000-variable binary chain makes
        some 5,000 rewrites that nothing undoes, and the trail does not
        keep them. Kept, they took q's peak allocation here from 2.75 MB to
        4.05 MB (Python 3.11), and from 10.6 to 16.3 MB on 20,000 variables."""
        n = 5000
        f = Formula(n, tuple((v, v + 1) for v in range(1, n)))
        tracemalloc.start()
        try:
            assert max_hamming_q(f).distance == n
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.4 * 10**6, peak

    def test_long_chains_hit_no_recursion_limit(self):
        """Binary chains (i, i+1) flip every variable; the ternary chains
        (1 2 3), (3 4 5), ... answer what an exact pass over the chain gives."""
        binary = {n: Formula(n, tuple((v, v + 1) for v in range(1, n))) for n in (1100, 1500, 3000)}
        ternary = {n: Formula(n, tuple((v, v + 1, v + 2) for v in range(1, n, 2))) for n in (3001, 4001)}
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            got = {n: max_hamming_q(f).distance for n, f in {**binary, **ternary}.items()}
        finally:
            sys.setrecursionlimit(limit)
        assert got == {1100: 1100, 1500: 1500, 3000: 3000, 3001: 2251, 4001: 3001}

    def test_agrees_with_oracle_on_random_suite(self):
        for length in (2, 3, 4, 5, 6):
            for i in range(60):
                n = max(4, length) + (i % 7)
                f = random_formula(n, clause_count(n, length), length, seed=8100 + 13 * i + length)
                want = max_hamming_brute(f).distance
                got = max_hamming_q(f).distance
                assert (got is BOTTOM) == (want is BOTTOM)
                if want is not BOTTOM:
                    assert got == want


class TestBound:
    @staticmethod
    def root_bound(f):
        """The root's base plus the bound of its simplified formula, or None when it is unsatisfiable."""
        engine, state = Propagator(f), GeneralizedAssignment()
        if not branching._simplify(engine, state):
            return None
        state.absorb(engine.forced.items(), engine.freed)
        live = [pos for pos, clause in enumerate(engine.clauses) if clause is not None]
        return gen_h(state) + sum(branching._bound(engine, part, state) for part in components(engine, live))

    def test_root_bound_is_never_below_the_answer(self):
        shapes = [(15, 3, 2), (18, 3, 2), (16, 4, 2), (20, 4, 2), (15, 5, 2), (20, 5, 2), (16, 4, 3), (20, 4, 3)]
        instances = [planted_formula(n, length, degree, seed) for n, length, degree in shapes for seed in range(25)]
        instances += [
            random_formula(n, (n + 1) // 2, length, 5600 + i) for length in (4, 5) for n in (14, 18) for i in range(40)
        ]
        tight = satisfiable = 0
        for f in instances:
            answer = max_hamming_q(f).distance
            bound = self.root_bound(f)
            if answer is BOTTOM:
                continue
            assert bound is not None and bound >= answer, f
            satisfiable += 1
            tight += bound == answer
        assert satisfiable > 200 and tight > 0

    def test_pruning_cuts_golden_planted_rows_without_changing_answers(self, monkeypatch):
        monkeypatch.setattr(branching, "SMALL_PART_VARS", 0)  # the branching path alone
        rows = [row for row in GOLDEN if row[0] == "planted"]

        def search():
            out = []
            for family, n, length, seed, *_ in rows:
                counter = SearchStats()
                out.append((max_hamming_q(build(family, n, length, seed), counter).distance, counter.nodes))
            return out

        pruned = search()
        monkeypatch.setattr(branching, "_bound", lambda engine, positions, state: 10**9)
        plain = search()
        assert [d for d, _ in pruned] == [d for d, _ in plain]
        assert [b for _, b in plain] == [row[7] for row in rows]
        assert any(a < b for (_, a), (_, b) in zip(pruned, plain))


class TestSmallParts:
    """A connected part of at most `SMALL_PART_VARS` live variables is valued
    from its x-models by `_evaluate` instead of branched."""

    @staticmethod
    def instances():
        shapes = ((15, 3, 2), (21, 3, 2), (16, 4, 2), (24, 4, 2), (15, 5, 2), (20, 5, 2), (16, 4, 3), (20, 4, 3))
        out = [planted_formula(n, k, d, seed) for n, k, d in shapes for seed in range(8)]
        uniform = [(n, k, 7900 + 10 * n + k + i) for k in (3, 4, 5) for n in (16, 24, 32) for i in range(0, 20, 5)]
        out += [random_formula(n, (n + 1) // 2, k, seed) for n, k, seed in uniform]
        return out

    def test_a_valued_part_matches_branching_on_the_same_engine(self, monkeypatch):
        """At every part the evaluator takes, its value equals `_branch`'s on
        the same engine and state, with the evaluator and the bound off
        below: BOTTOM for a part with no x-model, negative for both where no
        pair honours every flip, and the same value otherwise. Under lower
        limits the search branches above small parts, so parts under flip
        steps, with must-flip variables, are valued too."""
        real = branching._evaluate
        seen = collections.Counter()

        def evaluate(engine, positions, state):
            value = real(engine, positions, state)
            if value is None:
                return None
            with monkeypatch.context() as plain:
                plain.setattr(branching, "SMALL_PART_VARS", 0)
                plain.setattr(branching, "_bound", lambda engine, positions, state: 10**9)
                clause, must_flip = branching._pick_branch(engine, positions, state)
                want = branching._branch(engine, positions, state, clause, (), SearchStats(), None, (), -1, must_flip)
            if value is BOTTOM:
                assert want is BOTTOM
                seen["no x-model"] += 1
            elif value < 0:
                assert want is not BOTTOM and want < 0
                seen["no pair"] += 1
            else:
                assert want == value
                seen["valued"] += 1
            seen["must flip"] += must_flip is not None
            return value

        monkeypatch.setattr(branching, "_evaluate", evaluate)
        for small in (8, 16, branching.SMALL_PART_VARS):
            monkeypatch.setattr(branching, "SMALL_PART_VARS", small)
            for f in self.instances():
                max_hamming_q(f)
        assert seen["valued"] > 400 and seen["must flip"] > 150, seen
        assert seen["no x-model"] > 25 and seen["no pair"] > 35, seen

    def test_a_pair_of_equal_models_can_win(self):
        """Two models that agree on every live variable still differ below a
        pool head, whose members may pick different satisfactors, so the
        pair A = B counts. Here it beats every pair of distinct models."""
        state = GeneralizedAssignment()
        state.record_dual(5, 7)
        state.record_dual(6, 8)
        state.record_sing(1, 5)
        state.record_sing(1, 6)
        engine = Propagator(Formula(8, ((1, 2, 3),)))
        assert engine.propagate()
        table = state.table(1)
        assert table[3] > table[1] + 1
        want = branching._branch(engine, [0], state, (1, 2, 3), (), SearchStats(), None, (), -1)
        assert branching._evaluate(engine, [0], state) == want == table[3]

    def test_a_part_past_the_cap_is_branched_to_the_same_answer(self, monkeypatch):
        instances = self.instances()
        want = [max_hamming_q(f).distance for f in instances]
        monkeypatch.setattr(branching, "SMALL_PART_CAP", 4)
        real = branching._evaluate
        gave_up = 0

        def evaluate(engine, positions, state):
            nonlocal gave_up
            value = real(engine, positions, state)
            small = len({abs(lit) for pos in positions for lit in engine.clauses[pos]}) <= branching.SMALL_PART_VARS
            gave_up += value is None and small
            return value

        monkeypatch.setattr(branching, "_evaluate", evaluate)
        assert [max_hamming_q(f).distance for f in instances] == want
        assert gave_up > 20

    def test_leaves_never_exceed_nodes(self):
        for f in self.instances():
            counter = SearchStats()
            max_hamming_q(f, counter)
            assert 0 <= counter.leaves <= counter.nodes and counter.nodes >= 1


def shift_formula(f: Formula, offset: int) -> Formula:
    clauses = tuple(
        tuple(lit + offset if lit > 0 else lit - offset for lit in c) for c in f.clauses
    )
    return Formula(f.num_vars + offset, clauses)


def joined(a: Formula, b: Formula) -> Formula:
    """`a` and `b` side by side behind a first clause (1, x, y), whose new
    variable 1 joins a variable x of `a` to a variable y of `b`. q branches
    on x first, and its false child splits `a` from `b`."""
    a = shift_formula(a, 1)
    b = shift_formula(b, a.num_vars)
    return Formula(b.num_vars, ((1, 2, a.num_vars + 1),) + a.clauses + b.clauses)


class TestInvariants:
    def test_component_additivity(self):
        for i in range(30):
            f1 = random_formula(5, clause_count(5, 3), 3, seed=3300 + i)
            f2 = shift_formula(random_formula(5, clause_count(5, 3), 3, seed=3400 + i), 5)
            union = Formula(10, f1.clauses + f2.clauses)
            d1 = max_hamming_q(f1).distance
            d2 = max_hamming_q(f2).distance
            du = max_hamming_q(union).distance
            if d1 is BOTTOM or d2 is BOTTOM:
                assert du is BOTTOM
            else:
                assert du == d1 + d2

    def test_symmetry_under_renaming_and_polarity_flips(self):
        rng = random.Random(5)
        for i in range(30):
            f = random_formula(7, clause_count(7, 3), 3, seed=2200 + i)
            perm = list(range(1, 8))
            rng.shuffle(perm)
            flips = {v: rng.random() < 0.5 for v in range(1, 8)}
            mapping = {v: perm[v - 1] for v in range(1, 8)}
            clauses = tuple(
                tuple(
                    (1 if (lit > 0) != flips[abs(lit)] else -1) * mapping[abs(lit)]
                    for lit in c
                )
                for c in f.clauses
            )
            g = Formula(7, clauses)
            assert max_hamming_q(f).distance == max_hamming_q(g).distance

    def test_leaf_states_are_well_formed(self):
        """gen_h does not validate; the leaves of every family are checked here."""
        instances = [random_formula(8, clause_count(8, 4), 4, seed=1500 + i) for i in range(20)]
        instances += [planted_formula(n, length, 2, seed) for length, n in ((3, 15), (4, 14)) for seed in range(10)]
        instances += repeated_variable_corpus(60, 9400)
        for f in instances:
            leaves = []
            max_hamming_q(f, leaf_hook=lambda s, t: leaves.append(s.copy()))
            for state in leaves:
                state.validate()

    def test_simplification_only_instances_expand_to_all_models(self):
        """When no branching happens, the single leaf represents Var(F) exactly."""
        f = formula((1, 2, 3, 4))
        leaves = []
        max_hamming_q(f, leaf_hook=lambda s, t: leaves.append((s.copy(), t)))
        assert len(leaves) == 1 and leaves[0][1] == ()
        got = {tuple(sorted(m.items())) for m in expand_state(leaves[0][0])}
        want = {tuple(sorted(m.items())) for m in enumerate_xmodels(f)}
        assert got == want
