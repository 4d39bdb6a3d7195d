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
    gen_h,
    max_hamming_brute,
    max_hamming_q,
    planted_formula,
    propagation,
    random_formula,
    subset_scan,
)
from xham.propagation import Propagator, components

import conftest
from conftest import (
    chain,
    clause_count,
    count_builds,
    drop_by_substitute,
    engine_state,
    expand_state,
    formula,
    general_table,
    pool_pair_reference,
    record_by_table,
    repeated_variable_corpus,
    simplify_pushing_every_change,
    simplify_substituting_drops,
    slot_options,
    universe,
    validate,
)
from test_golden import GOLDEN, build


class TestSimplifyState:
    """`_simplify` on an engine over the whole input, as q runs it at the root."""

    def test_all_singleton_clause_pools_and_forces(self):
        engine, state = Propagator(formula((1, 2, 3))), GeneralizedAssignment()
        assert branching._simplify(engine, state)
        assert all(clause is None for clause in engine.clauses)
        # peers pool under one slot (nested), the surviving unit is forced
        # true with its satisfactor polarity recorded
        [(root, value)] = engine.forced.items()
        assert value is True and state.sat[root] is True and not engine.freed
        assert universe(state, engine.forced, engine.freed) == {1, 2, 3}
        got = {tuple(sorted(m.items())) for m in expand_state(state, engine.forced, engine.freed)}
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


def caterpillar(n: int, length: int, seed: int) -> Formula:
    """`chain(n, length, seed)` with a pendant binary clause on every spine
    variable, to a fresh variable, at a random place among the clauses.
    Dropping a pendant whose spine variable is still in two spine clauses
    leaves that survivor at degree two or more."""
    rng = random.Random(seed)
    clauses = list(chain(n, length, seed).clauses)
    for var in range(1, n + 1):
        pendant = (var if rng.random() < 0.5 else -var, n + var if rng.random() < 0.5 else -(n + var))
        clauses.insert(rng.randint(0, len(clauses)), pendant if rng.random() < 0.5 else pendant[::-1])
    return Formula(2 * n, tuple(clauses))


#: Long chains, whose root simplification runs thousands of drops in a row.
LONG_CHAINS = [chain(2001, k, seed) for k in (2, 3) for seed in range(2)]
CATERPILLARS = [caterpillar(n, k, seed) for k, n in ((2, 30), (3, 31), (4, 31)) for seed in range(4)]


def logging_every_position(f):
    """A new engine whose `changed` log holds every position, so the
    reference `_simplify` checks every clause of the input for pooling."""
    engine = Propagator(f)
    engine.changed[:] = range(len(f.clauses))
    return engine


def test_simplify_links_as_a_reference_that_pools_from_every_change(monkeypatch):
    """q with `to_pool` fed from `singles` alone, with every pool a round
    can take in one go, and with a drop going straight to the next choice,
    pooling its survivor's clause on the spot, records the same pool and
    dual links, in the same order, as a reference that also pushes every
    changed position and takes one pool or one elimination per round, and
    searches the same tree. The reference builds every removed variable's
    table with `_table` (`record_by_table`); after every simplification,
    at the root and at each child, the state's tables and the engine's
    clauses and degrees are the reference's. Counts check that the pools
    on the spot, the `record_sing` calls made outside `_pool_first`, run
    at the root and at q's children, under a mark."""
    monkeypatch.setattr(branching, "SMALL_PART_CAP", 0)
    instances = [planted_formula(n, 3, 2, seed) for n in (12, 15, 18) for seed in range(3)]
    instances += [planted_formula(n, 4, 2, seed) for n in (12, 16) for seed in range(3)]
    instances += [random_formula(n, (n + 1) // 2, k, 7700 + 10 * n + k) for k in (3, 4, 5) for n in range(8, 24, 3)]
    instances += [chain(n, k, seed) for k, n in ((2, 24), (3, 25), (4, 25), (5, 25)) for seed in range(3)]
    instances += LONG_CHAINS + CATERPILLARS
    instances += [chain(n, k, seed) for k, n in ((4, 2002), (5, 2001)) for seed in range(2)]
    instances += [with_pendants(chain(n, k, seed), seed) for k, n in ((2, 40), (3, 41), (4, 40), (5, 41)) for seed in range(4)]
    instances += [with_pendants(planted_formula(n, k, 2, seed), seed) for n, k in ((15, 3), (18, 3), (16, 4)) for seed in range(4)]
    links, after = [], []
    on_the_spot, pooling, where = {"root": 0, "child": 0}, [], ["root"]
    sing, dual, pool_first = GeneralizedAssignment.record_sing, GeneralizedAssignment.record_dual, branching._pool_first

    def logging(kind, record, spot=False):
        def logged(state, *args):
            links.append((kind, args))
            if spot and not pooling:
                on_the_spot[where[0]] += 1
            record(state, *args)

        return logged

    def first(*args):
        pooling.append(True)
        try:
            return pool_first(*args)
        finally:
            pooling.pop()

    def recording(simplify):
        def recorded(engine, state):
            where[0] = "root" if engine._writes is propagation._UNLOGGED else "child"
            ok = simplify(engine, state)
            after.append((ok, dict(state.score), list(engine.clauses), dict(engine.degree)))
            return ok

        return recorded

    monkeypatch.setattr(GeneralizedAssignment, "record_sing", logging("sing", sing, spot=True))
    monkeypatch.setattr(GeneralizedAssignment, "record_dual", logging("dual", dual))
    monkeypatch.setattr(branching, "_pool_first", first)
    monkeypatch.setattr(branching, "_simplify", recording(branching._simplify))

    def run(f):
        del links[:], after[:]
        counter = SearchStats()
        distance = max_hamming_q(f, counter).distance
        return distance, counter.nodes, counter.leaves, list(links), list(after)

    pooled = 0
    for f in instances:
        got = run(f)
        with monkeypatch.context() as reference:
            reference.setattr(branching, "_simplify", recording(simplify_pushing_every_change))
            reference.setattr(branching, "Propagator", logging_every_position)
            reference.setattr(GeneralizedAssignment, "record_sing", logging("sing", record_by_table(sing)))
            reference.setattr(GeneralizedAssignment, "record_dual", logging("dual", record_by_table(dual)))
            want = run(f)
        assert got == want, f
        pooled += sum(kind == "sing" for kind, _ in got[3])
    assert pooled > 100
    assert on_the_spot["root"] > 4000 and on_the_spot["child"] > 50, on_the_spot


def test_long_chains_simplify_in_a_few_rounds(monkeypatch):
    """The root pools every clause it can before it drops, and a drop pools
    its survivor's clause on the spot, so the root's simplification
    retires ternary and length-4 chains with random polarities in at most
    five `propagate` calls, and the binary chain in at most three; one
    pool per round would take a call per clause."""
    calls = []
    propagate = Propagator.propagate
    monkeypatch.setattr(Propagator, "propagate", lambda engine: calls.append(engine) or propagate(engine))
    for n, length, most in ((2001, 2, 3), (2001, 3, 5), (2002, 4, 5)):
        for seed in range(2):
            del calls[:]
            engine = Propagator(chain(n, length, seed))
            assert branching._simplify(engine, GeneralizedAssignment())
            assert engine.clauses.count(None) == len(engine.clauses) and len(calls) <= most, (n, length, seed, len(calls))


def test_pool_pair_matches_the_list_reference_on_every_small_clause():
    """`_pool_pair`'s one scan returns what the list of the clause's
    singletons gives, on every clause of one to five literals over every
    sign, degree of one or two and pool-head membership of each literal:
    8 + 64 + ... + 8**5 = 37,448 clauses."""
    seen = collections.Counter()
    for length in range(1, 6):
        for kinds in itertools.product(itertools.product((1, -1), (1, 2), (False, True)), repeat=length):
            clause = tuple(sign * var for var, (sign, _, _) in enumerate(kinds, 1))
            degree = {var: count for var, (_, count, _) in enumerate(kinds, 1)}
            sat = {var: True for var, (_, _, head) in enumerate(kinds, 1) if head}
            got = branching._pool_pair(clause, degree, sat)
            assert got == pool_pair_reference(clause, degree, sat), (clause, degree, sat)
            seen["clauses"] += 1
            seen["pools" if got else "none"] += 1
            seen["head first"] += bool(got) and abs(got[1]) < abs(got[0])
    assert seen["clauses"] == 37448 and min(seen.values()) > 5000, seen


def simplified(simplify, engine, state):
    """Run a `_simplify` and return what it leaves on the engine and the state."""
    ok = simplify(engine, state)
    engine_side = list(engine.clauses), dict(engine.degree), dict(engine.forced), list(engine.freed)
    return ok, engine_side, state.sing, state.dual, state.sat, state.score


def with_pendants(f: Formula, seed: int) -> Formula:
    """f with a fresh variable of random sign added to about two clauses in
    five. A branch that leaves such a clause binary leaves the fresh
    variable as its degree-one side."""
    rng = random.Random(seed)
    n, clauses = f.num_vars, []
    for clause in f.clauses:
        if rng.random() < 0.4:
            n += 1
            clause += (n if rng.random() < 0.5 else -n,)
        clauses.append(clause)
    return Formula(n, tuple(clauses))


DROP_CORPUS = (
    [random_formula(n, clause_count(n, k), k, 8100 + 10 * n + k) for k in (2, 3, 4, 5) for n in range(6, 22, 3)]
    + [planted_formula(n, k, 2, seed) for n, k in ((15, 3), (18, 3), (21, 3), (16, 4), (20, 4)) for seed in range(3)]
    + [with_pendants(planted_formula(n, k, 2, seed), seed) for n, k in ((15, 3), (18, 3), (21, 3), (16, 4), (20, 4)) for seed in range(4)]
    + [chain(n, k, seed) for k, n in ((2, 40), (2, 101), (3, 41), (3, 101)) for seed in range(4)]
    + LONG_CHAINS
    + CATERPILLARS
)


def test_drop_step_simplifies_as_the_substitution_it_replaces(monkeypatch):
    """`_simplify`, which drops a binary clause whose removed side has
    degree one, and a copy of it that rewrites there instead
    (`simplify_substituting_drops`) leave the same live clauses, degrees,
    forces, freed variables, links and tables: on fresh engines, and under
    a mark at every q child the branching search visits, whose engine
    `undo_to` then gives back. q's answers, nodes and leaves are the same
    too. Counts check that the drops run at the root and at the children."""
    real = branching._simplify
    drops = {"root": 0, "child": 0}
    where = "root"

    def counting(engine, pos, removed):
        drops[where] += 1
        drop_by_substitute(engine, pos, removed)

    def both_ways(engine, state):
        got = simplified(real, engine(), state.copy())
        with monkeypatch.context() as patch:
            patch.setattr(conftest, "drop_by_substitute", counting)
            want = simplified(simplify_substituting_drops, engine(), state.copy())
        return got, want

    for f in DROP_CORPUS:
        got, want = both_ways(lambda: Propagator(f), GeneralizedAssignment())
        assert got == want, f

    def checking(engine, state):
        nonlocal where
        if engine._writes is not propagation._UNLOGGED:  # a child, below the root's first mark
            where = "child"
            node, logs = engine_state(engine), (list(engine.changed), list(engine.singles))

            def marked():
                engine.undo_to(mark)
                engine.changed[:], engine.singles[:] = logs
                return engine

            mark = engine.mark()
            got, want = both_ways(marked, state)
            assert got == want
            marked()
            assert engine_state(engine) == node
            where = "root"
        return real(engine, state)

    def answers():
        out = []
        for f in DROP_CORPUS:
            counter = SearchStats()
            out.append((max_hamming_q(f, counter).distance, counter.nodes, counter.leaves))
        return out

    want = answers()
    with monkeypatch.context() as patch:
        patch.setattr(branching, "_simplify", simplify_substituting_drops)
        assert answers() == want
    monkeypatch.setattr(branching, "_simplify", checking)
    monkeypatch.setattr(branching, "SMALL_PART_CAP", 0)
    answers()
    assert drops["root"] > 800 and drops["child"] > 200, drops


def leaf_state(**kw):
    return GeneralizedAssignment(**kw)


class TestGeneralizedAssignmentRecord:
    FIELDS = ("sing", "dual", "sat", "score", "flips")

    def test_defaults_are_fresh_empty_containers(self):
        a, b = GeneralizedAssignment(), GeneralizedAssignment()
        assert (a.sing, a.dual, a.sat, a.score, a.flips) == ({}, {}, {}, {}, set())
        assert isinstance(a.flips, set)
        for name in self.FIELDS:
            assert getattr(a, name) is not getattr(b, name), name
        a.sing[1] = [(2, True)]
        assert b.sing == {} and a != b

    def test_positional_and_keyword_construction(self):
        sing, dual, sat, score, flips = {1: [(2, True)]}, {3: [(4, True, False)]}, {1: True}, {2: (0, 1, 1, 0)}, {3}
        state = GeneralizedAssignment(sing, dual, sat, score, flips)
        assert state == GeneralizedAssignment(sing=sing, dual=dual, sat=sat, score=score, flips=flips)
        assert state.sing is sing and state.flips is flips
        assert GeneralizedAssignment(sing) == GeneralizedAssignment(sing=sing) != GeneralizedAssignment()
        assert GeneralizedAssignment(flips={3}).flips == {3}

    def test_copy_shares_no_mutable_container(self):
        state = GeneralizedAssignment(
            {1: [(2, True)]}, {3: [(4, True, False)], 1: [(5, False, True)]}, {1: True}, {2: (0, 1, 1, 0)}, {3}
        )
        twin = state.copy()
        assert twin == state
        for name in self.FIELDS:
            assert getattr(twin, name) is not getattr(state, name), name
        for name in ("sing", "dual"):
            for var, links in getattr(state, name).items():
                assert getattr(twin, name)[var] is not links, (name, var)
        twin.sing[1].append((6, False))
        twin.dual[3].append((7, True, True))
        twin.flips.add(1)
        assert state.sing == {1: [(2, True)]} and state.dual[3] == [(4, True, False)] and state.flips == {3}

    def test_repr_and_no_hash(self):
        assert repr(GeneralizedAssignment()) == "GeneralizedAssignment(sing={}, dual={}, sat={}, score={}, flips=set())"
        assert repr(GeneralizedAssignment(sat={1: True})) == (
            "GeneralizedAssignment(sing={}, dual={}, sat={1: True}, score={}, flips=set())"
        )
        with pytest.raises(TypeError):
            hash(GeneralizedAssignment())


class TestValidate:
    def test_pool_head_without_slot_polarity(self):
        state = leaf_state(sing={1: [(2, True)]})
        with pytest.raises(ValueError, match="pool head 1 lacks a slot polarity"):
            validate(state, {1: True}, [])

    def test_variable_linked_from_two_sets(self):
        state = leaf_state(dual={1: [(2, True, False)], 3: [(2, False, False)]})
        with pytest.raises(ValueError, match="variable 2 linked from two sets"):
            validate(state, {1: True, 3: False}, [])

    def test_linked_variable_with_a_value(self):
        state = leaf_state(dual={1: [(2, True, False)]})
        with pytest.raises(ValueError, match="linked variable 2 also carries a value"):
            validate(state, {1: True, 2: False}, [])

    def test_link_cycle(self):
        state = leaf_state(dual={1: [(2, True, False)], 2: [(3, True, False)], 3: [(1, True, False)]})
        with pytest.raises(ValueError, match="link cycle through variable"):
            validate(state, {}, [])

    def test_unrooted_tree_only_when_rooting_is_required(self):
        state = leaf_state(dual={1: [(2, True, False)]})
        validate(state, {}, [])
        with pytest.raises(ValueError, match="link tree root 1 has no value and is not free"):
            validate(state, {}, [], require_rooted=True)

    def test_long_chain_is_rooted(self):
        n = 5000
        state = leaf_state(dual={v: [(v + 1, True, False)] for v in range(1, n)})
        validate(state, {1: True}, [], require_rooted=True)
        state.dual[n] = [(1, True, False)]
        with pytest.raises(ValueError, match="link cycle"):
            validate(state, {}, [])


class TestGenH:
    def test_satisfactor_pool(self):
        # A free head scores 2 only when both models read its slot active.
        for forced, freed in (({1: True}, []), ({}, [1])):
            state = leaf_state()
            state.record_sing(1, 2)
            state.record_sing(1, 3)
            assert (state.sing, state.sat) == ({1: [(2, True), (3, True)]}, {1: True})
            assert gen_h(state, forced.items(), freed) == 2

    def test_all_fixed_no_links(self):
        assert gen_h(leaf_state(), {1: True, 2: False}.items(), []) == 0

    def test_free_root_with_dual_chain(self):
        state = leaf_state()
        state.record_dual(2, 1)
        assert state.dual == {2: [(1, True, False)]}
        assert gen_h(state, (), [2]) == 2

    def test_hand_built_links_have_no_score(self):
        """gen_h scores links recorded through record_sing/record_dual only."""
        state = leaf_state(dual={2: [(1, True, False)]})
        with pytest.raises(ValueError, match="linked variable 1 has no score"):
            gen_h(state, (), [2])

    def test_matches_brute_maximum_over_expansions(self, monkeypatch):
        """Binding contract: gen_h equals the pairwise max over expand_state,
        taken over the pairs in which every `flips` variable reads different
        slots, and is negative when no such pair exists. The leaves come
        from branching alone: parts valued from their x-models have none."""
        monkeypatch.setattr(branching, "SMALL_PART_CAP", 0)
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
            max_hamming_q(f, leaf_hook=lambda s, forced, freed, t: leaves.append((s.copy(), forced, freed)))
            for state, forced, freed in leaves[:4]:
                try:
                    expansions = expand_state(state, forced, freed)
                except ValueError:
                    continue
                keys = sorted(universe(state, forced, freed))
                best = None if state.flips else 0
                for a, b in itertools.combinations(expansions, 2):
                    if all(slot_reading(state, a, v) != slot_reading(state, b, v) for v in state.flips):
                        distance = sum(1 for v in keys if a[v] != b[v])
                        best = distance if best is None else max(best, distance)
                if best is None:
                    assert gen_h(state, forced.items(), freed) < 0
                else:
                    assert gen_h(state, forced.items(), freed) == best
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


def one_variable_state(rng, pools=None):
    """A state in which variable 1 heads 1-4 pool members and 0-3 dual
    children (one of each kind per True and False in `pools`, when given),
    linked in a random order through `record_sing` and
    `record_dual`: a dual link recorded before 1's first pool membership
    follows its concrete value, a later one its slot. Every child is a
    flip pivot (its stay entries NEG) or not, and heads up to two links of
    its own, so the tables it hands up vary."""
    state, names, own = GeneralizedAssignment(), itertools.count(2), {}

    def signed(var):
        return var if rng.random() < 0.5 else -var

    def link(parent, child, pool):
        if pool:
            pol = own.setdefault(parent, rng.random() < 0.5)
            state.record_sing(parent if pol else -parent, signed(child))
        else:
            state.record_dual(signed(parent), signed(child))

    def subtree():
        var = next(names)
        for _ in range(rng.randint(0, 2)):
            leaf = next(names)
            if rng.random() < 0.15:
                state.flips.add(leaf)
            link(var, leaf, rng.random() < 0.5)
        if rng.random() < 0.15:
            state.flips.add(var)
        return var

    if pools is None:
        pools = [True] * rng.randint(1, 4) + [False] * rng.randint(0, 3)
    rng.shuffle(pools)
    for pool in pools:
        link(1, subtree(), pool)
    return state


class TestScoreTables:
    def test_closed_form_matches_a_full_reading_on_random_states(self):
        """`_table`'s closed form for a pool head equals the best over every
        choice of satisfactor read down the whole subtree. Counts check that
        the draws reach anchored and unanchored links, NEG entries below,
        and two members that tie as the best choice."""
        rng = random.Random(2200)
        seen = collections.Counter()
        for _ in range(3000):
            state = one_variable_state(rng)
            got, want = branching._table(state, 1), reference_table(state, 1)
            assert all(w is None and g < 0 or g == w for g, w in zip(got, want)), (state, got, want)
            members = state.sing[1]
            seen["anchored"] += any(anchor for _, _, anchor in state.dual.get(1, ()))
            seen["unanchored"] += any(not anchor for _, _, anchor in state.dual.get(1, ()))
            seen["neg"] += any(min(state.score[child]) < 0 for child in state.score)
            # A member's gain: its entry chosen in one model less its entry in neither.
            gains = sorted(state.score[m][2 * pol + (not pol)] - state.score[m][3 * (not pol)] for m, pol in members)
            seen["best ties"] += len(gains) > 1 and gains[-1] == gains[-2]
            seen["best alone"] += len(gains) > 1 and gains[-1] > gains[-2]
            seen["no pair"] += None in want
        assert min(seen.values()) > 200, seen

    def test_one_child_closed_forms_match_the_general_sum_and_a_full_reading(self):
        """`_table`'s closed forms for one dual child and no pool member, and
        for one pool member beside 0-3 dual children, equal the general sums
        and the best reading down the whole subtree. Counts check that each
        form is reached with a flipped and an unflipped child, slot- and
        value-anchored links, members of both polarities and flip pivots."""
        rng = random.Random(3100)
        seen = collections.Counter()
        for i in range(4000):
            state = one_variable_state(rng, [False] if i % 2 else [True] + [False] * rng.randint(0, 3))
            got = branching._table(state, 1)
            assert got == general_table(state, 1), state
            want = reference_table(state, 1)
            assert all(w is None and g < 0 or g == w for g, w in zip(got, want)), (state, got, want)
            duals, pivot = state.dual.get(1, []), any(min(state.score[child]) < 0 for child in state.score)
            if 1 not in state.sing:
                [(child, flip, _)] = duals
                seen["dual flipped" if flip else "dual unflipped"] += 1
                seen["dual over a flip pivot"] += pivot
                continue
            [(_, pol)] = state.sing[1]
            seen["member of its own sign" if pol else "member of the other sign"] += 1
            seen["member over a flip pivot"] += pivot
            seen["member with a slot-anchored link"] += any(anchor for _, _, anchor in duals)
            seen["member with a value-anchored link"] += any(not anchor for _, _, anchor in duals)
        assert len(seen) == 8 and min(seen.values()) > 200, seen

    def test_cached_tables_match_a_full_reading_at_every_leaf(self, monkeypatch):
        """Tables built at link time or on a read, and dropped when their
        variable gains a link, equal the whole subtree read from scratch.
        The leaves come from branching alone."""
        monkeypatch.setattr(branching, "SMALL_PART_CAP", 0)
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

        def check(state, forced, freed, trail):
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
        monkeypatch.setattr(branching, "SMALL_PART_CAP", 0)  # the branching path alone
        f = planted_formula(8, 4, 2, 0)
        trails = []
        max_hamming_q(f, leaf_hook=lambda s, forced, freed, t: trails.append(t))
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
        monkeypatch.setattr(branching, "SMALL_PART_CAP", 0)  # the branching path alone
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
        off and at its cap; at the cap, parts whose x-models it lists are
        not branched, so the joined instances give split parts too large
        for it, next to small ones, and a valued part is never bounded."""
        shapes = ((21, 3, 2), (24, 3, 2), (20, 4, 2), (24, 4, 2))
        instances = [planted_formula(n, k, d, seed) for n, k, d in shapes for seed in range(5)]
        instances += [random_formula(n, (n + 1) // 2, k, 7700 + n) for k in (3, 4, 5) for n in (24, 32, 40)]
        # Seeds 7 and 8 still split bounded parts now that flip children
        # keep only pairs in which the pivot flips.
        instances += [planted_formula(24, 3, 2, seed) for seed in range(5, 10)]
        # Planted (4,2) halves at n=36 split into parts past the evaluator's
        # cap, which the search bounds, next to parts it values: 6 such
        # bounded parts, in 6 nodes, at the default cap.
        instances.append(joined(planted_formula(36, 4, 2, 1), planted_formula(36, 4, 2, 11)))
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
        for cap in (0, branching.SMALL_PART_CAP):
            monkeypatch.setattr(branching, "SMALL_PART_CAP", cap)
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
            assert bounded_parts > 0, cap
            assert mixed > 0 or not cap, cap

    def test_a_must_flip_pivot_gets_its_flip_children_alone(self, monkeypatch):
        """A pivot that must flip makes no true or false child, only the k - 1
        flip children of its length-k clause, and each of those removes at
        least k - 1 variables: the pivot, and the k - 2 literals that its
        complementary pair forces false."""
        monkeypatch.setattr(branching, "SMALL_PART_CAP", 0)  # the branching path alone
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
        live = [pos for pos, clause in enumerate(engine.clauses) if clause is not None]
        return gen_h(state, engine.forced.items(), engine.freed) + sum(branching._bound(engine, part, state) for part in components(engine, live))

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
        monkeypatch.setattr(branching, "SMALL_PART_CAP", 0)  # the branching path alone
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
    """A connected part whose x-model listing finishes within
    `SMALL_PART_CAP` states is valued from its x-models by `_evaluate`
    instead of branched."""

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
        caps the search branches above small parts, so parts under flip
        steps, with must-flip variables, are valued too."""
        real = branching._evaluate
        seen = collections.Counter()

        def evaluate(engine, positions, state):
            value = real(engine, positions, state)
            if value is None:
                return None
            with monkeypatch.context() as plain:
                plain.setattr(branching, "SMALL_PART_CAP", 0)
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
        for cap in (16, 64, branching.SMALL_PART_CAP):
            monkeypatch.setattr(branching, "SMALL_PART_CAP", cap)
            for f in self.instances():
                max_hamming_q(f)
        assert seen["valued"] > 400 and seen["must flip"] > 150, seen
        assert seen["no x-model"] > 25 and seen["no pair"] > 35, seen

    @staticmethod
    def depth_first_states(engine, positions, limit):
        """The states a depth-first search of the part's picks visits, its
        models included, or None past `limit`. This is the listing
        `_evaluate` used before it went one clause depth at a time, with the
        same fewest-new-variables clause order, and the reference for the
        count its cap applies to."""
        bits, options = {}, []
        for pos in positions:
            span = negative = 0
            lit_bits = []
            for lit in engine.clauses[pos]:
                bit = bits.setdefault(abs(lit), 1 << len(bits))
                lit_bits.append(bit)
                span |= bit
                if lit < 0:
                    negative |= bit
            options.append((span, [negative ^ bit for bit in lit_bits]))
        order, fixed = [], 0
        while options:
            first, fewest = 0, len(bits) + 1
            for i, (span, _) in enumerate(options):
                new = (span & ~fixed).bit_count()
                if new < fewest:
                    first, fewest = i, new
            order.append(options.pop(first))
            fixed |= order[-1][0]
        states = 0
        stack = [(0, 0, 0)]
        while stack:
            i, fixed, ones = stack.pop()
            states += 1
            if states > limit:
                return None
            if i == len(order):
                continue
            span, picks = order[i]
            seen = span & fixed
            for pick in picks:
                if not (pick ^ ones) & seen:
                    stack.append((i + 1, fixed | span, ones | pick))
        return states

    def test_the_cap_bounds_the_states_of_a_depth_first_search(self, monkeypatch):
        """At every part the search hands the evaluator, under caps that make
        it branch above parts with pools, dual links and must-flip pivots,
        `_evaluate` values the part with `SMALL_PART_CAP` equal to the
        depth-first search's state count and gives it up one state below:
        the per-depth listing gives up on exactly the parts that search
        gave up on, so node counts cannot move. A part of at least
        `SMALL_PART_CAP` clauses is given up at any count."""
        real, limit = branching._evaluate, branching.SMALL_PART_CAP
        seen = collections.Counter()

        def evaluate(engine, positions, state):
            value = real(engine, positions, state)
            count = self.depth_first_states(engine, positions, limit)
            if count is None:
                assert value is None
                return value
            with monkeypatch.context() as capped:
                capped.setattr(branching, "SMALL_PART_CAP", limit)
                full = real(engine, positions, state)
                for cap in (count - 1, count):
                    capped.setattr(branching, "SMALL_PART_CAP", cap)
                    got = real(engine, positions, state)
                    if len(positions) >= cap or count > cap:
                        assert got is None
                    else:
                        assert got is not None and got == full
                        seen["valued at its count"] += 1
            live = {abs(lit) for pos in positions for lit in engine.clauses[pos]}
            seen["pool"] += any(var in state.sing for var in live)
            seen["dual link"] += any(var in state.dual for var in live)
            seen["must flip"] += branching._pick_branch(engine, positions, state)[1] is not None
            return value

        monkeypatch.setattr(branching, "_evaluate", evaluate)
        for cap in (16, 64, branching.SMALL_PART_CAP):
            monkeypatch.setattr(branching, "SMALL_PART_CAP", cap)
            for f in self.instances():
                max_hamming_q(f)
        assert seen["valued at its count"] > 1000, seen
        assert seen["pool"] > 20 and seen["dual link"] > 400 and seen["must flip"] > 300, seen

    def test_a_link_free_part_scores_as_the_tables_do(self, monkeypatch):
        """At every part with no variable in `state.sing` or `state.dual`,
        `_evaluate`'s popcount score equals its table scorer's. An empty
        link list on one of the part's variables sends the part down the
        table path while that variable's table still reads (0, 1, 1, 0).
        Some of these parts sit at nodes whose state links other
        variables."""
        real = branching._evaluate
        seen = collections.Counter()

        def evaluate(engine, positions, state):
            value = real(engine, positions, state)
            live = {abs(lit) for pos in positions for lit in engine.clauses[pos]}
            linked = live & (state.sing.keys() | state.dual.keys())
            if value is None or value is BOTTOM or linked:
                return value
            by_table = state.copy()
            by_table.dual[min(live)] = []
            assert by_table.table(min(live)) == (0, 1, 1, 0)
            assert real(engine, positions, by_table) == value
            seen["link-free"] += 1
            seen["links elsewhere"] += bool(state.sing or state.dual)
            return value

        monkeypatch.setattr(branching, "_evaluate", evaluate)
        for cap in (16, 64, branching.SMALL_PART_CAP):
            monkeypatch.setattr(branching, "SMALL_PART_CAP", cap)
            for f in self.instances():
                max_hamming_q(f)
        assert seen["link-free"] > 150 and seen["links elsewhere"] > 40, seen

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
            gave_up += value is None
            return value

        monkeypatch.setattr(branching, "_evaluate", evaluate)
        assert [max_hamming_q(f).distance for f in instances] == want
        assert gave_up > 20

    def test_a_part_of_cap_clauses_is_given_up_before_any_set_up(self, monkeypatch):
        """A model of d clauses takes d + 1 states to reach, so a part of at
        least `SMALL_PART_CAP` clauses returns None before it reads a clause
        or a table. One clause under the cap the set-up runs."""
        engine, state = Propagator(planted_formula(1500, 3, 2, 0)), GeneralizedAssignment()
        assert branching._simplify(engine, state)
        live = [pos for pos, clause in enumerate(engine.clauses) if clause is not None]
        part = max(components(engine, live), key=len)
        assert len(part) >= branching.SMALL_PART_CAP
        calls = collections.Counter()

        class Clauses(list):
            def __getitem__(self, pos):
                calls["clause"] += 1
                return super().__getitem__(pos)

        real_table = state.table

        def table(var):
            calls["table"] += 1
            return real_table(var)

        monkeypatch.setattr(engine, "clauses", Clauses(engine.clauses))
        monkeypatch.setattr(state, "table", table)
        assert branching._evaluate(engine, part, state) is None
        assert calls == {}
        monkeypatch.setattr(branching, "SMALL_PART_CAP", len(part) + 1)
        branching._evaluate(engine, part, state)
        assert calls["clause"] == len(part)

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
            max_hamming_q(f, leaf_hook=lambda s, forced, freed, t: leaves.append((s.copy(), forced, freed)))
            for state, forced, freed in leaves:
                validate(state, forced, freed)

    def test_simplification_only_instances_expand_to_all_models(self):
        """When no branching happens, the single leaf represents Var(F) exactly."""
        f = formula((1, 2, 3, 4))
        leaves = []
        max_hamming_q(f, leaf_hook=lambda s, forced, freed, t: leaves.append((s.copy(), forced, freed, t)))
        assert len(leaves) == 1 and leaves[0][3] == ()
        got = {tuple(sorted(m.items())) for m in expand_state(*leaves[0][:3])}
        want = {tuple(sorted(m.items())) for m in enumerate_xmodels(f)}
        assert got == want
