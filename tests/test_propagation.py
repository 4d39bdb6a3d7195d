import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xham import (
    Formula,
    GeneralizedAssignment,
    assign,
    branching,
    enumerate_xmodels,
    max_hamming_brute,
    max_hamming_p,
    max_hamming_q,
    planted_formula,
    propagation,
    random_formula,
)
from xham.propagation import Propagator

from conftest import (
    assert_model_preservation,
    chain,
    clause_count,
    engine_build,
    engine_state,
    extend_model,
    formula,
    live_clauses,
    propagated,
    reference_engine_build,
    repeated_variable_corpus,
    universe,
)


class TestNormalize:
    """Propagation with no step: the rules alone on a fresh engine."""

    def test_complementary_pair_satisfies_clause(self):
        # (a or not-a or b): the pair is the satisfactor, b false, a free
        engine = propagated(formula((1, -1, 2)))
        assert not engine.unsat
        assert live_clauses(engine) == ()
        assert engine.forced == {2: False}
        assert engine.freed == [1]

    def test_duplicate_literal_forced_false(self):
        engine = propagated(formula((1, 1, 2)))
        assert engine.forced == {1: False, 2: True}
        assert live_clauses(engine) == ()

    def test_empty_clause_unsat(self):
        assert propagated(formula((), n=0)).unsat

    def test_unit_shrinks_sibling_clause(self):
        engine = propagated(formula((1,), (-1, 2, 3)))
        assert not engine.unsat
        assert engine.forced == {1: True}
        assert live_clauses(engine) == ((2, 3),)

    def test_two_true_literals_unsat(self):
        assert propagated(formula((1,), (-2,), (1, -2, 3))).unsat

    def test_idempotent(self):
        engine = propagated(formula((1, -1, 2), (3, 4, 4), (4, 5, 6)))
        assert live_clauses(engine) == ((5, 6),)
        again = propagated(Formula(6, live_clauses(engine)))
        assert live_clauses(again) == live_clauses(engine)
        assert not again.forced and not again.freed


class TestAssign:
    """A force, then propagation, on a fresh engine."""

    def test_true_literal_forces_siblings_false(self):
        engine = propagated(formula((1, 2, 3)), force=(1, True))
        assert live_clauses(engine) == ()
        assert engine.forced == {1: True, 2: False, 3: False}

    def test_chain_through_shrunk_unit(self):
        engine = propagated(formula((1, 2), (-1, 3)), force=(1, True))
        assert engine.forced == {1: True, 2: False, 3: True}
        assert live_clauses(engine) == ()

    def test_worked_chain(self):
        # x=(a b c), y=(b f g h), z=(-c d e): a true falsifies b and c,
        # y loses b, z is satisfied by -c so d and e go false
        f = formula((1, 2, 3), (2, 4, 5, 6), (-3, 7, 8))
        engine = propagated(f, force=(1, True))
        assert engine.forced == {1: True, 2: False, 3: False, 7: False, 8: False}
        assert live_clauses(engine) == ((4, 5, 6),)

    def test_requires_occurrence(self):
        with pytest.raises(ValueError):
            assign(formula((1, 2)), 3, True)

    def test_assign_returns_the_propagated_engine(self):
        f = formula((1, 2, 3), (2, 4, 5, 6), (-3, 7, 8))
        engine, want = assign(f, 1, True), propagated(f, force=(1, True))
        assert isinstance(engine, Propagator) and not engine.queue
        assert (engine.clauses, engine.forced, engine.freed) == (want.clauses, want.forced, want.freed)
        assert assign(formula((1,), (2, 3)), 1, False).unsat

    def test_preserves_models(self):
        assert_model_preservation(formula((1, 2, 3), (2, 4, 5, 6), (-3, 7, 8)), force=(1, True))


class TestSubstituteDual:
    """A rewrite of one literal as another's complement, then propagation."""

    def test_pair_clause_vanishes(self):
        engine = propagated(formula((1, 2)), substitute=(1, 2))
        assert live_clauses(engine) == ()
        assert engine.freed == [2]

    def test_mechanical_rewrite(self):
        engine = propagated(formula((1, 2), (1, 3, 4)), substitute=(1, 2))
        assert live_clauses(engine) == ((-2, 3, 4),)
        assert engine.degree[1] == 0

    def test_rewrite_with_cascade(self):
        # (a b), (-a b c): the unique x-model is a=T, b=F, c=T
        f = formula((1, 2), (-1, 2, 3))
        models = enumerate_xmodels(f)
        assert models == [{1: True, 2: False, 3: True}]
        engine = propagated(f, substitute=(1, 2))
        assert not engine.unsat
        assert engine.forced == {2: False, 3: True}
        assert live_clauses(engine) == ()
        assert extend_model(engine, {}, substitute=(1, 2)) == {1: True, 2: False, 3: True}

    def test_preserves_opposite_value_models(self):
        assert_model_preservation(formula((1, 2, 3), (1, 2, 4)), substitute=(1, 2))


def substitute_by_settling(engine, a, b):
    """`substitute` without its in-place drop: every rewritten clause, a
    complementary pair included, is queued for `propagate` to settle.
    Before an engine's first mark, so nothing is logged."""
    source, target = abs(a), abs(b)
    for pos in engine.occ[source]:
        clause = engine.clauses[pos]
        if clause is None:
            continue
        rewritten = tuple(-b if lit == a else (b if lit == -a else lit) for lit in clause)
        if rewritten != clause:
            engine.clauses[pos] = rewritten
            engine.occ[target].append(pos)
            engine._enqueue(pos)
    engine.degree[target] += engine.degree[source]
    engine.degree[source] = 0


# The clauses around the binary one: none, one that leaves 2 a singleton
# once the pair drops, and a pair that keeps both variables in the formula.
CONTEXTS = [(), ((2, 3, 4),), ((1, 3, 4), (-2, 5, 6))]
CONTEXT_IDS = ["lone", "leaves-2-single", "keeps-both"]


class TestSubstituteDropsComplementaryBinaries:
    """A dual substitution drops the binary clause it turns into a
    complementary pair itself, with the outcome a settle of it would give."""

    @pytest.mark.parametrize("context", CONTEXTS, ids=CONTEXT_IDS)
    @pytest.mark.parametrize("copies", [1, 2, 3])
    @pytest.mark.parametrize("pair", [(1, 2), (2, 1), (-1, -2), (-2, -1)], ids=str)
    @pytest.mark.parametrize("step", [(1, 2), (2, 1)], ids=str)
    def test_matches_a_settle_of_the_rewrite(self, context, copies, pair, step):
        f = formula(*context, *[pair] * copies, n=6)
        dropped = [pos for pos, clause in enumerate(f.clauses) if clause == pair]
        engine, settled = Propagator(f), Propagator(f)
        for e in (engine, settled):
            assert e.propagate()
            e.changed.clear()
        engine.substitute(*step)
        assert all(engine.clauses[pos] is None for pos in dropped) and not engine.queued[dropped[0]]
        substitute_by_settling(settled, *step)
        assert engine.propagate() and settled.propagate()
        assert engine.clauses == settled.clauses and engine.degree == settled.degree
        assert engine.forced == settled.forced and engine.freed == settled.freed
        assert sorted(engine.singles) == sorted(settled.singles)

    @pytest.mark.parametrize("context", CONTEXTS, ids=CONTEXT_IDS)
    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_undo_restores_the_dropped_copies(self, context, copies):
        engine = Propagator(formula(*context, *[(-2, -1)] * copies, n=6))
        assert engine.propagate()
        before, mark = engine_state(engine), engine.mark()
        engine.substitute(1, 2)
        assert engine.propagate()
        assert len(engine._writes) >= copies
        engine.undo_to(mark)
        assert engine_state(engine) == before

    def test_q_p_and_brute_agree_where_one_substitution_drops_two_copies(self):
        """q's simplification rewrites (-4 -1) as (-2 -1) next to (-1 -2), and
        eliminating (-2 -1) drops both in one substitution."""
        f = formula((-3, -4), (-4, 2), (-4, -1), (-1, -2))
        assert max_hamming_q(f).distance == max_hamming_p(f).distance == max_hamming_brute(f).distance == 4


class TestModelPreservationSuite:
    def test_random_instances(self):
        checked = 0
        for length in (2, 3, 4):
            for i in range(40):
                n = 4 + (i % 5)
                f = random_formula(n, clause_count(n, length), length, seed=900 + 13 * i + length)
                variables = f.variables()
                assert_model_preservation(f)
                for var in variables[:3]:
                    for value in (False, True):
                        assert_model_preservation(f, force=(var, value))
                if len(variables) >= 2:
                    assert_model_preservation(f, substitute=(variables[0], -variables[1]))
                checked += 1
        assert checked == 120


@st.composite
def repeated_variable_formulas(draw):
    """Small formulas whose clauses repeat variables in every way the rules know.

    Groups are: a free-form clause (repeats by chance), a duplicate
    literal, a complementary pair, two pairs in one clause, and a pair
    next to a literal that a unit clause makes true.
    """
    n = draw(st.integers(2, 6))
    lit = st.builds(lambda v, positive: v if positive else -v, st.integers(1, n), st.booleans())
    rest = st.lists(lit, max_size=2)
    group = st.one_of(
        st.lists(lit, min_size=1, max_size=4).map(lambda c: [tuple(c)]),
        st.builds(lambda a, r: [(a, a, *r)], lit, rest),
        st.builds(lambda a, r: [(a, -a, *r)], lit, rest),
        st.builds(lambda a, b: [(a, -a, b, -b)], lit, lit),
        st.builds(lambda a, b: [(a, -a, b), (b,)], lit, lit),
    )
    groups = draw(st.lists(group, min_size=1, max_size=4))
    return Formula(n, tuple(c for g in groups for c in g))


@settings(max_examples=250, deadline=None)
@given(repeated_variable_formulas(), st.data())
def test_rules_preserve_models_when_clauses_repeat_variables(f, data):
    assert_model_preservation(f)
    for var in f.variables():
        for value in (False, True):
            assert_model_preservation(f, force=(var, value))
    variables = f.variables()
    if len(variables) >= 2:
        x, y = data.draw(st.lists(st.sampled_from(variables), min_size=2, max_size=2, unique=True))
        a = x if data.draw(st.booleans()) else -x
        b = y if data.draw(st.booleans()) else -y
        assert_model_preservation(f, substitute=(a, b))


def test_fixpoint_clauses_hold_distinct_variables():
    """The subset scan relies on this: it tests subsets by bitmask alone."""
    for f in repeated_variable_corpus(300, 9100):
        engine = propagated(f)
        for clause in () if engine.unsat else live_clauses(engine):
            assert len({abs(lit) for lit in clause}) == len(clause)


ENGINE_BUILD_CORPUS = (
    [random_formula(n, clause_count(n, k), k, 9300 + 10 * n + k) for k in (2, 3, 4, 5) for n in range(5, 30, 6)]
    + [planted_formula(n, k, 2, seed) for n, k in ((15, 3), (21, 3), (16, 4)) for seed in range(3)]
    + [chain(n, k, seed) for k, n in ((2, 40), (3, 41), (4, 40)) for seed in range(2)]
    + repeated_variable_corpus(150, 9400)
    + [
        formula((1, 2, 3), (), (-2, 4)),
        formula((1,), (-1, 2, 3), (3,), (2, 4)),
        formula((4, 4, 5), (1, 2), (6, -6, 7), (3, 5)),
        formula((8, 9, 8, 10, -8), (9, 10)),
        formula((5, 4, 4), (4, -1)),
        formula(n=3),
    ]
)


def test_a_new_engine_matches_the_field_by_field_build():
    """One pass over the literals builds what a pass per field does:
    clauses, occurrence lists and degrees in the same order, the queue
    (clauses shorter than two literals or repeating a variable, wherever
    the repeat sits) with its flags, and the `changed` and `singles` logs."""
    for f in ENGINE_BUILD_CORPUS:
        assert engine_build(Propagator(f)) == reference_engine_build(f), f
    assert sum(any(len({*map(abs, c)}) < len(c) for c in f.clauses) for f in ENGINE_BUILD_CORPUS) > 150


def idle_propagate(engine):
    """Propagate an engine with nothing queued and check that it writes
    nothing: no clause, degree, force, occurrence, log or trail entry."""
    before = engine_state(engine), engine_build(engine), len(engine._writes), len(engine._occs)
    assert not engine.queue
    assert engine.propagate() == (not engine.unsat)
    assert (engine_state(engine), engine_build(engine), len(engine._writes), len(engine._occs)) == before


def test_an_idle_propagate_returns_without_a_write(monkeypatch):
    """With nothing queued and nothing vanished, `propagate` settles no
    clause and returns `not unsat`: on a new engine at its fixpoint, after
    `undo_to`, and on an engine a conflicting force made unsat."""

    def settle(*args):
        raise AssertionError("an idle propagate settled a clause")

    conflicts = 0
    for f in ENGINE_BUILD_CORPUS[:40]:
        engine = Propagator(f)
        if engine.queue:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(propagation, "_settle_clause", settle)
            idle_propagate(engine)
        mark = engine.mark()
        var = f.variables()[0]
        engine.force(var, True)
        if engine.propagate():
            engine.force(var, False)
            assert engine.unsat and not engine.queue
            conflicts += 1
            with monkeypatch.context() as patch:
                patch.setattr(propagation, "_settle_clause", settle)
                idle_propagate(engine)
        engine.undo_to(mark)
        with monkeypatch.context() as patch:
            patch.setattr(propagation, "_settle_clause", settle)
            idle_propagate(engine)
    assert conflicts > 20, conflicts


def settled_clauses_on_chain(monkeypatch, n, signed=True):
    """Clause settlements while simplification eats a binary chain of n
    variables, with random signs or all positive."""
    real = propagation._settle_clause
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return real(*args)

    monkeypatch.setattr(propagation, "_settle_clause", counting)
    rng = random.Random(n)
    chain = Formula(n, tuple((i, i + 1 if not signed or rng.random() < 0.5 else -(i + 1)) for i in range(1, n)))
    engine, state = Propagator(chain), GeneralizedAssignment()
    assert branching._simplify(engine, state)
    assert all(clause is None for clause in engine.clauses) and len(universe(state, engine.forced, engine.freed)) == n
    return count


def test_chain_simplification_settles_a_constant_number_of_clauses(monkeypatch):
    """A new engine queues no clause of two distinct variables, and a dual
    substitution queues no rewrite of one: the settles do not grow with
    the chain."""
    assert settled_clauses_on_chain(monkeypatch, 1000) == settled_clauses_on_chain(monkeypatch, 2000) == 1


def test_binary_chain_settles_one_clause(monkeypatch):
    """(1 2), (2 3), ...: a new engine settles none of them, every dual
    substitution drops the clause it rewrites in place and queues no other
    rewrite, and the last clause pools into a unit, the one clause settled."""
    assert settled_clauses_on_chain(monkeypatch, 1000, signed=False) == 1
    assert settled_clauses_on_chain(monkeypatch, 2000, signed=False) == 1


trail_formulas = st.one_of(
    repeated_variable_formulas(),
    st.sampled_from(repeated_variable_corpus(100, 9100)),
    st.builds(
        lambda n, length, seed: random_formula(n, clause_count(n, length), length, seed),
        st.integers(4, 10),
        st.integers(2, 4),
        st.integers(0, 10**6),
    ),
)


def draw_substitute(engine, data):
    """Rewrite a pivot against another literal of a live clause, then propagate."""
    clauses = [clause for clause in engine.clauses if clause and len(clause) >= 2]
    if not clauses:
        return
    clause = data.draw(st.sampled_from(clauses))
    pivot = data.draw(st.sampled_from(clause))
    lit = data.draw(st.sampled_from([lit for lit in clause if abs(lit) != abs(pivot)]))
    engine.substitute(pivot, lit)
    engine.propagate()


@settings(max_examples=300, deadline=None)
@given(trail_formulas, st.data())
def test_undo_restores_the_state_at_the_mark(f, data):
    """Nested marks, steps (forces, substitutions and `_simplify` passes,
    which pool with `remove_literal`) and undos: each undo gives back the
    state at its mark, and the restored engine then answers a force
    exactly as a fresh engine does."""
    engine = Propagator(f)
    if not engine.propagate():
        return
    variables = f.variables()
    marks = [(engine.mark(), engine_state(engine))]
    for _ in range(data.draw(st.integers(1, 16))):
        action = data.draw(st.sampled_from(("mark", "force", "substitute", "simplify", "undo")))
        if action == "undo":
            depth = data.draw(st.integers(0, len(marks) - 1))
            mark, state = marks[depth]
            del marks[depth + 1 :]
            engine.undo_to(mark)
            assert engine_state(engine) == state
            assert not engine.queue and not any(engine.queued)
            assert not engine.changed and not engine.singles
        elif engine.unsat:
            continue
        elif action == "mark":
            marks.append((engine.mark(), engine_state(engine)))
        elif action == "force":
            engine.force(data.draw(st.sampled_from(variables)), data.draw(st.booleans()))
            engine.propagate()
        elif action == "substitute":
            draw_substitute(engine, data)
        else:
            branching._simplify(engine, GeneralizedAssignment())
    engine.undo_to(marks[0][0])
    assert engine_state(engine) == marks[0][1]

    live = sorted(var for var, count in engine.degree.items() if count)
    if not live:
        return
    var, value = data.draw(st.sampled_from(live)), data.draw(st.booleans())
    engine.force(var, value)
    engine.propagate()
    want = propagated(f, force=(var, value))
    assert engine.unsat == want.unsat
    if not want.unsat:
        assert live_clauses(engine) == live_clauses(want)
        assert engine.forced == want.forced
        assert sorted(engine.freed) == sorted(want.freed)


def test_mark_needs_a_fixpoint():
    """A new engine queues its unit clause, so it is not at a fixpoint until
    it propagates; one whose clauses each hold two distinct variables is."""
    engine = Propagator(formula((1,), (1, 2, 3)))
    with pytest.raises(ValueError, match="fixpoint"):
        engine.mark()
    assert engine.propagate() and engine.mark() == (0, 0, 3, 0, False)
    clean = Propagator(formula((1, 2, 3), (-3, 4)))
    assert not clean.queue and clean.mark() == (0, 0, 0, 0, False)


def test_the_trail_starts_at_the_first_mark():
    """Nothing undoes past an engine's first mark, so the writes before it,
    the root's propagation and simplification, are not logged; the steps
    after it are, and an undo to the mark gives that fixpoint back."""
    core = planted_formula(15, 3, 2, 0)
    # The binary clause makes the root's simplification rewrite clauses.
    engine = Propagator(Formula(16, core.clauses + ((1, 16),)))
    assert engine.propagate() and branching._simplify(engine, GeneralizedAssignment())
    assert engine.clauses[-1] is None
    assert len(engine._writes) == len(engine._occs) == 0
    node = engine_state(engine)
    mark = engine.mark()
    assert mark[:2] == (0, 0)
    var = min(var for var, count in engine.degree.items() if count)
    engine.force(var, True)
    engine.propagate()
    assert engine._writes
    engine.undo_to(mark)
    assert engine_state(engine) == node


def step_outcome(engine, positions, state, step):
    """One q child's step and simplification on an engine: the live clauses
    at positions, what the step forced and freed, and the child's state."""
    state, forced, freed_at = state.copy(), set(engine.forced), len(engine.freed)
    if step[0] == "dual":
        engine.substitute(step[1], step[2])
        state.record_dual(step[2], step[1])
    else:
        engine.force(abs(step[1]), (step[1] > 0) == (step[0] == "true"))
    if not (engine.propagate() and branching._simplify(engine, state)):
        return "unsat"
    forced = {var: value for var, value in engine.forced.items() if var not in forced}
    freed = engine.freed[freed_at:]
    return [engine.clauses[pos] for pos in positions if engine.clauses[pos] is not None], forced, freed, state


def test_steps_under_a_mark_match_a_fresh_engine_on_q_fixpoints(monkeypatch):
    """At every q node that branches, each true, false and dual step on a
    pivot of its longest clause, applied under a mark on the search's one
    engine, simplifies exactly as on a fresh engine built from the node's
    formula, does less work doing it (settles, against settles plus the
    literals a constructor indexes), and `undo_to` gives the node
    back. The nodes are those of the branching path alone."""
    monkeypatch.setattr(branching, "SMALL_PART_CAP", 0)
    instances = [planted_formula(n, 3, 2, seed) for n in (15, 18, 21) for seed in range(4)]
    instances += [planted_formula(n, 4, 2, seed) for n in (16, 20) for seed in range(4)]
    instances += [random_formula(n, clause_count(n, k), k, 8800 + n) for k in (3, 4, 5) for n in range(10, 16)]
    instances += [chain(n, k, seed) for k, n in ((3, 21), (4, 22), (5, 25)) for seed in range(3)]

    real = propagation._settle_clause
    settles = {"shared": 0, "fresh": 0, None: 0}
    engine_kind = None  # the search's own settles count under None
    indexed = 0  # literals the fresh engines' constructors put in their occurrence lists

    def counting(*args):
        settles[engine_kind] += 1
        return real(*args)

    nodes = steps = 0

    def check_node(engine, positions, state):
        nonlocal engine_kind, nodes, steps, indexed
        nodes += 1
        node = engine_state(engine)
        f = Formula.from_clauses(engine.clauses[pos] for pos in positions)
        clause = max(f.clauses, key=len)
        for pivot in clause:
            kinds = [("true", pivot), ("false", pivot)] + [("dual", pivot, lit) for lit in clause if lit != pivot]
            for step in kinds:
                engine_kind = "shared"
                mark = engine.mark()
                got = step_outcome(engine, positions, state, step)
                engine.undo_to(mark)
                assert engine_state(engine) == node
                engine_kind = "fresh"
                fresh = Propagator(f)
                indexed += sum(map(len, f.clauses))
                want = step_outcome(fresh, range(len(f.clauses)), state, step)
                assert got == want, (f, step)
                steps += 1
        engine_kind = None

    branch = branching._branch

    def recording(engine, positions, state, clause, prefix, *rest):
        if not prefix:
            check_node(engine, positions, state)
        return branch(engine, positions, state, clause, prefix, *rest)

    monkeypatch.setattr(branching, "_branch", recording)
    monkeypatch.setattr(propagation, "_settle_clause", counting)
    for f in instances:
        max_hamming_q(f)
    assert nodes > 150 and steps > 2000
    # A new engine on a node's clauses, which hold two distinct variables
    # each, settles none of them, so the fresh side's work is its settles
    # plus the literals its constructor indexes.
    assert settles["shared"] < settles["fresh"] + indexed


def queueing_everything(f):
    """A new engine with every position queued, so `propagate` settles
    each clause once: the reference for queueing only clauses that can
    change."""
    engine = Propagator(f)
    for pos in range(len(f.clauses)):
        engine._enqueue(pos)
    return engine


def outcome(engine):
    """What a propagated engine holds: the forced map as a dict and the
    freed variables as a set, since the order of its forces may differ."""
    if engine.unsat:
        return "unsat"
    return list(engine.clauses), dict(engine.degree), dict(engine.forced), set(engine.freed)


RULE_CORPUS = (
    repeated_variable_corpus(300, 9300)
    + [random_formula(n, clause_count(n, k), k, 9500 + 10 * n + k) for k in (3, 4, 5) for n in range(6, 16)]
    + [planted_formula(n, k, 2, seed) for n, k in ((15, 3), (18, 3), (16, 4), (20, 4)) for seed in range(3)]
    + [chain(n, k, seed) for k, n in ((2, 30), (3, 31), (4, 31)) for seed in range(3)]
)


def test_a_new_engine_propagates_as_one_that_queues_every_clause():
    """Only a clause shorter than two literals or one that repeats a
    variable can change when a new engine settles it, so queueing just
    those reaches the same fixpoint; a clean formula starts at it."""
    queued_none = 0
    for f in RULE_CORPUS:
        engine, reference = Propagator(f), queueing_everything(f)
        queued_none += not engine.queue
        engine.propagate(), reference.propagate()
        assert outcome(engine) == outcome(reference), f
        assert engine.unsat == reference.unsat
    # Every corpus formula that repeats a variable queues, and no other does.
    assert queued_none == len(RULE_CORPUS) - 300


def rewritten_positions(engine, before):
    return [pos for pos, clause in enumerate(engine.clauses) if clause is not None and clause != before[pos]]


@pytest.mark.parametrize(
    "clauses, step",
    [
        (((1, 2, 3), (1, 4, 5), (-4, 6, 7)), (1, 4)),  # (-4 2 3) stays clean; (-4 -4 5) repeats 4
        (((1, 2, 3), (-1, 2, 4), (5, 2, 6)), (1, 2)),  # (-2 2 3): a complementary pair of three literals
        (((1, 2, 3, 4), (-1, 5, 6), (3, 7, 8)), (1, -3)),  # (3 2 3 4) repeats 3; (-3 5 6) stays clean
        (((1, 2, 3), (4, 5, 6), (1, 4, 7)), (4, 1)),  # (-1 5 6) stays clean; (1 -1 7) a pair
        (((1, 2, 3), (1, 4, 5), (6, 7, 8)), (1, 6)),  # (-6 2 3) and (-6 4 5): every rewrite clean
        (((1, 2, 3), (-1, -2, 4, 5), (2, 6, 7)), (1, 2)),  # (-2 2 3) and (2 -2 4 5): two pairs
    ],
)
def test_substitute_matches_a_reference_that_queues_every_rewrite(clauses, step):
    f = formula(*clauses)
    engine, reference = Propagator(f), Propagator(f)
    for e in (engine, reference):
        assert not e.queue and e.propagate()
    before = list(reference.clauses)
    engine.substitute(*step)
    reference.substitute(*step)
    for pos in rewritten_positions(reference, before):
        reference._enqueue(pos)
    for pos, clause in enumerate(engine.clauses):
        if clause is not None and not engine.queued[pos]:
            assert len({abs(lit) for lit in clause}) == len(clause) >= 2
    engine.propagate(), reference.propagate()
    assert outcome(engine) == outcome(reference)
    assert sorted(engine.changed) == sorted(reference.changed)


@pytest.mark.parametrize(
    "clauses, removals, left",
    [
        (((1, 2, 3), (3, 4, 5)), [(0, 1)], 2),
        (((1, 2), (2, 4, 5)), [(0, 1)], 1),
        (((1, 2), (-2, 4, 5)), [(0, 1)], 1),
        (((1, 2, 3), (3, 4, 5)), [(0, 1), (0, 2)], 1),
        (((1, 2), (3, 4, 5)), [(0, 1), (0, 2)], 0),
    ],
)
def test_remove_literal_matches_a_reference_that_queues_the_clause(clauses, removals, left):
    f = formula(*clauses)
    engine, reference = Propagator(f), Propagator(f)
    for e in (engine, reference):
        assert not e.queue and e.propagate()
    for pos, lit in removals:
        engine.remove_literal(pos, lit)
        reference.remove_literal(pos, lit)
        reference._enqueue(pos)
    assert len(engine.clauses[0]) == left
    assert bool(engine.queued[0]) == (left < 2)
    engine.propagate(), reference.propagate()
    assert outcome(engine) == outcome(reference)


@pytest.mark.parametrize(
    "clauses, sat, removed, survivor, left, freed",
    [
        (((1, 2), (2, 3, 4), (-2, 3, 4)), {}, 1, 2, 2, []),  # the survivor keeps two occurrences
        (((1, -2), (2, 3, 4), (-3, -4, 5), (-5, 3, 4)), {}, 1, -2, 1, []),  # it falls to degree one
        # Both sides head pools, so the clause cannot pool; the survivor vanishes and is freed.
        (((-1, 3), (4, 5, 6), (-4, -5, -6)), {1: False, 3: True}, -1, 3, 0, [3]),
    ],
)
def test_drop_binary_retires_a_degree_one_side_in_one_write(clauses, sat, removed, survivor, left, freed):
    """`_simplify` drops the binary clause at position 0, whose removed side
    has degree one: the removed variable's degree goes to 0 without
    freeing it, the survivor loses one occurrence with the bookkeeping of
    a settle, the removed side hangs below the survivor, and the write log
    holds the one clause; `undo_to` gives the engine at the mark back."""
    engine = Propagator(formula(*clauses))
    assert engine.propagate()
    before, mark = engine_state(engine), engine.mark()
    state = GeneralizedAssignment(sat=dict(sat))
    assert branching._simplify(engine, state)
    assert engine.clauses == [None, *clauses[1:]]
    assert engine.degree[abs(removed)] == 0 and engine.degree[abs(survivor)] == left
    assert engine._writes == [(0, clauses[0])] and engine._occs == []
    assert engine.freed == freed and not engine.forced
    assert not engine.singles and not engine.changed and not engine.queue
    flip, anchor = (removed > 0) == (survivor > 0), abs(survivor) in sat
    assert state.dual == {abs(survivor): [(abs(removed), flip, anchor)]}
    engine.undo_to(mark)
    assert engine_state(engine) == before


def test_drop_binary_below_q_root_undoes_to_every_mark():
    """Before the first mark `_simplify`'s drop logs nothing, as the root's
    simplification does; under a q child's mark, after a force left a
    binary clause with a degree-one side, the child's simplification drops
    it with one logged write, and undoing to the child's mark and then to
    the one above it gives each back."""
    f = formula((1, -6, -2, -4), (-4, -5, -6, -2), (1, -5, -2, -4), (3, 1, -5), (-3, 7))
    engine, state = Propagator(f), GeneralizedAssignment()
    assert branching._simplify(engine, state)
    assert engine.clauses[4] is None and len(engine._writes) == 0
    assert state.dual == {3: [(7, False, False)]} and engine.degree[3] == 1
    root, root_mark = engine_state(engine), engine.mark()
    engine.force(1, False)
    assert engine.propagate() and engine.clauses[3] == (3, -5) and engine.degree[5] == 3
    child, child_mark = engine_state(engine), engine.mark()
    assert branching._simplify(engine, state)
    assert engine._writes[child_mark[0] :] == [(3, (3, -5))]
    assert engine.degree[3] == 0 and engine.degree[5] == 2 and state.dual[5] == [(3, False, False)]
    engine.undo_to(child_mark)
    assert engine_state(engine) == child
    engine.undo_to(root_mark)
    assert engine_state(engine) == root


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RULE_CORPUS), st.data())
def test_substitute_after_a_fixpoint_matches_a_queueing_reference(f, data):
    """A drawn dual step on any fixpoint of the corpus: the engine queues a
    rewrite only when it repeats a variable and still reaches the fixpoint
    of one that queues every rewrite."""
    engine, reference = Propagator(f), Propagator(f)
    if not (engine.propagate() and reference.propagate()):
        return
    clauses = [clause for clause in engine.clauses if clause is not None]
    if not clauses:
        return
    clause = data.draw(st.sampled_from(clauses))
    pivot = data.draw(st.sampled_from(clause))
    lit = data.draw(st.sampled_from([lit for lit in clause if lit != pivot]))
    before = list(reference.clauses)
    engine.substitute(pivot, lit)
    reference.substitute(pivot, lit)
    for pos in rewritten_positions(reference, before):
        reference._enqueue(pos)
    engine.propagate(), reference.propagate()
    assert outcome(engine) == outcome(reference)
