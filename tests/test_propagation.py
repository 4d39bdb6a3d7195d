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
    extend_model,
    formula,
    live_clauses,
    propagated,
    repeated_variable_corpus,
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


def settled_clauses_on_chain(monkeypatch, n):
    """Clause settlements while simplification eats a binary chain of n variables."""
    real = propagation._settle_clause
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return real(*args)

    monkeypatch.setattr(propagation, "_settle_clause", counting)
    rng = random.Random(n)
    chain = Formula(n, tuple((i, i + 1 if rng.random() < 0.5 else -(i + 1)) for i in range(1, n)))
    engine, state = Propagator(chain), GeneralizedAssignment()
    assert branching._simplify(engine, state)
    state.absorb(engine.forced.items(), engine.freed)
    assert all(clause is None for clause in engine.clauses) and len(state.universe()) == n
    return count


def test_chain_simplification_settles_linearly_many_clauses(monkeypatch):
    small = settled_clauses_on_chain(monkeypatch, 1000)
    large = settled_clauses_on_chain(monkeypatch, 2000)
    assert small >= 999
    assert large <= 2.5 * small


def engine_state(engine):
    """Everything `undo_to` restores, copied."""
    occ = {var: list(positions) for var, positions in engine.occ.items()}
    return (
        list(engine.clauses), dict(engine.degree), dict(engine.forced), occ,
        list(engine.freed), engine.unsat,
    )


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
    engine = Propagator(formula((1, 2, 3)))
    with pytest.raises(ValueError, match="fixpoint"):
        engine.mark()


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
    state.absorb(forced.items(), freed)
    return [engine.clauses[pos] for pos in positions if engine.clauses[pos] is not None], forced, freed, state


def test_steps_under_a_mark_match_a_fresh_engine_on_q_fixpoints(monkeypatch):
    """At every q node that branches, each true, false and dual step on a
    pivot of its longest clause, applied under a mark on the search's one
    engine, simplifies exactly as on a fresh engine built from the node's
    formula, settles fewer clauses doing it, and `undo_to` gives the node
    back. The nodes are those of the branching path alone."""
    monkeypatch.setattr(branching, "SMALL_PART_VARS", 0)
    instances = [planted_formula(n, 3, 2, seed) for n in (15, 18, 21) for seed in range(4)]
    instances += [planted_formula(n, 4, 2, seed) for n in (16, 20) for seed in range(4)]
    instances += [random_formula(n, clause_count(n, k), k, 8800 + n) for k in (3, 4, 5) for n in range(10, 16)]
    instances += [chain(n, k, seed) for k, n in ((3, 21), (4, 22), (5, 25)) for seed in range(3)]

    real = propagation._settle_clause
    settles = {"shared": 0, "fresh": 0, None: 0}
    engine_kind = None  # the search's own settles count under None

    def counting(*args):
        settles[engine_kind] += 1
        return real(*args)

    nodes = steps = 0

    def check_node(engine, positions, state):
        nonlocal engine_kind, nodes, steps
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
    assert settles["shared"] < settles["fresh"]
