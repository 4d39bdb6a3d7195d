import itertools
import math
import random

import pytest

from xham import Formula, enumerate_xmodels, random_formula
from xham.propagation import Propagator


def clause_count(n: int, length: int) -> int:
    """Clause count putting random instances near the sat/unsat boundary.

    The expected x-model count of a random instance is
    2^n * (length / 2^length)^m; solving for one expected model gives
    m = n * ln 2 / ln(2^length / length).
    """
    return max(1, round(n * math.log(2) / math.log((2 ** length) / length)))


def mixed_instances(length: int, count: int, seed_base: int, n_low: int = 4, n_high: int = 12):
    """Deterministic stream of (formula, seed) pairs for one clause length."""
    lo = max(n_low, length)
    out = []
    for i in range(count):
        n = lo + (i % (n_high - lo + 1))
        m = clause_count(n, length)
        seed = seed_base + i
        out.append(random_formula(n, m, length, seed))
    return out


def repeated_variable_corpus(count: int, seed_base: int) -> list[Formula]:
    """Deterministic small formulas (n <= 8) in which some clause repeats a variable.

    Each instance holds a few clauses of distinct variables plus one
    clause with a repeat, taking turns between a duplicate literal, a
    complementary pair and a literal written three times; every third
    instance also gets a unit clause.
    """
    out = []
    for i in range(count):
        rng = random.Random(seed_base + i)
        n = rng.randint(3, 8)

        def signed(v):
            return v if rng.random() < 0.5 else -v

        clauses = [
            tuple(signed(v) for v in rng.sample(range(1, n + 1), rng.randint(2, min(4, n))))
            for _ in range(rng.randint(1, max(1, n // 2)))
        ]
        a = signed(rng.randint(1, n))
        rest = [signed(v) for v in rng.sample(range(1, n + 1), rng.randint(0, 2))]
        repeat = [(a, a), (a, -a), (a, a, a)][i % 3]
        spot = rng.randint(0, len(clauses))
        clauses.insert(spot, tuple(rng.sample(repeat + tuple(rest), len(repeat) + len(rest))))
        if i % 3 == 2:
            clauses.append((signed(rng.randint(1, n)),))
        out.append(Formula(n, tuple(clauses)))
    return out


def chain(n, length, seed):
    """(1 .. length), (length .. 2 length - 1), ... with random polarities."""
    rng = random.Random(seed)
    clauses = [range(start, start + length) for start in range(1, n, length - 1)]
    return Formula(n, tuple(tuple(v if rng.random() < 0.5 else -v for v in c) for c in clauses))


def count_builds(monkeypatch) -> dict[str, int]:
    """Count `Propagator` and `Formula` builds into the returned dict.

    Every `Formula` passes `__post_init__`, so the count covers them all.
    """
    built = {"engines": 0, "formulas": 0}
    engine_init, formula_init = Propagator.__init__, Formula.__post_init__

    def counting_engine(self, f):
        built["engines"] += 1
        engine_init(self, f)

    def counting_formula(self):
        built["formulas"] += 1
        formula_init(self)

    monkeypatch.setattr(Propagator, "__init__", counting_engine)
    monkeypatch.setattr(Formula, "__post_init__", counting_formula)
    return built


def formula(*clauses, n=None) -> Formula:
    return Formula.from_clauses(clauses, num_vars=n)


@pytest.fixture
def tiny():
    """(a or b or c), (a or b or d): three models, max distance 3."""
    return formula((1, 2, 3), (1, 2, 4))


def propagated(f: Formula, force=None, substitute=None) -> Propagator:
    """A fresh engine on f after at most one step and its propagation.

    force is a (var, value) pair. substitute is an (a, b) pair that
    rewrites literal a as the complement of literal b, q's dual step.
    """
    engine = Propagator(f)
    if force is not None:
        engine.force(*force)
    if substitute is not None:
        engine.substitute(*substitute)
    engine.propagate()
    return engine


def live_clauses(engine) -> tuple:
    """The engine's live clauses in position order."""
    return tuple(clause for clause in engine.clauses if clause is not None)


def extend_model(engine, model, substitute=None):
    """Extend a model of the engine's live clauses over the variables it removed.

    Forced variables take their forced values, and freed ones True unless
    the model already chose them. After a substitution (a, b), literal a
    takes the complement of b's truth value.
    """
    full = dict(model)
    full.update(engine.forced)
    for var in engine.freed:
        full.setdefault(var, True)
    if substitute is not None:
        a, b = substitute
        a_true = full[abs(b)] != (b > 0)
        full[abs(a)] = a_true == (a > 0)
    return full


def expanded_models(f, engine, substitute=None):
    """All assignments over Var(f) that a propagated engine on f represents."""
    if engine.unsat:
        return []
    out = []
    for model in enumerate_xmodels(Formula(f.num_vars, live_clauses(engine))):
        for picks in itertools.product((False, True), repeat=len(engine.freed)):
            chosen = dict(model)
            chosen.update(zip(engine.freed, picks))
            full = extend_model(engine, chosen, substitute)
            out.append({v: full[v] for v in f.variables()})
    return out


def assert_model_preservation(f, force=None, substitute=None):
    """One step on a fresh engine keeps exactly the x-models of f it allows.

    With no step that is every x-model; a force (var, value) allows those
    in which var takes value, a substitution (a, b) those in which
    literals a and b take opposite truth values. The propagated engine
    must represent each allowed model once and no other.
    """

    def allowed(m):
        if force is not None:
            return m[force[0]] == force[1]
        if substitute is not None:
            a, b = substitute
            return (m[abs(a)] == (a > 0)) != (m[abs(b)] == (b > 0))
        return True

    want = [{v: m[v] for v in f.variables()} for m in enumerate_xmodels(f) if allowed(m)]
    got = expanded_models(f, propagated(f, force, substitute), substitute)
    as_set = lambda ms: {tuple(sorted(m.items())) for m in ms}
    assert as_set(got) == as_set(want)
    assert len(got) == len(want)  # no double-represented model
