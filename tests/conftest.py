import heapq
import itertools
import math
import random

import pytest

from xham import BOTTOM, CapExceeded, Formula, GeneralizedAssignment, HammingResult, branching, random_formula, solver
from xham.formula import Assignment
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


def chain_distance(f: Formula) -> int | None:
    """Exact max Hamming distance of a chain such as `chain` builds, each
    clause's first variable the one before it's last, by one pass over
    the clauses; None when it has no x-model.

    The pass keeps, per pair of values the two models give the variable
    shared with the next clause, the best distance over the variables
    seen so far, that one included. A clause extends a pair by every two
    of its x-models (one literal true) that start with the pair's values,
    adding the differences on its other variables."""
    best = {(a, b): int(a != b) for a in (False, True) for b in (False, True)}
    for clause in f.clauses:
        rows = {False: [], True: []}
        for values in itertools.product((False, True), repeat=len(clause)):
            if sum(value == (lit > 0) for value, lit in zip(values, clause)) == 1:
                rows[values[0]].append(values)
        extended: dict[tuple[bool, bool], int] = {}
        for (a, b), score in best.items():
            for row_a in rows[a]:
                for row_b in rows[b]:
                    end = row_a[-1], row_b[-1]
                    total = score + sum(x != y for x, y in zip(row_a[1:], row_b[1:]))
                    if total > extended.get(end, -1):
                        extended[end] = total
        best = extended
    return max(best.values()) if best else None


def guarded_grid(f: Formula, guard: int, seed) -> Formula:
    """f plus seven clauses over a 3 x 4 grid of fresh variables, one per
    row and one per column, each also holding the literal guard; the grid
    literals' signs are random. With guard false the rows need 3 true
    grid literals and the columns 4, so guard is true in every x-model.
    No single probe shows it: guard false, or one grid literal true, makes
    no row or column unit. So p asks questions that assume guard false,
    and the solver refutes them."""
    rng = random.Random(seed)
    n = f.num_vars
    grid = [[rng.choice((1, -1)) * (n + 1 + 4 * row + column) for column in range(4)] for row in range(3)]
    lines = grid + [list(column) for column in zip(*grid)]
    return Formula(n + 12, f.clauses + tuple((guard, *line) for line in lines))


def allowed_subset_check(formula: Formula, subset) -> bool:
    """True iff every clause has 0 or 2 literals of variables in subset.

    The zero-or-two test on sets, for any formula: a variable written
    twice in a clause counts twice. It is the reference that p's bitmask
    listing and `count_allowed_subsets_brute` are held against.
    """
    chosen = set(subset)
    for clause in formula.clauses:
        count = sum(1 for lit in clause if abs(lit) in chosen)
        if count not in (0, 2):
            return False
    return True


def count_allowed_subsets_brute(formula: Formula, cap: int = 20) -> int:
    """Number of variable subsets touching every clause 0 or 2 times.

    Counts every S ⊆ Var(formula), the empty set included, such that each
    clause contains 0 or 2 literals of variables in S; a variable written
    twice in a clause counts twice. Each clause gets a table of the parts
    of its variable mask that pass, so one mask lookup per clause tests a
    subset. Past cap variables it raises `CapExceeded`.
    """
    variables = formula.variables()
    n = len(variables)
    if n > cap:
        raise CapExceeded(f"{n} variables exceed subset cap {cap}")
    position = {v: i for i, v in enumerate(variables)}
    tables = []
    for clause in formula.clauses:
        bits = [1 << position[abs(l)] for l in clause]
        mask = sum(set(bits))
        allowed = set()
        part = mask
        while True:
            if sum(1 for bit in bits if part & bit) in (0, 2):
                allowed.add(part)
            if not part:
                break
            part = (part - 1) & mask
        tables.append((mask, allowed))
    count = 0
    for subset in range(1 << n):
        for mask, allowed in tables:
            if (subset & mask) not in allowed:
                break
        else:
            count += 1
    return count


def unit_closure(clauses, literals) -> set[int] | None:
    """The literals unit propagation on exactly-one clauses makes true from
    literals, those included, or None on a conflict, by sweeps over every
    clause until one changes nothing: a clause with a true literal makes
    its others false, one with no true literal and one literal not false
    makes that one true, and one with two true literals or all false is a
    conflict. Clauses hold distinct variables."""
    true = set(literals)
    if any(-lit in true for lit in true):
        return None
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            held = [lit for lit in clause if lit in true]
            if len(held) > 1:
                return None
            if held:
                new = {-lit for lit in clause if lit != held[0]} - true
            else:
                open_ = [lit for lit in clause if -lit not in true]
                if not open_:
                    return None
                new = {open_[0]} if len(open_) == 1 else set()
            if new:
                true |= new
                changed = True
    return true


def probe_reference(clauses, model) -> set[int]:
    """The literals failed-literal probing asserts on clauses around
    model, an x-model of them given as model[var] -> bool, by sets: the
    reference `solver.probe` is held to.

    One pass over the clauses' variables, ascending: a variable no
    asserted literal settles, whose literal false in model no earlier
    consistent probe made true, has that literal closed under
    `unit_closure` with the asserted ones. A conflict asserts the
    complement's closure; otherwise the probe's new literals are skipped
    from then on. A single clause is not probed.
    """
    true: set[int] = set()
    if len(clauses) == 1:
        return true
    skip: set[int] = set()
    for var in sorted({abs(lit) for clause in clauses for lit in clause}):
        lit = -var if model[var] else var
        if lit in true or -lit in true or lit in skip:
            continue
        closure = unit_closure(clauses, true | {lit})
        if closure is None:
            true = unit_closure(clauses, true | {-lit})
        else:
            skip |= closure - true
    return true


def reduced_rows(clauses, true) -> list[tuple[int, ...]]:
    """clauses with no literal in true, each cut to its literals whose
    variable true leaves unassigned, in clause order: the reference for
    the rows p lists."""
    assigned = {abs(lit) for lit in true}
    return [
        tuple(lit for lit in clause if abs(lit) not in assigned)
        for clause in clauses
        if not any(lit in true for lit in clause)
    ]


_CHUNK = 1 << 16


def scan_xmodels(formula: Formula, cap: int = 24) -> list[Assignment]:
    """All x-models over Var(formula), in lexicographic order, by a numpy
    scan of all 2^n assignments.

    The reference that `enumerate_xmodels`, the solver and the
    propagation engine are held to: the oracle runs on the other two, so
    it cannot check them.
    """
    variables = formula.variables()
    n = len(variables)
    if n > cap:
        raise CapExceeded(f"{n} variables exceed enumeration cap {cap}")
    if any(not clause for clause in formula.clauses):
        return []
    if n == 0:
        return [{}]

    import numpy as np

    position = {v: i for i, v in enumerate(variables)}
    shifts = np.array([n - 1 - position[v] for v in variables], dtype=np.uint32)
    models: list[Assignment] = []
    for start in range(0, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        index = np.arange(start, stop, dtype=np.int64)
        bits = ((index[:, None] >> shifts[None, :]) & 1).astype(bool)
        ok = np.ones(stop - start, dtype=bool)
        for clause in formula.clauses:
            count = np.zeros(stop - start, dtype=np.int16)
            for lit in clause:
                column = bits[:, position[abs(lit)]]
                count += column if lit > 0 else ~column
            ok &= count == 1
        for row in np.nonzero(ok)[0]:
            models.append({v: bool(bits[row, position[v]]) for v in variables})
    return models


def scan_brute(formula: Formula, cap: int = 24) -> HammingResult:
    """Max pairwise Hamming distance over `scan_xmodels`, scored row by
    row with numpy; the witness pair is the lexicographically first
    maximizing one. The reference `max_hamming_brute` is held to."""
    models = scan_xmodels(formula, cap)
    if not models:
        return HammingResult(BOTTOM)
    variables = formula.variables()
    if len(models) == 1:
        only = models[0]
        return HammingResult(0, (dict(only), dict(only)))
    import numpy as np

    matrix = np.array([[m[v] for v in variables] for m in models], dtype=bool)
    best = -1
    pair = (0, 0)
    for i in range(len(models) - 1):
        dist = (matrix[i + 1 :] != matrix[i]).sum(axis=1)
        j = int(np.argmax(dist))
        if int(dist[j]) > best:
            best = int(dist[j])
            pair = (i, i + 1 + j)
    return HammingResult(best, (dict(models[pair[0]]), dict(models[pair[1]])))


def count_builds(monkeypatch) -> dict[str, int]:
    """Count `Propagator` and `Formula` builds into the returned dict.

    Every `Formula` but the parser's passes `__post_init__`, so the count
    covers every one a search builds.
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


def count_search_work(monkeypatch) -> dict[str, int]:
    """Count the solver's search work into the returned dict.

    "assignments" counts the values it assigns, undone ones included, and
    "visits" the clauses those cost: each assigned literal visits every
    clause that holds its variable.
    """
    work = {"assignments": 0, "visits": 0}
    propagate = solver._propagate

    def counting(value, trail, literals, holding):
        head = len(trail)
        consistent = propagate(value, trail, literals, holding)
        assigned = trail[head:]
        work["assignments"] += len(assigned)
        work["visits"] += sum(len(holding[lit]) + len(holding[-lit]) for lit in assigned)
        return consistent

    monkeypatch.setattr(solver, "_propagate", counting)
    return work


def engine_solve(engine: Propagator, assumptions=(), positions=None):
    """The search the solver ran on the propagation engine before its
    value-list search, kept as the reference the tests hold it to.

    An x-model of the engine's formula with every literal of assumptions
    true, or None; the engine is left as it was found. The engine must be
    at a fixpoint. The model holds every variable the engine has forced,
    its freed variables set True, and the variables of its live clauses.
    With positions, ascending live positions whose clauses share no
    variable with the other live clauses, and assumptions over their
    variables alone, the search branches on those clauses only; the
    model holds none of the other clauses' variables.
    """
    root = engine.mark()
    for lit in assumptions:
        engine.force(abs(lit), lit > 0)
    if engine.propagate():
        model = _engine_search(engine, range(len(engine.clauses)) if positions is None else positions)
    else:
        model = None
    engine.undo_to(root)
    return model


def _engine_search(engine: Propagator, positions):
    """Depth-first search from the engine's fixpoint over the clauses at
    positions: each level is a mark, a force and a propagate, branching
    on the first longest live clause with its literals in clause order,
    and backing up is an undo to the level's mark."""
    clauses = engine.clauses
    path = []  # (mark, untried branch literals, scan start index, longest width) per level above this one
    branches = None
    start, width = 0, None
    while True:
        if branches is None:  # a new level: done, or branch on the first longest clause
            start, longest = _engine_first_longest(clauses, positions, start, width)
            if longest is None:
                model = dict(engine.forced)
                for var in engine.freed:
                    model.setdefault(var, True)
                return model
            branches, width = iter(longest), len(longest)
        for lit in branches:
            mark = engine.mark()
            engine.force(abs(lit), lit > 0)
            if engine.propagate():
                path.append((mark, branches, start, width))
                branches = None
                break
            engine.undo_to(mark)
        else:
            if not path:
                return None
            mark, branches, start, width = path.pop()
            engine.undo_to(mark)


def _engine_first_longest(clauses, positions, start, width):
    """(index in positions of the first live clause at or after start,
    first longest live clause there); no live clause lies before start or
    is longer than width (None: no limit)."""
    first, longest, size = None, None, 0
    for index in range(start, len(positions)):
        clause = clauses[positions[index]]
        if not clause:
            continue
        if first is None:
            first = index
        if len(clause) > size:
            longest, size = clause, len(clause)
            if size == width:
                break
    return (start if first is None else first), longest


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


def reference_engine_build(f: Formula) -> dict:
    """What a new `Propagator` on f holds, built a field at a time: the
    occurrence lists, then the degrees, a set per clause for the queue,
    and one more pass each for the binary clauses and the degree-one
    variables. The reference for the engine's one-pass build; dicts are
    given as item lists, so their order counts too."""
    clauses = list(f.clauses)
    occ: dict[int, list[int]] = {}
    for pos, clause in enumerate(clauses):
        for lit in clause:
            occ.setdefault(abs(lit), []).append(pos)
    degree = {var: len(positions) for var, positions in occ.items()}
    dirty = [pos for pos, clause in enumerate(clauses) if len(clause) < 2 or len({*map(abs, clause)}) < len(clause)]
    queued = bytearray(len(clauses))
    for pos in dirty:
        queued[pos] = 1
    return {
        "clauses": clauses,
        "occ": list(occ.items()),
        "degree": list(degree.items()),
        "queue": dirty,
        "queued": bytes(queued),
        "changed": [pos for pos, clause in enumerate(clauses) if len(clause) == 2],
        "singles": [var for var, count in degree.items() if count == 1],
    }


def engine_build(engine: Propagator) -> dict:
    """The fields of a new engine that `reference_engine_build` gives, copied."""
    return {
        "clauses": list(engine.clauses),
        "occ": [(var, list(positions)) for var, positions in engine.occ.items()],
        "degree": list(engine.degree.items()),
        "queue": list(engine.queue),
        "queued": bytes(engine.queued),
        "changed": list(engine.changed),
        "singles": list(engine.singles),
    }


def engine_state(engine):
    """Everything `undo_to` restores, copied."""
    occ = {var: list(positions) for var, positions in engine.occ.items()}
    return list(engine.clauses), dict(engine.degree), dict(engine.forced), occ, list(engine.freed), engine.unsat


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
    for model in scan_xmodels(Formula(f.num_vars, live_clauses(engine))):
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

    want = [{v: m[v] for v in f.variables()} for m in scan_xmodels(f) if allowed(m)]
    got = expanded_models(f, propagated(f, force, substitute), substitute)
    as_set = lambda ms: {tuple(sorted(m.items())) for m in ms}
    assert as_set(got) == as_set(want)
    assert len(got) == len(want)  # no double-represented model


def nth_root(value: float, degree: int) -> float:
    """value ** (1/degree): per-variable base of a count growing as value^(n/degree)."""
    if degree < 1:
        raise ValueError("degree must be a positive integer")
    return value ** (1.0 / degree)


def validate(state: GeneralizedAssignment, forced, freed, require_rooted: bool = False) -> None:
    """Check a state's link forest over its roots, the variables of the
    forced map and the freed list; raise ValueError on ill-formed links.

    q never calls this: `gen_h` trusts the links `record_sing` and
    `record_dual` record, and the tests check the leaves it scores.
    """
    parent: dict[int, int] = {}
    rooted = set(forced) | set(freed)
    for var, members in state.sing.items():
        if members and var not in state.sat:
            raise ValueError(f"pool head {var} lacks a slot polarity")
    links = [(m, var) for var, members in state.sing.items() for m, _ in members]
    links += [(c, var) for var, children in state.dual.items() for c, _, _ in children]
    for child, var in links:
        if child in parent:
            raise ValueError(f"variable {child} linked from two sets")
        parent[child] = var
    # Variables whose walk already ended at an acceptable root; a walk
    # that meets one stops there, so each link is followed once.
    reaches_root: set[int] = set()
    for child in parent:
        if child in rooted:
            raise ValueError(f"linked variable {child} also carries a value")
        seen = {child}
        cursor = child
        while cursor in parent and cursor not in reaches_root:
            cursor = parent[cursor]
            if cursor in seen:
                raise ValueError(f"link cycle through variable {cursor}")
            seen.add(cursor)
        if require_rooted and cursor not in reaches_root and cursor not in rooted:
            raise ValueError(f"link tree root {cursor} has no value and is not free")
        reaches_root |= seen


def universe(state: GeneralizedAssignment, forced, freed) -> set[int]:
    """All variables a state speaks for, with the roots of its forced map and freed list."""
    out = set(forced) | set(freed) | set(state.sing) | set(state.dual)
    out.update(m for members in state.sing.values() for m, _ in members)
    out.update(c for children in state.dual.values() for c, _, _ in children)
    return out


def expand_state(state: GeneralizedAssignment, forced, freed) -> list[Assignment]:
    """Every concrete assignment a leaf state represents over its roots:
    the forced map's variables with their slot values and the freed
    list's variables, as q's leaf hook hands them over.

    Forced values are taken verbatim; a satisfactor group contributes one
    assignment per choice of satisfying participant; dual links follow
    their parent's concrete value; freed roots take both values. Output is
    sorted for determinism.
    """
    validate(state, forced, freed, require_rooted=True)
    options: list[list[Assignment]] = []
    for var in sorted(forced):
        options.append(_expand_tree(state, var, forced[var]))
    for var in sorted(freed):
        both = _expand_tree(state, var, False) + _expand_tree(state, var, True)
        options.append(both)

    assignments: list[Assignment] = [{}]
    for candidates in options:
        assignments = [{**base, **extra} for base in assignments for extra in candidates]
    keys = sorted(universe(state, forced, freed))
    assignments.sort(key=lambda m: tuple(m[k] for k in keys))
    return assignments


def slot_options(state: GeneralizedAssignment, var: int, slot: bool):
    """Concrete readings of a variable's slot value.

    Yields (concrete_value, child_slots) pairs, where child_slots maps
    each child linked below the variable to the slot value it reads. For
    a plain variable the slot is the value. For a pool head whose slot is
    active, any one participant's literal may be the satisfactor; peers
    read the slot values induced by that choice. A dual child mirrors the
    slot or the concrete value, as its link says.
    """
    members = state.sing.get(var, ())
    own_pol = state.sat.get(var)
    active = bool(members) and slot == own_pol
    for chosen in (var, *(m for m, _ in members)) if active else (None,):
        value = own_pol == (chosen == var) if active else slot
        child_slots = {m: pol == (m == chosen) for m, pol in members}
        for child, flip, anchor in state.dual.get(var, ()):
            child_slots[child] = (slot if anchor else value) ^ flip
        yield value, child_slots


def _expand_tree(state, var, slot) -> list[Assignment]:
    out: list[Assignment] = []
    for value, child_slots in slot_options(state, var, slot):
        parts: list[list[Assignment]] = [[{var: value}]]
        for child, child_slot in child_slots.items():
            parts.append(_expand_tree(state, child, child_slot))
        combined: list[Assignment] = [{}]
        for candidates in parts:
            combined = [{**base, **extra} for base in combined for extra in candidates]
        out.extend(combined)
    return out


def pool_pair_reference(clause, degree, sat):
    """`branching._pool_pair` as a list of the clause's singletons: the
    first one heading no pool, and the first other one."""
    singles = [lit for lit in clause if degree[abs(lit)] == 1]
    if len(singles) > 1:
        for rep in singles:
            if abs(rep) not in sat:
                return rep, singles[1] if rep == singles[0] else singles[0]
    return None


def general_table(state: GeneralizedAssignment, var: int):
    """`branching._table` with no closed form for one child: every dual
    child summed into four-entry tables, every pool member's gains listed,
    and the best gain, pair and both-model gain taken by `max`."""
    members, duals, score = state.sing.get(var, ()), state.dual.get(var, ()), state.score
    by_slot, by_value = [0, 0, 0, 0], [0, 0, 0, 0]
    for child, flip, anchor in duals:
        t = score[child][::-1] if flip else score[child]
        acc = by_slot if anchor and members else by_value
        for i in range(4):
            acc[i] += t[i]
    if not members:
        return by_value[0], by_value[1] + 1, by_value[2] + 1, by_value[3]
    unchosen, gains, both = 0, [], []
    for member, pol in members:
        t = score[member] if pol else score[member][::-1]
        unchosen += t[0]
        gains.append(t[1] - t[0])
        both.append(t[3] - t[0])
    gain, chosen = max(gains), max(both)
    if len(gains) > 1:
        rest = list(gains)
        rest.remove(gain)
        chosen = max(chosen, gain + max(rest))
    o = int(state.sat[var])
    x = 1 - o
    stay, mixed = by_value[3 * x], by_value[1] + 1
    active = max(by_value[3 * o], mixed + gain, stay + chosen)
    mixed = max(mixed, stay + gain)
    low, high = (stay, active) if o else (active, stay)
    return tuple(by_slot[i] + unchosen + entry for i, entry in enumerate((low, mixed, mixed, high)))


def list_best_pair(models, bits, state):
    """The best pair of the models, A = B included, scored in bulk: every
    variable's table read and grouped by table, each entry split as
    t00 + d*(a + b) + c*a*b, and every pair scored, one list per group.
    Each list holds about len(models)**2 / 2 entries. The reference for
    `branching._best_pair`, which scores pairs of classes of models."""
    if state.sing.keys().isdisjoint(bits) and state.dual.keys().isdisjoint(bits):
        best = 0
        for i, a in enumerate(models):
            for b in models[i + 1 :]:
                best = max(best, (a ^ b).bit_count())
        return best
    by_table = {}
    for var, bit in bits.items():
        t = state.table(var)
        by_table[t] = by_table.get(t, 0) | bit
    base, single, joint = 0, {}, {}
    for t, mask in by_table.items():
        base += t[0] * mask.bit_count()
        d, c = t[1] - t[0], t[3] - 2 * t[1] + t[0]
        if d:
            single[d] = single.get(d, 0) | mask
        if c:
            joint[c] = joint.get(c, 0) | mask
    own = [0] * len(models)
    for d, mask in single.items():
        own = [o + d * (m & mask).bit_count() for o, m in zip(own, models)]
    scores = [a + b for a, b in itertools.combinations_with_replacement(own, 2)]
    both = [a & b for a, b in itertools.combinations_with_replacement(models, 2)]
    for c, mask in joint.items():
        scores = [s + c * (ab & mask).bit_count() for s, ab in zip(scores, both)]
    return base + max(scores)


def record_by_table(record):
    """`GeneralizedAssignment.record_sing` or `record_dual` with the removed
    variable's table then set as a link set it before the records built it
    in place: its cached table, or else the one `branching._table` builds,
    reading NEG where its two slots agree when it is a flip pivot. The
    reference for the in-place tables."""

    def recording(state, parent_lit, child_lit):
        child = abs(child_lit)
        table = state.score.get(child)
        record(state, parent_lit, child_lit)
        if table is None:
            table = branching._table(state, child)
        state.score[child] = (branching.NEG, table[1], table[2], branching.NEG) if child in state.flips else table

    return recording


def drop_binary(engine: Propagator, pos: int, removed: int) -> None:
    """The drop step `branching._simplify` writes out in its loop, as one
    engine step: the binary clause at pos, the one occurrence of the
    degree-one literal `removed`, drops with one logged write. The removed
    variable leaves without counting as freed, and the survivor loses one
    occurrence with the `singles` and freed bookkeeping of a settle."""
    clause = engine.clauses[pos]
    engine._writes.append((pos, clause))
    engine.clauses[pos] = None
    degree = engine.degree
    degree[abs(removed)] = 0
    survivor = abs(clause[1] if clause[0] == removed else clause[0])
    left = degree[survivor] - 1
    degree[survivor] = left
    if left == 1:
        engine.singles.append(survivor)
    elif not left:
        engine._vanished.append(survivor)


def drop_by_substitute(engine, pos, removed):
    """The dual substitution a drop stands in for: rewrite the removed
    literal as the complement of its clause's other literal, which turns
    the clause into a complementary pair that drops."""
    first, second = engine.clauses[pos]
    engine.substitute(removed, second if first == removed else first)


def simplify_pushing_every_change(engine, state):
    """`branching._simplify` that also pushes every position in `changed`
    on `to_pool`, so it checks for pooling every clause a step shrank or
    rewrote, a pooled clause included, and takes one pool or one
    elimination per round: the reference for feeding `to_pool` from
    `singles` alone and for pooling a drop's survivor on the spot."""
    clauses, degree = engine.clauses, engine.degree
    to_pool, binaries = [], []
    while engine.propagate():
        for pos in engine.changed:
            heapq.heappush(to_pool, pos)
            if clauses[pos] is not None and len(clauses[pos]) == 2:
                heapq.heappush(binaries, pos)
        for var in engine.singles:
            if degree[var] == 1:
                heapq.heappush(to_pool, engine.position_of(var))
        engine.changed.clear()
        engine.singles.clear()
        if branching._pool_first(engine, state, to_pool):
            continue
        if not eliminate_first_binary(engine, state, binaries):
            return True
    return False


def eliminate_first_binary(engine, state, binaries):
    """Dual-substitute away the first binary clause on the heap, one step
    per round of the reference, dropping it with `drop_binary` when the
    removed side has degree one; False if there is none."""
    clauses, degree = engine.clauses, engine.degree
    while binaries:
        pos = heapq.heappop(binaries)
        clause = clauses[pos]
        if clause is None or len(clause) != 2:
            continue
        first, second = clause
        if degree[abs(second)] == 1 and degree[abs(first)] > 1:
            removed, survivor = second, first
        else:
            removed, survivor = first, second
        if degree[abs(removed)] == 1:
            drop_binary(engine, pos, removed)
        else:
            engine.substitute(removed, survivor)
        state.record_dual(survivor, removed)
        return True
    return False


def simplify_substituting_drops(engine, state):
    """`branching._simplify` with each drop done by `drop_by_substitute`,
    the rewrite it stands in for, and the survivor's clause found and
    pooled through the engine's own methods; otherwise the same loop."""
    clauses, degree, singles, queue = engine.clauses, engine.degree, engine.singles, engine.queue
    to_pool, binaries = [], []
    while engine.propagate():
        for var in singles:
            if degree[var] == 1:
                pos = engine.position_of(var)
                if branching._pool_pair(clauses[pos], degree, state.sat):
                    heapq.heappush(to_pool, pos)
        singles.clear()
        while to_pool and branching._pool_first(engine, state, to_pool):
            if queue:
                break
        else:
            for pos in engine.changed:
                if len(clauses[pos] or ()) == 2:
                    heapq.heappush(binaries, pos)
            engine.changed.clear()
            while binaries:
                pos = heapq.heappop(binaries)
                clause = clauses[pos]
                if clause is None or len(clause) != 2:
                    continue
                first, second = clause
                if degree[abs(second)] == 1 and degree[abs(first)] > 1:
                    removed, survivor = second, first
                else:
                    removed, survivor = first, second
                if degree[abs(removed)] != 1:
                    engine.substitute(removed, survivor)
                    state.record_dual(survivor, removed)
                    break
                drop_by_substitute(engine, pos, removed)
                state.record_dual(survivor, removed)
                var = abs(survivor)
                left = degree[var]
                if not left:
                    break
                singles.clear()  # the survivor alone, if anything
                if left == 1:
                    pos = engine.position_of(var)
                    pair = branching._pool_pair(clauses[pos], degree, state.sat)
                    if pair:
                        state.record_sing(*pair)
                        engine.remove_literal(pos, pair[1])
                        if queue:
                            break
                        if len(clauses[pos]) == 2:
                            heapq.heappush(binaries, pos)
            else:
                return True
    return False
