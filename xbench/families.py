"""Seeded instance families.

An instance is `(num_vars, clauses)` with clauses as tuples of signed
literals. The generators live here rather than in `xham.gen` so that a
change to the program cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

import itertools
import random

from xham.formula import Formula, verify_xmodel


def uniform(num_vars: int, num_clauses: int, length: int, seed: int):
    """Each clause draws `length` distinct variables, each negated with p=1/2."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), length)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return num_vars, tuple(clauses)


def planted(num_vars: int, length: int, degree: int, seed: int):
    """Every variable in exactly `degree` clauses of `length` distinct variables.

    Variable slots are shuffled into clauses until no clause repeats a
    variable. Polarities make a hidden random assignment an x-model: one
    literal per clause, chosen at random, is true under it and the rest
    are false.
    """
    if (num_vars * degree) % length:
        raise ValueError(f"{num_vars} vars x degree {degree} do not fill clauses of length {length}")
    rng = random.Random(seed)
    slots = [v for v in range(1, num_vars + 1) for _ in range(degree)]
    while True:
        rng.shuffle(slots)
        groups = [slots[i : i + length] for i in range(0, len(slots), length)]
        if all(len(set(group)) == length for group in groups):
            break
    hidden = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
    clauses = []
    for group in groups:
        satisfactor = rng.randrange(length)
        # A literal is true under `hidden` iff it sits at the satisfactor position.
        clauses.append(tuple(v if hidden[v] == (i == satisfactor) else -v for i, v in enumerate(group)))
    if not verify_xmodel(Formula(num_vars, tuple(clauses)), hidden):
        raise RuntimeError("planted assignment is not an x-model")
    return num_vars, tuple(clauses)


def chain(num_vars: int, length: int, seed: int):
    """Clauses of `length` variables where each clause starts on the previous one's last.

    Length 2 gives the binary chain (i, i+1); length 3 gives
    (1 2 3), (3 4 5), ... Polarities are random; every such chain has an
    x-model, because the literal on the shared variable either settles the
    next clause or leaves one of its fresh literals free to satisfy it.
    """
    step = length - 1
    if num_vars < length or (num_vars - 1) % step:
        raise ValueError(f"{num_vars} variables do not form a chain of length-{length} clauses")
    rng = random.Random(seed)
    clauses = []
    for first in range(1, num_vars, step):
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in range(first, first + length)))
    return num_vars, tuple(clauses)


def chain_max_hamming(clauses) -> int | None:
    """Exact max Hamming distance of a chain by a pass over its clauses.

    The state is the pair of values the two models give the variable
    shared with the next clause; its score is the best distance over the
    variables seen so far. Returns None when the chain has no x-model.
    """
    states: dict[tuple[bool, bool], int] | None = None
    for clause in clauses:
        local = [
            bits
            for bits in itertools.product((False, True), repeat=len(clause))
            if sum(bit == (lit > 0) for bit, lit in zip(bits, clause)) == 1
        ]
        nxt: dict[tuple[bool, bool], int] = {}
        for a in local:
            for b in local:
                if states is None:
                    base = int(a[0] != b[0])
                elif (a[0], b[0]) in states:
                    base = states[(a[0], b[0])]
                else:
                    continue
                dist = base + sum(x != y for x, y in zip(a[1:], b[1:]))
                key = (a[-1], b[-1])
                if dist > nxt.get(key, -1):
                    nxt[key] = dist
        states = nxt
    if not states:
        return None
    return max(states.values())


def to_text(instance) -> str:
    """The instance in xham's file format."""
    num_vars, clauses = instance
    lines = [f"p xsat {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, clause + (0,))) for clause in clauses)
    return "\n".join(lines) + "\n"
