"""Random instance generation for tests and benchmarks."""

from __future__ import annotations

import random

from .formula import Formula


def random_formula(num_vars: int, num_clauses: int, clause_len: int, seed: int) -> Formula:
    """Uniform random instance, deterministic for a fixed seed.

    Each clause draws `clause_len` distinct variables and negates each
    with probability 1/2. Duplicate clauses may occur and are kept.
    """
    if clause_len > num_vars:
        raise ValueError(f"clause length {clause_len} exceeds variable count {num_vars}")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), clause_len)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return Formula(num_vars, tuple(clauses))


PLANTED_DEALS = 10_000


def planted_formula(num_vars: int, length: int, degree: int, seed: int) -> Formula:
    """Degree-regular instance with a hidden x-model, deterministic for a seed.

    Every variable fills `degree` slots; the slots are dealt out, in a
    random order, into clauses of `length` distinct variables (the deal
    is redrawn while some clause would repeat a variable). One literal per
    clause, chosen at random, is true under a hidden random assignment
    and the others are false, so the instance always has an x-model.

    A deal succeeds with probability about exp(-(length-1)(degree-1)/2),
    whatever num_vars is, so shapes far beyond length and degree 5 give
    up with a ValueError after PLANTED_DEALS tries.
    """
    if length < 1 or degree < 0:
        raise ValueError("planted instances need length >= 1 and degree >= 0")
    if length > num_vars:
        raise ValueError(f"clause length {length} exceeds variable count {num_vars}")
    if (num_vars * degree) % length:
        raise ValueError(
            f"{num_vars} variables of degree {degree} do not fill clauses of length {length}"
        )
    rng = random.Random(seed)
    slots = [var for var in range(1, num_vars + 1) for _ in range(degree)]
    for _ in range(PLANTED_DEALS):
        rng.shuffle(slots)
        groups = [slots[start : start + length] for start in range(0, len(slots), length)]
        if all(len(set(group)) == length for group in groups):
            break
    else:
        raise ValueError(f"no deal of {PLANTED_DEALS} put distinct variables in every clause")
    hidden = [rng.random() < 0.5 for _ in range(num_vars + 1)]
    clauses = []
    for group in groups:
        true_at = rng.randrange(length)
        # The literal at true_at agrees with the hidden value, the rest disagree.
        clauses.append(
            tuple(var if hidden[var] == (i == true_at) else -var for i, var in enumerate(group))
        )
    return Formula(num_vars, tuple(clauses))
