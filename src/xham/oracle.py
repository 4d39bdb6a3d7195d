"""Exhaustive ground-truth engines.

Everything here trades time for certainty: model enumeration over all
2^n assignments and max Hamming by pairwise comparison. Caps refuse
oversized inputs instead of running for hours.
"""

from __future__ import annotations

from .formula import BOTTOM, Assignment, Formula, HammingResult

DEFAULT_ENUM_CAP = 24
_CHUNK = 1 << 16


class CapExceeded(ValueError):
    """Instance too large for exhaustive treatment."""


def enumerate_xmodels(formula: Formula, cap: int = DEFAULT_ENUM_CAP) -> list[Assignment]:
    """All x-models over Var(formula), in lexicographic order.

    Assignments are ordered as tuples of booleans over ascending
    variables, False before True.
    """
    variables = formula.variables()
    n = len(variables)
    if n > cap:
        raise CapExceeded(f"{n} variables exceed enumeration cap {cap}")
    if any(not clause for clause in formula.clauses):
        return []
    if n == 0:
        return [{}]

    import numpy as np  # imported here so that importing xham does not load numpy

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


def max_hamming_brute(formula: Formula, cap: int = DEFAULT_ENUM_CAP) -> HammingResult:
    """Max pairwise Hamming distance by comparing every model pair.

    The witness pair is the lexicographically first maximizing one; a
    single model yields distance 0 witnessed by itself.
    """
    models = enumerate_xmodels(formula, cap)
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
