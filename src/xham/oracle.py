"""Exhaustive ground-truth engines.

Everything here trades time for certainty: every x-model listed on the
solver's search (`solver.models`), and max Hamming by comparing every
model pair. Caps refuse oversized inputs instead of running for hours.
"""

from __future__ import annotations

from .formula import BOTTOM, Assignment, Formula, HammingResult
from .propagation import Propagator
from .solver import models, solve

DEFAULT_ENUM_CAP = 24


class CapExceeded(ValueError):
    """Instance too large for exhaustive treatment."""


def enumerate_xmodels(formula: Formula, cap: int = DEFAULT_ENUM_CAP) -> list[Assignment]:
    """All x-models over Var(formula), in lexicographic order.

    Assignments are ordered as tuples of booleans over ascending
    variables, False before True.
    """
    bits, masks = _model_masks(formula, cap)
    return [{v: bool(mask & bit) for v, bit in bits} for mask in masks]


def max_hamming_brute(formula: Formula, cap: int = DEFAULT_ENUM_CAP) -> HammingResult:
    """Max pairwise Hamming distance by comparing every model pair.

    The witness pair is the lexicographically first maximizing one; a
    single model yields distance 0 witnessed by itself.
    """
    bits, masks = _model_masks(formula, cap)
    if not masks:
        return HammingResult(BOTTOM)
    best, pair = 0, (masks[0], masks[0])
    for i, first in enumerate(masks):
        if best == len(bits):
            break  # no pair can score higher
        scores = [(first ^ second).bit_count() for second in masks[i + 1 :]]
        top = max(scores, default=0)
        if top > best:  # only a strictly higher score moves the witness
            best, pair = top, (first, masks[i + 1 + scores.index(top)])
    return HammingResult(best, tuple({v: bool(mask & bit) for v, bit in bits} for mask in pair))


def _model_masks(formula: Formula, cap: int) -> tuple[list[tuple[int, int]], list[int]]:
    """((v, bit) per variable of Var(formula), ascending, bits descending;
    its x-models as ascending masks, so in lexicographic order), listed
    from one propagated root: each component's models, times the freed
    variables' two values, with the forced values."""
    variables = formula.variables()
    n = len(variables)
    if n > cap:
        raise CapExceeded(f"{n} variables exceed enumeration cap {cap}")
    bits = [(v, 1 << (n - 1 - i)) for i, v in enumerate(variables)]
    engine = Propagator(formula)
    found = solve(engine)  # a component with no model is refuted once, before any listing
    if found is None:
        return bits, []
    bit = dict(bits)
    masks = [sum(bit[v] for v, value in engine.forced.items() if value)]
    factors = [(0, bit[v]) for v in engine.freed]
    for part in found[1]:
        factors.append([sum(bit[v] for v, value in zip(part.variables, values[1:]) if value) for values in models(part)])
    for factor in factors:
        masks = [mask | extra for mask in masks for extra in factor]
    masks.sort()
    return bits, masks
