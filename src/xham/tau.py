"""Branching-factor analysis for branch-and-reduce recurrences.

A recursion that spawns k subproblems smaller by r_1..r_k variables runs
in O(tau^n) where tau is the largest real root of
1 - sum(x^-r_i). Balanced decrements minimize the root: for a fixed
total, tau(2,2) < tau(1,3).
"""

from __future__ import annotations

_BISECTION_STEPS = 80
#: Most branches a spec may expand to; larger ones are rejected unexpanded.
MAX_BRANCHES = 10_000


def tau_root(decrements) -> float:
    """Largest real root of 1 - sum(x^-r) over the given decrements.

    For a single branch the root is exactly 1. Otherwise f is strictly
    increasing on (0, inf) with f(1) < 0, so the unique root above 1 is
    bracketed by (1, k+1] and bisection converges unconditionally; the
    step count pins the result well below 1e-9 absolute error.
    """
    rs = list(decrements)
    if not rs:
        raise ValueError("at least one branch decrement is required")
    if any(not isinstance(r, int) or r < 1 for r in rs):
        raise ValueError(f"decrements must be positive integers, got {rs!r}")
    if len(rs) == 1:
        return 1.0

    def f(x: float) -> float:
        return 1.0 - sum(x ** -r for r in rs)

    lo, hi = 1.0, float(len(rs) + 1)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def parse_branch_spec(text: str) -> tuple[int, ...]:
    """Expand a decrement spec like "5^2 3^3" into (5, 5, 3, 3, 3)."""
    decrements: list[int] = []
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty branch spec")
    for token in tokens:
        base, sep, exponent = token.partition("^")
        try:
            r = int(base)
            k = int(exponent) if sep else 1
        except ValueError:
            raise ValueError(f"malformed branch token {token!r}") from None
        if r < 1 or k < 1:
            raise ValueError(f"branch token {token!r} must use positive integers")
        if len(decrements) + k > MAX_BRANCHES:
            raise ValueError(f"branch spec has more than {MAX_BRANCHES} branches")
        decrements.extend([r] * k)
    return tuple(decrements)
