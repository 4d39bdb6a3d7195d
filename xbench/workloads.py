"""The benchmark's workloads: what each one runs and on which instances.

Three workloads draw their instances from a pool stored in `pool.json`
(`build_pool.py` makes it). The pool holds each entry's reference answer
and the time the engine took on it when the pool was built. A run sorts
the pool by that time, cuts it into as many bands as it draws instances,
and takes one seeded pick from each band. Every run so gets the same mix
of easy and hard instances, while the seed still chooses which ones.
Without the bands, the few instances that take seconds decide whether a
run of ninety instances reads fast or slow.

chain-q needs no pool: its reference is computed exactly from the chain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import families

Q = ("maxham", "--algo", "q", "--stats")
P = ("maxham", "--algo", "p", "--witness", "--stats")

# (num_vars, length, degree): every variable in exactly `degree` clauses.
PLANTED = [(21, 3, 2), (24, 3, 2), (27, 3, 2), (30, 3, 2), (20, 4, 2), (24, 4, 2), (28, 4, 2)]
# (num_vars, length) with m = (n + 1) // 2, the shape of the acceptance tests.
UNIFORM = [(n, k) for k in (3, 4, 5) for n in (24, 28, 32, 36, 40)]
SCAN = [18, 19, 20, 21, 22]
# (length, num_vars, copies). When this benchmark was written, q raised
# RecursionError on binary chains of 985 to 1,000 variables or more,
# depending on stack depth. The 1,100-variable chain is past that edge on
# purpose, so the defect shows; every other size stays well below it.
# Times rise with size, and binary chains cost about twice what ternary
# chains of the same size do. The copies put the median (ranks 19-20 of 40)
# among the 100-variable binary chains and the tail (rank 29) among the
# 201-variable ternary ones, not on an edge between two sizes, where one
# slow call would move them by a whole size step.
CHAIN_LADDER = [
    (2, 100, 10), (2, 200, 3), (2, 400, 1), (2, 1100, 1),
    (3, 101, 15), (3, 201, 8), (3, 401, 1), (3, 801, 1),
]


def _planted(i, tag):
    n, k, d = PLANTED[i % len(PLANTED)]
    return families.planted(n, k, d, f"{tag}/{i}")


def _uniform(i, tag):
    n, k = UNIFORM[i % len(UNIFORM)]
    return families.uniform(n, (n + 1) // 2, k, f"{tag}/{i}")


def _scan(i, tag):
    n = SCAN[i % len(SCAN)]
    return families.uniform(n, (n + 1) // 2, 3, f"{tag}/{i}")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    make: Callable | None = None  # (pool entry index, workload name) -> instance
    pool_size: int = 0
    draw: int = 0
    # Largest connected component, in variables, that the brute oracle
    # takes as reference when the pool is built.
    brute_cap: int = 0

    def pool_instance(self, i):
        return self.make(i, self.name)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted-q", Q, _planted, pool_size=700, draw=90, brute_cap=24),
        Workload("chain-q", Q),
        Workload("scan-p", P, _scan, pool_size=300, draw=60, brute_cap=24),
        Workload("uniform-q", Q, _uniform, pool_size=2400, draw=600, brute_cap=20),
    )
}


def draw_indices(costs: list[float], count: int, seed, fixed: int = 11) -> list[int]:
    """Pick `count` pool entries, one per band of entries sorted by cost.

    The seed picks the entry in every band but the `fixed` costliest,
    which always give their middle entry. Those bands span the widest
    ranges (scan-p's costliest runs from 0.5 s to 2 s), and they hold the
    instances that set solve_ms_tail, so seeded picks there would decide
    alone how fast a run reads. The returned order is shuffled by the
    same seed.
    """
    if not fixed < count <= len(costs):
        raise ValueError(f"cannot draw {count} of {len(costs)} pool entries with {fixed} fixed")
    rng = random.Random(f"draw/{seed}")
    ranked = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    width = len(costs) // count
    picked = [
        ranked[band * width + (width // 2 if band >= count - fixed else rng.randrange(width))]
        for band in range(count)
    ]
    rng.shuffle(picked)
    return picked


def chain_instances(seed):
    """The chain ladder; the seed draws every clause's polarities."""
    out = []
    for length, num_vars, copies in CHAIN_LADDER:
        for copy in range(copies):
            out.append(families.chain(num_vars, length, f"chain-q/{seed}/{num_vars}/{copy}"))
    return out
