"""Build `pool.json`: the pooled instances' reference answers and costs.

    PYTHONPATH=src python3 xbench/build_pool.py [workload ...]

For each pool entry this records the reference answer (a distance, or
null when the instance has no x-model) and where it came from:

- "brute": the brute oracle, summed over connected components, when no
  component exceeds the workload's brute cap;
- "seed-q": otherwise, the answer of q at the commit that built the pool.

It also records the engine's library-call time in ms, the fastest of
three calls scaled for host speed as run.py scales its times. Runs use it
only to sort the pool into bands, and a digest of the instance text, which
runs check so that a changed generator cannot go unnoticed. Answers from
q or p that disagree with brute stop the build.

Rebuilding changes the benchmark; a change that claims a gain must not.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from xham import Formula, connected_components, max_hamming_brute, max_hamming_p, max_hamming_q  # noqa: E402

from xbench.families import to_text  # noqa: E402
from xbench.run import REFERENCE_PROBE_MS, probe_ms  # noqa: E402
from xbench.workloads import WORKLOADS  # noqa: E402

POOL_FILE = Path(__file__).resolve().parent / "pool.json"


def digest(instance) -> str:
    return hashlib.sha1(to_text(instance).encode()).hexdigest()[:12]


def brute_answer(instance, cap):
    """Brute reference summed over components, or "too big" past the cap.

    One small component without an x-model settles the instance, even
    when another component is past the cap.
    """
    total = 0
    too_big = False
    for part in connected_components(Formula(*instance)):
        if len(part.variables()) > cap:
            too_big = True
            continue
        result = max_hamming_brute(part, cap=cap)
        if result.unsat:
            return None
        total += result.distance
    return "too big" if too_big else total


def timed(engine, formula):
    """The engine's result and its fastest scaled time in ms, over three calls."""
    best = float("inf")
    for _ in range(3):
        before = probe_ms()
        start = time.perf_counter()
        result = engine(formula)
        ms = (time.perf_counter() - start) * 1e3
        best = min(best, ms * 2 * REFERENCE_PROBE_MS / (before + probe_ms()))
    return result, best


def build(workload):
    algo = workload.argv[workload.argv.index("--algo") + 1]
    engine = {"p": max_hamming_p, "q": max_hamming_q}[algo]
    entries = []
    for i in range(workload.pool_size):
        instance = workload.pool_instance(i)
        result, ms = timed(engine, Formula(*instance))
        answer = None if result.unsat else result.distance
        reference = brute_answer(instance, workload.brute_cap)
        if reference == "too big":
            if engine is not max_hamming_q:
                raise RuntimeError(f"{workload.name}[{i}]: no reference beyond brute's cap")
            source = "seed-q"
        else:
            if reference != answer:
                raise RuntimeError(f"{workload.name}[{i}]: engine says {answer}, brute says {reference}")
            source = "brute"
        entries.append([answer, source, round(ms, 2), digest(instance)])
        if i % 100 == 99:
            print(f"{workload.name}: {i + 1}/{workload.pool_size}", file=sys.stderr, flush=True)
    return {"columns": ["answer", "source", "ms", "sha"], "entries": entries}


def main(names):
    pool = json.loads(POOL_FILE.read_text()) if POOL_FILE.exists() else {}
    for name in names or [n for n, w in WORKLOADS.items() if w.pool_size]:
        pool[name] = build(WORKLOADS[name])
        POOL_FILE.write_text(json.dumps(pool, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
