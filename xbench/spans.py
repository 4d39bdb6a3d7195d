"""Spans around calls into xham's modules, recorded from the benchmark.

`Tracer.install` replaces each public function where its caller looks it
up (for example `xham.branching.assign`, the name `branching` calls) with
a wrapper that records a span: name, start, end, parent span and the
instance the call belongs to. `src/xham` itself is not edited. Spans are
kept in flat arrays while the pass runs and written out at the end.

A layer's self time is its span's duration minus the durations of its
child spans; calls nest without overlap, so that is the time the layer
was busy itself.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from xham import branching, cli, formula, solver, subset_scan


def _unsat(result) -> bool:
    return result.unsat


def _split(result) -> bool:
    return len(result) > 1


def _found(result) -> bool:
    return result is not None


# (owner, attribute, span name, flag): `flag(result)` marks the span when
# true; the per-layer metrics count marked spans (UNSAT propagation,
# component splits, solver calls that found a model).
SITES = [
    (cli, "load_formula", "dimacs.load_formula", None),
    (cli, "max_hamming_q", "branching", None),
    (cli, "max_hamming_p", "subset_scan", None),
    (formula.Formula, "__post_init__", "formula.construct", None),
    (branching, "connected_components", "formula.connected_components", _split),
    (branching, "normalize", "propagation.normalize", _unsat),
    (branching, "assign", "propagation.assign", _unsat),
    (branching, "substitute_dual", "propagation.substitute_dual", _unsat),
    (branching, "gen_h", "branching.gen_h", None),
    (solver, "normalize", "propagation.normalize", _unsat),
    (solver, "assign", "propagation.assign", _unsat),
    (subset_scan, "find_xmodel", "solver.find_xmodel", _found),
    (subset_scan, "flipped_union", "subset_scan.flipped_union", None),
]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.instance = array("q")
        self.flag = array("b")
        self.current_instance = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.current_instance)
        self.flag.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, flag=None):
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if flag is not None and flag(result):
                self.flag[index] = 1
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, flag in SITES:
            original = getattr(owner, attr, None)
            if original is None:
                # A later refactor may drop a call site; its metrics then read 0.
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, flag))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "instance": np.frombuffer(self.instance, dtype=np.int64),
            "flag": np.frombuffer(self.flag, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    duration = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered


def by_name(names, spans, scale=1.0) -> dict[str, dict[str, float]]:
    """calls, self_ms, total_ms and flagged count for each span name.

    Times are multiplied by `scale`, one factor per span or one for all.
    """
    own = self_times(spans["start"], spans["end"], spans["parent"]) * scale
    total = (spans["end"] - spans["start"]) * scale
    width = len(names)
    calls = np.bincount(spans["name"], minlength=width)
    self_ns = np.bincount(spans["name"], weights=own, minlength=width)
    total_ns = np.bincount(spans["name"], weights=total, minlength=width)
    flagged = np.bincount(spans["name"], weights=spans["flag"], minlength=width)
    return {
        name: {
            "calls": int(calls[i]),
            "self_ms": self_ns[i] / 1e6,
            "total_ms": total_ns[i] / 1e6,
            "flagged": int(flagged[i]),
        }
        for i, name in enumerate(names)
    }
