"""Run one benchmark workload and print its metrics.

    python3 xbench/run.py --workload planted-q --seed 1 --seconds 10 --trace 0

Every call goes through xham's public entry point, `xham.cli.main`, in
this process, on an instance written to a file first, so each call pays
for reading, parsing, solving and printing. One caller runs the calls one
after another (a closed loop, no threads). Each answer is checked against
the instance's reference answer.

--trace 0 runs whole passes over the instances until --seconds have
passed, always at least one, and prints the end-to-end metrics. Times
are scaled for the host's speed, which a fixed loop measures around
every call; the unscaled figures are printed too.
--trace 1 runs one untraced pass, then one traced pass (see spans.py),
checks that both give the same answers and counts, and prints the
per-layer metrics and the tracing overhead.

The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--workload all` runs every
workload, each in its own process, and prints them all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SETUP_RUNS = 3  # set-up samples before the passes and after each one
TAIL_BEYOND = 10
# Host speed drifts by a quarter or more, in spells lasting from a fraction
# of a second to minutes. Each call's time is therefore scaled to a host on
# which probe_ms reads REFERENCE_PROBE_MS, by the mean of the readings just
# before and just after the call; readings are at most PROBE_EVERY_S apart
# plus one call. The unscaled figures are printed as well.
REFERENCE_PROBE_MS = 1.5
PROBE_EVERY_S = 0.01


@dataclass
class Case:
    label: str
    instance: tuple
    reference: int | None
    source: str
    path: str = ""


@dataclass
class Call:
    raw_ms: float
    scale: float  # REFERENCE_PROBE_MS over the host probe around the call
    outcome: object

    @property
    def ms(self) -> float:
        return self.raw_ms * self.scale


def probe_ms() -> float:
    """A fixed pure-Python loop, fastest of two runs; it tracks host speed.

    It builds tuples, dicts and sets, as the engines do: on the VM where
    this was made, scaling by it took the spread of repeated passes from
    12-28% to 5-9%, against 8-13% for a loop of integer arithmetic.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        table = {}
        for i in range(1500):
            key = tuple(range(i % 7, i % 7 + 5))
            table[key] = table.get(key, 0) + 1
            table[i] = len({abs(x - 3) for x in key})
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def load_cases(workload, seed) -> list[Case]:
    from xbench import families, workloads
    from xbench.build_pool import POOL_FILE, digest

    if not workload.pool_size:
        return [
            Case(f"chain{len(c[1][0])}-{c[0]}", c, families.chain_max_hamming(c[1]), "chain-dp")
            for c in workloads.chain_instances(seed)
        ]
    pool = json.loads(POOL_FILE.read_text())[workload.name]
    entries = [dict(zip(pool["columns"], entry)) for entry in pool["entries"]]
    cases = []
    for i in workloads.draw_indices([e["ms"] for e in entries], workload.draw, f"{workload.name}/{seed}"):
        instance = workload.pool_instance(i)
        if digest(instance) != entries[i]["sha"]:
            raise RuntimeError(f"{workload.name} pool entry {i} no longer matches its generator")
        cases.append(Case(f"{workload.name}[{i}]", instance, entries[i]["answer"], entries[i]["source"]))
    return cases


def call(argv):
    """One timed `cli.main` call: (ms, exit code, stdout, exception)."""
    from xham import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter_ns()
        try:
            code, raised = cli.main(argv), None
        except Exception as exc:  # a crash is a failed call, and the loop goes on
            code, raised = None, exc
        elapsed = time.perf_counter_ns() - start
    return elapsed / 1e6, code, out.getvalue(), raised


def run_pass(workload, cases, tracer=None) -> tuple[list[Call], list[float]]:
    """Each case once, in order; also the probe readings taken on the way."""
    from xbench.check import check_call

    witness = "--witness" in workload.argv
    calls = []
    # A fresh xham process holds few objects; keep the collector from
    # scanning the benchmark's own (pool, instances, results) during calls.
    gc.collect()
    gc.freeze()
    probes = [probe_ms()]
    probed_at = time.perf_counter()
    for index, case in enumerate(cases):
        argv = [*workload.argv, case.path]
        before = probes[-1]
        if tracer is None:
            ms, code, output, raised = call(argv)
        else:
            tracer.current_instance = index
            span = tracer.open(tracer.name_id("cli"))
            try:
                ms, code, output, raised = call(argv)
            finally:
                tracer.close(span)
        if time.perf_counter() - probed_at > PROBE_EVERY_S:
            probes.append(probe_ms())
            probed_at = time.perf_counter()
        outcome = check_call(case.instance[1], case.reference, code, output, raised, witness)
        calls.append(Call(ms, 2 * REFERENCE_PROBE_MS / (before + probes[-1]), outcome))
    return calls, probes


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing `xham.cli`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import xham.cli"], env=env, check=True, cwd=ROOT)
    return time.perf_counter() - start


def tail_rank(count: int) -> int:
    """Index into the sorted sample of the value with TAIL_BEYOND above it."""
    return max(0, count - TAIL_BEYOND - 1)


def probe_note(probes) -> str:
    ranked = sorted(probes)
    return (f"probe_ms min {ranked[0]:.3f} median {statistics.median(ranked):.3f} max {ranked[-1]:.3f} "
            f"over {len(ranked)} readings; times are scaled to {REFERENCE_PROBE_MS} ms")


def timing_metrics(per_case: list[list[Call]]):
    """instances_per_s, p50 and tail, from each instance's median call time."""
    def summary(ms_of):
        times = [statistics.median(ms_of(c) for c in calls) for calls in per_case]
        ranked = sorted(times)
        answered = sum(all(c.outcome.ok for c in calls) for calls in per_case)
        return answered / (sum(times) / 1e3), statistics.median(times), ranked[tail_rank(len(ranked))]

    return summary(lambda c: c.ms), summary(lambda c: c.raw_ms)


def end_to_end(workload, cases, seconds):
    """Whole passes until `seconds` have passed; the end-to-end metrics."""
    setup = [setup_sample() for _ in range(SETUP_RUNS)]
    run_pass(workload, cases[:1])  # warm-up, not counted
    per_case = [[] for _ in cases]
    probes = []
    passes = 0
    started = time.perf_counter()
    while True:
        calls, pass_probes = run_pass(workload, cases)
        passes += 1
        probes += pass_probes
        for history, c in zip(per_case, calls):
            history.append(c)
        setup += [setup_sample() for _ in range(SETUP_RUNS)]
        if time.perf_counter() - started >= seconds:
            break

    (per_s, p50, tail), (raw_per_s, raw_p50, raw_tail) = timing_metrics(per_case)
    outcomes = [c.outcome for calls in zip(*per_case) for c in calls]
    failed = sum(not o.ok for o in outcomes)
    metrics = {
        "instances_per_s": (per_s, "1/s"),
        "solve_ms_p50": (p50, "ms"),
        "solve_ms_tail": (tail, "ms"),
        "ok_share": (1 - failed / len(outcomes), "share"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n = len(cases)
    notes = [
        f"{passes} passes over {n} instances; an instance's time is the median of its calls",
        f"solve_ms_tail is p{100 * (tail_rank(n) + 1) / n:.1f} of {n} instances "
        f"({n - tail_rank(n) - 1} beyond it)",
        f"failed_share {failed / len(outcomes):.4f} ({failed} of {len(outcomes)} calls)",
        f"setup_s is the median of {len(setup)} samples",
        probe_note(probes),
        f"unscaled: instances_per_s {raw_per_s:.4f}, solve_ms_p50 {raw_p50:.4f}, solve_ms_tail {raw_tail:.4f}",
    ]
    return metrics, outcomes, notes


def per_layer(workload, cases):
    """An untraced and a traced pass; the per-layer metrics."""
    import numpy as np

    from xbench.spans import Tracer, by_name

    run_pass(workload, cases[:1])  # warm-up, not counted
    plain, probes = run_pass(workload, cases)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_probes = run_pass(workload, cases, tracer)
    finally:
        tracer.uninstall()
    probes += traced_probes

    notes = []
    for case, a, b in zip(cases, plain, traced):
        a, b = a.outcome, b.outcome
        if (a.failure, a.answer, a.counts) != (b.failure, b.answer, b.counts):
            notes.append(f"MISMATCH {case.label}: untraced {a.failure} {a.answer} {a.counts}, "
                         f"traced {b.failure} {b.answer} {b.counts}")
    spans = tracer.arrays()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}.npz")
    # Span times are scaled like the call they belong to.
    scale = np.array([c.scale for c in traced])[spans["instance"]]
    layers = by_name(tracer.names, spans, scale)

    def layer(name):
        return layers.get(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "flagged": 0})

    def share(part, whole):
        return part / whole if whole else 0.0

    def stat(key):
        return sum(c.outcome.counts.get(key, 0) for c in traced)

    nodes, subsets = stat("nodes"), stat("subsets")
    # Time per node only over instances that printed their node count.
    counted = [i for i, c in enumerate(traced) if "nodes" in c.outcome.counts]
    search = (spans["name"] == tracer.name_id("branching")) & np.isin(spans["instance"], counted)
    search_ms = ((spans["end"] - spans["start"]) * scale)[search].sum() / 1e6
    prop = [layer(f"propagation.{op}") for op in ("normalize", "assign", "substitute_dual")]
    prop_calls = sum(p["calls"] for p in prop)
    find = layer("solver.find_xmodel")
    flipped = layer("subset_scan.flipped_union")
    plain_ms, traced_ms = sum(c.ms for c in plain), sum(c.ms for c in traced)
    values = {
        "cli.self_ms": layer("cli")["self_ms"],
        "dimacs.load_formula.calls": layer("dimacs.load_formula")["calls"],
        "dimacs.load_formula.self_ms": layer("dimacs.load_formula")["self_ms"],
        "formula.construct.calls": layer("formula.construct")["calls"],
        "formula.construct.self_ms": layer("formula.construct")["self_ms"],
        "formula.connected_components.calls": layer("formula.connected_components")["calls"],
        "formula.connected_components.self_ms": layer("formula.connected_components")["self_ms"],
        "formula.connected_components.splits": layer("formula.connected_components")["flagged"],
    }
    for op, p in zip(("normalize", "assign", "substitute_dual"), prop):
        values[f"propagation.{op}.calls"] = p["calls"]
        values[f"propagation.{op}.self_ms"] = p["self_ms"]
    values.update({
        "propagation.us_per_call": share(sum(p["self_ms"] for p in prop) * 1e3, prop_calls),
        "propagation.unsat_share": share(sum(p["flagged"] for p in prop), prop_calls),
        "branching.nodes": nodes,
        "branching.leaves": stat("leaves"),
        "branching.self_ms": layer("branching")["self_ms"],
        "branching.us_per_node": share(search_ms * 1e3, nodes),
        "branching.gen_h.calls": layer("branching.gen_h")["calls"],
        "branching.gen_h.self_ms": layer("branching.gen_h")["self_ms"],
        "solver.find_xmodel.calls": find["calls"],
        "solver.find_xmodel.self_ms": find["self_ms"],
        "solver.sat_share": share(find["flagged"], find["calls"]),
        "subset_scan.subsets_checked": subsets,
        "subset_scan.solver_calls": stat("solver_calls"),
        "subset_scan.allowed_share": share(flipped["calls"], subsets),
        "subset_scan.self_ms": layer("subset_scan")["self_ms"],
        "subset_scan.flipped_union.calls": flipped["calls"],
        "subset_scan.flipped_union.self_ms": flipped["self_ms"],
        "trace.overhead_share": traced_ms / plain_ms - 1,
    })
    units = {"calls": "count", "self_ms": "ms", "us_per_call": "us", "us_per_node": "us"}
    metrics = {}
    for name, value in values.items():
        suffix = name.rsplit(".", 1)[1]
        unit = units.get(suffix, "share" if suffix.endswith("share") else "count")
        metrics[name] = (value, unit)
    notes += [
        f"{len(cases)} instances, one untraced and one traced pass; {len(spans['start'])} spans "
        f"written to {(OUT / f'spans-{workload.name}.npz').relative_to(ROOT)}",
        f"tracing overhead {values['trace.overhead_share']:.1%} "
        f"(traced {traced_ms / 1e3:.3f} s, untraced {plain_ms / 1e3:.3f} s, scaled)",
        probe_note(probes),
    ]
    if tracer.missing:
        notes.append("call sites not found, their metrics read 0: " + ", ".join(tracer.missing))
    return metrics, [c.outcome for c in plain + traced], notes


def run_workload(name, seed, seconds, trace) -> int:
    from xbench.families import to_text
    from xbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    cases = load_cases(workload, seed)
    work = OUT / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for index, case in enumerate(cases):
            case.path = str(work / f"{index}.xsat")
            Path(case.path).write_text(to_text(case.instance))
        if trace:
            metrics, outcomes, notes = per_layer(workload, cases)
        else:
            metrics, outcomes, notes = end_to_end(workload, cases, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sources = Counter(case.source for case in cases)
    print(f"workload {name} seed {seed}: references " + ", ".join(f"{k} {v}" for k, v in sorted(sources.items())))
    for note in notes:
        print(note)
    failures = [(c.label, o.failure) for c, o in zip(cases * (len(outcomes) // len(cases)), outcomes) if not o.ok]
    for label, failure in sorted(set(failures))[:10]:
        print(f"failed: {label}: {failure}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    correct = not any(o.wrong for o in outcomes) and not any(n.startswith("MISMATCH") for n in notes)
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb is per workload."""
    from xbench.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xham" / "cli.py").is_file():
        print(f"xbench: no xham sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
