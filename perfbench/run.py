"""Host-time benchmark of the Sprayer simulator.

Measures what a researcher regenerating the figures pays: host wall
time per simulated packet, set-up time and peak memory, for the paper's
two policies plus the ``scr`` extension (``rss``, ``sprayer``, ``scr``)
run back to back in this one single-threaded process. The simulated
results (Mpps, latency, goodput, the ``engine.summary()`` digest and the
conservation ledger) are not scored: they are checked against values
pinned in ``pinned.json``, and a mismatch counts the run as failed.

    python3 perfbench/run.py --workload lr64_keepup --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced runs and reports per-layer
self time and exact work counts from the traced ones (see tracer.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for ``setup_s`` (after one warm-up
#: child that also leaves the bytecode cache filled).
SETUP_CHILDREN = 5
SETUP_TIMEOUT_S = 120


class Checker:
    """Compares every mode run with the first one and with the pins.

    Each mode run is one operation. It fails when its conservation
    ledger does not balance, when any simulated output or exact work
    counter differs from the first run of the same mode in this process
    (determinism, and tracing as a pure observer), or when the seed is
    pinned and an output differs from ``pinned.json``.
    """

    def __init__(self, workload: str, seed: int):
        pins = json.loads((HERE / "pinned.json").read_text())
        self.pinned: Optional[Dict[str, dict]] = (
            pins["outputs"].get(workload, {}).get(str(seed))
        )
        self.reference: Dict[str, dict] = {}
        self.trace_reference: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, run, calls: Optional[dict] = None) -> None:
        self.attempted += 1
        problems = [f"ledger: {e}" for e in run.ledger_errors]
        observed = dict(run.outputs, **run.counters())
        reference = self.reference.setdefault(run.mode, observed)
        for key in sorted(set(reference) | set(observed)):
            if reference.get(key) != observed.get(key):
                problems.append(f"drift in {key}: {reference.get(key)} -> {observed.get(key)}")
        if self.pinned is not None:
            pinned = self.pinned.get(run.mode, {})
            for key in sorted(pinned):
                if pinned[key] != observed.get(key):
                    problems.append(f"pinned {key}: {pinned[key]} != {observed.get(key)}")
        if calls is not None:
            first = self.trace_reference.setdefault(run.mode, calls)
            if first != calls:
                changed = sorted(k for k in set(first) | set(calls) if first.get(k) != calls.get(k))
                problems.append(f"traced counts drifted: {changed[:5]}")
        if problems:
            self.failed += 1
            self.problems.extend(f"{run.mode}: {p}" for p in problems)


def measure_setup(workload: str, seed: int) -> Dict[str, List[float]]:
    """Set-up time in fresh interpreters: one warm-up, then the samples.

    Times are scaled to the reference machine like the host times, by
    the median of the children's calibrations.
    """
    from workloads import NOMINAL_CALIBRATION_NS

    children = []
    for index in range(SETUP_CHILDREN + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if index > 0:
            children.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    scale = NOMINAL_CALIBRATION_NS / 1e9 / median([c["calibration_s"] for c in children])
    return {
        "import_s": [scale * c["import_s"] for c in children],
        "build_s": [scale * c["build_s"] for c in children],
        "setup_s": [scale * (c["import_s"] + c["build_s"]) for c in children],
    }


def run_triple(workload, seed: int, checker: Checker, trace: bool, rotation: int = 0):
    """The three modes back to back; returns (runs, tracers or None).

    ``rotation`` shifts which mode runs first, so no mode always follows
    the same neighbour; results come back in MODES order regardless.
    """
    from tracer import Tracer
    from workloads import MODES, run_mode

    order = MODES[rotation % len(MODES):] + MODES[:rotation % len(MODES)]
    results = {}
    for mode in order:
        tracer = Tracer() if trace else None
        gc.collect()
        run = run_mode(workload, mode, seed, tracer=tracer)
        checker.check(run, calls=dict(tracer.calls) if trace else None)
        results[mode] = (run, tracer)
    runs = [results[mode][0] for mode in MODES]
    return runs, ([results[mode][1] for mode in MODES] if trace else None)


def per_pkt_us(wall_ns: int, packets: int) -> float:
    return wall_ns / 1000 / packets


def host_us(reps) -> Dict[str, float]:
    """Host time per simulated packet, overall and per mode.

    Each mode's wall time, scaled to the reference machine by the
    calibration loop timed around it, is its median over the triples;
    the overall figure is the three medians' sum over the three modes'
    packets.
    """
    from workloads import MODES

    walls = {
        mode: median([rep[i].scaled_wall_ns for rep in reps]) for i, mode in enumerate(MODES)
    }
    packets = {mode: reps[0][i].rx_packets for i, mode in enumerate(MODES)}
    metrics = {"host_us_per_pkt": per_pkt_us(sum(walls.values()), sum(packets.values()))}
    for mode in MODES:
        metrics[f"host_us_per_pkt.{mode}"] = per_pkt_us(walls[mode], packets[mode])
    return metrics


def end_to_end(reps, setup) -> Dict[str, tuple]:
    """metric -> (value, unit, sample count)."""
    metrics = {"setup_s": (median(setup["setup_s"]), "s", len(setup["setup_s"]))}
    for metric, value in host_us(reps).items():
        metrics[metric] = (value, "us", len(reps))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MB", 1)
    return metrics


def _layer_ns(runs, tracers) -> Dict[str, float]:
    """Self time per layer over a triple, scaled like the host time."""
    from tracer import LAYERS

    totals = [(run.scale, t.layer_self_ns()) for run, t in zip(runs, tracers)]
    return {layer: sum(scale * t[layer] for scale, t in totals) for layer in LAYERS}


def layer_us_per_pkt(traced) -> Dict[str, float]:
    """Median per-layer self time per packet over traced triples."""
    from tracer import LAYERS

    rx = sum(r.rx_packets for r in traced[0][0])
    per_triple = [_layer_ns(runs, tracers) for runs, tracers in traced]
    return {layer: median([per_pkt_us(ns[layer], rx) for ns in per_triple]) for layer in LAYERS}


def coverage(traced) -> float:
    """Self time wrappers attribute to named layers, less the event loop's
    own (see ``Tracer.covered_ns``), ÷ traced wall (first simulated event
    to the run's return)."""
    shares = []
    for runs, tracers in traced:
        covered = sum(run.scale * t.covered_ns() for run, t in zip(runs, tracers))
        shares.append(covered / sum(r.scaled_wall_ns for r in runs))
    return median(shares)


def per_layer(reps, traced, setup) -> Dict[str, tuple]:
    """metric -> (value, unit, sample count), from the traced runs.

    Times are medians over traced triples; counts come from one traced
    triple (they repeat exactly, which the checker enforces).
    """
    n = len(traced)
    metrics: Dict[str, tuple] = {
        f"{layer}.self_us_per_pkt": (value, "us", n)
        for layer, value in layer_us_per_pkt(traced).items()
    }
    runs, tracers = traced[0]
    rx = sum(r.rx_packets for r in runs)
    staged = sum(t.count("ArrivalStager.stage") for t in tracers)
    boxed = sum(t.count("PacketBatch.materialize") for t in tracers)
    metrics.update({
        "sim.events_per_pkt": (sum(r.events for r in runs) / rx, "count", 1),
        "nic.delivered_ratio": (sum(r.delivered for r in runs) / rx, "ratio", 1),
        "batch_spine.boxed_ratio": (boxed / staged if staged else 0.0, "ratio", 1),
        "engine.batches_per_pkt": (sum(r.batches for r in runs) / rx, "count", 1),
        "rings.transfers_per_pkt": (sum(r.transfers for r in runs) / rx, "count", 1),
        "scr.replays_per_pkt": (sum(r.scr_replays for r in runs) / rx, "count", 1),
        "flow_state.ops_per_pkt": (
            sum(t.layer_calls("flow_state") for t in tracers) / rx, "count", 1,
        ),
        "flow_state.entries": (sum(r.flow_entries for r in runs), "count", 1),
        "setup.import_s": (median(setup["import_s"]), "s", len(setup["import_s"])),
        "setup.build_s": (median(setup["build_s"]), "s", len(setup["build_s"])),
    })
    traced_wall = median([sum(r.scaled_wall_ns for r in runs_t) for runs_t, _ in traced])
    untraced_wall = median([sum(r.scaled_wall_ns for r in rep) for rep in reps])
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio", n)
    metrics["trace.coverage"] = (coverage(traced), "ratio", n)
    # What the scaling did: the unscaled host time, and the factor.
    raw_wall = median([sum(r.wall_ns for r in rep) for rep in reps])
    metrics["host.raw_us_per_pkt"] = (per_pkt_us(raw_wall, rx), "us", len(reps))
    metrics["host.speed_scale"] = (
        median([r.scale for rep in reps for r in rep]), "ratio", 3 * len(reps),
    )
    return metrics


def layer_table(traced, rx: int, top: int = 15) -> List[str]:
    """The traced run's hottest span keys, for reading by eye."""
    runs, tracers = traced[0]
    totals: Dict[tuple, List[int]] = {}
    for tracer in tracers:
        for key, ns in tracer.self_ns.items():
            entry = totals.setdefault(key, [0, 0])
            entry[0] += ns
            entry[1] += tracer.calls.get(key, 0)
    wall = sum(r.wall_ns for r in runs)
    lines = [f"{'layer':<12} {'span (unscaled host time)':<58} {'us/pkt':>8} {'share':>6} "
             f"{'calls':>9}"]
    for (layer, name), (ns, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0])[:top]:
        lines.append(
            f"{layer:<12} {name[:58]:<58} {per_pkt_us(ns, rx):8.3f} {ns / wall:6.1%} {calls:9d}"
        )
    return lines


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import MODES, WORKLOADS

    workload = WORKLOADS[name]
    setup = measure_setup(name, seed)
    checker = Checker(name, seed)
    # Warm-up triple: lazy imports and first-use caches settle here.
    run_triple(workload, seed, checker, trace=False)
    reps, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        runs, _ = run_triple(workload, seed, checker, trace=False, rotation=len(reps))
        reps.append(runs)
        if trace:
            traced.append(run_triple(workload, seed, checker, trace=True, rotation=len(reps)))
        if time.perf_counter() >= deadline:
            break
    rx = sum(r.rx_packets for r in reps[0])
    print(f"# {name} seed={seed}: {len(reps)} untraced triples ({', '.join(MODES)}), "
          f"{len(traced)} traced; rx_packets per triple = {rx} "
          f"({', '.join(f'{r.mode}={r.rx_packets}' for r in reps[0])})")
    if checker.pinned is None:
        print(f"# seed {seed} has no pinned outputs: checked for determinism and the ledger")
    for problem in checker.problems[:20]:
        print(f"# FAILED {problem}")
    if trace:
        metrics = per_layer(reps, traced, setup)
        for line in layer_table(traced, rx):
            print("# " + line)
    else:
        metrics = end_to_end(reps, setup)
    for metric, (value, unit, count) in metrics.items():
        print(f"{name}/{metric:<28} {value:14.6f} {unit:<6} n={count}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _n) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, each in its own process; prints workload/metric."""
    from workloads import WORKLOADS

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        child = json.loads(lines[-1])
        result["correct"] = result["correct"] and child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            result["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the simulator sources ({SRC / 'repro'}) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
