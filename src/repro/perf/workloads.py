"""The pinned benchmark workloads.

Each workload is a plain callable
``fn(quick: bool, jobs: int = 1) -> (ops, fingerprint)`` registered in
:data:`WORKLOADS`. The runner times the call; the workload returns how
many "operations" it performed (for ops/s reporting — what an operation
is varies per workload and only needs to be stable) and a deterministic
fingerprint of its computed results. Fingerprints are pure functions of
the pinned seeds, so they must match across runs and machines — and
across ``jobs`` settings: the macro sweeps return rows in canonical
order with per-point seeds independent of execution order, so a
parallel run fingerprints identically to a serial one. A mismatch
against the baseline means a change altered simulated behaviour, not
just its speed.

Micro workloads isolate one hot subsystem (Toeplitz hashing, steering
decisions, the event loop) and ignore ``jobs``; macro workloads run the
real Figure 6a/7a experiment code at pinned parameters through the
shared sweep runner.
"""

from __future__ import annotations

import json
import random
import zlib
from typing import Callable, Dict, Tuple

from repro.core.designated import DesignatedCoreMap
from repro.nic.rss import DEFAULT_RSS_KEY, SYMMETRIC_RSS_KEY, RssHasher
from repro.sim.engine import Simulator
from repro.trafficgen.flows import random_tcp_flows

Workload = Callable[..., Tuple[int, str]]


def _fingerprint(value) -> str:
    """Stable hex digest of any JSON-serializable value."""
    payload = json.dumps(value, sort_keys=True, default=str).encode()
    return f"{zlib.crc32(payload):08x}"


# -- micro -----------------------------------------------------------------


def micro_hash(quick: bool, jobs: int = 1) -> Tuple[int, str]:
    """Toeplitz hashing: cold (table-driven) plus memoized repeats."""
    n_flows = 2_000 if quick else 20_000
    passes = 3 if quick else 10
    rng = random.Random(42)
    flows = random_tcp_flows(n_flows, rng)
    acc = 0
    ops = 0
    for key in (DEFAULT_RSS_KEY, SYMMETRIC_RSS_KEY):
        hasher = RssHasher(num_queues=8, key=key)
        hash_fn = hasher.hash
        for _ in range(passes):
            for flow in flows:
                acc ^= hash_fn(flow)
                ops += 1
    return ops, _fingerprint(acc)


def micro_steer(quick: bool, jobs: int = 1) -> Tuple[int, str]:
    """Designated-core decisions over a flow set, both directions."""
    n_flows = 2_000 if quick else 20_000
    passes = 3 if quick else 10
    rng = random.Random(43)
    flows = random_tcp_flows(n_flows, rng)
    dmap = DesignatedCoreMap(num_cores=8)
    core_for = dmap.core_for
    acc = 0
    ops = 0
    for _ in range(passes):
        for flow in flows:
            acc = (acc * 31 + core_for(flow)) & 0xFFFFFFFF
            acc = (acc * 31 + core_for(flow.reversed())) & 0xFFFFFFFF
            ops += 2
    return ops, _fingerprint(acc)


def micro_event_loop(quick: bool, jobs: int = 1) -> Tuple[int, str]:
    """Event-loop churn: schedule/fire plus heavy timer cancellation."""
    n_events = 20_000 if quick else 200_000
    sim = Simulator()
    state = {"fired": 0}

    def tick() -> None:
        state["fired"] += 1

    # Fire-and-forget events at distinct times.
    for i in range(n_events):
        sim.post(i * 10, tick)
    # A cancelled timer for every 4 live events, exercising the lazy
    # cancellation and auto-compaction paths.
    for i in range(n_events // 4):
        sim.at(i * 40 + 1, tick).cancel()
    sim.run()
    fired = state["fired"]
    return fired, _fingerprint([fired, sim.now, sim.has_live_events()])


# -- macro -----------------------------------------------------------------


def macro_fig6a(quick: bool, jobs: int = 1) -> Tuple[int, str]:
    """The Figure 6a sweep (processing rate vs NF cycles), pinned."""
    from repro.experiments.fig6 import run_fig6a
    from repro.experiments.runner import SweepRunner
    from repro.sim.timeunits import MILLISECOND

    runner = SweepRunner(jobs=jobs)
    if quick:
        rows = run_fig6a(
            cycles_sweep=(0, 10000),
            duration=4 * MILLISECOND,
            warmup=1 * MILLISECOND,
            seed=1,
            runner=runner,
        )
    else:
        rows = run_fig6a(seed=1, runner=runner)
    return len(rows), _fingerprint(rows)


def macro_fig7a(quick: bool, jobs: int = 1) -> Tuple[int, str]:
    """The Figure 7a sweep (processing rate vs flow count), pinned."""
    from repro.experiments.fig7 import run_fig7a
    from repro.experiments.runner import SweepRunner
    from repro.sim.timeunits import MILLISECOND

    runner = SweepRunner(jobs=jobs)
    if quick:
        rows = run_fig7a(
            flow_sweep=(1, 16, 128),
            duration=4 * MILLISECOND,
            warmup=1 * MILLISECOND,
            seed=1,
            runner=runner,
        )
    else:
        rows = run_fig7a(seed=1, runner=runner)
    return len(rows), _fingerprint(rows)


def macro_figr(quick: bool, jobs: int = 1) -> Tuple[int, str]:
    """The Figure R resilience study (core slowdown, 3 modes), pinned."""
    from repro.experiments.figr import run_figr
    from repro.experiments.runner import SweepRunner
    from repro.sim.timeunits import MILLISECOND

    runner = SweepRunner(jobs=jobs)
    if quick:
        rows, timeline = run_figr(
            duration=6 * MILLISECOND,
            warmup=1 * MILLISECOND,
            fault_at=2 * MILLISECOND,
            fault_until=4 * MILLISECOND,
            seed=1,
            runner=runner,
        )
    else:
        rows, timeline = run_figr(seed=1, runner=runner)
    return len(rows) + len(timeline), _fingerprint([rows, timeline])


def macro_figs(quick: bool, jobs: int = 1) -> Tuple[int, str]:
    """The Figure S head-to-head (SCR vs Sprayer, flood+crash), pinned."""
    from repro.experiments.figs import run_figs
    from repro.experiments.runner import SweepRunner
    from repro.sim.timeunits import MILLISECOND

    runner = SweepRunner(jobs=jobs)
    if quick:
        panels = run_figs(
            duration=6 * MILLISECOND,
            warmup=1 * MILLISECOND,
            fault_at=3 * MILLISECOND,
            seed=1,
            runner=runner,
        )
    else:
        panels = run_figs(seed=1, runner=runner)
    rows = panels["flood"] + panels["crash"]
    return len(rows), _fingerprint(panels)


def macro_figc(quick: bool, jobs: int = 1) -> Tuple[int, str]:
    """The Figure C cluster serving study (autoscale + crash), pinned.

    Both sizes are reduced against the reporting run: the bench tracks
    the serving stack's wall-time cost (dispatch, live migration,
    autoscaler ticks, SLO bucketing), which does not need the full
    O(10^5)-flow trace to regress visibly.
    """
    from repro.experiments.figc import run_figc
    from repro.experiments.runner import SweepRunner

    runner = SweepRunner(jobs=jobs)
    shared = dict(
        num_cores=2,
        nf_cycles=2000,
        crash_ms=2,
        steady_ms=1,
        epoch_ms=0.5,
        min_hosts=1,
        max_hosts=4,
        migration_base_us=50.0,
        seed=1,
        runner=runner,
    )
    if quick:
        rows, timeline, phases = run_figc(
            num_hosts=2,
            arrival_rate=1e5,
            trace_ms=3,
            duration_ms=5,
            drain_ms=4,
            max_packets_per_flow=3,
            **shared,
        )
    else:
        rows, timeline, phases = run_figc(
            num_hosts=3,
            arrival_rate=4e5,
            trace_ms=6,
            duration_ms=9,
            drain_ms=7,
            max_packets_per_flow=4,
            **shared,
        )
    return len(rows) + len(timeline), _fingerprint([rows, timeline, phases])


def macro_figp(quick: bool, jobs: int = 1) -> Tuple[int, str]:
    """The Figure P planner race (seven policies x the chain mix).

    Covers the planner end to end: source inference over every chain
    stage, plan synthesis, chain construction, and the payload-carrying
    scalar open-loop path the race runs on.
    """
    from repro.experiments.figp import run_figp
    from repro.experiments.runner import SweepRunner
    from repro.sim.timeunits import MILLISECOND

    runner = SweepRunner(jobs=jobs)
    if quick:
        panels = run_figp(
            duration=2 * MILLISECOND,
            warmup=1 * MILLISECOND,
            seed=1,
            runner=runner,
        )
    else:
        panels = run_figp(seed=1, runner=runner)
    rows = panels["throughput"] + panels["p99"]
    return len(rows), _fingerprint(panels)


#: Registration order is execution order: micro first (fast feedback),
#: then the macro sweeps.
WORKLOADS: Dict[str, Workload] = {
    "hash": micro_hash,
    "steer": micro_steer,
    "event_loop": micro_event_loop,
    "fig6a": macro_fig6a,
    "fig7a": macro_fig7a,
    "figr": macro_figr,
    "figs": macro_figs,
    "figc": macro_figc,
    "figp": macro_figp,
}
