"""The four benchmark workloads and the run of one mode.

Each workload drives the simulator the way a user regenerating a figure
does: through :func:`repro.experiments.harness.run_open_loop` for the
MoonGen-style open-loop setups, and through
:func:`repro.experiments.harness.run_tcp` for the iperf3-style closed
loop. A :class:`Probe` keeps the engine, simulator and testbed those
entry points build, for the checks after the run.

Nothing here imports the program at module level: the set-up probe
times those imports in a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from tracer import Patches, recording_init

MODES = ("rss", "sprayer", "scr")

MILLISECOND = 10**9  # picoseconds; repro.sim.timeunits.MILLISECOND
LINE_RATE_64B_PPS = 10e9 / (84 * 8)  # repro.trafficgen.moongen
CHAIN = ("firewall", "nat", "traffic_monitor", "dpi")
#: Simulated time run after a mode's measured run, before the ledger
#: check, so queues, rings and in-flight batches empty.
DRAIN = 50 * MILLISECOND

#: The calibration loops, timed right before and after every run: each
#: run's host time is reported scaled to a reference machine on which
#: :func:`calibrate` reads NOMINAL_CALIBRATION_NS. On a shared machine
#: the speed drifts by tens of percent over seconds to minutes; the
#: loops drift with it, though more steeply than the simulator (see
#: README.md), so scaling keeps out the largest swings but not all of
#: the drift. Two loops, because neighbours slow
#: arithmetic and memory-bound code by different amounts: a plain
#: counting loop, and a miniature event loop (heap, dict, slotted
#: objects) shaped like the simulator's inner loop. Measured on this
#: kind of machine, their geometric mean tracks the simulator better than
#: either loop alone.
CALIBRATION_REPEATS = 3
NOMINAL_CALIBRATION_NS = 2_500_000


class _Flow:
    __slots__ = ("packets", "bytes", "last")

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.last = 0


def _count_loop() -> None:
    total = 0
    for i in range(50_000):
        total += i


def _event_loop(flows: Dict[int, _Flow]) -> None:
    heap = [(i, i, i * 97 % 4096) for i in range(64)]
    heapq.heapify(heap)
    seq = 64
    for _ in range(4_000):
        when, _seq, key = heapq.heappop(heap)
        flow = flows[key]
        flow.packets += 1
        flow.bytes += 64
        flow.last = when
        seq += 1
        heapq.heappush(heap, (when + seq * 7919 % 100, seq, (key * 31 + seq) % 4096))


def _fastest(loop, *args) -> int:
    """The fastest of CALIBRATION_REPEATS runs: a hiccup during one short
    repeat must not pass for the machine's speed."""
    best = None
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter_ns()
        loop(*args)
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def calibrate() -> float:
    """The machine's current speed: geometric mean of the two loops, in ns."""
    flows = {key: _Flow() for key in range(4096)}
    return math.sqrt(_fastest(_count_loop) * _fastest(_event_loop, flows))


@dataclass(frozen=True)
class Workload:
    """One traffic setup; why each was chosen is in BENCHMARK.json."""

    name: str
    #: "open": MoonGen-style constant rate; "closed": iperf3 TCP flows.
    loop: str
    #: Program modules the workload imports (timed by the set-up probe).
    imports: Tuple[str, ...]
    nf_cycles: int = 0
    num_flows: int = 1
    offered_pps: float = LINE_RATE_64B_PPS
    frame_len: int = 64
    payload_len: int = 0
    chain: Tuple[str, ...] = ()
    duration: int = 3 * MILLISECOND
    warmup: int = 1 * MILLISECOND


_OPEN = ("repro.experiments.harness",)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # No core queue overflows, but sprayer and scr steer through the
        # NIC's Flow Director, whose modelled 10.5 Mpps cap drops 29% of
        # the offered packets; the 1000-slot ingress link queue stays
        # full in every mode, so the simulated p50 (~68 us) is queueing
        # on that link.
        Workload("lr64_keepup", "open", _OPEN, nf_cycles=0, num_flows=1024),
        Workload("lr64_overload", "open", _OPEN, nf_cycles=10_000, num_flows=64),
        Workload(
            "chain_payload", "open", _OPEN + ("repro.core.chain", "repro.nfs.factory"),
            num_flows=64, offered_pps=2e6, frame_len=186, payload_len=128, chain=CHAIN,
        ),
        Workload(
            "iperf_tcp", "closed", _OPEN, nf_cycles=2000, num_flows=8,
            duration=10 * MILLISECOND, warmup=5 * MILLISECOND,
        ),
    )
}


class FirstEvent(Exception):
    """Raised by a probe that stops a run at its first simulated event."""


class Probe:
    """Observes one run from outside: its simulator, engine and set-up end.

    Patches ``Simulator.run`` (to stamp the first simulated event), and
    ``MiddleboxEngine.__init__`` and ``TcpTestbed.__init__`` (to keep
    the engine and the closed loop's testbed for the checks). With
    ``stop_at_first_event`` the first ``run`` raises :class:`FirstEvent`
    instead, which ends a set-up measurement.
    """

    def __init__(self, stop_at_first_event: bool = False):
        self.stop_at_first_event = stop_at_first_event
        self.first_event_ns: Optional[int] = None
        self.sims: List[object] = []
        self.engines: List[object] = []
        self.testbeds: List[object] = []
        self._patches = Patches()

    def __enter__(self) -> "Probe":
        from repro.core.engine import MiddleboxEngine
        from repro.sim.engine import Simulator
        from repro.trafficgen.iperf import TcpTestbed

        probe = self
        run = Simulator.__dict__["run"]

        def probed_run(sim, *args, **kwargs):
            if probe.first_event_ns is None:
                probe.first_event_ns = time.perf_counter_ns()
                if probe.stop_at_first_event:
                    raise FirstEvent()
            if sim not in probe.sims:
                probe.sims.append(sim)
            return run(sim, *args, **kwargs)

        self._patches.replace(Simulator, "run", probed_run)
        self._patches.replace(
            MiddleboxEngine, "__init__", recording_init(MiddleboxEngine, self.engines)
        )
        self._patches.replace(
            TcpTestbed, "__init__", recording_init(TcpTestbed, self.testbeds)
        )
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


def _discard(packet, now) -> None:
    """Sink for the drain phase of a closed loop: no new arrivals."""


def digest(value) -> str:
    payload = json.dumps(value, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class ModeRun:
    """One mode's run: what was measured and what is checked."""

    mode: str
    wall_ns: int
    #: Mean time of the calibration loop around this run.
    calibration_ns: float
    rx_packets: int
    events: int
    #: Simulated outputs, compared against the pinned values.
    outputs: Dict[str, object]
    #: Ledger problems found after draining (empty = balanced).
    ledger_errors: List[str]
    flow_entries: int
    delivered: int
    batches: int
    transfers: int
    scr_replays: int

    @property
    def scale(self) -> float:
        """Factor from this run's host time to the reference machine's."""
        return NOMINAL_CALIBRATION_NS / self.calibration_ns

    @property
    def scaled_wall_ns(self) -> float:
        return self.wall_ns * self.scale

    def counters(self) -> Dict[str, int]:
        """Exact work counts: a pure function of workload and seed."""
        return {
            "rx_packets": self.rx_packets,
            "events": self.events,
            "flow_entries": self.flow_entries,
            "delivered": self.delivered,
            "batches": self.batches,
            "transfers": self.transfers,
            "scr_replays": self.scr_replays,
        }


def start_run(workload: Workload, mode: str, seed: int):
    """Build and run one mode through the harness entry point; returns its result.

    The program call everything is timed against.
    """
    from repro.experiments import harness

    if workload.loop == "closed":
        return harness.run_tcp(
            mode,
            workload.nf_cycles,
            num_flows=workload.num_flows,
            duration=workload.duration,
            warmup=workload.warmup,
            seed=seed,
        )
    nf = None
    if workload.chain:
        from repro.core.chain import NfChain
        from repro.nfs.factory import make_nf

        nf = NfChain([make_nf(key) for key in workload.chain])
    return harness.run_open_loop(
        mode,
        workload.nf_cycles,
        num_flows=workload.num_flows,
        offered_pps=workload.offered_pps,
        duration=workload.duration,
        warmup=workload.warmup,
        seed=seed,
        frame_len=workload.frame_len,
        payload_len=workload.payload_len,
        nf=nf,
    )


def simulated_outputs(workload: Workload, result, summary: Dict[str, object]) -> Dict[str, object]:
    """The simulated results a user reads off the run (checked, not scored)."""
    outputs: Dict[str, object] = {"summary_digest": digest(summary)}
    if workload.loop == "open":
        outputs.update(
            rate_mpps=result.rate_mpps,
            goodput_gbps=result.rate_gbps,
            p50_us=result.latency.percentile_us(0.50),
            p99_us=result.latency.percentile_us(0.99),
        )
    else:
        window_s = (workload.duration - workload.warmup) / 1e12
        outputs.update(
            # The iperf testbed records no per-packet latency; its
            # simulated outputs are goodput and the TCP recovery counts.
            rate_mpps=summary["forwarded"] / (workload.duration / 1e12) / 1e6,
            goodput_gbps=result.total_goodput_gbps,
            goodput_window_s=window_s,
            retransmissions=result.retransmissions,
            fast_recoveries=result.fast_recoveries,
            spurious_recoveries=result.spurious_recoveries,
            timeouts=result.timeouts,
            reorder_events=result.reorder_events,
        )
    return outputs


def drain_and_check(probe: Probe) -> List[str]:
    """Run the simulation dry, then check the conservation ledger."""
    errors: List[str] = []
    for testbed in probe.testbeds:
        testbed.client_to_mb.sink = _discard
        testbed.server_to_mb.sink = _discard
    for sim in probe.sims:
        sim.run(until=sim.now + DRAIN)
    for engine in probe.engines:
        ledger = engine.conservation()
        if ledger["rx_packets"] != ledger["accounted"]:
            errors.append(f"rx_packets {ledger['rx_packets']} != accounted {ledger['accounted']}")
        if ledger["in_queues"] or ledger["in_rings"]:
            errors.append(f"undrained: {ledger['in_queues']} queued, {ledger['in_rings']} in rings")
        if any(core.busy for core in engine.host.cores):
            errors.append("a core is still busy after the drain")
        counters = engine.telemetry.counters()
        for name, key in (("rx.packets", "rx_packets"), ("tx.forwarded", "forwarded"),
                          ("nf.drops", "nf_drops"), ("ring.drops", "ring_drops")):
            if counters.get(name) != ledger[key]:
                errors.append(f"telemetry {name}={counters.get(name)} != ledger {key}={ledger[key]}")
    return errors


def run_mode(workload: Workload, mode: str, seed: int, tracer=None) -> ModeRun:
    """Run one mode, timed from its first simulated event to its return.

    With ``tracer`` the layers are wrapped for the run (and unwrapped
    before the drain and the checks, which are not part of the run).
    """
    before = calibrate()
    # The tracer goes in first so the probe's first-event stamp, and
    # the tracer's reset at that event, precede every traced span.
    if tracer is not None:
        tracer.install()
    try:
        with Probe() as probe:
            result = start_run(workload, mode, seed)
            end = time.perf_counter_ns()
    finally:
        if tracer is not None:
            tracer.remove()
    calibration_ns = (before + calibrate()) / 2
    if len(probe.engines) != 1 or probe.first_event_ns is None:
        raise RuntimeError(f"expected one engine and one simulation, got {len(probe.engines)}")
    engine = probe.engines[0]
    summary = result.engine_summary if workload.loop == "open" else engine.summary()
    outputs = simulated_outputs(workload, result, summary)
    events = sum(sim.events_processed for sim in probe.sims)
    errors = drain_and_check(probe)
    delivered = (
        summary["rx_packets"]
        - summary["rx_dropped_queue_full"]
        - summary["rx_dropped_fd_cap"]
        - summary["rx_dropped_fault"]
    )
    return ModeRun(
        mode=mode,
        wall_ns=end - probe.first_event_ns,
        calibration_ns=calibration_ns,
        rx_packets=summary["rx_packets"],
        events=events,
        outputs=outputs,
        ledger_errors=errors,
        flow_entries=summary["flow_entries"],
        delivered=delivered,
        batches=sum(engine.host.per_core_batches()),
        transfers=summary["transfers"],
        scr_replays=summary["telemetry"].get("scr.replay.packets", 0),
    )
