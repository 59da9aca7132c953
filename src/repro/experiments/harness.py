"""Shared experiment plumbing.

Two wirings, mirroring the two measurement setups of §5:

- :func:`run_open_loop` — the MoonGen setup: a constant-rate 64 B
  stream through the middlebox, counting egress packets (processing
  rate) and per-packet latency (generator timestamp to return-side
  arrival, both wire legs included).
- :func:`run_tcp` — the iperf3 setup: closed-loop TCP flows through
  the middlebox (see :class:`repro.trafficgen.iperf.TcpTestbed`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.batch_spine import ArrivalStager
from repro.core.config import MiddleboxConfig
from repro.core.engine import MiddleboxEngine
from repro.core.nf import NetworkFunction
from repro.metrics.latency import LatencyRecorder
from repro.metrics.throughput import RateMeter
from repro.net.packet import Packet
from repro.nfs.synthetic import SyntheticNf
from repro.nic.link import Link
from repro.sim.engine import Simulator
from repro.sim.timeunits import MICROSECOND, MILLISECOND
from repro.tcpstack.endpoint import TcpConfig
from repro.trafficgen.flows import random_tcp_flows
from repro.trafficgen.iperf import TcpTestbed, TcpTestbedResult
from repro.trafficgen.moongen import LINE_RATE_64B_PPS, OpenLoopGenerator


@dataclass
class OpenLoopResult:
    """Measured rates and latencies of one open-loop run."""

    mode: str
    nf_cycles: int
    num_flows: int
    offered_pps: float
    rate_mpps: float
    rate_gbps: float
    latency: LatencyRecorder
    engine_summary: Dict[str, object] = field(default_factory=dict)
    #: Full telemetry export of the run's engine (counters + time series
    #: + trace events); see :meth:`repro.telemetry.EngineTelemetry.dump`.
    telemetry: Dict[str, object] = field(default_factory=dict)

    @property
    def p99_latency_us(self) -> float:
        return self.latency.percentile_us(0.99)


# Telemetry capture note: there is deliberately no module-global capture
# list here. ``--telemetry-out`` collection happens in the scenario
# layer (:mod:`repro.experiments.spec`), which carries each run's dump
# inside the point result — the only channel that survives a process
# boundary when sweeps run under ``--jobs N``.


def build_engine(
    mode: str,
    nf: Optional[NetworkFunction] = None,
    nf_cycles: int = 0,
    num_cores: int = 8,
    sim: Optional[Simulator] = None,
    **config_kwargs,
) -> MiddleboxEngine:
    """A middlebox engine with the paper's defaults."""
    sim = sim or Simulator()
    nf = nf or SyntheticNf(busy_cycles=nf_cycles)
    config = MiddleboxConfig(mode=mode, num_cores=num_cores, **config_kwargs)
    return MiddleboxEngine(sim, nf, config)


def cores_overloaded(
    engine: MiddleboxEngine, offered_pps: float, num_flows: int, nf_cycles: int
) -> bool:
    """Whether the cores cannot keep up with the packets they will receive.

    This picks the ingress spine of :func:`run_open_loop`. The batch
    spine pays off only when the NIC queues overflow: it never boxes a
    packet the NIC drops. When the cores keep up, every packet is boxed
    and wakes its core at its own timestamp on either spine, so the
    columnar staging is pure overhead and the scalar spine is faster.

    Flow Director's cap drops the excess before any core sees it, and
    without Flow Director (RSS and its kin) ``num_flows`` flows occupy
    at most that many cores.
    """
    nic = engine.nic.config
    arrival = offered_pps
    cores = engine.config.num_cores
    if nic.flow_director_enabled:
        if nic.flow_director_pps_cap:
            arrival = min(arrival, nic.flow_director_pps_cap)
    else:
        cores = min(num_flows, cores)
    return arrival > cores * engine.costs.single_core_rate_pps(nf_cycles)


def run_open_loop(
    mode: str,
    nf_cycles: int,
    num_flows: int = 1,
    offered_pps: float = LINE_RATE_64B_PPS,
    duration: int = 8 * MILLISECOND,
    warmup: int = 2 * MILLISECOND,
    seed: int = 1,
    num_cores: int = 8,
    frame_len: int = 64,
    nf: Optional[NetworkFunction] = None,
    burst: Optional[int] = None,
    payload_len: int = 0,
    flows: Optional[List] = None,
    **config_kwargs,
) -> OpenLoopResult:
    """One MoonGen-style measurement point.

    ``burst`` is the generator's tx-burst size (None = auto). Latency
    experiments care: packet generators emit micro-bursts, and a burst
    landing on one RSS core queues behind itself while Sprayer fans it
    out across cores.

    ``payload_len`` puts real payload bytes on every data packet so
    payload-priced NFs (DPI scanning, RE fingerprinting) do real work;
    the stream then stays on the scalar spine (batches carry headers
    only). ``flows`` overrides the generated flow set (e.g. VIP-targeted
    flows for a load-balancer chain); ``num_flows`` is ignored then.
    """
    if not 0 <= warmup < duration:
        raise ValueError(f"need 0 <= warmup < duration, got {warmup}, {duration}")
    sim = Simulator()
    rng = random.Random(seed)
    engine = build_engine(
        mode, nf=nf, nf_cycles=nf_cycles, num_cores=num_cores, sim=sim, **config_kwargs
    )

    meter = RateMeter()
    latency = LatencyRecorder()

    def collector(packet: Packet, now: int) -> None:
        meter.record(packet.frame_len)
        if meter.measuring:
            latency.record(now - packet.created_at)

    ingress = Link(sim, 10e9, 1 * MICROSECOND, name="gen->mb", queue_limit=1000)
    ingress.sink = engine.receive  # matches the sink signature directly
    egress = Link(sim, 10e9, 1 * MICROSECOND, sink=collector, name="mb->gen")
    engine.set_egress(egress.send)

    # MoonGen cannot exceed line rate for the frame size.
    line_rate = 10e9 / ((frame_len + 20) * 8)
    offered = min(offered_pps, line_rate)
    if flows is None:
        flows = random_tcp_flows(num_flows, rng)
    else:
        flows = list(flows)
        num_flows = len(flows)
    generator = OpenLoopGenerator(
        sim,
        ingress.send,
        flows,
        offered,
        rng,
        frame_len=frame_len,
        burst=burst,
        payload_len=payload_len,
    )
    # The SoA batch spine: columnar bursts, eager steering, lazy
    # settlement. Byte-identical to the scalar spine (enforced by the
    # conformance suite), so the choice changes speed only. Policies
    # that cannot batch and payload-carrying streams (batches are a
    # headers-only hot path) stay scalar.
    if (
        engine.ingress_batchable
        and not payload_len
        and cores_overloaded(engine, offered, len(flows), nf_cycles)
    ):
        ArrivalStager(engine).attach(ingress)
        generator.batch_sink = ingress.send_batch
    generator.start(at=0)
    sim.run(until=warmup)
    meter.open_window(sim.now)
    sim.run(until=duration)
    meter.close_window(sim.now)
    generator.stop()
    return OpenLoopResult(
        mode=mode,
        nf_cycles=nf_cycles,
        num_flows=num_flows,
        offered_pps=offered,
        rate_mpps=meter.rate_mpps,
        rate_gbps=meter.rate_gbps,
        latency=latency,
        engine_summary=engine.summary(),
        telemetry=engine.telemetry.dump(),
    )


def measure_capacity(
    mode: str,
    nf_cycles: int,
    num_flows: int = 1,
    seed: int = 1,
    num_cores: int = 8,
    **config_kwargs,
) -> float:
    """Saturation processing rate (pps) for a mode/NF-cost point.

    A thin wrapper over the capacity-kind :class:`Scenario`, so direct
    callers and Figure 8's sweep share one code path (same pinned
    duration/warmup, same plumbing).
    """
    from repro.experiments.spec import Scenario, run_scenario

    scenario = Scenario.make(
        "capacity",
        mode=mode,
        nf_cycles=nf_cycles,
        num_flows=num_flows,
        seed=seed,
        num_cores=num_cores,
        **config_kwargs,
    )
    return run_scenario(scenario).values["pps"]


def run_tcp(
    mode: str,
    nf_cycles: int,
    num_flows: int = 1,
    duration: int = 150 * MILLISECOND,
    warmup: Optional[int] = None,
    seed: int = 1,
    num_cores: int = 8,
    cc_factory=None,
    tcp_config: Optional[TcpConfig] = None,
    nf: Optional[NetworkFunction] = None,
    **config_kwargs,
) -> TcpTestbedResult:
    """One iperf3-style measurement point."""
    if warmup is None:
        warmup = duration // 2
    if not 0 <= warmup < duration:
        raise ValueError(f"need 0 <= warmup < duration, got {warmup}, {duration}")
    sim = Simulator()
    rng = random.Random(seed)
    engine = build_engine(
        mode, nf=nf, nf_cycles=nf_cycles, num_cores=num_cores, sim=sim, **config_kwargs
    )
    testbed = TcpTestbed(
        sim,
        engine,
        num_flows=num_flows,
        rng=rng,
        cc_factory=cc_factory,
        tcp_config=tcp_config,
    )
    result = testbed.run(duration=duration, warmup=warmup)
    result.telemetry = engine.telemetry.dump()
    return result
