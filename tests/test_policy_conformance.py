"""Differential policy-conformance matrix: every steering mode, one bar.

Every policy in :data:`repro.core.config.MODES` — rss, sprayer, naive,
prognic, flowlet, subset, scr — must clear the same four invariants:

1. **Packet conservation** — after the simulation drains, every packet
   the NIC saw is forwarded or accounted to a named drop class.
2. **Byte-identical rerun** — the same seed reproduces the same
   summary and telemetry counters, byte for byte.
3. **``--jobs`` invariance** — a sweep over all modes returns
   byte-identical values whether run serially or on a process pool.
4. **Strict-checks purity** — arming the runtime checkers does not
   perturb results on violation-free traffic; and the one policy whose
   discipline *can* be violated (naive spraying of connection packets
   onto shared state) is caught red-handed by the auditor.

The matrix is the conformance bar for adding a steering mode: a new
policy that breaks any cell fails here, not in a downstream figure.
"""

import json
import random

import pytest

from repro.core import MiddleboxConfig, MiddleboxEngine, OwnershipViolation
from repro.core.config import MODES
from repro.experiments import harness
from repro.experiments.harness import run_open_loop
from repro.experiments.runner import SweepRunner
from repro.experiments.spec import Scenario
from repro.net import ACK, SYN, FiveTuple, make_tcp_packet
from repro.nfs import SyntheticNf
from repro.sim import MILLISECOND, Simulator

ALL_MODES = list(MODES)

RUN_KWARGS = dict(
    nf_cycles=1000,
    num_flows=8,
    offered_pps=2e6,
    duration=2 * MILLISECOND,
    warmup=500_000_000,  # 0.5 ms
    seed=7,
)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=repr)


def strip_checks_family(counters):
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith("checks.")
    }


def strip_summary(summary):
    out = dict(summary)
    out["telemetry"] = strip_checks_family(summary.get("telemetry", {}))
    return out


def flow(i: int = 1) -> FiveTuple:
    return FiveTuple(0x0A000000 + i, 0x0A010000 + i, 10000 + i, 80, 6)


def build_engine(mode: str, strict: bool = False, **config_kwargs):
    sim = Simulator()
    config = MiddleboxConfig(mode=mode, num_cores=8, **config_kwargs)
    engine = MiddleboxEngine(
        sim, SyntheticNf(busy_cycles=500), config, strict_checks=strict
    )
    engine.set_egress(lambda pkt: None)
    return sim, engine


def drive(sim, engine, seed=11, flows=6, packets=48) -> None:
    rng = random.Random(seed)
    for i in range(flows):
        engine.receive(
            make_tcp_packet(flow(i), flags=SYN, tcp_checksum=rng.getrandbits(16)),
            sim.now,
        )
    sim.run(until=sim.now + MILLISECOND)
    for seq in range(packets):
        for i in range(flows):
            packet = make_tcp_packet(
                flow(i), flags=ACK, seq=seq, tcp_checksum=rng.getrandbits(16)
            )
            engine.receive(packet, sim.now)
        if seq % 16 == 15:
            sim.run(until=sim.now + MILLISECOND)
    sim.run(until=sim.now + 5 * MILLISECOND)


def test_matrix_covers_every_registered_mode():
    assert set(ALL_MODES) == {
        "rss", "sprayer", "naive", "prognic", "flowlet", "subset", "scr",
    }


@pytest.mark.parametrize("mode", ALL_MODES)
class TestConformanceMatrix:
    def test_packet_conservation(self, mode):
        sim, engine = build_engine(mode)
        drive(sim, engine)
        ledger = engine.conservation()
        assert ledger["in_queues"] == 0 and ledger["in_rings"] == 0
        assert ledger["rx_packets"] == ledger["accounted"], ledger

    def test_byte_identical_rerun(self, mode):
        first = run_open_loop(mode, **RUN_KWARGS)
        second = run_open_loop(mode, **RUN_KWARGS)
        assert first.rate_mpps == second.rate_mpps
        assert canonical(first.engine_summary) == canonical(second.engine_summary)
        assert canonical(first.telemetry["counters"]) == canonical(
            second.telemetry["counters"]
        )

    def test_strict_checks_are_pure_observers(self, mode):
        plain = run_open_loop(mode, **RUN_KWARGS)
        strict = run_open_loop(mode, strict_checks=True, **RUN_KWARGS)
        assert plain.rate_mpps == strict.rate_mpps
        assert canonical(strip_summary(plain.engine_summary)) == canonical(
            strip_summary(strict.engine_summary)
        )
        counters = strict.telemetry["counters"]
        assert counters["checks.ownership.violations"] == 0


@pytest.mark.parametrize("mode", ALL_MODES)
class TestSpineConformance:
    """The batch data path's acceptance bar: for every policy, the SoA
    spine (columnar bursts, eager steering, lazy settlement) must be
    byte-identical to the scalar spine — rates, engine
    summary, full telemetry (counters, time series, trace), and every
    latency sample. The harness picks the spine from the offered load,
    so each run forces one by substituting its load test. Policies that
    cannot batch (flowlet's gap detector is arrival-order-stateful)
    exercise the fallback: forced to batch, they keep scalar ingress."""

    def test_scalar_and_batch_rows_are_byte_identical(self, mode, monkeypatch):
        monkeypatch.setattr(harness, "cores_overloaded", lambda *args: False)
        scalar = run_open_loop(mode, **RUN_KWARGS)
        monkeypatch.setattr(harness, "cores_overloaded", lambda *args: True)
        batch = run_open_loop(mode, **RUN_KWARGS)
        assert scalar.rate_mpps == batch.rate_mpps
        assert scalar.rate_gbps == batch.rate_gbps
        assert canonical(scalar.engine_summary) == canonical(batch.engine_summary)
        assert canonical(scalar.telemetry) == canonical(batch.telemetry)
        assert scalar.latency.samples == batch.latency.samples


class TestJobsInvariance:
    """One sweep over all seven modes: serial == process pool."""

    def test_parallel_sweep_is_byte_identical(self):
        points = [
            Scenario.make("open_loop", label="conformance", mode=mode, **RUN_KWARGS)
            for mode in ALL_MODES
        ]
        serial = SweepRunner(jobs=1).run(points)
        parallel = SweepRunner(jobs=2).run(points)
        assert len(serial) == len(parallel) == len(ALL_MODES)
        for one, two in zip(serial, parallel):
            assert one.scenario == two.scenario
            assert canonical(one.values) == canonical(two.values)


class TestNaiveViolationIsCaught:
    """The matrix's negative control: naive spraying breaks the
    single-writer discipline, and the armed auditor says so."""

    def test_second_writer_core_raises_under_strict(self):
        sim, engine = build_engine("naive", strict=True)
        f = flow(1)
        # Two connection packets of one flow with checksums that spray
        # to different queues: two cores end up writing the same
        # shared-state entry (get_local on the second SYN is a write).
        engine.receive(make_tcp_packet(f, flags=SYN, tcp_checksum=0), sim.now)
        sim.run(until=sim.now + MILLISECOND)
        with pytest.raises(OwnershipViolation):
            engine.receive(make_tcp_packet(f, flags=SYN, tcp_checksum=1), sim.now)
            sim.run(until=sim.now + MILLISECOND)

    def test_same_traffic_is_clean_under_scr(self):
        """The identical adversarial pattern is *sanctioned* under SCR:
        each core writes only its own replica."""
        sim, engine = build_engine("scr", strict=True)
        f = flow(1)
        engine.receive(make_tcp_packet(f, flags=SYN, tcp_checksum=0), sim.now)
        sim.run(until=sim.now + MILLISECOND)
        engine.receive(make_tcp_packet(f, flags=SYN, tcp_checksum=1), sim.now)
        sim.run(until=sim.now + MILLISECOND)
        assert engine.checks.ownership.violations == 0
        assert engine.stats.packets_forwarded == 2
