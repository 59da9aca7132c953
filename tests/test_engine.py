"""Integration tests for the middlebox engine under every steering mode."""

import random

import pytest

from repro.core import MiddleboxConfig, MiddleboxEngine, NetworkFunction, WritingPartitionError
from repro.core.config import MODES
from repro.net import ACK, FIN, SYN, FiveTuple, make_tcp_packet, make_udp_packet
from repro.net.five_tuple import PROTO_UDP
from repro.nfs import SyntheticNf
from repro.sim import MILLISECOND, Simulator


def tcp_flow(i: int = 1) -> FiveTuple:
    return FiveTuple(0x0A000000 + i, 0x0A010000 + i, 10000 + i, 80, 6)


def build(mode: str, nf=None, **kwargs):
    sim = Simulator()
    nf = nf or SyntheticNf(busy_cycles=1000)
    engine = MiddleboxEngine(sim, nf, MiddleboxConfig(mode=mode, num_cores=8, **kwargs))
    outputs = []
    engine.set_egress(outputs.append)
    return sim, engine, outputs


def inject_connection(sim, engine, flow, packets=100, rng=None):
    rng = rng or random.Random(7)
    engine.receive(make_tcp_packet(flow, flags=SYN, tcp_checksum=rng.getrandbits(16)), sim.now)
    sim.run(until=sim.now + MILLISECOND)
    for seq in range(packets):
        pkt = make_tcp_packet(flow, flags=ACK, seq=seq, tcp_checksum=rng.getrandbits(16))
        engine.receive(pkt, sim.now)
        if seq % 32 == 31:
            sim.run(until=sim.now + MILLISECOND)
    sim.run(until=sim.now + 5 * MILLISECOND)


class TestAllModes:
    @pytest.mark.parametrize("mode", MODES)
    def test_packets_flow_through(self, mode):
        sim, engine, outputs = build(mode)
        inject_connection(sim, engine, tcp_flow(), packets=64)
        assert len(outputs) == 65  # SYN + 64 data

    @pytest.mark.parametrize("mode", MODES)
    def test_flow_state_created_exactly_once(self, mode):
        sim, engine, outputs = build(mode)
        inject_connection(sim, engine, tcp_flow(), packets=10)
        # Synthetic NF inserts both directions on the first SYN.
        assert engine.flow_state.total_entries() == 2

    @pytest.mark.parametrize("mode", MODES)
    def test_writing_partition_never_violated(self, mode):
        """Enforcement is on; any violation would raise inside sim.run."""
        sim, engine, outputs = build(mode)
        for i in range(8):
            inject_connection(sim, engine, tcp_flow(i), packets=16)
        assert engine.flow_state.total_entries() == 16


class TestRssBehaviour:
    def test_single_flow_uses_one_core(self):
        sim, engine, outputs = build("rss")
        inject_connection(sim, engine, tcp_flow(), packets=128)
        used = [c for c in engine.host.per_core_forwarded() if c > 0]
        assert len(used) == 1

    def test_no_ring_transfers(self):
        sim, engine, outputs = build("rss")
        for i in range(4):
            inject_connection(sim, engine, tcp_flow(i), packets=16)
        assert engine.stats.transfers == 0


class TestSprayerBehaviour:
    def test_single_flow_uses_all_cores(self):
        sim, engine, outputs = build("sprayer")
        inject_connection(sim, engine, tcp_flow(), packets=256)
        used = [c for c in engine.host.per_core_forwarded() if c > 0]
        assert len(used) == 8

    def test_connection_packets_reach_designated_core(self):
        sim, engine, outputs = build("sprayer")
        flow = tcp_flow()
        rng = random.Random(3)
        engine.receive(make_tcp_packet(flow, flags=SYN, tcp_checksum=rng.getrandbits(16)), 0)
        sim.run(until=5 * MILLISECOND)
        designated = engine.designated_core(flow)
        syn_packet = outputs[0]
        assert syn_packet.processed_core == designated

    def test_both_directions_share_designated_core(self):
        sim, engine, outputs = build("sprayer")
        flow = tcp_flow()
        assert engine.designated_core(flow) == engine.designated_core(flow.reversed())

    def test_fin_reaches_designated_core(self):
        sim, engine, outputs = build("sprayer")
        flow = tcp_flow()
        rng = random.Random(3)
        inject_connection(sim, engine, flow, packets=8, rng=rng)
        engine.receive(
            make_tcp_packet(flow, flags=FIN | ACK, tcp_checksum=rng.getrandbits(16)), sim.now
        )
        sim.run(until=sim.now + 5 * MILLISECOND)
        assert outputs[-1].processed_core == engine.designated_core(flow)

    def test_udp_not_sprayed(self):
        sim, engine, outputs = build("sprayer")
        udp = FiveTuple(0x0A000001, 0x0A010001, 5000, 53, PROTO_UDP)
        for i in range(50):
            engine.receive(make_udp_packet(udp), sim.now)
            if i % 16 == 15:
                sim.run(until=sim.now + MILLISECOND)
        sim.run(until=sim.now + 5 * MILLISECOND)
        cores = {p.processed_core for p in outputs}
        assert len(cores) == 1

    def test_transfer_count_matches_foreign_connection_packets(self):
        sim, engine, outputs = build("sprayer")
        rng = random.Random(5)
        transfers_expected = 0
        for i in range(20):
            flow = tcp_flow(i)
            syn = make_tcp_packet(flow, flags=SYN, tcp_checksum=rng.getrandbits(16))
            arrival_queue = engine.nic.classify(syn)
            if arrival_queue != engine.designated_core(flow):
                transfers_expected += 1
            engine.receive(syn, sim.now)
            sim.run(until=sim.now + MILLISECOND)
        assert engine.stats.transfers == transfers_expected


class TestProgrammableNicMode:
    def test_no_software_transfers(self):
        """§7: the NIC steers connection packets; rings stay idle."""
        sim, engine, outputs = build("prognic")
        for i in range(20):
            inject_connection(sim, engine, tcp_flow(i), packets=8)
        assert engine.stats.transfers == 0

    def test_still_sprays_regular_packets(self):
        sim, engine, outputs = build("prognic")
        inject_connection(sim, engine, tcp_flow(), packets=256)
        used = [c for c in engine.host.per_core_forwarded() if c > 0]
        assert len(used) == 8


class TestSubsetMode:
    def test_flow_confined_to_subset(self):
        sim, engine, outputs = build("subset", subset_size=2)
        inject_connection(sim, engine, tcp_flow(), packets=256)
        used = [c for c in engine.host.per_core_forwarded() if c > 0]
        assert len(used) == 2


class TestFlowletMode:
    def test_backoff_gap_moves_flowlet(self):
        sim, engine, outputs = build("flowlet", flowlet_gap=1 * MILLISECOND)
        flow = tcp_flow()
        rng = random.Random(9)
        engine.receive(make_tcp_packet(flow, flags=SYN, tcp_checksum=rng.getrandbits(16)), 0)
        sim.run(until=sim.now + MILLISECOND)
        # Two bursts separated by > flowlet_gap: may map to two queues,
        # but every packet within a burst shares its queue.
        for burst in range(2):
            for seq in range(10):
                engine.receive(
                    make_tcp_packet(flow, flags=ACK, seq=seq, tcp_checksum=rng.getrandbits(16)),
                    sim.now,
                )
            sim.run(until=sim.now + 3 * MILLISECOND)
        data = [p for p in outputs if not p.is_connection]
        first_burst_cores = {p.processed_core for p in data[:10]}
        second_burst_cores = {p.processed_core for p in data[10:]}
        assert len(first_burst_cores) == 1
        assert len(second_burst_cores) == 1
        assert engine.policy.flowlets_started >= 2


class TestNaiveMode:
    def test_shared_state_pays_invalidations(self):
        """Without designated cores, a flow's SYN and FIN land on
        arbitrary cores; both write its state, so ownership bounces."""

        class OpenCloseNf(NetworkFunction):
            name = "open-close"

            def connection_packets(self, packets, ctx):
                for packet in packets:
                    if packet.flags & SYN:
                        ctx.insert_local_flow(packet.five_tuple, {"open": True})
                    else:
                        entry = ctx.get_local_flow(packet.five_tuple)
                        if entry is not None:
                            entry["open"] = False

        sim, engine, outputs = build("naive", nf=OpenCloseNf())
        rng = random.Random(17)
        for i in range(32):
            flow = tcp_flow(i)
            engine.receive(
                make_tcp_packet(flow, flags=SYN, tcp_checksum=rng.getrandbits(16)), sim.now
            )
            sim.run(until=sim.now + MILLISECOND)
            engine.receive(
                make_tcp_packet(flow, flags=FIN | ACK, tcp_checksum=rng.getrandbits(16)),
                sim.now,
            )
            sim.run(until=sim.now + MILLISECOND)
        assert engine.coherence.stats.invalidating_writes > 0

    def test_sprayer_avoids_those_invalidations(self):
        """Same workload under Sprayer: single-writer discipline keeps
        every flow-state write an owner write."""

        class OpenCloseNf(NetworkFunction):
            name = "open-close"

            def connection_packets(self, packets, ctx):
                for packet in packets:
                    if packet.flags & SYN:
                        ctx.insert_local_flow(packet.five_tuple, {"open": True})
                    else:
                        entry = ctx.get_local_flow(packet.five_tuple)
                        if entry is not None:
                            entry["open"] = False

        sim, engine, outputs = build("sprayer", nf=OpenCloseNf())
        rng = random.Random(17)
        for i in range(32):
            flow = tcp_flow(i)
            engine.receive(
                make_tcp_packet(flow, flags=SYN, tcp_checksum=rng.getrandbits(16)), sim.now
            )
            sim.run(until=sim.now + MILLISECOND)
            engine.receive(
                make_tcp_packet(flow, flags=FIN | ACK, tcp_checksum=rng.getrandbits(16)),
                sim.now,
            )
            sim.run(until=sim.now + MILLISECOND)
        assert engine.coherence.stats.invalidating_writes == 0


class TestStatelessNf:
    def test_stateless_skips_flow_tables_and_redirection(self):
        class StatelessCounter(NetworkFunction):
            name = "counter"
            stateless = True

            def __init__(self):
                self.count = 0

            def regular_packets(self, packets, ctx):
                self.count += len(packets)

        nf = StatelessCounter()
        sim, engine, outputs = build("sprayer", nf=nf)
        inject_connection(sim, engine, tcp_flow(), packets=32)
        assert nf.count == 33  # SYN included: everything is "regular"
        assert engine.stats.transfers == 0
        assert engine.flow_state.total_entries() == 0


class TestEngineAccounting:
    def test_summary_fields(self):
        sim, engine, outputs = build("sprayer")
        inject_connection(sim, engine, tcp_flow(), packets=16)
        summary = engine.summary()
        assert summary["policy"] == "sprayer"
        assert summary["forwarded"] == 17
        assert summary["rx_packets"] == 17
        assert summary["flow_entries"] == 2
        assert len(summary["per_core_forwarded"]) == 8

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            MiddleboxConfig(mode="nope")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", 0),
            ("queue_capacity", 0),
            ("queue_capacity", -1),
            ("ring_capacity", -1),
            ("flow_table_capacity", 0),
            ("spray_bits", -1),
        ],
    )
    def test_bad_config_rejected_naming_the_field(self, field, value):
        # Rejected at construction, before any component is built, with
        # a message that names the offending field.
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            MiddleboxConfig(**{field: value})
