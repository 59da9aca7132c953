"""Tests for NF service chains."""

import random

import pytest

from repro.core import MiddleboxConfig, MiddleboxEngine
from repro.core.chain import NfChain, ScopedContext, _ScopedFlowKey
from repro.core.nf import NetworkFunction
from repro.net import ACK, FIN, SYN, FiveTuple, make_tcp_packet
from repro.nfs import FirewallNf, NatNf, TrafficMonitorNf
from repro.nfs.factory import make_nf
from repro.nfs.firewall import AclRule
from repro.sim import MILLISECOND, Simulator


def flow(i: int = 1, dst_port: int = 80) -> FiveTuple:
    return FiveTuple(0x0A000000 + i, 0x0A010000 + i, 10000 + i, dst_port, 6)


def build_chain_engine(stages, mode="sprayer"):
    sim = Simulator()
    chain = NfChain(stages)
    engine = MiddleboxEngine(sim, chain, MiddleboxConfig(mode=mode, num_cores=8))
    out = []
    engine.set_egress(out.append)
    return sim, chain, engine, out


def drive(sim, engine, f, data=8, rng=None):
    rng = rng or random.Random(5)
    engine.receive(make_tcp_packet(f, flags=SYN, tcp_checksum=rng.getrandbits(16)), sim.now)
    sim.run(until=sim.now + MILLISECOND)
    for seq in range(data):
        engine.receive(
            make_tcp_packet(f, flags=ACK, seq=seq, tcp_checksum=rng.getrandbits(16)),
            sim.now,
        )
    sim.run(until=sim.now + 5 * MILLISECOND)


class TestScopedKeys:
    def test_scoped_keys_are_distinct_per_scope(self):
        key_a = _ScopedFlowKey("nat", flow())
        key_b = _ScopedFlowKey("firewall", flow())
        assert key_a != key_b
        assert hash(key_a) != hash(key_b) or key_a != key_b

    def test_scoped_key_preserves_designation(self):
        """Scoping tags the key but the designated core follows the tuple."""
        sim, chain, engine, out = build_chain_engine(
            [FirewallNf(acl=[AclRule(action="permit")])]
        )
        f = flow()
        assert engine.designated_core(_ScopedFlowKey("x", f)) == engine.designated_core(f)

    def test_scoped_key_reversal(self):
        key = _ScopedFlowKey("s", flow())
        assert key.reversed().flow == flow().reversed()
        assert key.reversed().scope == "s"


@pytest.mark.parametrize("mode", ["rss", "sprayer"])
class TestChainExecution:
    def test_firewall_nat_monitor_chain(self, mode):
        nat = NatNf(external_ip=0x0B000001)
        firewall = FirewallNf(acl=[AclRule(action="permit", dst_port=80)])
        monitor = TrafficMonitorNf()
        sim, chain, engine, out = build_chain_engine([firewall, nat, monitor], mode)
        drive(sim, engine, flow(), data=8)
        # The firewall admitted, the NAT translated, the monitor counted.
        assert firewall.connections_admitted == 1
        assert nat.translations_active == 1
        assert monitor.connections_opened == 1
        assert len(out) == 9
        assert out[-1].five_tuple.src_ip == 0x0B000001  # translated

    def test_stage_drop_stops_chain(self, mode):
        firewall = FirewallNf(acl=[])  # default deny: drops every SYN
        nat = NatNf(external_ip=0x0B000001)
        sim, chain, engine, out = build_chain_engine([firewall, nat], mode)
        drive(sim, engine, flow(), data=4)
        assert out == []
        assert nat.translations_active == 0  # the NAT never saw the SYN
        assert chain.drops_by_stage[0] == 5
        assert chain.drops_by_stage[1] == 0


class TestChainStateIsolation:
    def test_two_stateful_stages_keep_separate_entries(self):
        firewall = FirewallNf(acl=[AclRule(action="permit")])
        monitor = TrafficMonitorNf()
        sim, chain, engine, out = build_chain_engine([firewall, monitor])
        drive(sim, engine, flow(), data=4)
        # Both stages inserted entries for both directions: 4 total.
        assert engine.flow_state.total_entries() == 4

    def test_chain_name_and_statelessness(self):
        from repro.nfs import RedundancyEliminationNf

        chain = NfChain([RedundancyEliminationNf()])
        assert chain.stateless
        mixed = NfChain([RedundancyEliminationNf(), TrafficMonitorNf()])
        assert not mixed.stateless
        assert "redundancy_elimination" in mixed.name

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            NfChain([])

    def test_stage_contexts_expose_stage_scoped_storage(self):
        monitor = TrafficMonitorNf()
        firewall = FirewallNf(acl=[AclRule(action="permit")])
        sim, chain, engine, out = build_chain_engine([firewall, monitor])
        drive(sim, engine, flow(), data=6)
        scoped = chain.stage_contexts(engine.contexts, monitor)
        totals = monitor.aggregate(scoped)
        assert totals["packets"] == 7  # SYN + 6 data

    def test_stage_contexts_rejects_foreign_nf(self):
        monitor = TrafficMonitorNf()
        sim, chain, engine, out = build_chain_engine([monitor])
        with pytest.raises(ValueError):
            chain.stage_contexts(engine.contexts, TrafficMonitorNf())

    def test_teardown_through_directional_chain(self):
        """Return traffic traverses [firewall, nat] in reverse order, so
        the NAT un-translates before the firewall matches state."""
        from repro.trafficgen.flows import is_toward_server

        firewall = FirewallNf(acl=[AclRule(action="permit")])
        nat = NatNf(external_ip=0x0B000001)
        sim = Simulator()
        chain = NfChain(
            [firewall, nat],
            direction_fn=lambda p: is_toward_server(p.five_tuple.dst_ip),
        )
        engine = MiddleboxEngine(sim, chain, MiddleboxConfig(mode="sprayer", num_cores=8))
        out = []
        engine.set_egress(out.append)
        f = flow()
        rng = random.Random(5)
        drive(sim, engine, f, data=2, rng=rng)
        translated = out[0].five_tuple
        # Return data: arrives addressed to the external mapping, is
        # un-translated by the NAT, then passes the firewall.
        engine.receive(
            make_tcp_packet(translated.reversed(), flags=ACK,
                            tcp_checksum=rng.getrandbits(16)),
            sim.now,
        )
        sim.run(until=sim.now + 2 * MILLISECOND)
        assert out[-1].five_tuple == f.reversed()
        # Close from both sides.
        engine.receive(make_tcp_packet(f, flags=FIN | ACK, tcp_checksum=rng.getrandbits(16)), sim.now)
        sim.run(until=sim.now + 2 * MILLISECOND)
        engine.receive(
            make_tcp_packet(translated.reversed(), flags=FIN | ACK,
                            tcp_checksum=rng.getrandbits(16)),
            sim.now,
        )
        sim.run(until=sim.now + 5 * MILLISECOND)
        assert nat.translations_active == 0


@pytest.mark.parametrize("mode", ["rss", "sprayer"])
class TestDpiInChain:
    """DPI as the last stage of firewall > nat > traffic_monitor > dpi."""

    def _drive(self, mode, payloads):
        stages = [make_nf(key) for key in ("firewall", "nat", "traffic_monitor", "dpi")]
        sim, chain, engine, out = build_chain_engine(stages, mode)
        rng = random.Random(3)
        f = flow()
        engine.receive(make_tcp_packet(f, flags=SYN, tcp_checksum=rng.getrandbits(16)), sim.now)
        sim.run(until=sim.now + MILLISECOND)
        for seq, payload in enumerate(payloads):
            packet = make_tcp_packet(f, flags=ACK, seq=seq, tcp_checksum=rng.getrandbits(16))
            packet.payload = payload
            packet.payload_len = len(payload)
            engine.receive(packet, sim.now)
            sim.run(until=sim.now + MILLISECOND)
        return stages[-1], engine, out

    def test_split_signature_matches_once_in_the_dpi_scope(self, mode):
        dpi, engine, out = self._drive(mode, [b"...atta", b"ck..."])
        assert len(out) == 3
        assert len(dpi.matches) == 1
        flow_id, pattern_index = dpi.matches[0]
        assert dpi.automaton.patterns[pattern_index] == b"attack"
        assert flow_id.src_ip == 0x0B000001  # DPI sees the NAT's rewrite
        # The automaton state never lands in the unscoped per-core storage.
        assert not any("dpi_states" in ctx.local for ctx in engine.contexts)
        scoped = [ctx.local.get("chain:dpi", {}).get("dpi_states") for ctx in engine.contexts]
        if mode == "rss":
            assert not dpi._shared_states
            assert len([states for states in scoped if states]) == 1
        else:
            assert dpi._shared_states
            assert not any(scoped)
