"""The SoA batch spine's record and link legs.

Four properties the conformance matrix cannot pin on its own:

1. **Pack/materialize roundtrip** (Hypothesis) — columnizing scalar
   packets and materializing them back preserves every packet-defining
   field, row for row, while drawing *fresh* packet ids (batch rows are
   views, not aliases).
2. **Clone identity under fault duplication** — a duplicating
   ``LinkFault`` on the batch path falls back to scalar sends and mints
   duplicates via ``Packet.clone()``: every delivered packet, original
   or duplicate, carries its own id.
3. **Egress timing** — the batch spine batches ingress only: in a full
   ``run_open_loop`` run every forwarded packet reaches the egress sink
   at its own arrival instant, exactly as on the scalar spine.
4. **Spine selection** — ``run_open_loop`` stages batches only when the
   cores cannot keep up with the offered load, and never for policies
   that cannot batch or for payload-carrying streams.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import harness
from repro.net import FiveTuple, make_tcp_packet
from repro.net.batch import PacketBatch
from repro.net.packet import Packet
from repro.nic.link import Link, LinkFault
from repro.sim import MICROSECOND, MILLISECOND, Simulator

# Column type bounds: flags/checksums/frame_lens are array('H'),
# seqs/created_ats are array('q').
u16 = st.integers(min_value=0, max_value=0xFFFF)
i48 = st.integers(min_value=0, max_value=2**48)

flows = st.builds(
    FiveTuple,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    u16,
    u16,
    st.sampled_from([6, 17]),
)

rows = st.tuples(flows, u16, i48, u16, u16, i48)


def batch_of(row_list) -> PacketBatch:
    batch = PacketBatch()
    for flow, flags, seq, checksum, frame_len, created_at in row_list:
        batch.append(flow, flags, seq, checksum, frame_len, created_at)
    return batch


class TestPackMaterializeRoundtrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(rows, max_size=64))
    def test_materialize_then_pack_preserves_every_row(self, row_list):
        batch = batch_of(row_list)
        assert list(batch.rows()) == row_list
        packets = batch.materialize_all()
        assert len(packets) == len(row_list)
        for packet, (flow, flags, seq, checksum, frame_len, created_at) in zip(
            packets, row_list
        ):
            assert packet.five_tuple == flow
            assert packet.flags == flags
            assert packet.seq == seq
            assert packet.tcp_checksum == checksum
            assert packet.frame_len == frame_len
            assert packet.created_at == created_at
        # pack() is the inverse: columnizing the scalar views gives the
        # same batch back, row for row.
        assert list(PacketBatch.pack(packets).rows()) == row_list

    @settings(max_examples=100, deadline=None)
    @given(st.lists(rows, min_size=1, max_size=64))
    def test_materialized_rows_draw_fresh_ids(self, row_list):
        batch = batch_of(row_list)
        first = batch.materialize_all()
        second = batch.materialize_all()
        ids = [p.packet_id for p in first + second]
        # Views, not aliases: every materialization is a new packet
        # from the process-wide id stream, in allocation order.
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids)

    def test_pack_of_generated_packets_roundtrips(self):
        rng = random.Random(5)
        packets = [
            make_tcp_packet(
                FiveTuple(rng.getrandbits(32), rng.getrandbits(32), 1234, 80, 6),
                tcp_checksum=rng.getrandbits(16),
            )
            for _ in range(16)
        ]
        batch = PacketBatch.pack(packets)
        for original, view in zip(packets, batch.materialize_all()):
            assert view.five_tuple == original.five_tuple
            assert view.tcp_checksum == original.tcp_checksum
            assert view.packet_id != original.packet_id


class TestCloneIdentityUnderLinkDup:
    """``link_dup`` faults on the batch path: every duplicate is a
    ``clone()`` with its own identity, and the fallback accounts them."""

    def _flow(self, i):
        return FiveTuple(0x0A000000 + i, 0x0B000000 + i, 40000 + i, 80, 6)

    def test_duplicates_get_fresh_packet_ids(self):
        sim = Simulator()
        delivered = []
        link = Link(sim, 10e9, 1 * MICROSECOND, name="dup-link")
        link.sink = lambda packet, now: delivered.append(packet)
        link.batch_sink = lambda batch, now: delivered.extend(
            batch.materialize_all()
        )
        link.set_fault(LinkFault(dup_p=1.0, rng=random.Random(3)))
        batch = PacketBatch.pack(
            [make_tcp_packet(self._flow(i), tcp_checksum=i) for i in range(8)]
        )
        link.send_batch(batch, sim.now)
        sim.run()
        # dup_p=1.0: every row delivered twice, via the scalar fallback.
        assert link.fault_duplicated == 8
        assert len(delivered) == 16
        ids = [p.packet_id for p in delivered]
        assert len(set(ids)) == len(ids), "a duplicate aliased its original's id"
        # Each original/duplicate pair carries the same flow identity.
        by_flow = {}
        for packet in delivered:
            by_flow.setdefault(packet.five_tuple, []).append(packet)
        assert all(len(pair) == 2 for pair in by_flow.values())

    def test_healthy_link_does_not_materialize(self):
        sim = Simulator()
        seen = []
        link = Link(sim, 10e9, 1 * MICROSECOND, name="clean-link")
        link.sink = lambda packet, now: seen.append(packet)
        link.batch_sink = lambda batch, now: seen.append(batch)
        batch = PacketBatch.pack(
            [make_tcp_packet(self._flow(i), tcp_checksum=i) for i in range(4)]
        )
        link.send_batch(batch, sim.now)
        # No fault: the batch arrives columnar, synchronously, with its
        # arrival column filled — no scalar deliveries, no heap events.
        assert seen == [batch]
        assert len(batch.arrivals) == 4
        assert not sim.has_live_events()


class TestEgressTiming:
    """Forwarded packets leave through ``Link.send``: on the batch spine
    too, each one reaches the egress sink by its own heap event, at the
    instant its last bit arrives."""

    @pytest.mark.parametrize("mode", ["rss", "sprayer", "scr"])
    def test_egress_sink_fires_at_arrival_time(self, mode, monkeypatch):
        calls = []

        class RecordingLink(Link):
            def __init__(self, sim, *args, sink=None, **kwargs):
                if sink is not None:
                    collector = sink

                    def sink(packet, now):
                        calls.append((sim.now, now))
                        collector(packet, now)

                super().__init__(sim, *args, sink=sink, **kwargs)

        monkeypatch.setattr(harness, "cores_overloaded", lambda *args: True)
        monkeypatch.setattr(harness, "Link", RecordingLink)
        result = harness.run_open_loop(
            mode, 0, num_flows=16, duration=2 * MILLISECOND, warmup=MILLISECOND
        )
        assert result.rate_mpps > 0
        # Packets still on the egress wire when the run stops are never
        # delivered; every delivered one is checked.
        assert 0 < len(calls) <= result.engine_summary["forwarded"]
        late = [(now, arrival) for now, arrival in calls if now != arrival]
        assert not late, f"{len(late)} egress deliveries off their arrival time"


class TestSpineSelection:
    """The harness attaches the batch spine's stager exactly when the
    cores cannot keep up: the only load where it beats the scalar
    spine, because it never boxes the packets the NIC drops."""

    #: perfbench's ``lr64_keepup`` and ``lr64_overload`` shapes, both at
    #: 64 B line rate (14.88 Mpps).
    KEEPUP = dict(nf_cycles=0, num_flows=1024)
    OVERLOAD = dict(nf_cycles=10_000, num_flows=64)

    @staticmethod
    def staged(monkeypatch, mode, **kwargs):
        attached = []

        class SpyStager(harness.ArrivalStager):
            def attach(self, link):
                attached.append(link)
                super().attach(link)

        monkeypatch.setattr(harness, "ArrivalStager", SpyStager)
        harness.run_open_loop(
            mode, duration=300 * MICROSECOND, warmup=100 * MICROSECOND, **kwargs
        )
        return bool(attached)

    @pytest.mark.parametrize("mode", ["rss", "sprayer", "scr"])
    @pytest.mark.parametrize(
        "shape, batch", [(KEEPUP, False), (OVERLOAD, True)], ids=["keepup", "overload"]
    )
    def test_spine_follows_offered_load(self, monkeypatch, mode, shape, batch):
        assert self.staged(monkeypatch, mode, **shape) is batch

    @pytest.mark.parametrize(
        "mode, shape, batch",
        [
            # One flow pins RSS to one core, which 14.88 Mpps overloads.
            ("rss", dict(nf_cycles=0, num_flows=1), True),
            # Eight cores at 1000 cycles handle 13.7 Mpps: more than
            # the Flow Director cap (10.5 Mpps) lets through.
            ("sprayer", dict(nf_cycles=1000, num_flows=64), False),
        ],
        ids=["rss-one-flow", "sprayer-fd-cap"],
    )
    def test_flow_count_and_fd_cap_bound_the_load(self, monkeypatch, mode, shape, batch):
        assert self.staged(monkeypatch, mode, **shape) is batch

    @pytest.mark.parametrize(
        "mode, stream",
        [("flowlet", {}), ("rss", dict(frame_len=186, payload_len=128))],
        ids=["flowlet", "payload"],
    )
    def test_unbatchable_streams_stay_scalar_under_overload(
        self, monkeypatch, mode, stream
    ):
        assert not self.staged(monkeypatch, mode, **self.OVERLOAD, **stream)
