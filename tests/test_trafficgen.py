"""Tests for traffic generation: distributions, flows, MoonGen, traces."""

import random

import pytest

from repro.net.five_tuple import PROTO_TCP
from repro.sim import MICROSECOND, MILLISECOND, SECOND, Simulator
from repro.trafficgen import (
    BoundedLognormal,
    BoundedPareto,
    FlowSizeDistribution,
    OpenLoopGenerator,
    SyntheticBackboneTrace,
    random_tcp_flows,
)
from repro.trafficgen.flows import CLIENT_NET, SERVER_NET, is_toward_server
from repro.trafficgen.trace import TraceFlow


class TestDistributions:
    def test_bounded_pareto_respects_bounds(self):
        dist = BoundedPareto(alpha=1.3, lower=10e6, upper=1e9)
        rng = random.Random(1)
        for _ in range(500):
            value = dist.sample(rng)
            assert 10e6 <= value <= 1e9

    def test_bounded_pareto_mean_close_to_analytic(self):
        dist = BoundedPareto(alpha=1.5, lower=1.0, upper=1e6)
        rng = random.Random(2)
        samples = [dist.sample(rng) for _ in range(40000)]
        assert sum(samples) / len(samples) == pytest.approx(dist.mean(), rel=0.15)

    def test_bounded_lognormal_respects_upper(self):
        dist = BoundedLognormal(median=8000, sigma=2.0, upper=1e6)
        rng = random.Random(3)
        assert all(dist.sample(rng) <= 1e6 for _ in range(500))

    def test_flow_sizes_elephants_carry_most_bytes(self):
        dist = FlowSizeDistribution()
        rng = random.Random(4)
        sizes = [dist.sample(rng) for _ in range(60000)]
        big = sum(s for s in sizes if s >= 10e6)
        assert big / sum(sizes) > 0.6

    def test_flow_sizes_elephants_are_rare(self):
        dist = FlowSizeDistribution()
        rng = random.Random(5)
        sizes = [dist.sample(rng) for _ in range(30000)]
        count = sum(1 for s in sizes if s >= 10e6)
        assert count / len(sizes) < 0.02

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BoundedPareto(alpha=0, lower=1, upper=2)
        with pytest.raises(ValueError):
            BoundedLognormal(median=-1, sigma=1, upper=10)
        with pytest.raises(ValueError):
            FlowSizeDistribution(elephant_probability=1.5)


class TestRandomFlows:
    def test_count_and_uniqueness(self):
        flows = random_tcp_flows(100, random.Random(1))
        assert len(flows) == 100
        assert len(set(flows)) == 100

    def test_nets_and_protocol(self):
        for flow in random_tcp_flows(50, random.Random(2)):
            assert flow.src_ip & 0xFFFF0000 == CLIENT_NET
            assert flow.dst_ip & 0xFFFF0000 == SERVER_NET
            assert flow.protocol == PROTO_TCP

    def test_direction_helper(self):
        flow = random_tcp_flows(1, random.Random(3))[0]
        assert is_toward_server(flow.dst_ip)
        assert not is_toward_server(flow.src_ip)


class TestOpenLoopGenerator:
    def _run(self, rate_pps, duration, **kwargs):
        sim = Simulator()
        received = []
        flows = random_tcp_flows(4, random.Random(7))
        generator = OpenLoopGenerator(
            sim, lambda p, now: received.append(p), flows, rate_pps,
            random.Random(8), **kwargs,
        )
        generator.start(at=0)
        sim.run(until=duration)
        generator.stop()
        return received

    def test_rate_is_respected(self):
        received = self._run(1e6, 10 * MILLISECOND)
        data = [p for p in received if not p.is_connection]
        rate = len(data) / (10 * MILLISECOND / SECOND)
        assert rate == pytest.approx(1e6, rel=0.05)

    def test_syns_open_each_flow_once(self):
        received = self._run(1e5, 2 * MILLISECOND)
        syns = [p for p in received if p.is_connection]
        assert len(syns) == 4
        assert len({p.five_tuple for p in syns}) == 4

    def test_flows_share_rate_round_robin(self):
        received = self._run(1e6, 10 * MILLISECOND)
        data = [p for p in received if not p.is_connection]
        counts = {}
        for packet in data:
            counts[packet.five_tuple] = counts.get(packet.five_tuple, 0) + 1
        values = list(counts.values())
        assert max(values) - min(values) <= 1

    def test_checksums_look_uniform(self):
        received = self._run(1e6, 5 * MILLISECOND)
        lsb_counts = [0] * 8
        for packet in received:
            lsb_counts[packet.tcp_checksum & 0x7] += 1
        total = sum(lsb_counts)
        for count in lsb_counts:
            assert abs(count - total / 8) < total / 8 * 0.3

    def test_open_connections_disabled(self):
        received = self._run(1e5, MILLISECOND, open_connections=False)
        assert not any(p.is_connection for p in received)

    def test_burst_autosizing(self):
        sim = Simulator()
        flows = random_tcp_flows(1, random.Random(1))
        slow = OpenLoopGenerator(sim, lambda p, t: None, flows, 1e5, random.Random(2))
        fast = OpenLoopGenerator(sim, lambda p, t: None, flows, 14.88e6, random.Random(3))
        assert slow.burst < fast.burst
        assert fast.burst == 32

    def test_validation(self):
        sim = Simulator()
        flows = random_tcp_flows(1, random.Random(1))
        with pytest.raises(ValueError):
            OpenLoopGenerator(sim, lambda p, t: None, flows, 0, random.Random(2))
        with pytest.raises(ValueError):
            OpenLoopGenerator(sim, lambda p, t: None, [], 1e6, random.Random(2))
        # A frame too short for its headers and payload would be priced
        # on the wire as the shorter frame.
        for frame_len, payload_len in ((64, 128), (185, 128), (10, 0)):
            with pytest.raises(
                ValueError, match=f"frame_len {frame_len} .*payload_len {payload_len}"
            ):
                OpenLoopGenerator(
                    sim, lambda p, t: None, flows, 1e6, random.Random(2),
                    frame_len=frame_len, payload_len=payload_len,
                )
        for frame_len, payload_len in ((64, 0), (64, 6), (186, 128)):
            OpenLoopGenerator(
                sim, lambda p, t: None, flows, 1e6, random.Random(2),
                frame_len=frame_len, payload_len=payload_len,
            )


class TestTraceFlow:
    def test_packet_in_window_exact(self):
        flow = TraceFlow(start=1000, size_bytes=4500, rate_bps=1e6,
                         num_packets=3, packet_gap=500)
        # Arrivals at 1000, 1500, 2000.
        assert flow.has_packet_in(900, 150)
        assert flow.has_packet_in(1400, 200)
        assert not flow.has_packet_in(1100, 300)  # gap between arrivals
        assert not flow.has_packet_in(2100, 500)  # after the last packet
        assert flow.end == 2000

    def test_single_packet_flow(self):
        flow = TraceFlow(start=50, size_bytes=100, rate_bps=1e6,
                         num_packets=1, packet_gap=0)
        assert flow.has_packet_in(0, 100)
        assert not flow.has_packet_in(51, 100)


class TestSyntheticTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return SyntheticBackboneTrace(random.Random(1), duration_s=6.0)

    def test_elephants_carry_most_bytes(self, trace):
        assert trace.bytes_fraction_above(10e6) > 0.7

    def test_elephants_are_rare(self, trace):
        sizes = trace.flow_sizes()
        big = sum(1 for s in sizes if s >= 10e6)
        assert big / len(sizes) < 0.01

    def test_all_flow_concurrency_band(self, trace):
        q = trace.concurrency_quantiles(samples=1000)
        assert 2 <= q["median"] <= 9  # paper: 4
        assert 7 <= q["p99"] <= 25  # paper: 14

    def test_large_flow_concurrency_band(self, trace):
        q = trace.concurrency_quantiles(samples=1000, min_size_bytes=10e6)
        assert q["median"] <= 4  # paper: 1
        assert q["p99"] <= 8  # paper: 6

    def test_enterprise_preset_is_sparser(self):
        backbone = SyntheticBackboneTrace(random.Random(3), duration_s=3.0)
        enterprise = SyntheticBackboneTrace.enterprise(random.Random(3), duration_s=3.0)
        q_b = backbone.concurrency_quantiles(samples=500)
        q_e = enterprise.concurrency_quantiles(samples=500)
        assert q_e["median"] <= q_b["median"]

    def test_size_cdfs_are_monotone(self, trace):
        curves = trace.size_cdfs()
        for name in ("flows", "bytes"):
            values = [point[1] for point in curves[name]]
            assert values == sorted(values)
            assert values[-1] == pytest.approx(1.0)

    def test_bytes_cdf_lags_flow_cdf(self, trace):
        """Elephants: at any size, byte mass accumulates slower than
        flow count — the visual gap between Figure 1's two curves."""
        curves = trace.size_cdfs(points=50)
        flows = dict(curves["flows"])
        bytes_curve = dict(curves["bytes"])
        common = sorted(set(flows) & set(bytes_curve))[:-1]
        assert common
        assert all(bytes_curve[size] <= flows[size] + 1e-9 for size in common)
