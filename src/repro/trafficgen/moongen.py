"""An open-loop packet generator in the role of MoonGen.

Generates fixed-size TCP frames at a constant rate, spread over a flow
set. "Variable payload content, and therefore variable checksum" is
modelled by drawing the TCP checksum uniformly per packet — exactly the
property Sprayer's Flow Director configuration relies on.

Packets are emitted in small bursts (one simulator event per burst, the
way a NIC delivers descriptors) to keep event counts tractable at
14.88 Mpps; the burst size bounds the timestamp quantization.
"""

from __future__ import annotations

import random
from array import array
from typing import Callable, List, Optional

from repro.net.batch import PacketBatch
from repro.net.five_tuple import FiveTuple
from repro.net.packet import (
    MIN_FRAME_SIZE,
    TCP_FRAME_HEADERS,
    Packet,
    make_tcp_packet,
)
from repro.net.tcp_flags import ACK, SYN
from repro.sim.engine import Simulator
from repro.sim.timeunits import SECOND

#: 10 GbE line rate for 64 B frames (84 wire bytes): 14.88 Mpps.
LINE_RATE_64B_PPS = 10e9 / (84 * 8)


class OpenLoopGenerator:
    """Constant-rate, fixed-size packet stream over a set of flows."""

    def __init__(
        self,
        sim: Simulator,
        sink: Callable[[Packet, int], None],
        flows: List[FiveTuple],
        rate_pps: float,
        rng: random.Random,
        frame_len: int = 64,
        burst: Optional[int] = None,
        open_connections: bool = True,
        arrival_process: str = "cbr",
        payload_len: int = 0,
    ):
        if payload_len < 0:
            raise ValueError(f"payload_len must be non-negative, got {payload_len}")
        min_frame_len = max(MIN_FRAME_SIZE, TCP_FRAME_HEADERS + payload_len)
        if frame_len < min_frame_len:
            raise ValueError(
                f"frame_len {frame_len} cannot carry payload_len {payload_len}: "
                f"need at least {min_frame_len} B"
            )
        if rate_pps <= 0:
            raise ValueError(f"rate_pps must be positive, got {rate_pps}")
        if not flows:
            raise ValueError("need at least one flow")
        if arrival_process not in ("cbr", "poisson"):
            raise ValueError(
                f"arrival_process must be 'cbr' or 'poisson', got {arrival_process!r}"
            )
        if arrival_process == "poisson":
            # Poisson arrivals are per-packet by definition.
            burst = 1
        if burst is None:
            # Auto-size: one simulator event per ~15 us of traffic, so
            # low rates are packet-smooth (no artificial burst queueing
            # in latency measurements) and line rate stays tractable.
            burst = min(32, max(1, round(rate_pps * 15e-6)))
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        not_tcp = [flow for flow in flows if flow.protocol != 6]
        if not_tcp:
            raise ValueError(f"not a TCP five-tuple: {not_tcp[0]}")
        self.arrival_process = arrival_process
        self.sim = sim
        self.sink = sink
        self.flows = list(flows)
        self.rate_pps = rate_pps
        self.rng = rng
        self.frame_len = frame_len
        self.burst = burst
        self.open_connections = open_connections
        #: Opt-in payload bytes per data packet (zero keeps the classic
        #: 64 B synthetic stream). One shared immutable buffer: payload
        #: *content* is constant, per-packet variability stays in the
        #: checksum draw, and payload-priced NFs (DPI scan cost, RE
        #: fingerprinting) see real bytes to work on.
        self.payload_len = payload_len
        self._payload: Optional[bytes] = bytes(payload_len) if payload_len else None
        #: Opt-in batch emission (the SoA spine): when set, each CBR
        #: burst is built as one columnar :class:`PacketBatch` and
        #: handed here instead of per-packet ``sink`` calls. The RNG
        #: draw order (one ``getrandbits(16)`` per packet) and the
        #: flow/seq rotation are identical to the scalar loop, so the
        #: packet stream is byte-for-byte the same. SYNs and poisson
        #: arrivals always stay on the scalar ``sink``.
        self.batch_sink: Optional[Callable[[PacketBatch, int], None]] = None
        #: Pre-built constant columns for one burst (see _burst).
        self._flags_col = array("H", (ACK,)) * burst
        self._frame_len_col = array("H", (frame_len,)) * burst
        self.packets_sent = 0
        self._next_flow = 0
        self._seq = [0] * len(self.flows)
        self._running = False
        self._burst_interval = round(burst * SECOND / rate_pps)

    def start(self, at: Optional[int] = None, duration: Optional[int] = None) -> None:
        """Begin generating; optionally stop after ``duration`` ps.

        If ``open_connections`` is set, one SYN per flow is emitted
        first (so stateful NFs have flow entries), then the data stream.
        """
        start_time = self.sim.now if at is None else at
        self._running = True
        self._stop_at = None if duration is None else start_time + duration
        if self.open_connections:
            self.sim.at(start_time, self._send_syns)
        self.sim.at(start_time, self._burst)

    def stop(self) -> None:
        self._running = False

    def _send_syns(self) -> None:
        now = self.sim.now
        for flow in self.flows:
            syn = make_tcp_packet(
                flow,
                flags=SYN,
                seq=0,
                tcp_checksum=self.rng.getrandbits(16),
                created_at=now,
                frame_len=self.frame_len,
            )
            self.sink(syn, now)

    def _burst(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        if self._stop_at is not None and now >= self._stop_at:
            self._running = False
            return
        flows = self.flows
        n_flows = len(flows)
        seqs = self._seq
        getrandbits = self.rng.getrandbits
        sink = self.sink
        frame_len = self.frame_len
        # Constructed via Packet directly — the flows were validated as
        # TCP once at init, so the per-packet make_tcp_packet check is
        # pure overhead at 14.88 Mpps — and with positional arguments
        # (CPython keyword calls cost a dict per call).
        make = Packet
        index = self._next_flow
        batch_sink = self.batch_sink
        # Payload-carrying streams stay scalar: PacketBatch has no
        # payload column (the SoA spine is a headers-only hot path).
        if batch_sink is not None and self.arrival_process == "cbr" and not self.payload_len:
            batch = PacketBatch()
            # Column-wise construction: the per-burst-constant columns
            # (flags, frame length, timestamp) extend in one C call
            # each, so the per-packet loop touches only the columns
            # that actually vary. Row values are identical to
            # batch.append per packet.
            burst = self.burst
            b_flows = batch.flows
            b_seqs = batch.seqs
            b_checksums = batch.checksums
            if n_flows == 1:
                # Single flow (every fig6 point): the flow column is
                # constant and the seq column consecutive, so both
                # extend in one C call. The checksum draws keep the
                # exact per-packet RNG order.
                seq = seqs[0]
                b_flows.extend([flows[0]] * burst)
                b_seqs.extend(range(seq, seq + burst))
                seqs[0] = seq + burst
                b_checksums.extend([getrandbits(16) for _ in range(burst)])
            else:
                for _ in range(burst):
                    seq = seqs[index]
                    seqs[index] = seq + 1
                    b_flows.append(flows[index])
                    b_seqs.append(seq)
                    b_checksums.append(getrandbits(16))
                    index += 1
                    if index == n_flows:
                        index = 0
            batch.flags.extend(self._flags_col)
            batch.frame_lens.extend(self._frame_len_col)
            batch.created_ats.extend(array("q", (now,)) * burst)
            batch_sink(batch, now)
        else:
            payload_len = self.payload_len
            payload = self._payload
            for _ in range(self.burst):
                seq = seqs[index]
                seqs[index] = seq + 1
                packet = make(
                    flows[index], ACK, seq, 0, payload_len, payload,
                    getrandbits(16), frame_len, now
                )
                sink(packet, now)
                index += 1
                if index == n_flows:
                    index = 0
        self._next_flow = index
        self.packets_sent += self.burst
        if self.arrival_process == "poisson":
            gap = round(self.rng.expovariate(self.rate_pps) * SECOND)
            self.sim.post_after(max(1, gap), self._burst)
        else:
            self.sim.post_after(self._burst_interval, self._burst)
