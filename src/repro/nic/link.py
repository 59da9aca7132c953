"""Point-to-point link with serialization and propagation delay.

Models the back-to-back 10 GbE cables of the paper's testbed. A link is
unidirectional; a full-duplex cable is two ``Link`` instances. Packets
are serialized FIFO at the line rate (including Ethernet preamble and
inter-frame gap) and delivered to a sink callback after the propagation
delay.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Deque, Dict, Optional

from repro.net.batch import NO_ARRIVAL, PacketBatch
from repro.net.packet import ETHERNET_OVERHEAD, Packet
from repro.sim.engine import Simulator
from repro.sim.timeunits import MICROSECOND, SECOND


@dataclass
class LinkFault:
    """An active impairment window on a link (fault injection).

    ``loss_p``/``dup_p`` are per-packet Bernoulli probabilities drawn
    from ``rng`` (the fault plan's private RNG — workload randomness is
    untouched); ``jitter_ps`` adds a uniform extra delivery delay in
    [0, jitter_ps]. Loss happens *after* serialization: the transmitter
    still pays the wire time, the far end just never sees the frame.
    """

    loss_p: float = 0.0
    dup_p: float = 0.0
    jitter_ps: int = 0
    rng: Optional[random.Random] = None


class Link:
    """A unidirectional serializing link.

    ``sink(packet, now)`` is invoked at the instant the last bit arrives
    at the far end. Sending while the transmitter is busy queues the
    packet behind the in-flight ones (unbounded: senders in this
    simulator are either paced generators or TCP, both self-limiting).
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float = 10e9,
        propagation_delay: int = MICROSECOND,
        sink: Optional[Callable[[Packet, int], None]] = None,
        name: str = "link",
        queue_limit: Optional[int] = None,
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {rate_bps}")
        if propagation_delay < 0:
            raise ValueError("propagation_delay must be non-negative")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.sink = sink
        self.name = name
        #: Max packets queued at the transmitter (None = unbounded).
        #: Models the sending host's qdisc (Linux pfifo txqueuelen).
        self.queue_limit = queue_limit
        #: Finish times of frames still occupying the transmit queue.
        #: Expired entries are popped lazily on the next send, so queue
        #: accounting costs no simulator events at all.
        self._pending_finish: Deque[int] = deque()
        #: Serialization time per wire size — frames come in a handful
        #: of sizes, so the division+round runs once per size.
        self._ser_cache: Dict[int, int] = {}
        self._transmitter_free_at = 0
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_dropped = 0
        #: Optional telemetry hook, ``on_drop(kind, packet, now)`` —
        #: the same channel the NIC uses, with distinct kinds
        #: ("tx_queue_full", "link_loss").
        self.on_drop: Optional[Callable[[str, Packet, int], None]] = None
        #: Batch-spine delivery target, called as ``batch_sink(batch,
        #: now)`` synchronously from :meth:`send_batch` once the arrival
        #: column is filled — no per-packet heap events. Scalar sends
        #: keep using ``sink``; both may be wired at once (the fault
        #: fallback relies on it).
        self.batch_sink: Optional[Callable[[PacketBatch, int], None]] = None
        #: Active fault-injection impairment (None = healthy link; the
        #: hot path then pays one attribute load).
        self._fault: Optional[LinkFault] = None
        self.fault_lost = 0
        self.fault_duplicated = 0
        self.fault_jittered = 0

    def set_fault(self, fault: Optional[LinkFault]) -> None:
        """Install (or clear, with None) an impairment window."""
        if fault is not None and (fault.loss_p or fault.dup_p) and fault.rng is None:
            raise ValueError("a lossy/duplicating LinkFault needs an rng")
        if fault is not None and fault.jitter_ps and fault.rng is None:
            raise ValueError("a jittering LinkFault needs an rng")
        self._fault = fault

    def serialization_time(self, packet: Packet) -> int:
        """Picoseconds to clock the frame (incl. preamble + IFG) out."""
        wire_bytes = packet.wire_bytes
        cached = self._ser_cache.get(wire_bytes)
        if cached is None:
            cached = round(wire_bytes * 8 * SECOND / self.rate_bps)
            self._ser_cache[wire_bytes] = cached
        return cached

    def send(self, packet: Packet, now: Optional[int] = None) -> int:
        """Enqueue a packet for transmission.

        Returns the far-end arrival time, or -1 if the transmit queue
        is full (the packet is dropped, as a host qdisc would).

        ``now`` is accepted (and ignored — the link reads simulator
        time itself) so ``link.send`` can be plugged directly into any
        ``sink(packet, now)`` slot without an adapter lambda.
        """
        sink = self.sink
        if sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink attached")
        sim = self.sim
        now = sim._now
        pending = None
        if self.queue_limit is not None:
            pending = self._pending_finish
            while pending and pending[0] <= now:
                pending.popleft()
            if len(pending) >= self.queue_limit:
                self.packets_dropped += 1
                if self.on_drop is not None:
                    self.on_drop("tx_queue_full", packet, now)
                return -1
        free_at = self._transmitter_free_at
        start = free_at if free_at > now else now
        # packet.wire_bytes, inlined (the property call is measurable at
        # millions of sends).
        frame_len = packet.frame_len
        wire_bytes = frame_len + ETHERNET_OVERHEAD
        ser = self._ser_cache.get(wire_bytes)
        if ser is None:
            ser = round(wire_bytes * 8 * SECOND / self.rate_bps)
            self._ser_cache[wire_bytes] = ser
        finish = start + ser
        self._transmitter_free_at = finish
        arrival = finish + self.propagation_delay
        self.packets_sent += 1
        self.bytes_sent += frame_len
        if pending is not None:
            pending.append(finish)
        fault = self._fault
        if fault is not None:
            rng = fault.rng
            if fault.loss_p and rng.random() < fault.loss_p:
                # Wire loss: serialization was paid, delivery never happens.
                self.fault_lost += 1
                if self.on_drop is not None:
                    self.on_drop("link_loss", packet, now)
                return -1
            if fault.jitter_ps:
                arrival += rng.randrange(fault.jitter_ps + 1)
                self.fault_jittered += 1
            if fault.dup_p and rng.random() < fault.dup_p:
                self.fault_duplicated += 1
                duplicate = packet.clone()
                sim._sequence += 1
                sim._live += 1
                heappush(
                    sim._queue,
                    (arrival, sim._sequence, None, sink, (duplicate, arrival)),
                )
        # Arrival events are never cancelled: post() skips the handle.
        sim._sequence += 1
        sim._live += 1
        heappush(sim._queue, (arrival, sim._sequence, None, sink, (packet, arrival)))
        return arrival

    def send_batch(self, batch: PacketBatch, now: Optional[int] = None) -> None:
        """Transmit a whole batch: fill its arrival column, hand it on.

        Per-packet semantics are identical to calling :meth:`send` once
        per row at the same instant — same FIFO serialization times,
        same transmit-queue drop decisions (marked :data:`NO_ARRIVAL`
        in the arrival column), same counters — but the far end gets
        the columnar batch synchronously via ``batch_sink`` instead of
        one heap event per packet. During an impairment window the
        Bernoulli draws must happen per packet in send order, so the
        batch is materialized and re-sent scalar (arrival times are
        unchanged: serialization is FIFO either way).
        """
        batch_sink = self.batch_sink
        if batch_sink is None:
            raise RuntimeError(f"link {self.name!r} has no batch_sink attached")
        if self._fault is not None:
            # Audited scalar fallback: Bernoulli draws must happen per
            # packet in send order during an impairment window.
            for packet in batch.materialize_all():  # repro-lint: disable=SPR006
                self.send(packet)
            return
        sim = self.sim
        now = sim._now
        queue_limit = self.queue_limit
        pending = None
        if queue_limit is not None:
            pending = self._pending_finish
            while pending and pending[0] <= now:
                pending.popleft()
        free_at = self._transmitter_free_at
        start = free_at if free_at > now else now
        ser_cache = self._ser_cache
        rate_bps = self.rate_bps
        prop = self.propagation_delay
        on_drop = self.on_drop
        arrivals = batch.arrivals
        frame_lens = batch.frame_lens
        n = len(frame_lens)
        room = n if pending is None else queue_limit - len(pending)
        if room >= n and n and frame_lens.count(frame_lens[0]) == n:
            # Uniform frame size and no possible tx drop (the CBR
            # generator's every burst): the arrival column is an
            # arithmetic series, so extend it with a range instead of
            # running the per-row loop. Values are identical — the loop
            # computes start += ser per row with the same integer ser.
            frame_len = frame_lens[0]
            wire_bytes = frame_len + ETHERNET_OVERHEAD
            ser = ser_cache.get(wire_bytes)
            if ser is None:
                ser = round(wire_bytes * 8 * SECOND / rate_bps)
                ser_cache[wire_bytes] = ser
            if ser > 0:
                first = start + ser
                stop = start + ser * n
                arrivals.extend(range(first + prop, stop + prop + 1, ser))
                if pending is not None:
                    pending.extend(range(first, stop + 1, ser))
                self._transmitter_free_at = stop
                self.packets_sent += n
                self.bytes_sent += frame_len * n
                batch_sink(batch, now)
                return
        sent = 0
        sent_bytes = 0
        dropped = 0
        for i in range(n):
            if pending is not None and len(pending) >= queue_limit:
                dropped += 1
                if on_drop is not None:
                    on_drop("tx_queue_full", batch.materialize(i), now)
                arrivals.append(NO_ARRIVAL)
                continue
            frame_len = frame_lens[i]
            wire_bytes = frame_len + ETHERNET_OVERHEAD
            ser = ser_cache.get(wire_bytes)
            if ser is None:
                ser = round(wire_bytes * 8 * SECOND / rate_bps)
                ser_cache[wire_bytes] = ser
            start += ser
            if pending is not None:
                pending.append(start)
            arrivals.append(start + prop)
            sent += 1
            sent_bytes += frame_len
        self._transmitter_free_at = start
        self.packets_sent += sent
        self.bytes_sent += sent_bytes
        self.packets_dropped += dropped
        batch_sink(batch, now)

    @property
    def backlog(self) -> int:
        """Picoseconds of queued serialization work at the transmitter."""
        return max(0, self._transmitter_free_at - self.sim.now)
