"""An event-driven CPU core.

A core alternates between *idle* and *processing a batch*. It is woken
by its rx queue or its inter-core ring turning non-empty; it then pulls
up to ``batch_size`` packets (ring first — foreign connection packets
are latency-sensitive and bounded in number), hands them to its packet
*processor* (installed by the middlebox engine), and sleeps for the
batch's total cycle cost. At completion it emits outputs and transfers,
then immediately starts the next batch if work is pending.

Modelling per *batch* instead of per packet keeps simulated-event count
proportional to batches — the same reason DPDK applications batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cpu.costs import CostModel
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.timeunits import SECOND


class BatchResult:
    """What processing one batch produced.

    ``cycles`` is the total cycle charge; ``outputs`` the packets to
    transmit; ``transfers`` the (destination core, packet) pairs to move
    onto foreign rings at completion time.

    A ``__slots__`` class rather than a dataclass: one is allocated per
    batch, which makes construction cost part of the per-batch budget.
    """

    __slots__ = ("cycles", "outputs", "transfers")

    def __init__(
        self,
        cycles: float,
        outputs: Optional[List[Packet]] = None,
        transfers: Optional[List[Tuple[int, Packet]]] = None,
    ):
        self.cycles = cycles
        self.outputs = [] if outputs is None else outputs
        self.transfers = [] if transfers is None else transfers


#: A processor takes (core, foreign_batch, local_batch) -> BatchResult.
Processor = Callable[["Core", List[Packet], List[Packet]], BatchResult]


@dataclass(slots=True)
class CoreStats:
    """Per-core accounting (slotted: several fields update per batch)."""

    batches: int = 0
    packets_handled: int = 0
    packets_forwarded: int = 0
    packets_transferred: int = 0
    foreign_handled: int = 0
    busy_time_ps: int = 0
    busy_cycles: float = 0.0


class Core:
    """One CPU core of the middlebox host."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        costs: CostModel,
        batch_size: int = 32,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.sim = sim
        self.core_id = core_id
        self.costs = costs
        self._clock_hz = costs.clock_hz
        self.batch_size = batch_size
        self.stats = CoreStats()
        self.rx_queue = None  # set by Host wiring
        self.ring = None  # set by Host wiring
        self.processor: Optional[Processor] = None
        self.on_output: Optional[Callable[[Packet], None]] = None
        self.on_transfer: Optional[Callable[[int, Packet], None]] = None
        #: Optional telemetry histogram fed one observation per batch
        #: (packets in the batch). A single None-check per batch.
        self.batch_size_hist = None
        #: Optional trace hook, called as ``trace_batch(core_id,
        #: start_ps, duration_ps, n_foreign, n_local)`` per batch.
        self.trace_batch: Optional[Callable[[int, int, int, int, int], None]] = None
        self._busy = False
        #: Batch-spine settlement hook (see :mod:`repro.core.batch_spine`):
        #: called at the top of every batch completion, *before* outputs
        #: and transfers are emitted, so arrivals the scalar event loop
        #: would have processed first land in the queues first. Exact
        #: same-timestamp ordering comes from the simulator's event
        #: sequence, which the stager reads itself.
        self.poll_arrivals: Optional[Callable[[], None]] = None
        #: Batch-spine hook: fired when this core ends up idle (no
        #: queued work) after a completion or resume, so the stager can
        #: arm a timer for the next staged arrival that should wake it.
        self.on_idle: Optional[Callable[[], None]] = None
        #: Fault injection: batch durations are multiplied by this (a
        #: thermally-throttled core takes longer per cycle). 1.0 = healthy.
        self.cycle_factor: float = 1.0
        self._halted = False
        self.crashed = False

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def halted(self) -> bool:
        return self._halted

    def has_work(self) -> bool:
        rx_pending = self.rx_queue is not None and not self.rx_queue.is_empty
        ring_pending = self.ring is not None and not self.ring.is_empty
        return rx_pending or ring_pending

    def wake(self) -> None:
        """Notify the core that work may be available."""
        # _start_batch re-checks for work itself; a second check here
        # would double the queue probes on the (common) productive wake.
        if not self._busy and not self._halted:
            self._start_batch()

    # -- fault injection ---------------------------------------------------

    def stall(self) -> None:
        """Pause the core at the next batch boundary.

        An in-flight batch completes normally (a preempted thread
        finishes its current burst); no further batch starts until
        :meth:`resume`. Queued work stays queued — upstream overflow
        becomes ordinary queue_full/ring drops.
        """
        self._halted = True

    def resume(self) -> None:
        """Undo :meth:`stall` and pick work back up. No-op if crashed."""
        if self.crashed:
            return
        self._halted = False
        # A stalled core may have slept through staged arrivals (every
        # other core busy means no settle timer fired for it): settle
        # them into the queues before popping.
        poll = self.poll_arrivals
        if poll is not None:
            poll()
        self.wake()
        if not self._busy and self.on_idle is not None:
            self.on_idle()

    def crash(self) -> int:
        """Kill the core permanently; flush queued work.

        Returns the number of packets flushed from the rx queue and the
        transfer ring — the caller accounts them as fault drops so the
        conservation ledger stays exact. An in-flight batch completes
        (its packets were already in the pipeline).
        """
        self.crashed = True
        self._halted = True
        flushed = 0
        queue = self.rx_queue
        if queue is not None:
            while not queue.is_empty:
                flushed += len(queue.pop_batch(self.batch_size))
        ring = self.ring
        if ring is not None:
            while not ring.is_empty:
                flushed += len(ring.pop_batch(self.batch_size))
        return flushed

    def _start_batch(self) -> None:
        processor = self.processor
        if processor is None:
            raise RuntimeError(f"core {self.core_id} has no processor installed")
        batch_size = self.batch_size
        # Emptiness probes read the deques directly: the is_empty
        # property costs a frame per probe, and this runs per wake.
        ring = self.ring
        if ring is not None and ring._descriptors:
            foreign = ring.pop_batch(batch_size)
            room = batch_size - len(foreign)
        else:
            foreign = []
            room = batch_size
        rx_queue = self.rx_queue
        if room > 0 and rx_queue is not None and rx_queue._packets:
            local = rx_queue.pop_batch(room)
        elif foreign:
            local = []
        else:
            return
        self._busy = True
        result = processor(self, foreign, local)
        cycles = result.cycles
        # costs.cycles_to_ps, inlined (a frame per batch): the operand
        # order must stay `cycles * SECOND / clock_hz` — the rounding
        # differs under algebraic rearrangement.
        duration = round(cycles * SECOND / self._clock_hz)
        factor = self.cycle_factor
        if factor != 1.0:
            # Slowdown fault: same work, slower clock. busy_cycles stays
            # the true cycle charge; busy_time_ps reflects the wall cost.
            duration = int(duration * factor)
        n_foreign = len(foreign)
        n_total = n_foreign + len(local)
        stats = self.stats
        stats.batches += 1
        stats.packets_handled += n_total
        stats.foreign_handled += n_foreign
        stats.busy_time_ps += duration
        stats.busy_cycles += cycles
        if self.batch_size_hist is not None:
            self.batch_size_hist.observe(n_total)
        if self.trace_batch is not None:
            self.trace_batch(
                self.core_id, self.sim._now, duration, n_foreign, len(local)
            )
        self.sim.post_after(duration, self._complete, result)

    def _complete(self, result: BatchResult) -> None:
        poll = self.poll_arrivals
        if poll is not None:
            # Settle arrivals that beat this completion in the scalar
            # event order. The core is still _busy, so a push-driven
            # wake of *this* core no-ops; other idle cores may start
            # batches here, exactly as their scalar arrival events
            # would have run before this one.
            poll()
        outputs = result.outputs
        if outputs:
            self.stats.packets_forwarded += len(outputs)
            emit = self.on_output
            if emit is not None:
                now = self.sim._now
                core_id = self.core_id
                for packet in outputs:
                    packet.done_time = now
                    packet.processed_core = core_id
                    emit(packet)
        transfers = result.transfers
        if transfers:
            self.stats.packets_transferred += len(transfers)
            transfer = self.on_transfer
            if transfer is None:
                raise RuntimeError(
                    f"core {self.core_id} produced transfers but has no transfer hook"
                )
            for dst_core, packet in transfers:
                transfer(dst_core, packet)
        self._busy = False
        if not self._halted:
            # Probe for queued work before paying the _start_batch call:
            # at underload most completions find both deques empty.
            ring = self.ring
            rx_queue = self.rx_queue
            if (ring is not None and ring._descriptors) or (
                rx_queue is not None and rx_queue._packets
            ):
                self._start_batch()
            if not self._busy and self.on_idle is not None:
                self.on_idle()

    def utilization(self, elapsed_ps: int) -> float:
        """Fraction of ``elapsed_ps`` this core spent processing."""
        if elapsed_ps <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time_ps / elapsed_ps)
