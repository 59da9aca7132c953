"""The batch ingress spine: eager steering, lazy settlement.

The scalar spine turns every packet into one heap event (the link
arrival) plus one pass through ``engine.receive`` → ``nic.receive`` —
five Python frames and an object allocation per packet. This module
replaces that with the struct-of-arrays pipeline the paper's DPDK
argument is about:

- the generator emits a columnar :class:`~repro.net.batch.PacketBatch`
  per burst (no ``Packet`` objects);
- ``Link.send_batch`` computes every arrival time in one loop and hands
  the batch *synchronously* to an :class:`ArrivalStager` — zero heap
  events for data packets;
- the stager classifies the whole batch eagerly (``nic.steer_batch``:
  custom pipeline / Flow Director / RSS over columns) and **settles
  lazily**: the per-packet receive side effects (counters, fd-cap
  tokens, queue pushes, drops, SCR log appends) are replayed packet by
  packet, in arrival order, only when some simulation actor is about to
  observe them. Packets the NIC drops are never materialized at all —
  the dominant saving at overload.

Byte-exactness contract
-----------------------

Every figure, fingerprint and conformance row must match the scalar
spine bit for bit. Three mechanisms make that hold:

1. **Reserved event sequences.** At stage time the stager advances the
   simulator's sequence counter once per packet — exactly the sequences
   the scalar arrival events would have consumed. A staged arrival is
   settled when ``(arrival, seq)`` precedes the currently firing event's
   ``(now, sim._event_seq)``, which is precisely the heap order the
   scalar event loop would have used, including exact-picosecond ties
   between arrivals and batch completions.

2. **Settle seams.** Settlement runs at every point scalar arrival
   events could have run before: batch completion entry
   (``Core.poll_arrivals``), scalar ingress (``engine.receive``),
   sampler ticks, summary/conservation/telemetry reads, core resume,
   and steering/block mutations (via the ``on_change`` /
   ``on_block_change`` hooks, *before* the mutation applies). When a
   core is idle while arrivals are staged, an armed timer fires at the
   earliest arrival so the core wakes exactly when its scalar wake
   would have happened; at saturation no timer exists and settlement
   rides the completion events for free.

3. **Lazy token/queue state.** fd-cap tokens are consumed at settle
   time with the *stored arrival timestamp* (settlement is globally
   arrival-ordered, so refill arithmetic is reproduced term for term),
   and queue capacity/blocked-queue checks read live state at settle —
   which, thanks to the seams above, is the state the scalar path
   would have seen at that packet's arrival event.

Classification is the one thing done eagerly; the ``on_change`` hooks
on the Flow Director table and RSS indirection settle pre-mutation
arrivals and mark the remainder for reclassification, so decisions
always reflect the table as of each packet's arrival.

Fallback rules: policies whose classifier reads the clock or mutates
state per decision declare ``ingress_batchable = False`` (flowlet) and
keep the scalar spine; link impairment windows re-route batches through
per-packet scalar sends (the Bernoulli draw order and dup/jitter event
ordering then come from the real heap).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.net.batch import PacketBatch
from repro.nic.nic import VIA_FD, VIA_RSS
from repro.sim.timeunits import SECOND

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.engine import MiddleboxEngine
    from repro.nic.link import Link


class _Run:
    """One staged batch: columns plus its eager steering decisions."""

    __slots__ = ("batch", "queues", "vias", "seq0", "idx")

    def __init__(self, batch: PacketBatch, queues, vias, seq0: int):
        self.batch = batch
        self.queues = queues
        self.vias = vias
        #: Reserved heap sequence of row 0 (row i holds ``seq0 + i``).
        self.seq0 = seq0
        #: First unsettled row.
        self.idx = 0


class ArrivalStager:
    """Holds classified batches until the simulation must observe them."""

    def __init__(self, engine: "MiddleboxEngine"):
        self.engine = engine
        self.sim = engine.sim
        self.nic = engine.nic
        self.host = engine.host
        self._runs: Deque[_Run] = deque()
        self._dirty = False
        self._settling = False
        #: Wake timer, as a generation-checked ``sim.post`` rather than
        #: a cancellable handle: posts allocate nothing, and a stale
        #: post is harmless — it fires at the arrival time of a row
        #: whose *scalar* arrival event would have been live at that
        #: exact time anyway, so ``has_live_events()`` (the sampler's
        #: quiescence test) never reads differently from the scalar
        #: spine. ``_timer_at`` is -1 while no current-generation post
        #: is outstanding.
        self._timer_gen = 0
        self._timer_at = -1
        #: Leading unsettled rows known (from the last :meth:`_arm`
        #: scan) to target busy or halted cores — they need no wake
        #: timer. Reset whenever a core goes idle or steering mutates.
        self._skip = 0
        # Engine-stable hot-loop state, packed into one tuple so the
        # settle prologue pays a single attribute load + C unpack
        # instead of ten attribute loads per call.
        self._cores = self.host.cores
        nic = self.nic
        self._hot = (
            self.host,
            nic.stats,
            nic.stats.per_queue_rx,
            nic.queues,
            engine._scr,
            nic,
            # fd-cap gate, prebound: config-static, None when Flow
            # Director is off or uncapped (consume is then a no-op).
            nic._fd_cap if nic._fd_enabled else None,
            engine.telemetry.sampler,
        )

    # -- wiring -------------------------------------------------------------

    def attach(self, link: "Link") -> None:
        """Wire the stager into the link, NIC, cores and telemetry."""
        engine = self.engine
        nic = self.nic
        link.batch_sink = self.stage
        nic.flow_director.on_change = self._on_steering_change
        nic.rss.on_change = self._on_steering_change
        nic.on_block_change = self.settle_due
        for core in self.host.cores:
            core.poll_arrivals = self.settle_due
            core.on_idle = self._on_core_idle
        engine._settle_hook = self.settle_due
        sampler = engine.telemetry.sampler
        if sampler is not None:
            sampler.pre_sample = self.settle_due

    # -- staging ------------------------------------------------------------

    def stage(self, batch: PacketBatch, now: int) -> None:
        """Accept one transmitted batch (called by ``Link.send_batch``).

        Arrivals already due (scalar events would have fired before the
        event this send runs in) settle first; then the new batch is
        classified eagerly and parked with its reserved sequences.
        """
        if self._runs:
            self.settle_due()
        n = len(batch.flows)
        if n == 0:
            return
        sim = self.sim
        # Reserve the heap sequences the scalar arrival events would
        # have consumed — one per row, dropped rows included, so every
        # event scheduled after this send keeps its relative order.
        seq0 = sim._sequence + 1
        sim._sequence += n
        queues, vias = self.nic.steer_batch(batch)
        self._runs.append(_Run(batch, queues, vias, seq0))
        self._arm()

    # -- settlement ---------------------------------------------------------

    def settle_due(self) -> None:
        """Settle every staged arrival that precedes the current event.

        "Precedes" is exact heap order: arrival time strictly before
        ``sim.now``, or equal with a reserved sequence below the firing
        event's (between ``run()`` calls the sequence boundary is +inf,
        so everything up to and including ``now`` settles).
        """
        runs = self._runs
        if not runs or self._settling:
            return
        # Fast guard: most calls (every batch-completion entry poll at
        # saturation) find nothing due. One front-row compare answers
        # that without entering the settle loop. NO_ARRIVAL rows (-1)
        # compare as due and are consumed inside ``_settle``.
        run = runs[0]
        arrival = run.batch.arrivals[run.idx]
        sim = self.sim
        now = sim._now
        if arrival > now or (arrival == now and run.seq0 + run.idx >= sim._event_seq):
            return
        self._settle(now, sim._event_seq)

    def _settle(self, now: int, barrier_seq) -> None:
        self._settling = True
        try:
            if self._dirty:
                self._reclassify()
            runs = self._runs
            (
                host,
                nic_stats,
                per_queue_rx,
                rx_queues,
                scr,
                nic,
                fd_cap,
                sampler,
            ) = self._hot
            # on_drop / blocked-queue state can only change through
            # events, which cannot interleave with this loop (settles
            # run first via on_block_change); bound once per call.
            on_drop = self.nic.on_drop
            blocked = self.nic._blocked_queues
            settled = 0
            # Aggregate counters, accumulated in locals and written back
            # once after the loop: nothing inside the loop reads them
            # (processors touch flow state and core stats only; the
            # sampler and summary/conservation readers run as events or
            # after a settle seam, never mid-loop).
            received = 0
            fd_matched_d = 0
            rss_fallback_d = 0
            fd_cap_drop_d = 0
            fault_drop_d = 0
            queue_full_d = 0
            while runs:
                run = runs[0]
                batch = run.batch
                arrivals = batch.arrivals
                queues = run.queues
                vias = run.vias
                seq0 = run.seq0
                materialize = batch.materialize
                i = run.idx
                n = len(arrivals)
                while i < n:
                    arrival = arrivals[i]
                    if arrival >= 0:
                        if arrival > now or (
                            arrival == now and seq0 + i >= barrier_seq
                        ):
                            break
                        # --- engine.receive + nic.receive, inlined ---
                        if sampler is not None and not (
                            sampler._armed or sampler._stopped
                        ):
                            sampler.notify_activity()
                        received += 1
                        packet = None
                        if scr is not None:
                            packet = materialize(i)
                            scr.observe(packet)
                        if fd_cap is not None:
                            # nic._consume_fd_token, inlined (a frame
                            # per row). The refill expression must stay
                            # `elapsed * cap / SECOND` term for term —
                            # rearranging changes float rounding, and
                            # with it which packets the cap drops.
                            elapsed = arrival - nic._fd_last_refill
                            if elapsed > 0:
                                tokens = nic._fd_tokens + elapsed * fd_cap / SECOND
                                burst_tokens = nic._fd_burst_tokens
                                nic._fd_tokens = (
                                    burst_tokens if tokens > burst_tokens else tokens
                                )
                                nic._fd_last_refill = arrival
                            if nic._fd_tokens >= 1.0:
                                nic._fd_tokens -= 1.0
                            else:
                                fd_cap_drop_d += 1
                                if on_drop is not None:
                                    if packet is None:
                                        packet = materialize(i)
                                    on_drop("fd_cap", packet, arrival)
                                if scr is not None:
                                    scr.retract(packet)
                                i += 1
                                continue
                        queue_id = queues[i]
                        via = vias[i]
                        if via == VIA_FD:
                            fd_matched_d += 1
                        elif via == VIA_RSS:
                            rss_fallback_d += 1
                        if blocked is not None:
                            kind = blocked.get(queue_id)
                            if kind is not None:
                                fault_drop_d += 1
                                if on_drop is not None:
                                    if packet is None:
                                        packet = materialize(i)
                                    packet.nic_rx_time = arrival
                                    packet.rx_queue = queue_id
                                    on_drop(kind, packet, arrival)
                                if scr is not None:
                                    scr.retract(packet)
                                i += 1
                                continue
                        queue = rx_queues[queue_id]
                        if len(queue._packets) >= queue.capacity:
                            queue.dropped += 1
                            queue_full_d += 1
                            if on_drop is not None:
                                if packet is None:
                                    packet = materialize(i)
                                packet.nic_rx_time = arrival
                                packet.rx_queue = queue_id
                                on_drop("queue_full", packet, arrival)
                            if scr is not None:
                                scr.retract(packet)
                            i += 1
                            continue
                        if packet is None:
                            packet = materialize(i)
                        packet.nic_rx_time = arrival
                        packet.rx_queue = queue_id
                        # push() may wake an idle core, which starts a
                        # batch synchronously — the same thing the
                        # scalar arrival event would have triggered.
                        queue.push(packet)
                        per_queue_rx[queue_id] += 1
                    i += 1
                settled += i - run.idx
                run.idx = i
                if i >= n:
                    runs.popleft()
                else:
                    break
            if received:
                host.packets_in += received
                nic_stats.rx_packets += received
                if fd_matched_d:
                    nic_stats.fd_matched += fd_matched_d
                if rss_fallback_d:
                    nic_stats.rss_fallback += rss_fallback_d
                if fd_cap_drop_d:
                    nic_stats.rx_dropped_fd_cap += fd_cap_drop_d
                if fault_drop_d:
                    nic_stats.rx_dropped_fault += fault_drop_d
                if queue_full_d:
                    nic_stats.rx_dropped_queue_full += queue_full_d
            if settled:
                skip = self._skip - settled
                self._skip = skip if skip > 0 else 0
        finally:
            self._settling = False
        self._arm()

    def _reclassify(self) -> None:
        """Recompute steering for still-staged rows after a mutation.

        Runs lazily at the next settle so multi-step mutations (e.g.
        ``resteer_around``: clear + re-add rules + live-set update) are
        seen whole, not mid-flight.
        """
        self._dirty = False
        self._skip = 0
        steer = self.nic.steer_batch
        for run in self._runs:
            if run.idx < len(run.batch.flows):
                run.queues, run.vias = steer(run.batch)

    # -- mutation / idle hooks ---------------------------------------------

    def _on_steering_change(self) -> None:
        """FD table or RSS indirection changed.

        Arrivals that precede the mutating event settle against their
        eager (pre-mutation) decisions — exactly what their scalar
        arrival events would have computed — and everything still
        staged is marked for reclassification.
        """
        self.settle_due()
        if self._runs:
            self._dirty = True
            self._skip = 0

    def _on_core_idle(self) -> None:
        if self._runs:
            if self._skip == 0 and self._timer_at >= 0:
                # The timer already targets the front unsettled row —
                # the earliest wake any idle set could need (arrivals
                # are monotonic), so the grown idle set changes nothing.
                return
            # The idle set grew: rows skipped against the old set may
            # now need a wake timer, so the arm scan restarts at front.
            self._skip = 0
            self._arm()

    # -- wake timer ---------------------------------------------------------

    def _arm(self) -> None:
        """Keep the invariant: a staged arrival whose target core is
        idle (and not halted) ⇒ a timer at the earliest such arrival —
        the moment that core's scalar wake would have happened. Rows
        bound for busy cores need no timer: the core's completion-entry
        poll settles them, and any observer in between reaches them
        through its own settle seam. At saturation no timer exists at
        all — settlement rides completion events for free.

        The scan is incremental: ``_skip`` remembers how many leading
        rows target busy/halted cores, and is reset whenever the idle
        set grows (a core went idle) or steering mutates — so at
        overload the scan is O(new rows) amortized, not O(backlog) per
        call.
        """
        runs = self._runs
        if not runs:
            return
        if self._dirty:
            # Steering mutated since staging: per-row queue targets are
            # stale until the next settle reclassifies, so fall back to
            # the conservative invariant (any idle core ⇒ timer at the
            # earliest unsettled arrival). Mutations are rare.
            for core in self._cores:
                if not core._busy and not core._halted:
                    break
            else:
                return
            at = -1
            for run in runs:
                arrivals = run.batch.arrivals
                n = len(arrivals)
                i = run.idx
                while i < n:
                    if arrivals[i] >= 0:
                        at = arrivals[i]
                        break
                    i += 1
                if at >= 0:
                    break
            if at < 0:
                return
        else:
            cores = self._cores
            skip = self._skip
            at = -1
            skipped = 0
            for run in runs:
                arrivals = run.batch.arrivals
                i = run.idx
                n = len(arrivals)
                remaining = n - i
                if skip >= remaining:
                    skip -= remaining
                    continue
                i += skip
                skip = 0
                queues = run.queues
                while i < n:
                    if arrivals[i] >= 0:
                        core = cores[queues[i]]
                        if not core._busy and not core._halted:
                            at = arrivals[i]
                            break
                    skipped += 1
                    i += 1
                if at >= 0:
                    break
            if skipped:
                self._skip += skipped
            if at < 0:
                return
        if 0 <= self._timer_at <= at:
            return
        self._timer_gen += 1
        self._timer_at = at
        self.sim.post(at, self._on_timer, self._timer_gen)

    def _on_timer(self, gen: int) -> None:
        if gen != self._timer_gen:
            return  # superseded by a later arm
        self._timer_at = -1
        # Straight into _settle, skipping settle_due's front-row guard:
        # a current-generation timer fires at its target row's arrival
        # time, and every row ahead of it is due too (arrivals are
        # monotonic and their reserved sequences precede this post's).
        # Events never nest, so _settling cannot be set here.
        if self._runs:
            sim = self.sim
            self._settle(sim._now, sim._event_seq)
