"""The middlebox engine: Figure 4 of the paper, executable.

The engine wires a steering policy, a NIC, cores, per-core transfer
rings, flow-state tables, and one network function into a running
middlebox on a simulator. Per batch, each core:

1. drains its transfer ring (foreign connection packets, pre-classified
   by their senders) and its rx queue;
2. classifies local packets; connection packets whose designated core is
   elsewhere are moved (as descriptors) to that core's ring;
3. runs ``nf.connection_packets`` on local+foreign connection packets
   and ``nf.regular_packets`` on the rest, accumulating state-access and
   compute cycles through the per-core :class:`NfContext`;
4. transmits the surviving packets.

The same engine runs every policy — RSS, Sprayer, and the §7
extensions — so comparisons differ only in steering and state layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.checks import EngineChecks, EventStreamRecorder, OwnershipAuditor
from repro.core.config import MiddleboxConfig
from repro.core.flow_state import (
    PartitionedFlowState,
    RemoteFlowState,
    ScrFlowState,
    SharedFlowState,
)
from repro.core.nf import NetworkFunction, NfContext
from repro.core.rings import TransferRing
from repro.cpu.cache import CoherenceModel
from repro.cpu.core import BatchResult, Core
from repro.cpu.host import Host
from repro.net.five_tuple import PROTO_TCP, FiveTuple
from repro.net.packet import Packet
from repro.net.tcp_flags import FIN, RST, SYN
from repro.nic.rss import FLOW_CACHE_LIMIT
from repro.sim.engine import Simulator
from repro.steering import make_policy
from repro.steering.base import SteeringPolicy
from repro.telemetry import EngineTelemetry


@dataclass
class EngineStats:
    """Aggregate counters the experiments report."""

    packets_forwarded: int = 0
    packets_dropped_nf: int = 0
    connection_packets: int = 0
    transfers: int = 0
    ring_drops: int = 0
    #: Packets lost to injected faults inside the engine: flushed from a
    #: crashed core's queue/ring, or transferred toward a dead core.
    fault_drops: int = 0


class MiddleboxEngine:
    """A complete simulated middlebox running one NF under one policy."""

    def __init__(
        self,
        sim: Simulator,
        nf: NetworkFunction,
        config: Optional[MiddleboxConfig] = None,
        policy: Optional[SteeringPolicy] = None,
        strict_checks: Optional[bool] = None,
    ):
        self.sim = sim
        self.nf = nf
        self.config = config or MiddleboxConfig()
        self.costs = self.config.costs
        #: Runtime checkers (repro.checks): the constructor argument
        #: overrides the config field, which defaults to the
        #: REPRO_STRICT_CHECKS environment variable.
        self.strict_checks = (
            self.config.strict_checks if strict_checks is None else bool(strict_checks)
        )
        self.policy = policy or make_policy(self.config.mode, self.config)
        self.nic = self.policy.build_nic()
        #: State-compute replication machinery (the "scr" policy): the
        #: per-flow packet-history log + replay engine. None everywhere
        #: else — one None check on the ingress and processor paths. A
        #: stateless NF has no state to replicate, so the log stays off.
        self._scr = (
            self.policy.replication
            if getattr(self.policy, "replicates_state", False) and not nf.stateless
            else None
        )
        #: Steering decision memo: canonical per-policy ``designated_core``
        #: results, one dict probe per connection packet in the classify
        #: loop. Only populated while the policy declares its mapping
        #: stable; see :meth:`invalidate_steering_cache`.
        self._designated_cache: Dict[FiveTuple, int] = {}
        self._designated_cacheable = self.policy.designated_core_is_stable
        #: Fault injection: permanently dead cores, and the remap that
        #: re-homes their designated flows onto live cores. Empty/None
        #: on a healthy engine — one set probe / None check on the paths
        #: that consult them.
        self._dead_cores: set = set()
        self._designated_remap: Optional[Dict[int, int]] = None
        self.host = Host(sim, self.nic, self.costs, batch_size=self.config.batch_size)
        self.coherence = CoherenceModel(self.costs)
        backend = self.config.state_backend
        replicates = getattr(self.policy, "replicates_state", False)
        if backend is None:
            if replicates:
                backend = "replicated"
            else:
                backend = "shared" if self.policy.uses_shared_state else "partitioned"
        elif replicates and backend != "replicated":
            # Replay writes every core's replica; pointing them at a
            # single-writer backend would just violate it. Fail loudly.
            raise ValueError(
                f"policy {self.policy.name!r} replicates state; "
                f"state_backend must be 'replicated' or None, got {backend!r}"
            )
        if backend == "replicated":
            self.flow_state = ScrFlowState(
                self.config.num_cores,
                self.costs,
                capacity_per_core=self.config.flow_table_capacity,
            )
        elif backend == "remote":
            self.flow_state = RemoteFlowState(
                self.costs, self.config.remote_access_cycles
            )
        elif backend == "shared":
            self.flow_state = SharedFlowState(self.costs, self.coherence)
        else:
            self.flow_state = PartitionedFlowState(
                self.config.num_cores,
                self.designated_core,
                self.costs,
                self.coherence,
                capacity_per_core=self.config.flow_table_capacity,
                enforce=self.config.enforce_partition,
                clock=lambda: sim.now,
            )
        if self.strict_checks:
            auditor = OwnershipAuditor(self.flow_state, clock=lambda: sim.now)
            self.flow_state = auditor
            self.checks = EngineChecks(
                ownership=auditor,
                streams=EventStreamRecorder(self.config.num_cores),
            )
        else:
            self.checks = EngineChecks()
        self.rings: List[TransferRing] = []
        self.contexts: List[NfContext] = []
        self.stats = EngineStats()
        for core in self.host.cores:
            ring = TransferRing(core.core_id, self.config.ring_capacity)
            ring.on_first_packet = core.wake
            core.ring = ring
            self.rings.append(ring)
            ctx = NfContext(core.core_id, self)
            self.contexts.append(ctx)
            core.processor = self._make_processor(ctx)
            core.on_transfer = self._transfer
        for ctx in self.contexts:
            self.nf.init(ctx)
        self.policy.attach(self)
        #: Telemetry hub: registry counters, periodic sampler, tracer.
        self.telemetry = EngineTelemetry(self)
        if self.checks.enabled:
            # checks.* counter family, plus the per-core stream digests
            # (chained onto any tracer hook the telemetry installed).
            self.checks.bind(self.telemetry.registry)
            recorder = self.checks.streams
            for core in self.host.cores:
                core.trace_batch = recorder.hook(core.core_id, core.trace_batch)
        # Ingress fast path: bind the sampler re-arm hook (if any) once
        # instead of walking telemetry.notify_activity per packet.
        sampler = self.telemetry.sampler
        self._notify_activity = sampler.notify_activity if sampler else None
        #: Batch-spine settlement hook (installed by
        #: :class:`repro.core.batch_spine.ArrivalStager`): called before
        #: any externally visible read or mutation of receive-side state
        #: so staged arrivals land first. None on the scalar spine.
        self._settle_hook: Optional[Callable[[], None]] = None

    @property
    def ingress_batchable(self) -> bool:
        """Whether the policy permits the eager-steer batch spine."""
        return self.policy.ingress_batchable

    # -- dataplane entry/exit ---------------------------------------------

    def receive(self, packet: Packet, now: int) -> bool:
        """Ingress: hand an arriving packet to the NIC.

        Under state-compute replication this is the log-append seam:
        every *accepted* connection packet enters its flow's history
        log in NIC arrival order (packets the NIC dropped never existed
        as far as replication is concerned).
        """
        settle = self._settle_hook
        if settle is not None:
            # Staged batch arrivals that precede this event settle
            # first, so the NIC (token bucket, queue depths) is in
            # exactly the state this packet's scalar predecessors left.
            settle()
        notify = self._notify_activity
        if notify is not None:
            notify()
        self.host.packets_in += 1
        scr = self._scr
        if scr is None:
            return self.nic.receive(packet, now)
        # Append before the NIC call: a queue push can wake the arrival
        # core and process the packet synchronously, and the replay
        # engine must already know its log position by then. NIC
        # rejections happen before any core runs, so retracting the
        # freshly appended tail entry is always safe.
        scr.observe(packet)
        accepted = self.nic.receive(packet, now)
        if not accepted:
            scr.retract(packet)
        return accepted

    def set_egress(self, egress: Callable[[Packet], None]) -> None:
        """Install the hook that receives every forwarded packet."""
        self.host.set_egress(egress)

    # -- policy facade -------------------------------------------------------

    def designated_core(self, flow: FiveTuple) -> int:
        if not self._designated_cacheable:
            core = self.policy.designated_core(flow)
            remap = self._designated_remap
            if remap is not None:
                return remap.get(core, core)
            return core
        cache = self._designated_cache
        core = cache.get(flow)
        if core is None:
            core = self.policy.designated_core(flow)
            remap = self._designated_remap
            if remap is not None:
                core = remap.get(core, core)
            if len(cache) >= FLOW_CACHE_LIMIT:
                cache.clear()
            cache[flow] = core
        return core

    def invalidate_steering_cache(self, flow: Optional[FiveTuple] = None) -> None:
        """Drop memoized designated-core decisions.

        Must be called after anything that changes the flow→core mapping
        out from under the policy — e.g. installing a new RSS
        indirection table on a live engine. With ``flow`` given, only
        that flow's entry is dropped.
        """
        if flow is None:
            self._designated_cache.clear()
        else:
            self._designated_cache.pop(flow, None)

    # -- core processors ----------------------------------------------------

    def crash_core(self, core_id: int, resteer: bool = True) -> int:
        """Kill a core permanently (fault injection); returns flushed packets.

        The core's queued work is flushed and counted as ``fault_drops``;
        its NIC queue drops all future arrivals (kind "core_dead"); its
        designated flows are re-homed onto live cores deterministically
        (any state they had on the dead core is lost — new state grows
        on the new home). With ``resteer`` the policy is also offered
        :meth:`~repro.steering.base.SteeringPolicy.resteer_around` so
        data traffic avoids the corpse — Sprayer reprograms its spray
        rules; RSS declines, stranding the flows hashed there.
        """
        if core_id in self._dead_cores:
            return 0
        if not 0 <= core_id < self.config.num_cores:
            raise ValueError(
                f"core_id {core_id} out of range [0, {self.config.num_cores})"
            )
        settle = self._settle_hook
        if settle is not None:
            # Arrivals preceding the crash must reach the queues first:
            # they flush as fault_drops, not as rx_dropped_fault.
            settle()
        flushed = self.host.cores[core_id].crash()
        self.stats.fault_drops += flushed
        self._dead_cores.add(core_id)
        ownership = self.checks.ownership
        if ownership is not None:
            # The dead core's designated flows re-home onto live cores
            # and their state restarts there — the new home's first
            # write is a legitimate claim, not an ownership violation.
            ownership.release_writer_core(core_id)
        self.nic.disable_queue(core_id, kind="core_dead")
        if self._scr is not None:
            # Truncation quorums shrink to the survivors; their replicas
            # already hold (or can replay) every flow, so no state is
            # lost and no re-homing is needed.
            self._scr.mark_dead(core_id)
        live = [c for c in range(self.config.num_cores) if c not in self._dead_cores]
        if live:
            self._designated_remap = {
                dead: live[dead % len(live)] for dead in self._dead_cores
            }
        if resteer:
            self.policy.resteer_around(self, frozenset(self._dead_cores))
        self.invalidate_steering_cache()
        return flushed

    def _transfer(self, dst_core: int, packet: Packet) -> None:
        self.stats.transfers += 1
        dead = self._dead_cores
        if dead and dst_core in dead:
            # A descriptor aimed at a corpse: nobody will ever drain
            # that ring, so the packet leaves the dataplane here.
            self.stats.fault_drops += 1
            if self.telemetry.tracer is not None:
                self.telemetry.tracer.instant("fault_ring_dead", dst_core, self.sim.now)
            return
        tracer = self.telemetry.tracer
        if not self.rings[dst_core].push(packet):
            # The descriptor is lost, exactly like a full rx queue: the
            # packet leaves the dataplane here. ring_drops is its drop
            # class, surfaced through telemetry and checked against the
            # conservation invariant (rx == forwarded + all drop classes).
            self.stats.ring_drops += 1
            if tracer is not None:
                self.telemetry.trace_ring_drop(dst_core, packet, self.sim.now)
        elif tracer is not None:
            self.telemetry.trace_transfer(dst_core, packet, self.sim.now)

    def _make_processor(self, ctx: NfContext):
        """Build the per-core batch processor closure.

        A closure (rather than per-packet virtual dispatch) keeps the
        hot path tight, the same way DPDK apps specialize their loops.
        """
        costs = self.costs
        nf = self.nf
        stats = self.stats
        redirect = self.policy.redirect_connection_packets and not nf.stateless
        classify_needed = not nf.stateless
        connection_handler = nf.connection_packets
        # Opt-in batch NF API: a batch-capable NF handles the whole
        # regular batch through process_batch; everything else keeps the
        # per-batch regular_packets call unchanged. Bound once — no
        # per-batch dispatch.
        regular_handler = nf.process_batch if nf.batch_capable else nf.regular_packets
        scr = self._scr
        if scr is not None:
            # State-compute replication: the policy never redirects, so
            # every packet is processed on its arrival core. The flow's
            # packet-history log brings this core's replica up to date
            # first — replayed up to each connection packet, and to the
            # log tip once per distinct flow ahead of a regular batch.
            core_id = ctx.core_id
            deliver = scr.deliver
            sync = scr.sync
            nf_regular = regular_handler

            def connection_handler(batch: List[Packet], batch_ctx: NfContext) -> None:
                for packet in batch:
                    deliver(core_id, packet, batch_ctx, nf)

            def regular_handler(batch: List[Packet], batch_ctx: NfContext) -> None:
                synced: set = set()
                for packet in batch:
                    flow = packet.five_tuple
                    if flow not in synced:
                        synced.add(flow)
                        sync(core_id, flow, batch_ctx, nf)
                nf_regular(batch, batch_ctx)

        # The paper's connection-packet predicate (SYN/FIN/RST on TCP),
        # inlined as one protocol compare + one mask test per packet.
        conn_mask = SYN | FIN | RST
        designated_cache = self._designated_cache
        designated_core = self.designated_core
        # Per-burst cost formulas, unrolled into the closure: the helper
        # methods are linear in batch size with integer constants, so
        # the sums below are cycle-for-cycle identical (see CostModel).
        ring_fixed = costs.ring_dequeue_fixed
        ring_pp = costs.ring_receive_per_packet
        rx_fixed = costs.rx_batch_fixed
        rx_pp = costs.rx_per_packet
        tx_fixed = costs.tx_batch_fixed
        tx_pp = costs.tx_per_packet
        classify_pp = costs.classify_per_packet

        def process(core: Core, foreign: List[Packet], local: List[Packet]) -> BatchResult:
            cycles = 0.0
            if foreign:
                cycles += ring_fixed + ring_pp * len(foreign)
            if local:
                cycles += rx_fixed + rx_pp * len(local)

            transfers: List = []
            if classify_needed:
                cycles += classify_pp * len(local)
                # First pass: find the first connection packet, if any.
                # Batches of pure data packets (the overwhelming common
                # case at line rate) then reuse ``local`` as the regular
                # batch with no per-packet appends at all.
                split = -1
                for i, packet in enumerate(local):
                    if packet.five_tuple.protocol == PROTO_TCP and packet.flags & conn_mask:
                        split = i
                        break
                if split < 0 and not foreign:
                    connection_batch: List[Packet] = []
                    regular_batch = local
                else:
                    connection_batch = list(foreign)
                    regular_batch = local[:split] if split >= 0 else list(local)
                    if split >= 0:
                        core_id = core.core_id
                        cache_get = designated_cache.get
                        connection_count = 0
                        destinations = set()
                        for packet in local[split:]:
                            flow = packet.five_tuple
                            if flow.protocol == PROTO_TCP and packet.flags & conn_mask:
                                connection_count += 1
                                if redirect:
                                    dst = cache_get(flow)
                                    if dst is None:
                                        dst = designated_core(flow)
                                    if dst != core_id:
                                        transfers.append((dst, packet))
                                        destinations.add(dst)
                                        continue
                                connection_batch.append(packet)
                            else:
                                regular_batch.append(packet)
                        stats.connection_packets += connection_count
                        if transfers:
                            cycles += costs.ring_push_cycles(
                                len(transfers), len(destinations)
                            )
            else:
                connection_batch = []
                regular_batch = local

            # begin_batch()/end_batch(), inlined (one per batch).
            ctx._cycles = 0.0
            ctx._dropped.clear()
            if connection_batch:
                connection_handler(connection_batch, ctx)
            if regular_batch:
                regular_handler(regular_batch, ctx)
            cycles += ctx._cycles

            if ctx._dropped:
                outputs: List[Packet] = []
                dropped = 0
                is_dropped = ctx.is_dropped
                for packet in connection_batch:
                    if is_dropped(packet):
                        dropped += 1
                    else:
                        outputs.append(packet)
                for packet in regular_batch:
                    if is_dropped(packet):
                        dropped += 1
                    else:
                        outputs.append(packet)
                stats.packets_dropped_nf += dropped
            elif connection_batch:
                connection_batch.extend(regular_batch)
                outputs = connection_batch
            else:
                outputs = regular_batch
            stats.packets_forwarded += len(outputs)
            if outputs:
                cycles += tx_fixed + tx_pp * len(outputs)
            return BatchResult(cycles, outputs, transfers)

        return process

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """A flat dict of the counters experiments print."""
        settle = self._settle_hook
        if settle is not None:
            settle()
        nic = self.nic.stats
        return {
            "policy": self.policy.name,
            "rx_packets": nic.rx_packets,
            "rx_dropped_queue_full": nic.rx_dropped_queue_full,
            "rx_dropped_fd_cap": nic.rx_dropped_fd_cap,
            "rx_dropped_fault": nic.rx_dropped_fault,
            "forwarded": self.stats.packets_forwarded,
            "nf_drops": self.stats.packets_dropped_nf,
            "connection_packets": self.stats.connection_packets,
            "transfers": self.stats.transfers,
            "ring_drops": self.stats.ring_drops,
            "fault_drops": self.stats.fault_drops,
            "flow_entries": self.flow_state.total_entries(),
            "per_core_forwarded": self.host.per_core_forwarded(),
            "per_core_busy_cycles": self.host.per_core_busy_cycles(),
            "telemetry": self.telemetry.counters(),
        }

    def conservation(self) -> Dict[str, int]:
        """Packet-conservation ledger: where every received packet went.

        ``in_queues``/``in_rings`` cover packets still buffered; batches
        in flight on a busy core are the remainder. Once the simulation
        drains, ``rx_packets`` must equal ``accounted``.
        """
        settle = self._settle_hook
        if settle is not None:
            settle()
        nic = self.nic.stats
        accounted = (
            self.stats.packets_forwarded
            + self.stats.packets_dropped_nf
            + nic.rx_dropped_queue_full
            + nic.rx_dropped_fd_cap
            + nic.rx_dropped_fault
            + self.stats.ring_drops
            + self.stats.fault_drops
        )
        return {
            "rx_packets": nic.rx_packets,
            "forwarded": self.stats.packets_forwarded,
            "nf_drops": self.stats.packets_dropped_nf,
            "rx_dropped_queue_full": nic.rx_dropped_queue_full,
            "rx_dropped_fd_cap": nic.rx_dropped_fd_cap,
            "rx_dropped_fault": nic.rx_dropped_fault,
            "ring_drops": self.stats.ring_drops,
            "fault_drops": self.stats.fault_drops,
            "in_queues": sum(len(q) for q in self.nic.queues),
            "in_rings": sum(len(r) for r in self.rings),
            "accounted": accounted,
        }
