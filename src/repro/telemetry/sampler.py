"""Periodic per-core/per-queue sampling on the simulator clock.

Every ``interval_ps`` the sampler snapshots each core's cumulative
counters, its rx queue and transfer ring occupancy, and the flow-table
population, producing the time series the paper's per-core figures
(load imbalance, queue overflow, ring pressure) are made of. Instant
rx/tx rates are derived from deltas between consecutive snapshots.

Quiescence: a naive repeating timer would keep the event heap non-empty
forever and break ``sim.run()``-until-drain callers. The sampler
instead disarms itself when its tick finds no other live events, and is
re-armed by the engine on the next ingress packet
(:meth:`notify_activity`) — so drains still terminate and sampling
covers exactly the busy periods.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional


class EngineSampler:
    """Samples one :class:`~repro.core.engine.MiddleboxEngine` periodically."""

    def __init__(self, engine: Any, interval_ps: int):
        if interval_ps < 1:
            raise ValueError(f"interval_ps must be >= 1, got {interval_ps}")
        self.engine = engine
        self.sim = engine.sim
        self.interval_ps = interval_ps
        #: Called at tick entry, before the snapshot is taken. The batch
        #: spine hooks this to settle staged arrivals whose scalar
        #: events would have fired before the tick.
        self.pre_sample: Optional[Callable[[], None]] = None
        #: The recorded time series, one snapshot dict per tick.
        self.series: List[Dict[str, Any]] = []
        self._armed = False
        self._stopped = False
        self._prev_t: Optional[int] = None
        self._prev_rx: List[int] = []
        self._prev_tx: List[int] = []

    # -- lifecycle ---------------------------------------------------------

    def notify_activity(self) -> None:
        """Arm the sample timer (no-op when already armed or stopped)."""
        if self._armed or self._stopped:
            return
        self._armed = True
        # Baseline for the first rate computation.
        self._prev_t = self.sim.now
        self._prev_rx = [q.enqueued for q in self.engine.nic.queues]
        self._prev_tx = [c.stats.packets_forwarded for c in self.engine.host.cores]
        self.sim.after(self.interval_ps, self._tick)

    def stop(self) -> None:
        """Permanently stop sampling (existing series is kept)."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            self._armed = False
            return
        pre_sample = self.pre_sample
        if pre_sample is not None:
            pre_sample()
        self.sample()
        # Keep ticking only while the rest of the simulation is alive;
        # otherwise disarm so drain-style runs can terminate.
        if self.sim.has_live_events():
            self.sim.after(self.interval_ps, self._tick)
        else:
            self._armed = False

    # -- sampling ----------------------------------------------------------

    def sample(self) -> Dict[str, Any]:
        """Take one snapshot now and append it to the series."""
        engine = self.engine
        now = self.sim.now
        queues = engine.nic.queues
        rings = engine.rings
        cores = engine.host.cores
        elapsed = now - self._prev_t if self._prev_t is not None else 0

        per_core: List[Dict[str, Any]] = []
        for i, core in enumerate(cores):
            queue = queues[i] if i < len(queues) else None
            ring = rings[i] if i < len(rings) else None
            stats = core.stats
            entry: Dict[str, Any] = {
                "core": i,
                "batches": stats.batches,
                "handled": stats.packets_handled,
                "forwarded": stats.packets_forwarded,
                "transferred": stats.packets_transferred,
                "foreign": stats.foreign_handled,
                "busy_cycles": stats.busy_cycles,
                "busy_time_ps": stats.busy_time_ps,
            }
            if queue is not None:
                entry["rx_depth"] = len(queue)
                entry["rx_peak_depth"] = queue.peak_depth
                entry["rx_enqueued"] = queue.enqueued
                entry["rx_dropped"] = queue.dropped
            if ring is not None:
                entry["ring_depth"] = len(ring)
                entry["ring_peak_depth"] = ring.peak_depth
                entry["ring_enqueued"] = ring.enqueued
                entry["ring_dropped"] = ring.dropped
            if elapsed > 0 and queue is not None:
                rx_delta = queue.enqueued - (
                    self._prev_rx[i] if i < len(self._prev_rx) else 0
                )
                tx_delta = stats.packets_forwarded - (
                    self._prev_tx[i] if i < len(self._prev_tx) else 0
                )
                seconds = elapsed / 1e12
                entry["rx_pps"] = rx_delta / seconds
                entry["tx_pps"] = tx_delta / seconds
            per_core.append(entry)

        snapshot: Dict[str, Any] = {
            "t_ps": now,
            "flow_entries": engine.flow_state.total_entries(),
            "flow_entries_per_core": engine.flow_state.per_core_entries(),
            "cores": per_core,
        }
        self.series.append(snapshot)
        self._prev_t = now
        self._prev_rx = [q.enqueued for q in queues]
        self._prev_tx = [c.stats.packets_forwarded for c in cores]
        return snapshot
