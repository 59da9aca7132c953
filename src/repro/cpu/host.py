"""The middlebox host: a NIC wired to a set of cores.

The host performs the static wiring of Figure 3 in the paper: rx queue
``i`` belongs to core ``i``, and a queue turning non-empty wakes its
core. What each core *does* with packets (plain RSS processing, or
Sprayer's classify-and-redirect) is the processor installed by
:class:`repro.core.engine.MiddleboxEngine` — the host is policy-free.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cpu.core import Core
from repro.cpu.costs import CostModel
from repro.net.packet import Packet
from repro.nic.nic import MultiQueueNic
from repro.sim.engine import Simulator


class Host:
    """A multicore server with one multi-queue NIC."""

    def __init__(
        self,
        sim: Simulator,
        nic: MultiQueueNic,
        costs: Optional[CostModel] = None,
        batch_size: int = 32,
    ):
        self.sim = sim
        self.nic = nic
        self.costs = costs or CostModel()
        self.cores: List[Core] = [
            Core(sim, core_id, self.costs, batch_size=batch_size)
            for core_id in range(nic.num_queues)
        ]
        for core, queue in zip(self.cores, nic.queues):
            core.rx_queue = queue
            queue.on_first_packet = core.wake
        self.packets_in = 0
        self.packets_out = 0

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def receive(self, packet: Packet, now: int) -> bool:
        """Entry point for the ingress link; returns False on NIC drop."""
        self.packets_in += 1
        return self.nic.receive(packet, now)

    def set_egress(self, egress: Callable[[Packet], None]) -> None:
        """Install the output hook every core emits forwarded packets to."""

        def counted_egress(packet: Packet) -> None:
            self.packets_out += 1
            egress(packet)

        for core in self.cores:
            core.on_output = counted_egress

    def total_busy_time(self) -> int:
        return sum(core.stats.busy_time_ps for core in self.cores)

    def per_core_forwarded(self) -> List[int]:
        return [core.stats.packets_forwarded for core in self.cores]

    def per_core_busy_cycles(self) -> List[float]:
        return [core.stats.busy_cycles for core in self.cores]

    def per_core_batches(self) -> List[int]:
        return [core.stats.batches for core in self.cores]
