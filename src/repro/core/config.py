"""Middlebox engine configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.costs import CostModel

#: Steering modes understood by :func:`repro.steering.make_policy`.
MODES = ("rss", "sprayer", "naive", "prognic", "flowlet", "subset", "scr")


def _strict_checks_default() -> bool:
    """Default for ``strict_checks``: the ``REPRO_STRICT_CHECKS`` env var.

    An environment variable (rather than a parameter threaded through
    every figure runner) is what lets ``python -m repro.experiments
    --strict-checks`` arm the checkers in-process *and* inside every
    ``--jobs N`` pool worker, which inherit the environment.
    """
    return os.environ.get("REPRO_STRICT_CHECKS", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


@dataclass
class MiddleboxConfig:
    """Everything static about the simulated middlebox.

    Defaults mirror the paper's testbed: 8 cores at 2.0 GHz behind a
    10 GbE 82599-class NIC, DPDK-style batches of 32.
    """

    #: Steering mode: "rss" (baseline), "sprayer" (the paper), "naive"
    #: (spray without designated cores — ablation), "prognic" (NIC
    #: steers connection packets directly — §7), "flowlet", "subset",
    #: "scr" (state-compute replication: spray everything, replay the
    #: per-flow packet log on every core).
    mode: str = "sprayer"
    num_cores: int = 8
    batch_size: int = 32
    queue_capacity: int = 512
    ring_capacity: int = 512
    flow_table_capacity: int = 1 << 20
    #: Checksum LSBs matched by the spray rules (None = automatic).
    spray_bits: Optional[int] = None
    #: Flow Director classification cap in pps (None disables the cap).
    flow_director_pps_cap: Optional[float] = 10.5e6
    #: Enforce the single-writer discipline (raises on violation).
    enforce_partition: bool = True
    #: Arm the runtime checkers of :mod:`repro.checks`: wrap the flow
    #: state in an :class:`~repro.checks.OwnershipAuditor` (any second
    #: writer core per flow raises
    #: :class:`~repro.core.flow_state.OwnershipViolation`, on every
    #: backend) and digest per-core event streams for determinism
    #: audits. Observation only — results are byte-identical either
    #: way. Defaults to the ``REPRO_STRICT_CHECKS`` environment
    #: variable so ``--strict-checks`` reaches pool workers.
    strict_checks: bool = field(default_factory=_strict_checks_default)
    #: Use the symmetric designated-core hash (paper default). The
    #: asymmetric ablation shows why symmetry matters: both directions
    #: of a connection stop sharing a designated core.
    symmetric_designation: bool = True
    #: Flowlet gap that opens a new flowlet (picoseconds), flowlet mode.
    flowlet_gap: int = 50_000_000  # 50 us
    #: Cores per flow in "subset" mode.
    subset_size: int = 2
    #: UDP ports whose flows are sprayed too (§7: "More elaborated
    #: classification could be made to spray only some UDP flows" —
    #: e.g. 443 for QUIC, which tolerates reordering by design). All
    #: other UDP traffic keeps RSS steering.
    spray_udp_ports: tuple = ()
    #: Flow-state backend override: None (policy default: partitioned
    #: per-core tables, shared+locked for "naive", or replicated
    #: per-core tables for "scr"), "partitioned", "shared", "remote"
    #: (StatelessNF-style store — §6 ablation), or "replicated".
    state_backend: Optional[str] = None
    #: CPU cycles per remote-store access when state_backend="remote".
    remote_access_cycles: Optional[int] = None
    #: Telemetry sampling interval in picoseconds (None or 0 disables
    #: the periodic per-core/per-queue time series). The default, 500 us,
    #: yields tens-to-hundreds of snapshots over the paper's millisecond-
    #: scale runs at negligible cost.
    telemetry_sample_interval: Optional[int] = 500_000_000
    #: Record per-batch / transfer / drop events for Chrome trace export
    #: (off by default: tracing every batch is memory-heavy).
    telemetry_trace: bool = False
    #: Hard cap on recorded trace events (excess is counted, not stored).
    telemetry_trace_limit: int = 100_000
    costs: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.state_backend not in (
            None, "partitioned", "shared", "remote", "replicated",
        ):
            raise ValueError(
                f"unknown state_backend {self.state_backend!r}; expected "
                "None, 'partitioned', 'shared', 'remote', or 'replicated'"
            )
        for name in (
            "num_cores", "batch_size", "queue_capacity", "ring_capacity",
            "flow_table_capacity",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.spray_bits is not None and not 1 <= self.spray_bits <= 16:
            raise ValueError(
                f"spray_bits must be None or in [1, 16], got {self.spray_bits}"
            )
        if not 1 <= self.subset_size <= self.num_cores:
            raise ValueError(
                f"subset_size must be in [1, {self.num_cores}], got {self.subset_size}"
            )
        if self.telemetry_sample_interval is not None and self.telemetry_sample_interval < 0:
            raise ValueError(
                "telemetry_sample_interval must be None or >= 0, got "
                f"{self.telemetry_sample_interval}"
            )
        if self.telemetry_trace_limit < 1:
            raise ValueError(
                f"telemetry_trace_limit must be >= 1, got {self.telemetry_trace_limit}"
            )
