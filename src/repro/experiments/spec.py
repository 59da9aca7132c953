"""Declarative measurement points and sweeps.

Every paper figure is a sweep over (axis value x series x seed) where
each point is an independent single-threaded simulation. Before this
module existed, each figure open-coded the same nested loop with its
own copy of the seed-aggregation helper and strictly serial execution.
Now a figure *declares* its sweep:

- :class:`Scenario` — one fully-specified measurement point (kind,
  mode, NF cost, flow count, duration, seed, config kwargs). Scenarios
  are frozen, picklable plain data, so a process-pool worker can
  execute one and ship the result (metrics + telemetry dump) back
  through the future.
- :class:`Series` — one curve of a figure: a column label plus the
  scenario overrides that distinguish it (usually just the steering
  mode, ``rss`` vs ``sprayer``).
- :class:`Sweep` — axis values x series x seeds, expanded to scenarios
  in a canonical order, with per-point seed derivation that depends
  only on (base seed, axis value) — never on position — so results are
  independent of execution order, reordering, and subsetting.

Execution lives in :mod:`repro.experiments.runner`; this module is the
pure description layer plus :func:`run_scenario`, the single entry
point both backends call.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.timeunits import MILLISECOND

#: Pinned window of a capacity (saturation-rate) measurement; shared by
#: :func:`repro.experiments.harness.measure_capacity` and Figure 8.
CAPACITY_DURATION = 6 * MILLISECOND
CAPACITY_WARMUP = 2 * MILLISECOND


# -- scenarios -------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One fully-specified measurement point.

    ``params`` holds kind-specific extras and engine config kwargs as a
    sorted tuple of pairs so the dataclass stays hashable and picklable.
    ``duration``/``warmup`` of ``None`` mean "the kind's default".
    """

    kind: str
    mode: str = "sprayer"
    nf_cycles: int = 0
    num_flows: int = 1
    duration: Optional[int] = None
    warmup: Optional[int] = None
    seed: int = 1
    num_cores: int = 8
    offered_pps: Optional[float] = None
    frame_len: int = 64
    burst: Optional[int] = None
    #: Experiment label carried into telemetry records ("fig6a", ...).
    label: str = ""
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, **kwargs) -> "Scenario":
        """Build a scenario, routing unknown kwargs into ``params``."""
        extra = dict(kwargs.pop("params", ()) or ())
        known = {f.name for f in fields(cls)} - {"params"}
        direct = {k: v for k, v in kwargs.items() if k in known}
        extra.update({k: v for k, v in kwargs.items() if k not in known})
        return cls(kind=kind, params=tuple(sorted(extra.items())), **direct)

    def with_(self, **overrides) -> "Scenario":
        """A copy with field overrides; non-field keys merge into params."""
        known = {f.name for f in fields(self)} - {"params"}
        direct = {k: v for k, v in overrides.items() if k in known}
        extra = dict(self.params)
        extra.update({k: v for k, v in overrides.items() if k not in known})
        return replace(self, params=tuple(sorted(extra.items())), **direct)

    @property
    def extras(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass
class PointResult:
    """What one scenario produced: extracted metrics and, when the run
    was executed with capture enabled, the engine's telemetry record."""

    scenario: Scenario
    values: Dict[str, Any]
    telemetry: Optional[Dict[str, Any]] = None


# -- kind registry ---------------------------------------------------------
#
# Each kind runner executes a scenario and returns (values, engine_dump).
# Runners import the harness (and figure modules) lazily so this module
# stays import-light and cycle-free; workers only pay for what they run.


def _window_kwargs(scenario: Scenario) -> Dict[str, int]:
    kwargs: Dict[str, int] = {}
    if scenario.duration is not None:
        kwargs["duration"] = scenario.duration
    if scenario.warmup is not None:
        kwargs["warmup"] = scenario.warmup
    return kwargs


def _run_open_loop(scenario: Scenario):
    from repro.experiments import harness

    kwargs = dict(scenario.extras)
    kwargs.update(_window_kwargs(scenario))
    if scenario.offered_pps is not None:
        kwargs["offered_pps"] = scenario.offered_pps
    result = harness.run_open_loop(
        scenario.mode,
        scenario.nf_cycles,
        num_flows=scenario.num_flows,
        seed=scenario.seed,
        num_cores=scenario.num_cores,
        frame_len=scenario.frame_len,
        burst=scenario.burst,
        **kwargs,
    )
    values = {
        "rate_mpps": result.rate_mpps,
        "rate_gbps": result.rate_gbps,
        "p99_latency_us": result.p99_latency_us,
    }
    return values, result.telemetry


def _run_capacity(scenario: Scenario):
    """Saturation rate: an open-loop run at line rate, pinned window."""
    pinned = scenario.with_(
        kind="open_loop",
        duration=scenario.duration if scenario.duration is not None else CAPACITY_DURATION,
        warmup=scenario.warmup if scenario.warmup is not None else CAPACITY_WARMUP,
        offered_pps=None,
    )
    values, dump = _run_open_loop(pinned)
    values["pps"] = values["rate_mpps"] * 1e6
    return values, dump


def _run_tcp(scenario: Scenario):
    from repro.experiments import harness
    from repro.metrics.fairness import jain_index

    kwargs = dict(scenario.extras)
    kwargs.update(_window_kwargs(scenario))
    result = harness.run_tcp(
        scenario.mode,
        scenario.nf_cycles,
        num_flows=scenario.num_flows,
        seed=scenario.seed,
        num_cores=scenario.num_cores,
        **kwargs,
    )
    values = {
        "total_goodput_gbps": result.total_goodput_gbps,
        "jain": jain_index(list(result.per_flow_goodput_bps.values())),
        "retransmissions": result.retransmissions,
    }
    return values, result.telemetry


def _run_nf_verify(scenario: Scenario):
    from repro.experiments import table1

    result = table1.verify_nf(scenario.extras["nf_key"])
    telemetry = result.pop("telemetry", {})
    return result, telemetry


def _run_flow_size_cdf(scenario: Scenario):
    from repro.experiments import fig1

    values = fig1.compute(seed=scenario.seed, **scenario.extras)
    return values, {}


def _run_concurrency(scenario: Scenario):
    from repro.experiments import fig2

    values = fig2.compute(seed=scenario.seed, **scenario.extras)
    return values, {}


def _run_resilience(scenario: Scenario):
    from repro.faults import study

    return study.run_resilience_scenario(scenario)


def _run_scr_head_to_head(scenario: Scenario):
    from repro.experiments import figs

    return figs.run_figs_scenario(scenario)


def _run_cluster_serving(scenario: Scenario):
    from repro.experiments import figc

    return figc.run_figc_scenario(scenario)


def _run_chain_planner(scenario: Scenario):
    from repro.experiments import figp

    return figp.run_figp_scenario(scenario)


KIND_RUNNERS: Dict[str, Callable[[Scenario], Tuple[Dict[str, Any], Dict[str, Any]]]] = {
    "open_loop": _run_open_loop,
    "capacity": _run_capacity,
    "tcp": _run_tcp,
    "nf_verify": _run_nf_verify,
    "flow_size_cdf": _run_flow_size_cdf,
    "concurrency": _run_concurrency,
    "resilience": _run_resilience,
    "scr_head_to_head": _run_scr_head_to_head,
    "cluster_serving": _run_cluster_serving,
    "chain_planner": _run_chain_planner,
}


def register_kind(name: str, fn: Callable, replace: bool = False) -> None:
    """Register a custom scenario kind (benchmarks, examples).

    Raises ``ValueError`` on a name that is already registered unless
    ``replace=True`` — a silent overwrite of a built-in kind would make
    every sweep using that kind quietly measure something else.
    """
    if not replace and name in KIND_RUNNERS:
        raise ValueError(
            f"scenario kind {name!r} is already registered; pass replace=True "
            "to overwrite it deliberately"
        )
    KIND_RUNNERS[name] = fn


def run_scenario(scenario: Scenario, capture: bool = False) -> PointResult:
    """Execute one scenario in this process.

    This is the unit of work of both executor backends: the process
    pool pickles the scenario over, runs this function in the worker,
    and pickles the :class:`PointResult` back — which is how telemetry
    travels across process boundaries (a module-global capture list in
    the parent would never see a worker's engines).
    """
    try:
        runner = KIND_RUNNERS[scenario.kind]
    except KeyError:
        raise ValueError(
            f"unknown scenario kind {scenario.kind!r}; have {sorted(KIND_RUNNERS)}"
        ) from None
    try:
        values, dump = runner(scenario)
    except Exception as error:
        # Name the point: a sweep surfaces the first failing point's
        # error, and pool workers send back only the exception.
        raise RuntimeError(
            f"scenario (label={scenario.label!r}, kind={scenario.kind!r}, "
            f"mode={scenario.mode!r}, seed={scenario.seed}) failed: "
            f"{type(error).__name__}: {error}"
        ) from error
    telemetry = None
    if capture:
        telemetry = {
            "experiment": scenario.label or scenario.kind,
            "kind": scenario.kind,
            "mode": scenario.mode,
            "nf_cycles": scenario.nf_cycles,
            "num_flows": scenario.num_flows,
            "seed": scenario.seed,
            "telemetry": dump,
        }
    return PointResult(scenario=scenario, values=values, telemetry=telemetry)


# -- aggregation -----------------------------------------------------------


def aggregate_samples(
    row: Dict[str, Any],
    label: str,
    unit: str,
    samples: Sequence[float],
    agg: str = "mean_std",
) -> None:
    """The one shared seed-aggregation implementation.

    ``mean_std`` folds per-seed samples into a mean plus (when
    multi-seed) a standard deviation — the paper's "error bars represent
    one standard deviation". ``mean_min_max`` is Figure 9's variant
    (its error bars are min/max across runs).
    """
    column = f"{label}_{unit}" if unit else label
    row[column] = statistics.fmean(samples)
    if agg == "mean_std":
        if len(samples) > 1:
            row[f"{label}_std"] = statistics.stdev(samples)
    elif agg == "mean_min_max":
        row[f"{label}_min"] = min(samples)
        row[f"{label}_max"] = max(samples)
    else:
        raise ValueError(f"unknown aggregation {agg!r}")


# -- sweeps ----------------------------------------------------------------


@dataclass(frozen=True)
class Series:
    """One curve of a figure: a column label + scenario overrides."""

    label: str
    overrides: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, label: str, **overrides) -> "Series":
        return cls(label=label, overrides=tuple(sorted(overrides.items())))


def mode_series(modes: Sequence[str]) -> Tuple[Series, ...]:
    """The common case: one series per steering mode."""
    return tuple(Series.make(mode, mode=mode) for mode in modes)


@dataclass
class Sweep:
    """axis values x series x seeds, declared once, executed anywhere.

    ``axis`` names the row key; ``axis_field`` the scenario field (or
    config kwarg) the axis value binds to — defaults to ``axis``.
    ``seed_fn(base_seed, axis_value)`` derives each point's seed; it
    must be a function of the base seed and the axis value only, never
    of loop position, which is what makes rows independent of execution
    order (and lets a subset of the sweep reproduce the full sweep's
    values exactly).
    """

    name: str
    kind: str
    axis: str
    values: Sequence[Any]
    series: Sequence[Series] = ()
    modes: Sequence[str] = ()
    axis_field: Optional[str] = None
    seeds: Sequence[int] = (1,)
    seed_fn: Optional[Callable[[int, Any], int]] = None
    metric: str = ""
    unit: str = ""
    agg: str = "mean_std"
    base: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.modes and self.series:
            raise ValueError("give either modes or series, not both")
        if self.modes:
            self.series = mode_series(self.modes)
            self.modes = ()
        if not self.series:
            raise ValueError("a sweep needs at least one series")
        self.values = tuple(self.values)
        self.seeds = tuple(self.seeds)

    def point_seed(self, base_seed: int, value: Any) -> int:
        return self.seed_fn(base_seed, value) if self.seed_fn else base_seed

    def scenarios(self) -> List[Scenario]:
        """All points, in canonical (value, series, seed) order."""
        axis_field = self.axis_field or self.axis
        template = Scenario.make(self.kind, label=self.name, **dict(self.base))
        points = []
        for value in self.values:
            for series in self.series:
                overrides = dict(series.overrides)
                overrides[axis_field] = value
                for base_seed in self.seeds:
                    points.append(
                        template.with_(seed=self.point_seed(base_seed, value), **overrides)
                    )
        return points

    def __len__(self) -> int:
        return len(self.values) * len(self.series) * len(self.seeds)

    def rows(self, results: Sequence[PointResult]) -> List[Dict[str, Any]]:
        """Fold canonically-ordered point results into figure rows."""
        if len(results) != len(self):
            raise ValueError(f"expected {len(self)} results, got {len(results)}")
        rows: List[Dict[str, Any]] = []
        it = iter(results)
        for value in self.values:
            row: Dict[str, Any] = {self.axis: value}
            for series in self.series:
                samples = [next(it).values[self.metric] for _ in self.seeds]
                aggregate_samples(row, series.label, self.unit, samples, agg=self.agg)
            rows.append(row)
        return rows

    def run(self, runner=None) -> List[Dict[str, Any]]:
        """Execute through ``runner`` (default: serial in-process)."""
        from repro.experiments.runner import SweepRunner

        return (runner or SweepRunner()).run_sweep(self)
