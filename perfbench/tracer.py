"""Layer tracing from outside the program.

The simulator has no span instrumentation of its own, so the benchmark
wraps the public entry points of each layer at class level for the
duration of one traced run and restores them afterwards. A wrapper
records a span (start, end, caller) and folds it into per-key self time
on the fly: self time is the span's duration minus the time its wrapped
children took. Spans are aggregated in memory, never written per call.

Three kinds of entry point are wrapped:

- the methods listed in :data:`TARGETS`, per layer;
- every callback scheduled through ``Simulator.post/at/after/post_after``,
  keyed by the module that defined it (the callback is routed through a
  trampoline that opens the span);
- callables the program stores on instances while wiring (link sinks,
  per-core processors and egress hooks), wrapped once wiring is done,
  at the first ``Simulator.run`` of the run.

Counts are exact: each span increments its key once (``stage`` adds
its batch's row count), so two runs of the same seed give identical
counts. Tracing must stay a pure observer: the benchmark checks that a
traced run produces the same simulated outputs as an untraced one.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer of a scheduled or stored callable, by its defining module
#: (longest prefix wins). Anything else lands in "other".
MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.trafficgen", "trafficgen"),
    ("repro.nic.rss", "steering"),
    ("repro.nic.flow_director", "steering"),
    ("repro.nic", "nic"),
    ("repro.steering.scr", "scr"),
    ("repro.steering", "steering"),
    ("repro.core.batch_spine", "batch_spine"),
    ("repro.core.engine", "engine"),
    ("repro.core.rings", "rings"),
    ("repro.core.flow_state", "flow_state"),
    ("repro.core.chain", "chain"),
    ("repro.core.nf", "nfs"),
    ("repro.nfs", "nfs"),
    ("repro.cpu", "cpu"),
    ("repro.tcpstack", "tcpstack"),
    ("repro.telemetry", "telemetry"),
    ("repro.metrics", "metrics"),
    # The harness's per-packet collector feeds the rate meter and the
    # latency recorder: measurement, like repro.metrics.
    ("repro.experiments", "metrics"),
)

#: Every layer a metric is reported for, in report order.
LAYERS = (
    "sim", "trafficgen", "nic", "steering", "batch_spine", "engine", "cpu",
    "rings", "scr", "flow_state", "nfs", "chain", "tcpstack", "telemetry",
    "metrics", "other",
)

#: The span around the event loop. Its self time is the loop's own
#: dispatch plus whatever runs inside the loop without a wrapper of its
#: own, so it counts toward ``sim`` but not toward the trace coverage.
LOOP_KEY = ("sim", "Simulator.run")

_FLOW_STATE_METHODS = ("insert_local", "remove_local", "get_local", "get", "get_many")
_NF_METHODS = ("connection_packets", "regular_packets", "process_batch")

#: (module, class, methods, layer). Subclasses that override one of
#: the methods are wrapped too, under the same layer (see
#: :func:`method_owners`). A target the program no longer has is
#: skipped, so the benchmark survives refactors of private detail.
TARGETS = (
    ("repro.sim.engine", "Simulator", ("run",), "sim"),
    ("repro.trafficgen.moongen", "OpenLoopGenerator", ("start", "stop"), "trafficgen"),
    ("repro.nic.link", "Link", ("send", "send_many", "send_batch", "flush_deferred"), "nic"),
    ("repro.nic.nic", "MultiQueueNic", ("receive",), "nic"),
    ("repro.nic.queues", "RxQueue", ("push", "pop_batch"), "nic"),
    ("repro.nic.nic", "MultiQueueNic", ("steer_batch", "classify"), "steering"),
    ("repro.steering.base", "SteeringPolicy", ("designated_core",), "steering"),
    ("repro.core.batch_spine", "ArrivalStager", ("stage", "settle_due"), "batch_spine"),
    ("repro.core.engine", "MiddleboxEngine",
     ("receive", "designated_core", "summary", "conservation"), "engine"),
    ("repro.cpu.core", "Core", ("wake",), "cpu"),
    ("repro.core.rings", "TransferRing", ("push", "push_batch", "pop_batch"), "rings"),
    ("repro.steering.scr", "ScrReplication", ("observe", "retract", "sync", "deliver"), "scr"),
    ("repro.core.flow_state", "PartitionedFlowState", _FLOW_STATE_METHODS, "flow_state"),
    ("repro.core.flow_state", "ScrFlowState", _FLOW_STATE_METHODS, "flow_state"),
    ("repro.core.flow_state", "SharedFlowState", _FLOW_STATE_METHODS, "flow_state"),
    ("repro.core.flow_state", "RemoteFlowState", _FLOW_STATE_METHODS, "flow_state"),
    # NfChain before NetworkFunction: the chain is its own layer, and a
    # method is wrapped once, under the first target that claims it.
    ("repro.core.chain", "NfChain", _NF_METHODS, "chain"),
    ("repro.core.nf", "NetworkFunction", _NF_METHODS, "nfs"),
    ("repro.tcpstack.endpoint", "TcpSenderEndpoint", ("start", "receive"), "tcpstack"),
    ("repro.tcpstack.endpoint", "TcpReceiverEndpoint", ("receive",), "tcpstack"),
    ("repro.telemetry.sampler", "EngineSampler", ("notify_activity", "sample"), "telemetry"),
    ("repro.telemetry.hub", "EngineTelemetry", ("counters", "dump"), "telemetry"),
    ("repro.metrics.latency", "LatencyRecorder", ("record", "percentile_us", "summary_us"),
     "metrics"),
    ("repro.metrics.throughput", "RateMeter", ("record",), "metrics"),
    ("repro.metrics.reordering", "ReorderingTracker", ("observe",), "metrics"),
)

#: Per-row weights for span counts: ``stage`` counts staged rows.
_WEIGHTS = {"ArrivalStager.stage": lambda args: len(args[1].flows)}

#: Methods counted (not timed): ``materialize`` boxes one staged row
#: into a Packet, which is what ``batch_spine.boxed_ratio`` measures.
COUNTED = (("repro.net.batch", "PacketBatch", "materialize"),)

_SCHEDULERS = ("post", "at", "after", "post_after")

#: Core attributes holding callables the engine wired at build time.
_CORE_HOOKS = ("processor", "on_transfer", "on_output", "on_output_many", "on_idle")

Key = Tuple[str, str]


def layer_of_module(module: Optional[str]) -> str:
    best = ""
    layer = "other"
    for prefix, name in MODULE_LAYERS:
        if module and (module == prefix or module.startswith(prefix + ".")):
            if len(prefix) > len(best):
                best, layer = prefix, name
    return layer


def _import_class(module: str, name: str):
    try:
        mod = __import__(module, fromlist=[name])
    except ImportError:
        return None
    return getattr(mod, name, None)


def _all_subclasses(cls) -> List[type]:
    seen: List[type] = []
    todo = [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


def _import_program_modules() -> None:
    """Import the NF and steering packages so their subclasses exist."""
    import repro.nfs.factory  # noqa: F401 - registers every NF class
    import repro.steering  # noqa: F401 - registers every policy class


def method_owners(cls, method: str) -> List[type]:
    """``cls`` and every subclass that defines ``method`` itself."""
    return [k for k in _all_subclasses(cls) if method in k.__dict__]


class Patches:
    """Class-attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[type, str, object]] = []

    def replace(self, owner: type, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def recording_init(cls, sink: List[object]) -> Callable:
    """``cls.__init__``, also appending each new instance to ``sink``."""
    init = cls.__dict__["__init__"]

    def recording(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        sink.append(obj)

    return recording


class Tracer:
    """Aggregates wrapped spans into per-key self time and counts."""

    def __init__(self) -> None:
        #: Child-time accumulator per open span; index 0 is the root.
        self._stack: List[int] = [0]
        #: Live accumulators, written by every wrapper.
        self._self_ns: Dict[Key, int] = {}
        self._calls: Dict[Key, int] = {}
        #: What the run recorded, frozen by :meth:`remove`: wrappers left
        #: on instances or in the event heap keep firing afterwards (the
        #: benchmark drains the simulation), but no longer count.
        self.self_ns: Dict[Key, int] = {}
        self.calls: Dict[Key, int] = {}
        self._keys: Dict[object, Key] = {}
        self._patches = Patches()
        self._links: List[object] = []
        self._engines: List[object] = []
        self._wired = False

    # -- spans -------------------------------------------------------------

    def span(self, key: Key, fn: Callable, weigh: Optional[Callable] = None) -> Callable:
        stack = self._stack
        self_ns = self._self_ns
        calls = self._calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                self_ns[key] = self_ns.get(key, 0) + elapsed - child
                calls[key] = calls.get(key, 0) + (1 if weigh is None else weigh(args))

        traced.perfbench_traced = True
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _trampoline(self, key: Key, fn: Callable, *args) -> None:
        """Scheduled-callback entry: a span around one fired event."""
        stack = self._stack
        stack.append(0)
        start = time.perf_counter_ns()
        try:
            fn(*args)
        finally:
            elapsed = time.perf_counter_ns() - start
            child = stack.pop()
            stack[-1] += elapsed
            self._self_ns[key] = self._self_ns.get(key, 0) + elapsed - child
            self._calls[key] = self._calls.get(key, 0) + 1

    def key_of(self, callback: Callable) -> Key:
        fn = getattr(callback, "__func__", callback)
        ident = getattr(fn, "__code__", None) or type(fn)
        key = self._keys.get(ident)
        if key is None:
            module = getattr(fn, "__module__", None) or type(fn).__module__
            name = getattr(fn, "__qualname__", None) or type(fn).__qualname__
            key = (layer_of_module(module), name)
            self._keys[ident] = key
        return key

    def wrap_callable(self, callback: Optional[Callable]) -> Optional[Callable]:
        if callback is None or getattr(callback, "perfbench_traced", False):
            return callback
        return self.span(self.key_of(callback), callback)

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        _import_program_modules()
        self._links, self._engines, self._wired = [], [], False
        patches = self._patches
        done = set()
        for module, class_name, methods, layer in TARGETS:
            cls = _import_class(module, class_name)
            if cls is None:
                continue
            for method in methods:
                for owner in method_owners(cls, method):
                    if (owner, method) in done:
                        continue
                    done.add((owner, method))
                    name = f"{owner.__name__}.{method}"
                    original = owner.__dict__[method]
                    patches.replace(
                        owner, method, self.span((layer, name), original, _WEIGHTS.get(name))
                    )
        for module, class_name, method in COUNTED:
            cls = _import_class(module, class_name)
            if cls is not None and method in cls.__dict__:
                key = ("count", f"{class_name}.{method}")
                patches.replace(cls, method, self._counter(key, cls.__dict__[method]))
        self._install_scheduling(patches)
        self._install_wiring_hooks(patches)

    def _counter(self, key: Key, fn: Callable) -> Callable:
        calls = self._calls

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        counted.perfbench_traced = True
        return counted

    def _install_scheduling(self, patches: Patches) -> None:
        from repro.sim.engine import Simulator

        trampoline = self._trampoline
        key_of = self.key_of
        for name in _SCHEDULERS:
            original = Simulator.__dict__.get(name)
            if original is None:
                continue

            def schedule(sim, when, callback, *args, _original=original):
                return _original(sim, when, trampoline, key_of(callback), callback, *args)

            patches.replace(Simulator, name, self.span(("sim", "Simulator." + name), schedule))
        run = Simulator.__dict__["run"]  # already span-wrapped above
        tracer = self

        def run_wired(sim, *args, **kwargs):
            if not tracer._wired:
                tracer._wire()
            return run(sim, *args, **kwargs)

        patches.replace(Simulator, "run", run_wired)

    def _install_wiring_hooks(self, patches: Patches) -> None:
        """Record links and engines as they are built."""
        for module, class_name, sink in (
            ("repro.nic.link", "Link", self._links),
            ("repro.core.engine", "MiddleboxEngine", self._engines),
        ):
            cls = _import_class(module, class_name)
            if cls is not None:
                patches.replace(cls, "__init__", recording_init(cls, sink))

    def _wire(self) -> None:
        """Wrap callables stored on instances during wiring.

        Runs at the first simulated event, which is also where the
        measured run starts: what the spans saw during set-up is
        dropped, so the layer table covers the same interval as the
        end-to-end timing.
        """
        self._wired = True
        self._self_ns.clear()
        self._calls.clear()
        for link in self._links:
            link.sink = self.wrap_callable(getattr(link, "sink", None))
        for engine in self._engines:
            for core in engine.host.cores:
                for attr in _CORE_HOOKS:
                    if hasattr(core, attr):
                        setattr(core, attr, self.wrap_callable(getattr(core, attr)))

    def remove(self) -> None:
        self._patches.restore()
        self.self_ns = dict(self._self_ns)
        self.calls = dict(self._calls)

    # -- results -----------------------------------------------------------

    def layer_self_ns(self) -> Dict[str, int]:
        totals = {layer: 0 for layer in LAYERS}
        for (layer, _name), ns in self.self_ns.items():
            if layer in totals:
                totals[layer] += ns
        return totals

    def covered_ns(self) -> int:
        """Self time that wrappers attribute to a named layer.

        Leaves out ``other`` and the event loop's own self time, which
        is where the time of a hot path without a wrapper lands.
        """
        return sum(
            ns for key, ns in self.self_ns.items()
            if key[0] in LAYERS and key[0] != "other" and key != LOOP_KEY
        )

    def layer_calls(self, layer: str) -> int:
        return sum(n for (lay, _name), n in self.calls.items() if lay == layer)

    def count(self, name: str) -> int:
        return sum(n for (_lay, key), n in self.calls.items() if key == name)
