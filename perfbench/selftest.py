"""Injected-slowdown self-test: does the benchmark see a slower layer?

    python3 perfbench/selftest.py [--seconds 15]

Wraps one public function of the program with a busy-wait and checks
the benchmark's answer against what the slowdown must do:

1. ``ArrivalStager.stage`` (the batch spine's entry): ``host_us_per_pkt``
   rises beyond its bound on ``lr64_keepup`` and ``lr64_overload``,
   stays within its bound on ``chain_payload`` and ``iperf_tcp`` (which
   never stage a batch), and the traced run names ``batch_spine`` as the
   layer that grew.
2. ``regular_packets`` of every NF: the traced run on ``chain_payload``
   names ``nfs`` as the layer that grew.

Baseline and slowed runs alternate, so drift of the machine's speed
hits both alike. Every run is also checked like a benchmark run: a
busy-wait must not change a single simulated output. Exits 0 when every
expectation holds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import LAYERS, Patches, method_owners  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Busy-wait per call. ``stage`` runs once per 32-packet burst, so this
#: adds about 15 us per staged packet; ``regular_packets`` runs once per
#: batch per NF stage.
STAGE_DELAY_US = 500
NF_DELAY_US = 50
#: Lowest trace.coverage accepted from the traced runs without a
#: slowdown. Measured: 0.92 on lr64_keepup, 0.95 on chain_payload;
#: without the wrappers around scheduled callbacks, lr64_keepup falls
#: to 0.66.
MIN_COVERAGE = 0.85


def busy_wait(fn, delay_ns: int, calls: list):
    def slowed(*args, **kwargs):
        calls[0] += 1
        end = time.perf_counter_ns() + delay_ns
        while time.perf_counter_ns() < end:
            pass
        return fn(*args, **kwargs)

    return slowed


@contextmanager
def slowed(owners, method: str, delay_us: int):
    """Busy-wait in ``method`` of each owner class; yields the call count."""
    calls = [0]
    patches = Patches()
    for owner in owners:
        patches.replace(owner, method, busy_wait(owner.__dict__[method], delay_us * 1000, calls))
    try:
        yield calls
    finally:
        patches.restore()


def stage_owners():
    from repro.core.batch_spine import ArrivalStager

    return [ArrivalStager]


def nf_owners():
    from repro.core.chain import NfChain
    from repro.core.nf import NetworkFunction

    import repro.nfs.factory  # noqa: F401 - defines every NF class

    return [k for k in method_owners(NetworkFunction, "regular_packets")
            if not issubclass(k, NfChain)]


def host_metric(workload, seconds: float, owners, method, delay_us, checker):
    """Alternating baseline/slowed triples: (baseline, slowed, slowed calls)."""
    base_reps, slow_reps = [], []
    calls = [0]
    deadline = time.perf_counter() + seconds
    while not base_reps or time.perf_counter() < deadline:
        base_reps.append(bench.run_triple(workload, 1, checker, trace=False)[0])
        with slowed(owners, method, delay_us) as counted:
            slow_reps.append(bench.run_triple(workload, 1, checker, trace=False)[0])
        calls[0] += counted[0]
    return (bench.host_us(base_reps)["host_us_per_pkt"],
            bench.host_us(slow_reps)["host_us_per_pkt"], calls[0])


def grown_layer(workload, owners, method, delay_us, checker):
    """The layer whose traced self time grew most under the slowdown."""
    base = [bench.run_triple(workload, 1, checker, trace=True)]
    with slowed(owners, method, delay_us):
        slow = [bench.run_triple(workload, 1, checker, trace=True)]
    before, after = bench.layer_us_per_pkt(base), bench.layer_us_per_pkt(slow)
    growth = {layer: after[layer] - before[layer] for layer in LAYERS}
    return max(growth, key=growth.get), growth, bench.coverage(base)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per workload for the untraced comparison")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["host_us_per_pkt"]
    failures = []

    print(f"1. busy-wait {STAGE_DELAY_US} us in ArrivalStager.stage "
          f"(host_us_per_pkt bound {bound:.0%})")
    for name, must_grow in (("lr64_keepup", True), ("lr64_overload", True),
                            ("chain_payload", False), ("iperf_tcp", False)):
        checker = bench.Checker(name, 1)
        base, slow, calls = host_metric(
            WORKLOADS[name], args.seconds, stage_owners(), "stage", STAGE_DELAY_US, checker
        )
        change = slow / base - 1
        ok = change > bound if must_grow else (abs(change) <= bound and calls == 0)
        print(f"   {name:<14} {base:8.3f} -> {slow:8.3f} us/pkt ({change:+.1%}), "
              f"stage calls {calls}: {'ok' if ok else 'WRONG'}")
        if not ok:
            failures.append(f"{name}: host_us_per_pkt changed {change:+.1%}")
        if checker.failed:
            failures.append(f"{name}: {checker.problems[:3]}")

    for name, owners, method, delay, expected in (
        ("lr64_keepup", stage_owners(), "stage", STAGE_DELAY_US, "batch_spine"),
        ("chain_payload", nf_owners(), "regular_packets", NF_DELAY_US, "nfs"),
    ):
        checker = bench.Checker(name, 1)
        layer, growth, coverage = grown_layer(WORKLOADS[name], owners, method, delay, checker)
        ok = layer == expected and coverage >= MIN_COVERAGE
        top = sorted(growth.items(), key=lambda kv: -kv[1])[:3]
        print(f"2. busy-wait {delay} us in {method} on {name}: grown layer {layer} "
              f"(top: {', '.join(f'{k} {v:+.2f}' for k, v in top)} us/pkt), "
              f"trace.coverage {coverage:.3f}: {'ok' if ok else 'WRONG'}")
        if not ok:
            failures.append(f"{name}: grown layer {layer} (expected {expected}), "
                            f"trace.coverage {coverage:.3f} (at least {MIN_COVERAGE})")
        if checker.failed:
            failures.append(f"{name}: {checker.problems[:3]}")

    for failure in failures:
        print(f"FAILED {failure}")
    print("self-test " + ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
