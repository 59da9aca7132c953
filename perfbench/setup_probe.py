"""Set-up time of one workload, measured in a fresh interpreter.

Imports the program modules the workload uses, then builds the engine,
links, generator or testbed and NF chain for each of the three modes,
stopping each build at its first simulated event. Prints one JSON line
with the import and build times and the calibration loop's time, taken
before and after (see ``workloads.calibrate``), all in seconds.

    python3 perfbench/setup_probe.py --workload lr64_keepup --seed 1
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    MODES,
    WORKLOADS,
    FirstEvent,
    Probe,
    calibrate,
    start_run,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    before = calibrate()
    start = time.perf_counter_ns()
    for module in workload.imports:
        importlib.import_module(module)
    import_ns = time.perf_counter_ns() - start

    build_ns = 0
    for mode in MODES:
        start = time.perf_counter_ns()
        with Probe(stop_at_first_event=True) as probe:
            try:
                start_run(workload, mode, args.seed)
            except FirstEvent:
                pass
        if probe.first_event_ns is None:
            raise RuntimeError(f"{workload.name}/{mode}: the run never reached an event")
        build_ns += probe.first_event_ns - start
    calibration_ns = (before + calibrate()) / 2
    print(json.dumps({
        "import_s": import_ns / 1e9, "build_s": build_ns / 1e9,
        "calibration_s": calibration_ns / 1e9,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
