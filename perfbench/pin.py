"""Regenerate ``pinned.json``: the simulated outputs runs are checked against.

    python3 perfbench/pin.py

Runs every workload's three modes once, untraced, for the default and
the held-out seed, and writes their simulated outputs. Re-pin only when
a change is meant to alter simulated behaviour; a change that claims
only speed must leave every pinned value as it is.

These values are the repository's own earlier results, not measurements
of real hardware: a match shows the simulator still computes what it
computed when the values were pinned, nothing more.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import MODES, WORKLOADS, run_mode  # noqa: E402

#: The seed results are pinned for and most runs use.
DEFAULT_SEED = 1
#: Pinned too, but kept out of tuning: re-check a claimed gain here.
HELDOUT_SEED = 9001


def main() -> int:
    outputs = {}
    for name, workload in WORKLOADS.items():
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            per_mode = {}
            for mode in MODES:
                run = run_mode(workload, mode, seed)
                if run.ledger_errors:
                    raise SystemExit(f"{name}/{mode}/seed {seed}: {run.ledger_errors}")
                per_mode[mode] = dict(run.outputs, rx_packets=run.rx_packets)
            outputs.setdefault(name, {})[str(seed)] = per_mode
            print(f"pinned {name} seed {seed}", file=sys.stderr)
    document = {
        "note": (
            "Simulated outputs of each workload and mode, pinned from this repository's "
            "own runs. Checks, not a validation against hardware."
        ),
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "outputs": outputs,
    }
    (HERE / "pinned.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
