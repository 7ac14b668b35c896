"""Regenerate perfbench/pinned.json from the current pwtraffic.

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 perfbench/pin.py

Pins are the reference outputs the benchmark's checks compare against: the
exact limits and scan counts (deterministic, one pin for every seed), and
the Monte Carlo means and decomposition norms at the seeds in PINNED_SEEDS.
Regenerate them only with a change that is meant to alter results, and say
so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

PINNED_SEEDS = {"full": range(0, 11), "tiny": range(0, 1)}


def outputs_of(name: str, seed: int, scale: str):
    wl = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        state = wl.prepare(wl.inputs(seed, scale), tmp)
        state.update(wl.setup(state))
        outputs = wl.run(state, None, tmp)
        problems = [p for p in wl.check(state, outputs, None) if p]
    if problems:
        raise SystemExit(f"{name} seed {seed} ({scale}) fails its invariants: {problems}")
    return wl.pin_values(outputs)


def main() -> None:
    table: dict = {}
    for scale, seeds in PINNED_SEEDS.items():
        for name, wl in workloads.WORKLOADS.items():
            pins = table.setdefault(scale, {}).setdefault(name, {})
            for seed in [0] if wl.deterministic else seeds:
                pins[workloads.pin_key(name, seed)] = outputs_of(name, seed, scale)
                print(f"pinned {scale} {name} seed {seed}", file=sys.stderr)
    (HERE / "pinned.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
