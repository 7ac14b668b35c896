"""Alternating A/B pairs of benchmark runs: a parent checkout against a change.

    python3 tools/ab_pairs.py --parent DIR --change DIR --workload NAME [--pairs N] [--out FILE]

Each pair runs ``python3 perfbench/run.py --workload NAME --pins
perfbench/pinned.json`` once in each checkout, at the benchmark's own run
length and seed, the parent first in even pairs and the change first in odd
ones.  For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
runs, median and quartiles, the change in percent and the pairs the change won
(ties count for neither side; "better" is read from ``BENCHMARK.json``), and
per side the failed and attempted operations and the crashed runs (those that
printed no summary line).  With ``--out`` it writes that entry to
``workloads.<NAME>`` of the JSON file, keeping what else the file holds.  It
exits 1 if any run crashed.

The two checkout paths must have equal length: the benchmark's timings move
with the length of the checkout's path.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path("perfbench") / "run.py"


def quartiles(runs: list[float]) -> list[float]:
    """The first and third quartiles (``statistics.quantiles``' exclusive method); one run is both."""
    return [runs[0], runs[0]] if len(runs) == 1 else statistics.quantiles(runs, n=4)[::2]


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric, each side's runs, median and quartiles, the change in percent and the change's wins.

    ``parent`` and ``change`` hold the ``metrics`` of each run's summary line,
    pair by pair; a run without a metric (a failed one) sits out its pair.
    """
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        pairs = [(p[name]["value"], c[name]["value"]) for p, c in zip(parent, change) if name in p and name in c]
        p_runs = [m[name]["value"] for m in parent if name in m]
        c_runs = [m[name]["value"] for m in change if name in m]
        if not p_runs or not c_runs:
            continue
        p_med, c_med = statistics.median(p_runs), statistics.median(c_runs)
        out[name] = {
            "parent_median": round(p_med, 6),
            "parent_iqr": [round(q, 6) for q in quartiles(p_runs)],
            "change_median": round(c_med, 6),
            "change_iqr": [round(q, 6) for q in quartiles(c_runs)],
            "change_pct": round(100 * (c_med - p_med) / p_med, 1),
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "parent_runs": [round(v, 6) for v in p_runs],
            "change_runs": [round(v, 6) for v in c_runs],
        }
    return out


def run_once(checkout: Path, workload: str) -> dict:
    """One benchmark run in ``checkout``: its summary line, or a crashed stand-in naming why."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--pins", str(Path("perfbench") / "pinned.json")]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": proc.stderr.strip()[-500:]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", type=Path, help="JSON file whose workloads.<NAME> entry is written")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / RUN).is_file():
            parser.error(f"--{side} {path} has no {RUN}")
    if len(str(sides["parent"])) != len(str(sides["change"])):
        parser.error(f"the checkout paths differ in length ({sides['parent']}, {sides['change']})")
    end_to_end = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(args.pairs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            result = run_once(sides[side], args.workload)
            runs[side].append(result)
            print(f"pair {k} {side}: " + (result.get("error") or ", ".join(
                f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()
            )), flush=True)

    entry = {
        "pairs": args.pairs,
        "correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "crashed": {side: sum("error" in r for r in rs) for side, rs in runs.items()},
        "summary": summarize(*([r["metrics"] for r in runs[side]] for side in ("parent", "change")), end_to_end),
    }
    print(f"{args.workload}: correct {entry['correct']}, failed/attempted (crashed runs) " + ", ".join(
        f"{side} {entry['failed'][side]}/{entry['attempted'][side]} ({entry['crashed'][side]})" for side in runs
    ))
    for name, s in entry["summary"].items():
        print(f"  {name}: parent {s['parent_median']:.6g} {s['parent_iqr']}, change {s['change_median']:.6g} "
              f"{s['change_iqr']}, {s['change_pct']:+.1f}%, change wins {s['change_wins']}/{args.pairs}")
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
        doc.setdefault("workloads", {})[args.workload] = entry
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if any(entry["crashed"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
