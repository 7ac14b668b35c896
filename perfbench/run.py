"""pwtraffic benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a pwtraffic checkout.  Each operation batch runs in a
fresh interpreter (``child.py``), as a user's CLI run does, with BLAS pinned
to one thread.  Children run back to back until the next one would end after
``--seconds``; the metrics are medians over them.  Every metric is printed
with its unit, the full result (machine, samples, failures) is written to
``perfbench/results/``, and the last line of standard output is the JSON
summary.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

PINS = HERE / "pinned.json"
RESULTS = HERE / "results"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 150  # the whole run must end within 180 s
# Set-up takes about 0.15 s and varies by a third from one process to the
# next, so each workload child is followed by a set-up-only child, which
# also times the reference task once.
SETUP_ONLY_CHILDREN = 1
# The throughput each workload reports under the common name norm_work_per_s.
THROUGHPUT = {
    "mc_compare": ("trials_per_s", "trials/s"),
    "decompose": ("decompositions_per_s", "decompositions/s"),
    "exact_limits": ("limit_graphs_per_s", "graphs/s"),
    "eta_scan": ("partitions_per_s", "partitions/s"),
}
# Timings are rescaled to a reference machine speed: on a shared box the
# speed of both interpreted and numpy code drifts by up to a fifth over tens
# of seconds, which a fixed task timed in the same child (child.reference_s)
# tracks.  This is that task's median time on the 2-core box the benchmark
# was written on.
REF_NOMINAL_S = 0.12

MACHINE_PROBE = """
import json, os, platform, sys
import numpy as np
import pwtraffic.cli
try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
except Exception:
    vendor = "unknown"
print(json.dumps({
    "nproc": os.cpu_count(),
    "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    "blas": vendor,
    "python": platform.python_version(),
    "numpy": np.__version__,
    "platform": platform.platform(),
}))
"""


class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in THREAD_ENV:
        env[key] = "1"
    return env


def probe_machine(env: dict) -> dict:
    """Import pwtraffic once (compiling its bytecode) and describe the machine."""
    if not (ROOT / "src" / "pwtraffic" / "cli.py").is_file():
        raise SetupError(f"no pwtraffic sources under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-c", MACHINE_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise SetupError(f"cannot import pwtraffic: {proc.stderr.strip()[-500:]}")
    machine = json.loads(proc.stdout.splitlines()[-1])
    machine["thread_env"] = {key: env[key] for key in THREAD_ENV}
    machine["cli_threads"] = 1
    return machine


def run_child(args, trace: int, k: int, env: dict, timeout: float, n_ops: int, setup_only: bool = False) -> dict:
    tmp = RESULTS / f"tmp-{os.getpid()}-{k}"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
        "--scale", args.scale, "--pins", str(args.pins), "--tmp", str(tmp),
    ] + (["--setup-only"] if setup_only else [])
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising
        return {"attempted": n_ops, "failed": n_ops, "problems": [f"child timed out after {timeout:.0f} s"]}
    finally:
        elapsed = time.perf_counter() - started
    if proc.returncode == 3:
        raise SetupError(proc.stderr.strip()[-2000:])
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        out = json.loads(proc.stdout.splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return {"attempted": n_ops, "failed": n_ops, "problems": [f"child failed ({exc}): {proc.stderr.strip()[-2000:]}"]}
    if setup_only:
        return out
    out["trace"] = trace
    out["child_s"] = elapsed
    return out


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def at_reference_speed(sample: dict, key: str) -> float:
    """A child's time ``sample[key]`` rescaled to the reference speed."""
    return sample[key] * REF_NOMINAL_S / sample["ref_s"]


def norm_wall(sample: dict) -> float:
    return at_reference_speed(sample, "wall_s")


def summarize(args, samples: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """The metrics of BENCHMARK.json, and the raw timings behind them."""
    good = [s for s in samples if "wall_s" in s and s["units"] > 0]
    plain = [s for s in good if s["trace"] == 0]
    traced = [s for s in good if s["trace"] == 1]
    metrics: dict[str, dict] = {}
    raw: dict[str, dict] = {}
    if plain:
        raw["wall_s"] = {"value": median_of(plain, "wall_s"), "unit": "s"}
        raw[THROUGHPUT[args.workload][0]] = {
            "value": statistics.median(s["units"] / s["wall_s"] for s in plain),
            "unit": THROUGHPUT[args.workload][1],
        }
        raw["ref_s"] = {"value": median_of(plain, "ref_s"), "unit": "s"}
    if not args.trace and plain:
        setups = setups + plain
        raw["setup_s"] = {"value": median_of(setups, "setup_s"), "unit": "s"}
        setup = statistics.median(at_reference_speed(s, "setup_s") for s in setups)
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        norm = [norm_wall(s) for s in plain]
        metrics["norm_wall_s"] = {"value": statistics.median(norm), "unit": "s"}
        rate = statistics.median(s["units"] / t for s, t in zip(plain, norm))
        metrics["norm_work_per_s"] = {"value": rate, "unit": "1/s"}
        metrics["peak_rss_mb"] = {"value": median_of(plain, "peak_rss_mb"), "unit": "MB"}
    if args.trace and traced:
        names = sorted({name for s in traced for name in s["layers"]})
        for name in names:
            unit = "ms" if name.endswith("_ms") else "ratio" if name.endswith("_ratio") else "count"
            metrics[name] = {"value": statistics.median(s["layers"][name] for s in traced), "unit": unit}
        trials = [t for s in traced for t in s["trial_ms"]]
        metrics["traffic.trial_ms_p50"] = {"value": percentile(trials, 0.5) if trials else 0.0, "unit": "ms"}
        metrics["traffic.trial_ms_p90"] = {"value": percentile(trials, 0.9) if trials else 0.0, "unit": "ms"}
        if plain:
            overhead = statistics.median(map(norm_wall, traced)) - statistics.median(map(norm_wall, plain))
            metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--pins", type=Path, default=PINS, help="pinned-values file")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    n_ops = wl.n_operations(wl.inputs(args.seed, args.scale))
    env = child_env()
    started = time.perf_counter()
    try:
        RESULTS.mkdir(exist_ok=True)
        machine = probe_machine(env)
        # a traced run alternates traced and untraced children, so that the
        # tracing overhead is measured on the same machine state
        modes = [1, 0] if args.trace else [0]
        samples: list[dict] = []
        setups: list[dict] = []
        rounds: list[float] = []
        while True:
            elapsed = time.perf_counter() - started
            next_s = statistics.median(rounds) if rounds else 0.0
            if len(samples) >= len(modes) and elapsed + next_s > args.seconds:
                break
            timeout = max(10.0, CHILD_TIMEOUT_S - elapsed)
            k = len(samples)
            samples.append(run_child(args, modes[k % len(modes)], k, env, timeout, n_ops))
            for _ in range(0 if args.trace else SETUP_ONLY_CHILDREN):
                setups.append(run_child(args, 0, k, env, timeout, n_ops, setup_only=True))
            rounds.append(time.perf_counter() - started - elapsed)
        setups = [s for s in setups if "setup_s" in s]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics, raw = summarize(args, samples, setups)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    correct = failed == 0 and bool(metrics)
    for s in samples:
        for problem in s.get("problems", []):
            print(f"FAILED: {problem}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {len(samples)} children, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "norm_work_per_s" in metrics:
        alias, unit = THROUGHPUT[args.workload]
        print(f"  {alias} = {metrics['norm_work_per_s']['value']:.6g} {unit} at the reference speed")
    for name, m in raw.items():
        print(f"  raw {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted} operations)")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "deterministic": wl.deterministic,
        "pinned": any(s.get("pinned") for s in samples),
        "machine": machine,
        "metrics": metrics,
        "raw": raw,
        "ref_nominal_s": REF_NOMINAL_S,
        "throughput_name": THROUGHPUT[args.workload][0],
        "error_rate": failed / attempted if attempted else 1.0,
        "samples": [{k: v for k, v in s.items() if k != "trial_ms"} for s in samples],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
