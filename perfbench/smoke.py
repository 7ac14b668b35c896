"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that the outputs pass their checks, that a corrupted pinned
value counts as a failed operation, and that the benchmark refuses to report
when the pwtraffic sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "results" / "smoke"
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(script), "--scale", "tiny", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = bench("--workload", name, "--trace", str(trace))
            res = result_of(proc)
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (name, trace, proc.stderr)
            assert set(res["metrics"]) == {m["name"] for m in wanted}, (name, trace)
            for m in wanted:
                got = res["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (name, m, got)
                assert f"  {m['name']} = " in proc.stdout, (name, m["name"])
            if trace == 0:
                assert "error_rate = 0 " in proc.stdout, proc.stdout
                assert all(res["metrics"][m["name"]]["value"] > 0 for m in wanted), res["metrics"]


def test_corrupted_pin_is_a_failure():
    pins = json.loads((HERE / "pinned.json").read_text())
    tiny = pins["tiny"]
    tiny["mc_compare"]["0"]["moment-1/tau_mc_model"][0] *= 1 + 1e-6
    tiny["decompose"]["0"][0]["lin"] *= 1 + 1e-6
    tiny["exact_limits"]["*"]["moment-1"]["lin"] = "1/3"
    tiny["eta_scan"]["*"]["E1_s1t1_3"]["n_supported"] += 1
    SCRATCH.mkdir(parents=True, exist_ok=True)
    corrupted = SCRATCH / "pinned-corrupted.json"
    corrupted.write_text(json.dumps(pins))
    for name in workloads.WORKLOADS:
        res = result_of(bench("--workload", name, "--seed", "0", "--pins", str(corrupted)))
        assert not res["correct"] and res["failed"] >= 1, (name, res)


def test_refuses_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "exact_limits", cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_every_metric_is_emitted_with_its_unit, test_corrupted_pin_is_a_failure, test_refuses_without_sources):
        test()
        print(f"ok {test.__name__}")
