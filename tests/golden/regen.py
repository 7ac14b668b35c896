"""Regenerate the golden report digests in ``hashes.json``.

    python3 tests/golden/regen.py

Runs every config of ``CONFIGS`` through ``pwtraffic.cli.main`` and records
the SHA-256 of its JSON report, with the run-dependent fields
(``wall_clock_s``, ``histogram_file``) removed, and of the histogram CSV
that ``spectrum`` writes beside the report.  The numpy version and the BLAS
build are recorded with them: float reports may differ in the last bit on
another build.  ``tests/test_golden.py`` checks the digests at ``--threads``
1 and 2.  Regenerate only when a report is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
HASHES = HERE / "hashes.json"
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from pwtraffic.cli import main  # noqa: E402

#: Report fields that differ between runs of one config.
VOLATILE = ("wall_clock_s", "histogram_file")

GAUSS = {"kind": "gaussian"}
RADEMACHER = {"kind": "rademacher"}
SKEWED = {"kind": "skewed_two_point", "a": "2", "b": "-1/2", "p": "1/5"}
FLAT = [["1"]]
PROFILE_W = [["1", "1/2"], ["3/2", "1"]]
PROFILE_X = [["1/2", "1"], ["1", "2"]]
PAIR_AND_PATH = {
    "name": "pair-and-path",
    "vertices": [{"id": "u", "color": 1}, {"id": "v", "color": 2}, {"id": "w", "color": 1}],
    "edges": [
        {"id": "a", "src": "v", "dst": "u", "label": "p"},
        {"id": "b", "src": "v", "dst": "u", "label": "q"},
        {"id": "c", "src": "v", "dst": "w", "label": "p"},
        {"id": "d", "src": "v", "dst": "w", "label": "q"},
    ],
}


def ensemble(sizes, law_w=GAUSS, law_x=GAUSS, profile_w=FLAT, profile_x=FLAT) -> dict:
    n0, n1, n2 = sizes
    return {"N0": n0, "N1": n1, "N2": n2, "law_w": law_w, "law_x": law_x, "profile_w": profile_w, "profile_x": profile_x}


PROFILED_SKEWED = ensemble((48, 36, 24), GAUSS, SKEWED, PROFILE_W, PROFILE_X)

#: name -> (command, config); N <= 60 and trials <= 20 keep the whole set under a second.
CONFIGS = {
    "simulate-moment1-h3": ("simulate", {
        "ensemble": ensemble((40, 30, 20)), "graph": "moment-1", "labels": "h3", "trials": 20, "seed": 3}),
    "simulate-list-rademacher-g3": ("simulate", {
        "ensemble": ensemble((30, 30, 30), RADEMACHER, RADEMACHER),
        "graph": ["moment-1", "moment-2", "single-edge"], "labels": "g3", "trials": 16, "seed": 11}),
    "simulate-profiled-skewed-h5": ("simulate", {
        "ensemble": PROFILED_SKEWED, "graph": "moment-2", "labels": "h5", "trials": 12, "seed": 2}),
    "simulate-explicit-graph": ("simulate", {
        "ensemble": ensemble((36, 24, 30), SKEWED, GAUSS), "graph": PAIR_AND_PATH,
        "labels": {"p": "h1", "q": "g3"}, "trials": 10, "seed": 7}),
    "limit-moment1-hermite-basis": ("limit", {
        "ensemble": ensemble((40, 30, 20)), "graph": "moment-1",
        "labels": {"basis": "hermite", "coeffs": ["0", "1", "0", "1/2"]}}),
    "limit-moment2-profiled-breakdown": ("limit", {
        "ensemble": ensemble((48, 36, 24), SKEWED, SKEWED, PROFILE_W, PROFILE_X), "graph": "moment-2",
        "labels": "h3", "breakdown": True}),
    "limit-single-edge-skewed": ("limit", {
        "ensemble": ensemble((50, 30, 20), SKEWED, SKEWED), "graph": ["single-edge", "moment-1"], "labels": "h3"}),
    "limit-explicit-g5-h3-breakdown": ("limit", {
        "ensemble": PROFILED_SKEWED, "graph": PAIR_AND_PATH, "labels": {"p": "g5", "q": "h3"}, "breakdown": True}),
    "compare-moment1-h3": ("compare", {
        "ensemble": ensemble((40, 40, 40)), "graph": "moment-1", "labels": "h3", "trials": 20, "seed": 5}),
    "compare-profiled-skewed-h3": ("compare", {
        "ensemble": PROFILED_SKEWED, "graph": ["moment-1", "moment-2"], "labels": "h3", "trials": 12, "seed": 9}),
    # both laws skewed: the Gaussian equivalent carries the deformation cells
    "compare-profiled-both-skewed-h3": ("compare", {
        "ensemble": ensemble((48, 36, 24), SKEWED, SKEWED, PROFILE_W, PROFILE_X),
        "graph": ["single-edge", "moment-1"], "labels": "h3", "trials": 16, "seed": 13}),
    "compare-rademacher-g3": ("compare", {
        "ensemble": ensemble((30, 20, 40), RADEMACHER, RADEMACHER), "graph": ["single-edge", "moment-1"],
        "labels": "g3", "trials": 10, "seed": 1}),
    "spectrum-h3": ("spectrum", {"ensemble": ensemble((40, 30, 20)), "labels": "h3", "seed": 1}),
    "spectrum-profiled-skewed-g5": ("spectrum", {"ensemble": PROFILED_SKEWED, "labels": "g5", "bins": 7, "seed": 4}),
    "decompose-h3": ("decompose", {"ensemble": ensemble((40, 30, 20)), "labels": "h3", "seed": 0}),
    "decompose-profiled-skewed-h5": ("decompose", {"ensemble": PROFILED_SKEWED, "labels": "h5", "seed": 6}),
    "decompose-hermite-basis": ("decompose", {
        "ensemble": ensemble((30, 40, 20), RADEMACHER, SKEWED),
        "labels": {"basis": "hermite", "coeffs": ["0", "1", "0", "1"]}, "seed": 2}),
}


def stack() -> dict:
    """The numpy version and BLAS build that the digests depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except Exception:  # numpy < 1.25 has no dict form of its build configuration
        vendor = "unknown"
    return {"numpy": np.__version__, "blas": vendor}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str, threads: int, workdir: Path) -> dict:
    """Exit code and report digests of one config run at ``--threads threads``."""
    command, config = CONFIGS[name]
    cfg = workdir / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = workdir / f"{name}.{threads}.out.json"
    code = main([command, "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
    entry = {"exit": code}
    if out.exists():
        report = json.loads(out.read_text())
        for key in VOLATILE:
            report.pop(key, None)
        entry["report"] = _sha256(json.dumps(report, sort_keys=True, indent=2).encode())
    hist = out.with_suffix(".hist.csv")  # where cmd_spectrum writes its histogram
    if hist.exists():
        entry["histogram"] = _sha256(hist.read_bytes())
    return entry


def all_digests(threads: int, workdir: Path) -> dict:
    return {name: digests(name, threads, workdir) for name in CONFIGS}


def regenerate() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        serial = all_digests(1, Path(tmp))
        if all_digests(2, Path(tmp)) != serial:
            raise SystemExit("reports differ between --threads 1 and 2; nothing written")
    return {"stack": stack(), "configs": serial}


if __name__ == "__main__":
    recorded = regenerate()
    HASHES.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(recorded['configs'])} digests to {HASHES}")
