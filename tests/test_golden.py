"""CLI reports stay byte-identical to the recorded golden digests.

``tests/golden/hashes.json`` holds, per config of ``tests/golden/regen.py``,
the exit code and the SHA-256 of the report (without its run-dependent
fields) and of the ``spectrum`` histogram.  A report is fixed by its config
and seed at any thread count, so every digest must match at ``--threads`` 1
and 2.  The digests hold for the numpy and BLAS build that recorded them; on
another build the test skips and names both.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = load_regen()
RECORDED = json.loads((GOLDEN / "hashes.json").read_text())


def test_golden_configs_are_the_recorded_ones():
    assert sorted(regen.CONFIGS) == sorted(RECORDED["configs"])


@pytest.mark.parametrize("threads", [1, 2])
def test_reports_match_golden_digests(tmp_path, threads):
    here = regen.stack()
    if here != RECORDED["stack"]:
        pytest.skip(f"digests recorded on {RECORDED['stack']}, this stack is {here}")
    got = regen.all_digests(threads, tmp_path)
    changed = {name: (got[name], want) for name, want in RECORDED["configs"].items() if got.get(name) != want}
    assert not changed, changed
