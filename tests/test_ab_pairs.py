"""The A/B pair runner's summary and its refusals, on fixed numbers (no benchmark run)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

END_TO_END = [{"name": "norm_wall_s", "better": "lower"}, {"name": "norm_work_per_s", "better": "higher"}]


def metrics(wall, rate=None):
    out = {"norm_wall_s": {"value": wall, "unit": "s"}}
    if rate is not None:
        out["norm_work_per_s"] = {"value": rate, "unit": "1/s"}
    return out


def test_summary_of_fixed_runs():
    parent = [metrics(1.0, 10.0), metrics(2.0, 20.0), metrics(3.0, 30.0), metrics(4.0, 40.0), metrics(5.0, 50.0)]
    change = [metrics(0.5, 10.0), metrics(2.0, 25.0), metrics(2.5, 35.0), metrics(4.5, 30.0), metrics(4.0, 60.0)]
    got = ab_pairs.summarize(parent, change, END_TO_END)
    assert got["norm_wall_s"] == {
        "parent_median": 3.0,
        "parent_iqr": [1.5, 4.5],
        "change_median": 2.5,
        "change_iqr": [1.25, 4.25],
        "change_pct": -16.7,
        "change_wins": 3,  # lower is better: pairs 0, 2 and 4; pair 1 is a tie
        "parent_runs": [1.0, 2.0, 3.0, 4.0, 5.0],
        "change_runs": [0.5, 2.0, 2.5, 4.5, 4.0],
    }
    rate = got["norm_work_per_s"]
    assert (rate["parent_median"], rate["change_median"], rate["change_pct"]) == (30.0, 30.0, 0.0)
    assert rate["change_wins"] == 3  # higher is better: pairs 1, 2 and 4; pair 0 is a tie


def test_a_run_without_a_metric_sits_out_its_pair():
    parent = [metrics(1.0, 10.0), metrics(2.0)]
    change = [metrics(0.5, 12.0), metrics(1.0, 5.0)]
    got = ab_pairs.summarize(parent, change, END_TO_END)
    assert got["norm_work_per_s"]["parent_runs"] == [10.0] and got["norm_work_per_s"]["parent_iqr"] == [10.0, 10.0]
    assert got["norm_work_per_s"]["change_wins"] == 1
    assert got["norm_wall_s"]["change_wins"] == 2
    assert "norm_wall_s" not in ab_pairs.summarize([{}], change[:1], END_TO_END)


def checkout(path: Path) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    return path


def test_refuses_unequal_paths_and_a_directory_without_the_benchmark(tmp_path, capsys):
    a, b = checkout(tmp_path / "a"), checkout(tmp_path / "bb")
    with pytest.raises(SystemExit):
        ab_pairs.main(["--parent", str(a), "--change", str(b), "--workload", "decompose"])
    assert "differ in length" in capsys.readouterr().err
    (tmp_path / "c").mkdir()
    with pytest.raises(SystemExit):
        ab_pairs.main(["--parent", str(a), "--change", str(tmp_path / "c"), "--workload", "decompose"])
    assert "has no perfbench/run.py" in capsys.readouterr().err


def test_a_run_without_a_summary_line_counts_as_crashed(tmp_path, capsys):
    a, b = checkout(tmp_path / "a"), checkout(tmp_path / "b")  # each run.py prints nothing
    (b / "BENCHMARK.json").write_text('{"end_to_end": [{"name": "norm_wall_s", "better": "lower"}]}')
    out = tmp_path / "bench.json"
    code = ab_pairs.main(["--parent", str(a), "--change", str(b), "--workload", "decompose", "--pairs", "1", "--out", str(out)])
    entry = json.loads(out.read_text())["workloads"]["decompose"]
    assert code == 1
    assert entry["crashed"] == {"parent": 1, "change": 1} and entry["correct"] is False
    assert "parent 0/0 (1), change 0/0 (1)" in capsys.readouterr().out
