"""CLI tests: config handling, reports, determinism, exit codes."""

import json
import re

import pytest

from pwtraffic.cli import (
    EXIT_FLAG,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    cmd_compare,
    cmd_decompose,
    cmd_limit,
    cmd_simulate,
    cmd_spectrum,
    main,
    parse_polynomial,
    resolve_graphs,
)
from pwtraffic.hermite import hermite, monomial


def base_config(**overrides):
    cfg = {
        "ensemble": {
            "N0": 60,
            "N1": 60,
            "N2": 60,
            "law_w": {"kind": "gaussian"},
            "law_x": {"kind": "gaussian"},
            "profile_w": [["1"]],
            "profile_x": [["1"]],
        },
        "graph": "moment-1",
        "labels": "h1",
        "trials": 12,
        "seed": 5,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parse_polynomial():
    assert parse_polynomial("h3") == monomial(3)
    assert parse_polynomial("g5") == hermite(5)
    assert parse_polynomial(["0", "1"]) == monomial(1)
    assert parse_polynomial({"basis": "hermite", "coeffs": ["0", "0", "0", "1"]}) == hermite(3)
    with pytest.raises(ConfigError):
        parse_polynomial("q2")


def test_resolve_graphs_presets_and_explicit():
    cfg = base_config(graph=["moment-2", "single-edge"], labels="h3")
    graphs = resolve_graphs(cfg)
    assert [name for name, _ in graphs] == ["moment-2", "single-edge"]
    assert len(graphs[0][1].edges) == 4
    explicit = {
        "name": "pair",
        "vertices": [{"id": "u", "color": 1}, {"id": "v", "color": 2}],
        "edges": [
            {"id": "a", "src": "v", "dst": "u", "label": "p"},
            {"id": "b", "src": "v", "dst": "u", "label": "q"},
        ],
    }
    cfg2 = base_config(graph=explicit, labels={"p": "h1", "q": "g3"})
    (name, g), = resolve_graphs(cfg2)
    assert name == "pair" and len(g.edges) == 2
    assert g.edges[1].label == hermite(3)
    with pytest.raises(ConfigError):
        resolve_graphs(base_config(graph="hexagon"))
    with pytest.raises(ConfigError):
        resolve_graphs(base_config(graph=explicit, labels="h1"))


def test_cmd_simulate_record_shape():
    report, code = cmd_simulate(base_config())
    assert code == EXIT_OK
    (rec,) = report["records"]
    assert set(rec) >= {"graph_id", "estimator", "mean", "std_error", "trials", "seed", "N0", "N1", "N2"}
    assert rec["trials"] == 12 and rec["N0"] == 60
    assert report["config"]["graph_expansion"]["moment-1"]["edges"]


def test_cmd_simulate_zero_profile_and_single_trial():
    cfg = base_config(trials=1)
    cfg["ensemble"]["profile_w"] = [["0"]]
    report, _ = cmd_simulate(cfg)
    (rec,) = report["records"]
    assert rec["mean"] == 0.0
    assert rec["std_error"] is None


def test_cmd_limit_values_and_flag():
    report, code = cmd_limit(base_config(labels="h3", graph=["moment-1", "single-edge"]))
    assert code == EXIT_OK and not report["flag_raised"]
    by_graph = {r["graph"]: r for r in report["records"]}
    assert by_graph["moment-1"]["value"] == "5/9"
    assert by_graph["moment-1"]["components"]["per"] == "2/9"
    assert by_graph["single-edge"]["value"] == "0"  # gaussian third moments vanish
    assert not by_graph["moment-1"]["mismatch"]


def test_cmd_limit_breakdown():
    report, _ = cmd_limit(base_config(labels="h3", graph="moment-2", breakdown=True))
    (rec,) = report["records"]
    parts = rec["per_quotient_breakdown"]
    assert len(parts) == 3
    total = sum(__import__("fractions").Fraction(p["value"]) for p in parts)
    assert str(total) == rec["value"]


def test_cmd_compare_z_scores():
    report, code = cmd_compare(base_config(labels="h1", trials=20))
    assert code == EXIT_OK
    kinds = [r["estimator"] for r in report["records"]]
    assert kinds == ["tau_mc_model", "tau_mc_equivalent", "pairwise"]
    model = report["records"][0]
    assert model["exact"] == pytest.approx(1 / 27)
    assert abs(model["z_score"]) < 6


def test_cmd_spectrum_moments_and_histogram(tmp_path):
    report, code = cmd_spectrum(base_config(labels="h1", seed=2))
    assert code == EXIT_OK
    fams = {r["family"]: r for r in report["records"]}
    assert set(fams) == {"model", "equivalent"}
    assert len(fams["model"]["gram_moments"]) == 4
    assert all(m > 0 for m in fams["model"]["gram_moments"])
    assert report["histogram"]
    out = tmp_path / "spec.json"
    report2, _ = cmd_spectrum(base_config(labels="h1", seed=2), out_path=str(out))
    hist = (tmp_path / "spec.hist.csv").read_text().splitlines()
    assert hist[0] == "family,bin_left,count"
    assert len(hist) > 2


def test_cmd_spectrum_size_cap():
    cfg = base_config()
    cfg["ensemble"]["N1"] = 4001
    cfg["ensemble"]["N0"] = 10
    cfg["ensemble"]["N2"] = 10
    with pytest.raises(ConfigError):
        cmd_spectrum(cfg)


def test_cmd_decompose_records():
    report, code = cmd_decompose(base_config(labels="h3"))
    assert code == EXIT_OK
    (rec,) = report["records"]
    assert rec["norms"]["eps"] < 1e-10
    assert rec["reassembly_residual"] < 1e-10
    report_h1, _ = cmd_decompose(base_config(labels="h1"))
    norms = report_h1["records"][0]["norms"]
    assert norms["per"] == {} and norms["def"] == 0 and norms["eps"] < 1e-12
    report_h5, _ = cmd_decompose(base_config(labels="h5"))
    assert report_h5["records"][0]["reassembly_residual"] < 1e-10


def test_main_reports_are_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == EXIT_OK
    strip = lambda text: re.sub(r'"wall_clock_s": [0-9.e-]+', '"wall_clock_s": 0', text)
    assert strip(out1.read_text()) == strip(out2.read_text())


def test_main_threads_match_serial(tmp_path):
    cfg_path = write_config(tmp_path, base_config(trials=8))
    out1, out2 = tmp_path / "serial.json", tmp_path / "par.json"
    main(["simulate", "--config", cfg_path, "--out", str(out1)])
    main(["simulate", "--config", cfg_path, "--out", str(out2), "--threads", "4"])
    rec1 = json.loads(out1.read_text())["records"]
    rec2 = json.loads(out2.read_text())["records"]
    assert rec1 == rec2


def test_main_validation_exit_codes(tmp_path):
    missing = write_config(tmp_path, {"graph": "moment-1"})
    assert main(["limit", "--config", missing]) == EXIT_VALIDATION
    bad_trials = write_config(tmp_path, base_config(trials=0), "bad.json")
    assert main(["simulate", "--config", bad_trials]) == EXIT_VALIDATION
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == EXIT_VALIDATION
    even = write_config(tmp_path, base_config(labels="h2"), "even.json")
    assert main(["limit", "--config", even]) == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["decompose", "simulate"])
@pytest.mark.parametrize(
    "key, value",
    [("N0", None), ("N0", 0), ("N1", -3), ("N2", 2.5), ("N0", "60"), ("N1", True), ("law_w", None), ("profile_x", None)],
)
def test_main_bad_ensemble_exits_2_with_one_line(tmp_path, capsys, command, key, value):
    cfg = base_config()
    cfg["ensemble"][key] = value
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cmd_limit_flag_exit_code(tmp_path, monkeypatch):
    # the mismatch flag is a tripwire for the exact identity; force one
    import pwtraffic.cli as cli
    from fractions import Fraction

    monkeypatch.setattr(cli, "limit_equivalent_sum", lambda g, params: Fraction(999))
    report, code = cli.cmd_limit(base_config(labels="h3"))
    assert code == EXIT_FLAG and report["flag_raised"]
    assert report["records"][0]["mismatch"]


def test_main_csv_format(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "r.csv"
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--format", "csv"]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("N0,")
    assert len(lines) == 2


@pytest.mark.parametrize("command", ["simulate", "compare", "decompose"])
@pytest.mark.parametrize(
    "key, value",
    [("trials", None), ("trials", 2.5), ("trials", "12"), ("trials", True), ("seed", None), ("seed", 1.0), ("seed", "5"), ("seed", -1), ("seed", [5])],
)
def test_main_bad_trials_or_seed_exits_2_with_one_line(tmp_path, capsys, command, key, value):
    path = write_config(tmp_path, base_config(**{key: value}))
    assert main([command, "--config", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be an integer") and err.count("\n") == 1, err


def test_main_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["simulate", "--config", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


def compare_config():
    cfg = base_config(graph=["moment-1", "moment-2"], labels="h3", trials=6)
    cfg["ensemble"]["law_x"] = {"kind": "skewed_two_point", "a": "2", "b": "-1/2", "p": "1/5"}
    cfg["ensemble"]["profile_w"] = [["1", "1/2"], ["3/2", "1"]]
    return cfg


def test_compare_records_match_single_graph_runs():
    joint, _ = cmd_compare(compare_config())
    for name in ("moment-1", "moment-2"):
        single, _ = cmd_compare(dict(compare_config(), graph=[name]))
        mine = [r for r in joint["records"] if r["graph_id"] == name]
        assert [r["estimator"] for r in mine] == [r["estimator"] for r in single["records"]]
        for got, want in zip(mine, single["records"]):
            assert set(got) == set(want)
            for key, value in want.items():
                if isinstance(value, float):
                    assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-300), key
                else:
                    assert got[key] == value, key


def test_main_compare_report_same_at_any_thread_count(tmp_path):
    cfg_path = write_config(tmp_path, compare_config())
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads-{threads}.json"
        assert main(["compare", "--config", cfg_path, "--out", str(out), "--threads", threads]) == EXIT_OK
        outs.append(re.sub(r'"wall_clock_s": [0-9.e-]+', '"wall_clock_s": 0', out.read_text()))
    assert outs[0] == outs[1]
