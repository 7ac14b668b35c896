"""CLI tests: config handling, reports, determinism, exit codes."""

import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from pwtraffic.cli import (
    COMMANDS,
    EXIT_FLAG,
    EXIT_OK,
    EXIT_VALIDATION,
    MAX_BINS,
    MAX_TRIALS,
    ConfigError,
    cmd_compare,
    cmd_decompose,
    cmd_limit,
    cmd_simulate,
    cmd_spectrum,
    main,
    parse_polynomial,
    resolve_ensemble,
    resolve_graphs,
)
from pwtraffic.hermite import hermite, monomial
from pwtraffic.models import equivalent_sum, pw_matrix


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
    assert g.vertices == (("u", 1), ("v", 2))
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


def test_cmd_limit_breakdown_sums_to_value_for_mixed_labels():
    # g5 + h3 expands into three monomial terms; the breakdown still holds
    # one term per quotient, and the terms sum to the value exactly
    cfg = base_config(labels=["0", "15", "0", "-9", "0", "1"], graph=["moment-1", "moment-2", "single-edge"], breakdown=True)
    cfg["ensemble"]["law_w"] = cfg["ensemble"]["law_x"] = {"kind": "skewed_two_point", "a": "2", "b": "-1/2", "p": "1/5"}
    report, _ = cmd_limit(cfg)
    for rec in report["records"]:
        parts = rec["per_quotient_breakdown"]
        assert sum(Fraction(p["value"]) for p in parts) == Fraction(rec["value"]) != 0, rec["graph"]
        partitions = [json.dumps(p["partition"]) for p in parts]
        assert len(set(partitions)) == len(partitions), rec["graph"]


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
    # the moments read from the singular values are trace((M M^T)^k) / N1
    ensemble = resolve_ensemble(base_config())
    lay = ensemble.layout
    model = pw_matrix(monomial(1), *ensemble.sample(2), lay)
    for family, mat in (("model", model), ("equivalent", equivalent_sum(monomial(1), ensemble, 2))):
        gram = mat @ mat.T
        want = [np.trace(np.linalg.matrix_power(gram, k)) / lay.N1 for k in range(1, 5)]
        np.testing.assert_allclose(fams[family]["gram_moments"], want, rtol=1e-12)
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


def test_cmd_decompose_peak_memory():
    """Peak traced memory of one g7 decomposition at N0 = N1 = N2 = 200, in
    units of one N1 x N2 float array: at most 13.5.

    The block sums are the peak.  Live then: the d = 7 power sums S_1..S_7
    (W, X and the entrywise power buffers are freed once the table is
    built), the accumulated ``lin``, ``deformation`` and the three ``per``
    orders of g7 (3, 5, 7), and the one block sum being filled, 12 + 1 = 13
    arrays, with slack for the 32-row scratch tile (0.16 at N1 = 200) and
    small objects.  The table is dropped before the Horner step.  Whole-matrix
    block sums, with W, X and two full-size z_lambda temporaries live, read
    16.0.
    """
    import tracemalloc

    n = 200
    cfg = base_config(labels="g7", seed=0)
    cfg["ensemble"].update(N0=n, N1=n, N2=n)
    cmd_decompose(cfg)  # caches and lazy imports filled outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cmd_decompose(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 13.5 * n * n * 8, peak / (n * n * 8)


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
    [
        ("N0", None),
        ("N0", 0),
        ("N1", -3),
        ("N2", 2.5),
        ("N0", "60"),
        ("N1", True),
        ("law_w", None),
        ("profile_x", None),
        ("profile_w", "12"),
        ("profile_x", ["12"]),
        ("law_x", {"kind": "skewed_two_point", "a": "2", "b": "-1/2", "p": "1/0"}),
        ("profile_w", [["1", "1/0"]]),
    ],
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

    import dataclasses

    real = cli.limit_values
    monkeypatch.setattr(cli, "limit_values", lambda g, params: dataclasses.replace(real(g, params), sum=Fraction(999)))
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


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_main_out_in_missing_directory_exits_2_with_one_line(tmp_path, capsys, command):
    # spectrum fails first on its .hist.csv beside the report
    path = write_config(tmp_path, base_config())
    out = tmp_path / "missing" / "report.json"
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "missing" in captured.err and not captured.out


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


@pytest.mark.parametrize("bins", [[1], 0, -2, 2.5, "10", True, None, MAX_BINS + 1])
def test_main_bad_bins_exits_2_with_one_line(tmp_path, capsys, bins):
    path = write_config(tmp_path, base_config(bins=bins))
    assert main(["spectrum", "--config", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: bins must be an integer") and err.count("\n") == 1, err


def test_cmd_spectrum_bins():
    report, _ = cmd_spectrum(base_config(bins=5))
    for family in ("model", "equivalent"):
        assert sum(r["family"] == family for r in report["histogram"]) == 5


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


def test_main_compare_g5_non_square_same_at_any_thread_count(tmp_path):
    # chaos orders 3 and 5 and a deformation, on N0 != N1 != N2 with 2x2
    # profiles: trial matrices of several shapes made on 4 threads at once
    skewed = {"kind": "skewed_two_point", "a": "2", "b": "-1/2", "p": "1/5"}
    cfg = base_config(graph=["moment-1", "moment-2", "moment-3"], labels="g5", trials=8, seed=21)
    cfg["ensemble"].update(
        {"N0": 50, "N1": 31, "N2": 19, "law_w": skewed, "law_x": skewed,
         "profile_w": [["1", "1/2"], ["3/2", "1"]], "profile_x": [["2", "1"], ["1", "1/2"]]}
    )
    cfg_path = write_config(tmp_path, cfg)
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads-{threads}.json"
        assert main(["compare", "--config", cfg_path, "--out", str(out), "--threads", threads]) == EXIT_OK
        outs.append(re.sub(r'"wall_clock_s": [0-9.e-]+', '"wall_clock_s": 0', out.read_text()))
    assert outs[0] == outs[1]


def test_main_limit_beyond_edge_guard_exits_2_with_one_line(tmp_path, capsys):
    thirteen = {
        "vertices": [{"id": "u", "color": 1}, {"id": "v", "color": 2}],
        "edges": [{"id": k, "src": "v", "dst": "u", "label": "p"} for k in range(13)],
    }
    path = write_config(tmp_path, base_config(graph=thirteen, labels={"p": "h1"}))
    assert main(["limit", "--config", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: limit evaluation guarded at 12 edges") and err.count("\n") == 1, err


def test_main_compare_runs_moment_3(tmp_path):
    from pwtraffic.cli import limit_params_of, resolve_ensemble
    from pwtraffic.graphs import moment_cycle
    from pwtraffic.limits import limit_pw

    cfg = base_config(graph="moment-3", labels="h3", trials=3)
    for key in ("N0", "N1", "N2"):
        cfg["ensemble"][key] = 20
    out = tmp_path / "r.json"
    assert main(["compare", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    exact = float(limit_pw(moment_cycle(3, monomial(3)), limit_params_of(resolve_ensemble(cfg))))
    records = json.loads(out.read_text())["records"]
    assert [r["exact"] for r in records if "exact" in r] == [exact, exact]


def test_main_compare_runs_moment_5(tmp_path):
    from pwtraffic.cli import limit_params_of, resolve_ensemble
    from pwtraffic.graphs import moment_cycle
    from pwtraffic.limits import limit_pw

    cfg = base_config(graph="moment-5", labels="h3", trials=3)
    for key in ("N0", "N1", "N2"):
        cfg["ensemble"][key] = 20
    out = tmp_path / "r.json"
    assert main(["compare", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    exact = float(limit_pw(moment_cycle(5, monomial(3)), limit_params_of(resolve_ensemble(cfg))))
    records = json.loads(out.read_text())["records"]
    assert [r["exact"] for r in records if "exact" in r] == [exact, exact]


@pytest.mark.parametrize("k", [27, 10**9])
@pytest.mark.parametrize("command", ["simulate", "limit", "compare"])
def test_main_moment_preset_past_contraction_size_exits_2_at_once(tmp_path, capsys, command, k):
    # moment-k has 2k vertices; past the 52 a contraction takes, the preset is
    # rejected before its graph is built
    import time

    path = write_config(tmp_path, base_config(graph=f"moment-{k}"))
    started = time.perf_counter()
    err = assert_exit_2_with_one_line(capsys, [command, "--config", path])
    assert time.perf_counter() - started < 1.0
    assert err.startswith(f"error: graph preset 'moment-{k}' has {2 * k} vertices"), err


@pytest.mark.parametrize("graph", ["moment-0_2", "moment- 2", "moment-٢", "moment-+2", "moment-02", "moment-2 "])
@pytest.mark.parametrize("command", ["simulate", "limit", "compare"])
def test_main_moment_preset_with_odd_spelling_exits_2(tmp_path, capsys, command, graph):
    # int() would read each of these as 2; only a plain decimal k names a preset
    path = write_config(tmp_path, base_config(graph=graph, labels="h3"))
    err = assert_exit_2_with_one_line(capsys, [command, "--config", path])
    assert err.startswith(f"error: graph preset {graph!r}: k must be written as a plain decimal number"), err


@pytest.mark.parametrize("graph", ["moment-1", "moment-7"])
def test_main_compare_rejects_before_sampling(tmp_path, capsys, monkeypatch, graph):
    # h2 is even and moment-7 has 14 edges: the exact limit rejects both, so
    # compare must exit before its Monte Carlo passes
    import pwtraffic.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("compare sampled a graph the exact limit rejects")

    monkeypatch.setattr(cli, "tau_estimates", no_sampling)
    labels = "h2" if graph == "moment-1" else "h3"
    path = write_config(tmp_path, base_config(graph=graph, labels=labels))
    assert main(["compare", "--config", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["simulate", "limit"])
@pytest.mark.parametrize(
    "overrides",
    [
        {"graph": {"vertices": 5, "edges": []}, "labels": {"p": "h1"}},
        {"graph": {"vertices": [{"id": ["u"], "color": 1}], "edges": []}, "labels": {"p": "h1"}},
        {"labels": {"basis": "power", "coeffs": 5}},
        {"labels": ["0", "1/0"]},
        # over the degree cap of 15, rejected before any basis conversion
        {"labels": "h16"},
        {"labels": "h999"},
        {"labels": ["1"] * 17},
        {"labels": {"basis": "power", "coeffs": ["1"] * 17}},
        {"labels": {"basis": "hermite", "coeffs": ["1"] * 1000}},
    ],
    ids=[
        "vertices-not-a-list",
        "unhashable-vertex-id",
        "coeffs-not-a-list",
        "coeff-zero-denominator",
        "h16",
        "h999",
        "list-degree-16",
        "power-degree-16",
        "hermite-degree-999",
    ],
)
def test_main_bad_graph_or_labels_exits_2_with_one_line(tmp_path, capsys, command, overrides):
    path = write_config(tmp_path, base_config(**overrides))
    assert main([command, "--config", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def single_edge_graph(name, color=1):
    return {
        "name": name,
        "vertices": [{"id": "u", "color": color}, {"id": "v", "color": 2}],
        "edges": [{"id": "a", "src": "v", "dst": "u", "label": "p"}],
    }


@pytest.mark.parametrize("command", ["simulate", "limit", "compare"])
@pytest.mark.parametrize("name", [[1], 5, None, {}], ids=["list", "int", "null", "object"])
def test_main_graph_name_not_a_string_exits_2_with_one_line(tmp_path, capsys, command, name):
    # beside a graph with a string name, so that a non-string name cannot pass
    # as a lone key of the report's graph_expansion
    cfg = base_config(graph=[single_edge_graph("ok"), single_edge_graph(name)], labels={"p": "h1"}, trials=3)
    err = assert_exit_2_with_one_line(capsys, [command, "--config", write_config(tmp_path, cfg)])
    assert "name must be a string" in err


def unnamed(graph):
    return {k: v for k, v in graph.items() if k != "name"}


def double_edge_graph(name):
    graph = single_edge_graph(name)
    graph["edges"] = graph["edges"] + [{"id": "b", "src": "v", "dst": "u", "label": "p"}]
    return graph


@pytest.mark.parametrize("command", ["simulate", "limit", "compare"])
@pytest.mark.parametrize(
    "graphs",
    [
        [unnamed(single_edge_graph("")), unnamed(double_edge_graph(""))],
        [single_edge_graph("g"), double_edge_graph("g")],
        ["moment-1", "moment-1"],
    ],
    ids=["two-unnamed", "two-explicit", "preset-twice"],
)
def test_main_repeated_graph_name_exits_2_with_one_line(tmp_path, capsys, command, graphs):
    # the report's graph_expansion is keyed by name: a second graph of one
    # name would hide the first one's expansion
    labels = "h1" if isinstance(graphs[0], str) else {"p": "h1"}
    cfg = base_config(graph=graphs, labels=labels, trials=3)
    err = assert_exit_2_with_one_line(capsys, [command, "--config", write_config(tmp_path, cfg)])
    assert "is used twice" in err


@pytest.mark.parametrize("command", ["simulate", "limit", "compare"])
@pytest.mark.parametrize("coeffs", ["123", {"0": "1", "1": "2"}], ids=["string", "object"])
@pytest.mark.parametrize("where", ["preset", "explicit"])
def test_main_polynomial_coeffs_not_an_array_exits_2_with_one_line(tmp_path, capsys, command, coeffs, where):
    # a string was read character by character ("123" as 1 + 2x + 3x^2) and
    # an object by its keys ({"0": .., "1": ..} as x)
    label = {"basis": "power", "coeffs": coeffs}
    if where == "preset":
        cfg = base_config(labels=label, trials=3)
    else:
        cfg = base_config(graph=single_edge_graph("g"), labels={"p": label}, trials=3)
    err = assert_exit_2_with_one_line(capsys, [command, "--config", write_config(tmp_path, cfg)])
    assert "coeffs must be an array" in err


def without(graph, part, key):
    """A copy of ``graph`` whose first vertex or edge (``part``) lacks ``key``; part None drops a top-level key."""
    graph = json.loads(json.dumps(graph))
    if part is None:
        del graph[key]
    else:
        del graph[part][0][key]
    return graph


NO_BASIS = {"coeffs": ["0", "1"]}


@pytest.mark.parametrize("command", ["simulate", "limit", "compare"])
@pytest.mark.parametrize(
    "graph, labels, message",
    [
        ("moment-1", NO_BASIS, "polynomial {'coeffs': ['0', '1']} has no 'basis' key"),
        (single_edge_graph("g"), {"p": NO_BASIS}, "polynomial {'coeffs': ['0', '1']} has no 'basis' key"),
        (single_edge_graph("g"), {"p": {"basis": "power"}}, "polynomial {'basis': 'power'} has no 'coeffs' key"),
        (
            without(single_edge_graph("g"), "edges", "label"),
            {"p": "h1"},
            "graph 'g': edge {'id': 'a', 'src': 'v', 'dst': 'u'} has no 'label' key",
        ),
        (
            without(single_edge_graph("g"), "edges", "src"),
            {"p": "h1"},
            "graph 'g': edge {'id': 'a', 'dst': 'u', 'label': 'p'} has no 'src' key",
        ),
        (without(single_edge_graph("g"), "vertices", "id"), {"p": "h1"}, "graph 'g': vertex {'color': 1} has no 'id' key"),
        (
            without(single_edge_graph("g"), "vertices", "color"),
            {"p": "h1"},
            "graph 'g': vertex {'id': 'u'} has no 'color' key",
        ),
        (unnamed(without(single_edge_graph(""), None, "edges")), {"p": "h1"}, "graph 'custom' has no 'edges' key"),
    ],
    ids=[
        "preset-no-basis",
        "explicit-no-basis",
        "no-coeffs",
        "edge-no-label",
        "edge-no-src",
        "vertex-no-id",
        "vertex-no-color",
        "no-edges",
    ],
)
def test_main_missing_key_names_its_owner(tmp_path, capsys, command, graph, labels, message):
    # a missing required key was reported as its bare repr ("error: 'basis'")
    cfg = base_config(graph=graph, labels=labels, trials=3)
    err = assert_exit_2_with_one_line(capsys, [command, "--config", write_config(tmp_path, cfg)])
    assert err == f"error: {message}\n", err


SKEWED_LAW = {"kind": "skewed_two_point", "a": "2", "b": "-1/2", "p": "1/5"}


@pytest.mark.parametrize("law", ["law_w", "law_x"])
@pytest.mark.parametrize(
    "spec, key",
    [({}, "kind"), ({"a": 1}, "kind")] + [({k: v for k, v in SKEWED_LAW.items() if k != key}, key) for key in "abp"],
    ids=["empty-no-kind", "a-no-kind", "skewed-no-a", "skewed-no-b", "skewed-no-p"],
)
def test_main_ensemble_law_missing_key_names_the_law(tmp_path, capsys, law, spec, key):
    # a law without a required key was reported as "bad ensemble config: 'kind'"
    cfg = base_config()
    cfg["ensemble"][law] = spec
    err = assert_exit_2_with_one_line(capsys, ["limit", "--config", write_config(tmp_path, cfg)])
    assert err == f"error: {law} has no {key!r} key\n", err


@pytest.mark.parametrize("command", ["simulate", "limit"])
@pytest.mark.parametrize("color", [1.5, True, "1", 1.0])
def test_main_vertex_color_not_an_integer_0_1_or_2_exits_2(tmp_path, capsys, command, color):
    # each of these would otherwise run as color 1
    cfg = base_config(graph=single_edge_graph("g", color=color), labels={"p": "h1"}, trials=3)
    err = assert_exit_2_with_one_line(capsys, [command, "--config", write_config(tmp_path, cfg)])
    assert "color must be the JSON integer 0, 1 or 2" in err


def test_even_labels_simulate_but_have_no_limit(tmp_path, capsys):
    # the finite-N matrix is defined for any polynomial; the limits need odd labels
    path = write_config(tmp_path, base_config(labels="h2", trials=2))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "r.json")]) == EXIT_OK
    for command in ("limit", "compare", "decompose"):
        assert main([command, "--config", path]) == EXIT_VALIDATION, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)


@pytest.mark.parametrize("threads", ["0", "-2", "1.5", "two", "", " 2", "+2"])
def test_main_bad_threads_exits_2_with_one_line(tmp_path, capsys, threads):
    path = write_config(tmp_path, base_config())
    assert main(["simulate", "--config", path, "--threads", threads]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: --threads must be an integer >= 1") and err.count("\n") == 1, err


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, maps serially."""

    sizes = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("threads, trials, pool", [("1", 12, None), ("3", 12, 3), ("64", 5, 5), ("1000000", 2, 2), ("8", 1, None)])
def test_main_pool_is_min_of_threads_and_trials(tmp_path, monkeypatch, threads, trials, pool):
    import pwtraffic.cli as cli

    RecordingPool.sizes = []
    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    path = write_config(tmp_path, base_config(trials=trials))
    out = tmp_path / "out.json"
    for command in ("simulate", "compare"):
        RecordingPool.sizes = []
        assert main([command, "--config", path, "--out", str(out), "--threads", threads]) == EXIT_OK
        assert RecordingPool.sizes == ([] if pool is None else [pool])
    # the other commands never map over trials, so they open no pool
    RecordingPool.sizes = []
    for command in ("limit", "spectrum", "decompose"):
        assert main([command, "--config", path, "--out", str(out), "--threads", "4"]) == EXIT_OK
    assert RecordingPool.sizes == []


def assert_exit_2_with_one_line(capsys, argv):
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1, err
    return err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_non_finite_monte_carlo_exits_2_with_one_line(tmp_path, capsys, command):
    # moment-2 of h3 with a profile cell of 10**30: traces past the float
    # range, an exact limit of about 10**360
    cfg = base_config(graph=["moment-1", "moment-2"], labels="h3", trials=3)
    cfg["ensemble"].update(N0=4, N1=3, N2=5, profile_w=[[10**30]])
    err = assert_exit_2_with_one_line(capsys, [command, "--config", write_config(tmp_path, cfg)])
    want = "the Monte Carlo mean is not a finite float" if command == "simulate" else "'moment-2': the exact limit does not fit a float"
    assert want in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["spectrum", "decompose"])
def test_profile_past_float_range_exits_2_with_one_line(tmp_path, capsys, command):
    # a profile cell of 1e300: K_2 near 1e600, so the equivalent's coefficient
    # cells overflow a float, and the model's entries and norms overflow to
    # inf and NaN; no traceback and no NaN written to a report
    cfg = base_config(labels="h3", seed=1)
    cfg["ensemble"].update(N0=6, N1=5, N2=4, profile_w=[["1e300"]])
    err = assert_exit_2_with_one_line(capsys, [command, "--config", write_config(tmp_path, cfg)])
    want = "linear coefficient of profile cell (0, 0) does not fit" if command == "spectrum" else "norms do not fit a float"
    assert want in err


@pytest.mark.filterwarnings("error")
def test_spectrum_past_float_range_exits_2_with_one_line(tmp_path, capsys):
    # a profile cell of 10**30 with h3: singular values near 10**90, whose
    # fourth Gram moment overflows a float; no warning, no Infinity written
    cfg = base_config(labels="h3")
    cfg["ensemble"].update(N0=4, N1=3, N2=5, profile_w=[[10**30]])
    assert main(["spectrum", "--config", write_config(tmp_path, cfg)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "do not fit a float" in err
    assert "Infinity" not in out


def test_label_degree_cap_admits_degree_15(tmp_path):
    for labels in ("h15", ["0", "1"] + ["0"] * 30):
        path = write_config(tmp_path, base_config(labels=labels, trials=2))
        assert main(["limit", "--config", path, "--out", str(tmp_path / "r.json")]) == EXIT_OK


@pytest.mark.parametrize("key, value", [("trials", MAX_TRIALS + 1), ("breakdown", "no"), ("breakdown", 1), ("breakdown", None)])
def test_main_trials_cap_and_breakdown_type_exit_2_with_one_line(tmp_path, capsys, key, value):
    # limit runs no trials, so the trials cap is checked there at no cost
    path = write_config(tmp_path, base_config(**{key: value}))
    err = assert_exit_2_with_one_line(capsys, ["limit", "--config", path])
    assert err.startswith(f"error: {key} must be")


@pytest.mark.parametrize("command", ["simulate", "compare", "decompose"])
def test_main_unallocatable_sizes_exit_2_with_one_line(tmp_path, capsys, command):
    # 10**7 x 10**7 floats: numpy refuses the allocation at once, touching no memory
    cfg = base_config(trials=2)
    cfg["ensemble"].update(N0=10**7, N1=10**7, N2=10**7)
    err = assert_exit_2_with_one_line(capsys, [command, "--config", write_config(tmp_path, cfg)])
    assert "allocate" in err


def mutation_base():
    return {
        "ensemble": {
            "N0": 4,
            "N1": 3,
            "N2": 5,
            "law_w": {"kind": "gaussian"},
            "law_x": {"kind": "skewed_two_point", "a": "2", "b": "-1/2", "p": "1/5"},
            "profile_w": [["1", "1/2"], ["3/2", "1"]],
            "profile_x": [["2", "1"], ["1", "1/2"]],
        },
        "graph": ["moment-1", "single-edge"],
        "labels": {"basis": "hermite", "coeffs": ["0", "1", "0", "1"]},
        "trials": 3,
        "seed": 7,
        "bins": 4,
        "breakdown": True,
    }


def leaf_paths(node, path=()):
    """Paths (key or index tuples) to every scalar inside a JSON tree."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
    if children is None:
        return [path]
    return [p for k, v in children for p in leaf_paths(v, path + (k,))]


MUTATION_PALETTE = [None, 0, -1, 1.5, "1/0", [], {}, True, 10**30, "h999", "g999", list(range(1000)), "triangle", "cauchy"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mutated_configs_exit_0_2_or_3(tmp_path, capsys):
    """Seeded one- and two-leaf mutations of a valid config, over the five
    commands: each exits 0, 2 or 3, and an exit 2 prints one error: line."""
    rng = random.Random(20241018)
    paths = leaf_paths(mutation_base())
    commands = ["compare", "decompose", "limit", "simulate", "spectrum"]
    path = str(tmp_path / "cfg.json")
    out = str(tmp_path / "out.json")
    failures = []
    for i in range(300):
        cfg = mutation_base()
        mutated = {}
        for leaf in rng.sample(paths, 1 + i % 2):
            node = cfg
            for key in leaf[:-1]:
                node = node[key]
            node[leaf[-1]] = mutated[leaf] = rng.choice(MUTATION_PALETTE)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        command = commands[i % 5]
        try:
            code = main([command, "--config", path, "--out", out])
        except Exception as exc:  # an uncaught exception is exit 1 with a traceback
            code = f"{type(exc).__name__}: {exc}"[:200]
        err = capsys.readouterr().err
        errors = sum(line.startswith("error:") for line in err.splitlines())
        if code not in (EXIT_OK, EXIT_VALIDATION, EXIT_FLAG) or (code == EXIT_VALIDATION and errors != 1):
            failures.append((command, {k: str(v)[:20] for k, v in mutated.items()}, code, err[-200:]))
    assert not failures, failures


def key_paths(node, path=()):
    """Paths (key tuples) to every dict key at every depth of a JSON tree."""
    if not isinstance(node, dict):
        return []
    return [p for k, v in node.items() for p in [path + (k,), *key_paths(v, path + (k,))]]


def test_configs_missing_a_key_exit_2_naming_it(tmp_path, capsys):
    # a missing ensemble key was reported as its bare repr ("error: bad
    # ensemble config: 'N0'"); a key with a default runs without it
    cases = []
    for path in key_paths(mutation_base()):
        cfg = mutation_base()
        node = cfg
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        cases.append((path, cfg, repr(path[-1])))
    for key, value in [("ensemble", 5), ("law_w", "gaussian")]:
        cfg = mutation_base()
        (cfg["ensemble"] if key == "law_w" else cfg)[key] = value
        cases.append(((key, "=", value), cfg, f"{key} must be an object"))
    commands = ["compare", "decompose", "limit", "simulate", "spectrum"]
    failures = []
    for path, cfg, name in cases:
        config = write_config(tmp_path, cfg)
        for command in commands:
            code = main([command, "--config", config, "--out", str(tmp_path / "out.json")])
            err = capsys.readouterr().err
            if code == EXIT_OK and not err:
                continue
            lines = err.splitlines()
            if code != EXIT_VALIDATION or len(lines) != 1 or not lines[0].startswith("error: ") or name not in err:
                failures.append((path, command, code, err[-200:]))
    assert not failures, failures
    no_n0 = mutation_base()
    del no_n0["ensemble"]["N0"]
    err = assert_exit_2_with_one_line(capsys, ["simulate", "--config", write_config(tmp_path, no_n0)])
    assert err == "error: ensemble has no 'N0' key\n", err


def past_float_range(case):
    """A config whose one value is exact but past the float range."""
    cfg = base_config(trials=2)
    cfg["ensemble"].update(N0=6, N1=5, N2=4)
    if case == "profile":
        cfg["ensemble"]["profile_w"] = [["1e400"]]
    elif case == "label":
        cfg["labels"] = ["0", "1e400"]
    else:  # centred and unit-variance: p a + (1 - p) b = 0 and p a^2 + (1 - p) b^2 = 1
        cfg["ensemble"]["law_w"] = {"kind": "skewed_two_point", "a": "1e400", "b": "-1e-400", "p": f"1/{10**800 + 1}"}
    return cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "spectrum", "decompose", "compare", "limit"])
@pytest.mark.parametrize("case", ["profile", "label", "law"])
def test_values_past_float_range_exit_2_with_one_line(tmp_path, capsys, case, command):
    # each float command exited 1 with an OverflowError traceback; limit stays exact
    argv = [command, "--config", write_config(tmp_path, past_float_range(case)), "--out", str(tmp_path / "r.json")]
    if command == "limit":
        assert main(argv) == EXIT_OK
    else:
        assert "does not fit a float" in assert_exit_2_with_one_line(capsys, argv)


@pytest.mark.parametrize("label", ["h2", "h9"])
def test_decompose_refuses_its_label_before_the_draw(tmp_path, capsys, monkeypatch, label):
    # the power-sum table was built up to the label's degree before decompose refused it
    import pwtraffic.cli as cli

    calls = []
    monkeypatch.setattr(cli, "power_sums", lambda *args: calls.append(args))
    path = write_config(tmp_path, base_config(labels=label))
    err = assert_exit_2_with_one_line(capsys, ["decompose", "--config", path])
    assert "decompose" in err and calls == []
