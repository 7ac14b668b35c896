"""Configuration-driven experiment runner.

One JSON config per run; presets expand to explicit graphs before execution
and the expansion is echoed into the report, so reports are self-contained.
Same config and seed give byte-identical reports up to the wall-clock field.

Exit codes: 0 success, 2 validation error, 3 exact-limit mismatch flag.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from .graphs import Edge, TestGraph, moment_cycle, single_edge
from .hermite import Polynomial, hermite, monomial
from .limits import LimitParams, limit_B, limit_equivalent_sum, limit_lin, limit_per, limit_pw
from .models import ProfiledEnsemble, decompose, distinct_labels, equivalent_sum, pw_matrix
from .models import equivalent_sampler, model_sampler
from .traffic import TauEstimate, tau_estimates

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FLAG = 3

MAX_SPECTRUM_N1 = 4000


class ConfigError(ValueError):
    pass


def parse_polynomial(spec) -> Polynomial:
    """Accept "h3" / "g5" shorthands, coefficient lists, or basis objects."""
    if isinstance(spec, Polynomial):
        return spec
    if isinstance(spec, str):
        if spec.startswith("h") and spec[1:].isdigit():
            return monomial(int(spec[1:]))
        if spec.startswith("g") and spec[1:].isdigit():
            return hermite(int(spec[1:]))
        raise ConfigError(f"unknown polynomial shorthand {spec!r}")
    if isinstance(spec, (list, tuple)):
        return Polynomial([Fraction(str(c)) for c in spec])
    if isinstance(spec, dict):
        return Polynomial.from_json(spec)
    raise ConfigError(f"cannot parse polynomial spec {spec!r}")


def _poly_echo(p: Polynomial) -> dict:
    return {"basis": "power", "coeffs": [str(c) for c in p.power_coeffs]}


def resolve_graphs(config: dict) -> list[tuple[str, TestGraph]]:
    """Expand the graph entry into (name, polynomial-labeled TestGraph) pairs.

    Presets: "moment-k" and "single-edge" use the single polynomial from
    "labels"; an explicit graph object carries label keys resolved through
    the "labels" mapping.  A list mixes any of these.
    """
    spec = config.get("graph", "moment-1")
    specs = spec if isinstance(spec, list) else [spec]
    labels = config.get("labels", "h1")
    out: list[tuple[str, TestGraph]] = []
    for item in specs:
        if isinstance(item, str):
            if not isinstance(labels, (str, list, tuple, dict)) or isinstance(labels, dict) and "coeffs" not in labels:
                raise ConfigError("presets need a single polynomial under 'labels'")
            poly = parse_polynomial(labels)
            if item == "single-edge":
                out.append((item, single_edge(poly)))
            elif item.startswith("moment-"):
                out.append((item, moment_cycle(int(item.split("-", 1)[1]), poly)))
            else:
                raise ConfigError(f"unknown graph preset {item!r}")
        elif isinstance(item, dict):
            if not isinstance(labels, dict):
                raise ConfigError("explicit graphs need a 'labels' mapping of key -> polynomial")
            table = {k: parse_polynomial(v) for k, v in labels.items()}
            vertices = [(v["id"], v["color"]) for v in item["vertices"]]
            edges = []
            for e in item["edges"]:
                if e["label"] not in table:
                    raise ConfigError(f"edge label {e['label']!r} missing from 'labels'")
                edges.append(Edge(e["id"], e["src"], e["dst"], table[e["label"]]))
            out.append((item.get("name", "custom"), TestGraph(vertices, edges, reference=True)))
        else:
            raise ConfigError(f"cannot parse graph spec {item!r}")
    return out


def _graph_echo(g: TestGraph) -> dict:
    return {
        "vertices": [{"id": _jsonable(v), "color": c} for v, c in g.vertices],
        "edges": [
            {"id": _jsonable(e.id), "src": _jsonable(e.src), "dst": _jsonable(e.dst), "label": _poly_echo(e.label)}
            for e in g.edges
        ],
    }


def _jsonable(x):
    if isinstance(x, tuple):
        return list(_jsonable(v) for v in x)
    return x


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config


def config_int(config: dict, key: str, default: int, minimum: int) -> int:
    """A JSON integer >= minimum under ``key`` (``default`` when absent)."""
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _trials_and_seed(config: dict) -> tuple[int, int]:
    return config_int(config, "trials", 100, 1), config_int(config, "seed", 0, 0)


def resolve_ensemble(config: dict) -> ProfiledEnsemble:
    if "ensemble" not in config:
        raise ConfigError("config needs an 'ensemble' section")
    try:
        return ProfiledEnsemble.from_json(config["ensemble"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad ensemble config: {exc}") from exc


def limit_params_of(ensemble: ProfiledEnsemble) -> LimitParams:
    """Exact limit parameters induced by a finite ensemble (empirical ratios)."""
    lay = ensemble.layout
    return LimitParams(
        psi=(lay.psi(0), lay.psi(1), lay.psi(2)),
        m3_w=ensemble.law_w.m3,
        m3_x=ensemble.law_x.m3,
        profile_w=ensemble.profile_w,
        profile_x=ensemble.profile_x,
    )


def _z_score(mean: float, exact: float, se: float | None) -> float | None:
    if se is None or se == 0:
        return None
    return (mean - exact) / se


def _base_report(command: str, config: dict, graphs) -> dict:
    echo = dict(config)
    echo["graph_expansion"] = {name: _graph_echo(g) for name, g in graphs}
    return {
        "command": command,
        "config": echo,
        "seed": config.get("seed", 0),
        "records": [],
    }


def _estimate_record(name: str, est: TauEstimate, ensemble: ProfiledEnsemble, estimator: str) -> dict:
    lay = ensemble.layout
    return {
        "graph_id": name,
        "estimator": estimator,
        "mean": est.mean,
        "std_error": est.std_error,
        "trials": est.trials,
        "seed": est.seed,
        "N0": lay.N0,
        "N1": lay.N1,
        "N2": lay.N2,
    }


def cmd_simulate(config: dict, map_fn=None) -> tuple[dict, int]:
    ensemble = resolve_ensemble(config)
    graphs = resolve_graphs(config)
    trials, seed = _trials_and_seed(config)
    report = _base_report("simulate", config, graphs)
    gs = [g for _, g in graphs]
    estimates = tau_estimates(gs, model_sampler(ensemble, distinct_labels(gs)), trials, seed, map_fn=map_fn)
    for (name, _), est in zip(graphs, estimates):
        report["records"].append(_estimate_record(name, est, ensemble, "tau_mc"))
    return report, EXIT_OK


def cmd_limit(config: dict, map_fn=None) -> tuple[dict, int]:
    ensemble = resolve_ensemble(config)
    graphs = resolve_graphs(config)
    params = limit_params_of(ensemble)
    want_breakdown = bool(config.get("breakdown", False))
    report = _base_report("limit", config, graphs)
    flagged = False
    for name, g in graphs:
        breakdown: list = [] if want_breakdown else None
        pw = limit_pw(g, params, breakdown)
        eq = limit_equivalent_sum(g, params)
        record = {
            "graph": name,
            "labels": [_poly_echo(e.label) for e in g.edges],
            "params": {
                "psi": [str(p) for p in params.psi],
                "m3_w": str(params.m3_w),
                "m3_x": str(params.m3_x),
            },
            "value": str(pw),
            "components": {
                "pw": str(pw),
                "B": str(limit_B(g, params)),
                "lin": str(limit_lin(g, params)),
                "per": str(limit_per(g, params)),
                "equivalent_sum": str(eq),
            },
            "mismatch": pw != eq,
        }
        if want_breakdown:
            record["per_quotient_breakdown"] = [
                {"partition": term.partition.to_json(), "value": str(term.value)} for term in breakdown
            ]
        if pw != eq:
            flagged = True
        report["records"].append(record)
    report["flag_raised"] = flagged
    return report, EXIT_FLAG if flagged else EXIT_OK


def cmd_compare(config: dict, map_fn=None) -> tuple[dict, int]:
    ensemble = resolve_ensemble(config)
    graphs = resolve_graphs(config)
    params = limit_params_of(ensemble)
    trials, seed = _trials_and_seed(config)
    report = _base_report("compare", config, graphs)
    gs = [g for _, g in graphs]
    labels = distinct_labels(gs)
    model = tau_estimates(gs, model_sampler(ensemble, labels), trials, seed, map_fn=map_fn)
    equivalent = tau_estimates(gs, equivalent_sampler(ensemble, labels), trials, seed, map_fn=map_fn)
    for (name, g), est_y, est_eq in zip(graphs, model, equivalent):
        exact = float(limit_pw(g, params))
        rec_y = _estimate_record(name, est_y, ensemble, "tau_mc_model")
        rec_y.update({"exact": exact, "z_score": _z_score(est_y.mean, exact, est_y.std_error)})
        rec_eq = _estimate_record(name, est_eq, ensemble, "tau_mc_equivalent")
        rec_eq.update({"exact": exact, "z_score": _z_score(est_eq.mean, exact, est_eq.std_error)})
        pair_se = None
        if est_y.std_error is not None and est_eq.std_error is not None:
            pair_se = (est_y.std_error**2 + est_eq.std_error**2) ** 0.5
        report["records"].append(rec_y)
        report["records"].append(rec_eq)
        report["records"].append(
            {
                "graph_id": name,
                "estimator": "pairwise",
                "difference": est_y.mean - est_eq.mean,
                "z_score": _z_score(est_y.mean, est_eq.mean, pair_se),
            }
        )
    return report, EXIT_OK


def cmd_spectrum(config: dict, map_fn=None, out_path: str | None = None) -> tuple[dict, int]:
    ensemble = resolve_ensemble(config)
    lay = ensemble.layout
    if lay.N1 > MAX_SPECTRUM_N1:
        raise ConfigError(f"dense spectrum capped at N1 <= {MAX_SPECTRUM_N1}")
    labels = config.get("labels", "h1")
    poly = parse_polynomial(labels)
    seed = config_int(config, "seed", 0, 0)
    w, x = ensemble.sample(seed)
    y = pw_matrix(poly, w, x, lay)
    eq = equivalent_sum(poly, ensemble, seed)
    report = _base_report("spectrum", config, [])
    rows = []
    for family, mat in (("model", y), ("equivalent", eq)):
        sv = np.linalg.svd(mat, compute_uv=False)
        gram_moments = []
        m = mat @ mat.T
        acc = np.eye(lay.N1)
        for _ in range(4):
            acc = acc @ m
            gram_moments.append(float(np.trace(acc)) / lay.N1)
        bins = config.get("bins")
        edges = np.histogram_bin_edges(sv, bins=int(bins) if bins else "fd")
        counts, edges = np.histogram(sv, bins=edges)
        for left, count in zip(edges[:-1], counts):
            rows.append({"family": family, "bin_left": float(left), "count": int(count)})
        report["records"].append(
            {
                "family": family,
                "n_singular_values": int(sv.size),
                "max_singular_value": float(sv.max()) if sv.size else 0.0,
                "gram_moments": gram_moments,
            }
        )
    if out_path:
        hist_path = Path(out_path).with_suffix(".hist.csv")
        with open(hist_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["family", "bin_left", "count"])
            writer.writeheader()
            writer.writerows(rows)
        report["histogram_file"] = str(hist_path)
    else:
        report["histogram"] = rows
    return report, EXIT_OK


def cmd_decompose(config: dict, map_fn=None) -> tuple[dict, int]:
    ensemble = resolve_ensemble(config)
    lay = ensemble.layout
    poly = parse_polynomial(config.get("labels", "h3"))
    seed = config_int(config, "seed", 0, 0)
    w, x = ensemble.sample(seed)
    parts = decompose(poly, w, x, lay)
    residual = parts.reassembled() - parts.total
    scale = float(np.linalg.norm(parts.total))
    report = _base_report("decompose", config, [])
    report["records"].append(
        {
            "label": _poly_echo(poly),
            "norms": {
                "lin": float(np.linalg.norm(parts.lin)),
                "per": {str(m): float(np.linalg.norm(v)) for m, v in sorted(parts.per.items())},
                "def": float(np.linalg.norm(parts.deformation)),
                "eps": float(np.linalg.norm(parts.eps)),
            },
            "reassembly_residual": float(np.linalg.norm(residual)) / (scale or 1.0),
        }
    )
    return report, EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "limit": cmd_limit,
    "compare": cmd_compare,
    "spectrum": cmd_spectrum,
    "decompose": cmd_decompose,
}


def _write_report(report: dict, out, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2, default=str)
        out.write(text + "\n")
        return
    records = report.get("records", [])
    fieldnames = sorted({k for r in records for k in r})
    writer = csv.DictWriter(out, fieldnames=fieldnames)
    writer.writeheader()
    for r in records:
        writer.writerow({k: json.dumps(v, sort_keys=True, default=str) if isinstance(v, (dict, list)) else v for k, v in r.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pwtraffic", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--threads", type=int, default=1, help="trial-level parallelism")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        config = load_config(args.config)
        _trials_and_seed(config)
        kwargs = {}
        if args.command == "spectrum":
            kwargs["out_path"] = args.out
        if args.threads > 1:
            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                report, code = COMMANDS[args.command](config, map_fn=pool.map, **kwargs)
        else:
            report, code = COMMANDS[args.command](config, **kwargs)
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report["wall_clock_s"] = round(time.monotonic() - started, 6)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            _write_report(report, fh, args.format)
    else:
        _write_report(report, sys.stdout, args.format)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
