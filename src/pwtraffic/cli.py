"""Configuration-driven experiment runner.

One JSON config per run; presets expand to explicit graphs before execution
and the expansion is echoed into the report, so reports are self-contained.
Same config and seed give byte-identical reports up to the wall-clock field.

Exit codes: 0 success, 2 validation error, 3 exact-limit mismatch flag.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .graphs import Edge, TestGraph, moment_cycle, single_edge
from .hermite import Polynomial, _clip, _frac, check_degree, from_hermite, hermite, monomial
from .limits import LimitParams, limit_pw, limit_values
from .models import EntryLaw, ProfiledEnsemble, _fit_float, check_decompose_label, decompose
from .models import distinct_labels, equivalent_sampler, equivalent_sum, model_sampler, power_sums, pw_matrix
from .profiles import StepProfile
from .traffic import _LETTERS, BlockLayout, TauEstimate, tau_estimates

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FLAG = 3

MAX_SPECTRUM_N1 = 4000
MAX_BINS = 10_000
MAX_TRIALS = 1_000_000
MAX_WORKERS = 32  # ThreadPoolExecutor's own default ceiling


class ConfigError(ValueError):
    pass


def parse_polynomial(spec) -> Polynomial:
    """Accept "h3" / "g5" shorthands, coefficient lists, or basis objects
    {"basis": "power" | "hermite", "coeffs": [...]}.

    Every form is capped at degree ``hermite.DEFAULT_MAX_DEGREE`` before it
    is built.  The degree of a shorthand is read by :func:`_decimal` and each
    coefficient by :func:`_rational`, so 0.1 is 1/10 in either list form.
    """
    if isinstance(spec, Polynomial):
        return spec
    if isinstance(spec, str):
        if spec[:1] in ("h", "g"):
            n = check_degree(_decimal(spec[1:], f"polynomial shorthand {_clip(spec)}: the degree must be a plain decimal number"))
            return monomial(n) if spec[0] == "h" else hermite(n)
        raise ConfigError(f"unknown polynomial shorthand {_clip(spec)}")
    if isinstance(spec, (list, tuple)):
        spec = {"basis": "power", "coeffs": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"cannot parse polynomial spec {_clip(spec)}")
    basis, coeffs = _fields(spec, f"polynomial {_clip(spec, 60)}", "basis", "coeffs")
    if not isinstance(coeffs, (list, tuple)):
        raise ConfigError(f"polynomial coeffs must be an array, got {_clip(coeffs)}")
    coeffs = [_rational(c, "a polynomial coefficient") for c in coeffs]
    check_degree(max((k for k, c in enumerate(coeffs) if c), default=0))  # the degree in either basis
    if basis == "power":
        return Polynomial(coeffs)
    if basis == "hermite":
        return Polynomial(from_hermite(coeffs))
    raise ConfigError(f"unknown basis {_clip(basis)}")


def _rational(value, what: str) -> Fraction:
    """A config number as an exact rational: a JSON string through ``hermite._frac``,
    a JSON number through its shortest decimal text, so 0.1 is 1/10 wherever it appears.

    A boolean, null, array or object, or a value that ``_frac`` refuses, is a ConfigError naming ``what`` and the value.
    """
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            return _frac(value if isinstance(value, str) else repr(value))
        except ValueError as exc:
            raise ConfigError(f"{what}: {exc}") from exc
    raise ConfigError(f"{what} must be a JSON number or a string such as \"3/2\", got {_clip(value, spell=json.dumps)}")


def _decimal(text: str, what: str, minimum: int = 0) -> int:
    """``text`` as an int >= ``minimum`` when it is plain ASCII digits with no
    sign, space or leading zero (read by :func:`_rational`); otherwise a ConfigError reading "``what``, got ``text``"."""
    if not (text == "0" or text.isascii() and text.isdigit() and text[0] != "0") or (value := int(_rational(text, what))) < minimum:
        raise ConfigError(f"{what}, got {_clip(text)}")
    return value


def _poly_echo(p: Polynomial) -> dict:
    return {"basis": "power", "coeffs": [str(c) for c in p.power_coeffs]}


def resolve_graphs(config: dict) -> list[tuple[str, TestGraph]]:
    """Expand the graph entry into (name, polynomial-labeled TestGraph) pairs.

    Presets: "moment-k" and "single-edge" use the single polynomial from
    "labels"; an explicit graph object carries label keys resolved through
    the "labels" mapping.  A list mixes any of these; no two graphs may share
    a name (an explicit graph without one is named "custom").
    """
    spec = config.get("graph", "moment-1")
    specs = spec if isinstance(spec, list) else [spec]
    labels = config.get("labels", "h1")
    out: list[tuple[str, TestGraph]] = []
    for item in specs:
        if isinstance(item, str):
            polynomial_object = isinstance(labels, dict) and not {"basis", "coeffs"}.isdisjoint(labels)
            if not isinstance(labels, (str, list, tuple)) and not polynomial_object:
                raise ConfigError("presets need a single polynomial under 'labels'")
            poly = parse_polynomial(labels)
            if item == "single-edge":
                out.append((item, single_edge(poly)))
            elif item.startswith("moment-"):
                k = _decimal(item.removeprefix("moment-"), f"graph preset {_clip(item)}: k must be written as a plain decimal number")
                if 2 * k > len(_LETTERS):  # before the 2k vertices are built
                    raise ConfigError(
                        f"graph preset {_clip(item)} has {_clip(2 * k)} vertices, "
                        f"more than the {len(_LETTERS)} a trace contraction takes"
                    )
                out.append((item, moment_cycle(k, poly)))
            else:
                raise ConfigError(f"unknown graph preset {_clip(item)}")
        elif isinstance(item, dict):
            if not isinstance(labels, dict):
                raise ConfigError("explicit graphs need a 'labels' mapping of key -> polynomial")
            table = {k: parse_polynomial(v) for k, v in labels.items()}
            name = item.get("name", "custom")
            if not isinstance(name, str):
                raise ConfigError(f"a graph's name must be a string, got {_clip(name)}")
            try:
                vertex_specs, edge_specs = _fields(item, f"graph {_clip(name)}", "vertices", "edges")
                vertices = [_fields(v, f"graph {_clip(name)}: vertex {_clip(v, 60)}", "id", "color") for v in vertex_specs]
                for vid, color in vertices:
                    if type(color) is not int or color not in (0, 1, 2):
                        raise ConfigError(f"vertex {_clip(vid)}: color must be the JSON integer 0, 1 or 2, got {_clip(color)}")
                edges = []
                for e in edge_specs:
                    eid, src, dst, label = _fields(e, f"graph {_clip(name)}: edge {_clip(e, 60)}", "id", "src", "dst", "label")
                    edges.append(Edge(eid, src, dst, *_fields(table, f"graph {_clip(name)}: the 'labels' mapping", label)))
                out.append((name, TestGraph(vertices, edges, reference=True)))
            except TypeError as exc:
                raise ConfigError(f"bad graph {_clip(item)}: {exc}") from exc
        else:
            raise ConfigError(f"cannot parse graph spec {_clip(item)}")
    names = [name for name, _ in out]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConfigError(f"graph name {_clip(name)} is used twice; give each graph its own name")
    return out


def _fields(obj, owner: str, *keys: str) -> tuple:
    """``obj[key]`` for each key; a missing key is a ConfigError naming its owner."""
    if missing := [key for key in keys if key not in obj]:
        raise ConfigError(f"{owner} has no {_clip(missing[0])} key")
    return tuple(obj[key] for key in keys)


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
        with open(path) as fh:  # a JSON integer is read by _rational, which refuses more digits than int() takes
            config = json.load(fh, parse_int=lambda digits: int(_rational(digits, f"config {path}: a JSON integer")))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config


def config_int(config: dict, key: str, default: int, minimum: int) -> int:
    """A JSON integer >= minimum under ``key`` (``default`` when absent)."""
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {_clip(value)}")
    return value


def _config_count(config: dict, key: str, default: int, cap: int) -> int:
    """A JSON integer in [1, cap] under ``key`` (``default`` when absent)."""
    value = config_int(config, key, default, 1)
    if value > cap:
        raise ConfigError(f"{key} must be an integer <= {cap}, got {_clip(value)}")
    return value


def _trials_and_seed(config: dict) -> tuple[int, int]:
    return _config_count(config, "trials", 100, MAX_TRIALS), config_int(config, "seed", 0, 0)


def resolve_ensemble(config: dict) -> ProfiledEnsemble:
    """The "ensemble" section: sizes N0, N1, N2, entry laws law_w, law_x and
    step profiles profile_w, profile_x; a missing key is a ConfigError naming it."""
    (section,) = _fields(config, "config", "ensemble")
    if not isinstance(section, dict):
        raise ConfigError(f"ensemble must be an object, got {_clip(section)}")
    _fields(section, "ensemble", "N0", "N1", "N2", "law_w", "law_x", "profile_w", "profile_x")
    return ProfiledEnsemble(
        BlockLayout(*(config_int(section, key, 1, 1) for key in ("N0", "N1", "N2"))),
        *(_entry_law(section[name], name) for name in ("law_w", "law_x")),
        *(_step_profile(section[name], name) for name in ("profile_w", "profile_x")),
    )


def _entry_law(spec, name: str) -> EntryLaw:
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be an object with a 'kind' key, got {_clip(spec)}")
    (kind,) = _fields(spec, name, "kind")
    if kind == "skewed_two_point":
        values = _fields(spec, name, "a", "b", "p")
        return EntryLaw.skewed_two_point(*(_rational(v, f"{name} {key!r}") for key, v in zip("abp", values)))
    if kind not in ("gaussian", "rademacher"):
        raise ConfigError(f"{name}: unknown entry law kind {_clip(kind)}")
    return EntryLaw.gaussian() if kind == "gaussian" else EntryLaw.rademacher()


def _step_profile(spec, name: str) -> StepProfile:
    if not isinstance(spec, list) or not all(isinstance(row, list) for row in spec):
        raise ConfigError(f"{name} must be a list of rows of values, got {_clip(spec)}")
    return StepProfile.of([[_rational(v, f"{name} cell {(r, c)}") for c, v in enumerate(row)] for r, row in enumerate(spec)])


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
    want_breakdown = config.get("breakdown", False)
    if not isinstance(want_breakdown, bool):
        raise ConfigError(f"breakdown must be true or false, got {_clip(want_breakdown)}")
    report = _base_report("limit", config, graphs)
    flagged = False
    for name, g in graphs:
        values = limit_values(g, params)
        record = {
            "graph": name,
            "labels": [_poly_echo(e.label) for e in g.edges],
            "params": {
                "psi": [str(p) for p in params.psi],
                "m3_w": str(params.m3_w),
                "m3_x": str(params.m3_x),
            },
            "value": str(values.pw),
            "components": {
                "pw": str(values.pw),
                "B": str(values.B),
                "lin": str(values.lin),
                "per": str(values.per),
                "equivalent_sum": str(values.sum),
            },
            "mismatch": values.pw != values.sum,
        }
        if want_breakdown:
            record["per_quotient_breakdown"] = [
                {"partition": term.partition.to_json(), "value": str(term.value)} for term in values.breakdown
            ]
        if values.pw != values.sum:
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
    # before sampling: a graph whose limit is refused fails fast
    exacts = [_fit_float(f"graph {_clip(name)}: the exact limit", lambda: limit_pw(g, params)) for name, g in graphs]
    labels = distinct_labels(gs)
    model = tau_estimates(gs, model_sampler(ensemble, labels), trials, seed, map_fn=map_fn)
    equivalent = tau_estimates(gs, equivalent_sampler(ensemble, labels), trials, seed, map_fn=map_fn)
    for (name, _), exact, est_y, est_eq in zip(graphs, exacts, model, equivalent):
        rec_y = _estimate_record(name, est_y, ensemble, "tau_mc_model")
        rec_y.update({"exact": exact, "z_score": _z_score(est_y.mean, exact, est_y.std_error)})
        rec_eq = _estimate_record(name, est_eq, ensemble, "tau_mc_equivalent")
        rec_eq.update({"exact": exact, "z_score": _z_score(est_eq.mean, exact, est_eq.std_error)})
        pair_se = None
        if est_y.std_error is not None and est_eq.std_error is not None:
            pair_se = _fit_float(
                f"graph {_clip(name)}: the pairwise standard error", lambda: (est_y.std_error**2 + est_eq.std_error**2) ** 0.5
            )
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
    bins = _config_count(config, "bins", 1, MAX_BINS) if "bins" in config else "fd"
    w, x = ensemble.sample(seed)
    y = pw_matrix(poly, w, x, lay)
    eq = equivalent_sum(poly, ensemble, seed)
    report = _base_report("spectrum", config, [])
    rows = []
    for family, mat in (("model", y), ("equivalent", eq)):
        with np.errstate(over="ignore", invalid="ignore"):
            sv = np.linalg.svd(mat, compute_uv=False)
            # trace((mat mat^T)^k) / N1: the squared singular values are the eigenvalues
            gram_moments = [float(np.sum(sv ** (2 * k))) / lay.N1 for k in range(1, 5)]
        if not (np.isfinite(sv).all() and np.isfinite(gram_moments).all()):
            raise ConfigError(f"the {family} spectrum or its Gram moments do not fit a float")
        edges = np.histogram_bin_edges(sv, bins=bins)
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
        import csv

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
    check_decompose_label(poly)  # before the draw
    seed = config_int(config, "seed", 0, 0)
    # no local holds W, X or the table, so decompose frees the table before its Horner step
    parts = decompose(poly, power_sums(*ensemble.sample(seed), max(poly.degree, 1)), lay)
    residual = parts.reassembled()
    residual -= parts.total
    scale = float(np.linalg.norm(parts.total))
    norms = {
        "lin": float(np.linalg.norm(parts.lin)),
        "per": {str(m): float(np.linalg.norm(v)) for m, v in sorted(parts.per.items())},
        "def": float(np.linalg.norm(parts.deformation)),
        "eps": float(np.linalg.norm(parts.eps)),
    }
    residual_norm = float(np.linalg.norm(residual)) / (scale or 1.0)
    if not np.isfinite([norms["lin"], *norms["per"].values(), norms["def"], norms["eps"], residual_norm]).all():
        raise ConfigError("the decomposition's norms do not fit a float")
    report = _base_report("decompose", config, [])
    report["records"].append({"label": _poly_echo(poly), "norms": norms, "reassembly_residual": residual_norm})
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
    import csv

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
    parser.add_argument("--threads", default="1", help="trial-level parallelism, an integer >= 1")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        threads = _decimal(args.threads, "--threads must be an integer >= 1", minimum=1)
        if args.command == "spectrum" and args.format == "csv" and not args.out:
            raise ConfigError("spectrum --format csv needs --out: the histogram is written beside it as .hist.csv")
        config = load_config(args.config)
        trials, _ = _trials_and_seed(config)
        kwargs = {}
        if args.command == "spectrum":
            kwargs["out_path"] = args.out
        workers = min(threads, trials, MAX_WORKERS) if args.command in ("simulate", "compare") else 1
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                report, code = COMMANDS[args.command](config, map_fn=pool.map, **kwargs)
        else:
            report, code = COMMANDS[args.command](config, **kwargs)
        report["wall_clock_s"] = round(time.monotonic() - started, 6)
        if args.out:
            with open(args.out, "w", newline="") as fh:
                _write_report(report, fh, args.format)
        else:
            _write_report(report, sys.stdout, args.format)
    except (ConfigError, ValueError, KeyError, MemoryError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    raise SystemExit(main())
