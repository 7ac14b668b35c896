"""The benchmark's four workloads: their inputs, their calls and their checks.

Nothing here imports pwtraffic at module level: a child process times
``import pwtraffic.cli`` as part of its set-up, so the import must happen
inside ``Workload.setup``.

Every workload has the same shape:

- ``inputs(seed, scale)`` builds the JSON-able inputs from the workload seed;
- ``prepare(inputs, tmp_dir)`` writes the inputs where the program reads
  them (config files), untimed;
- ``setup(state)`` imports pwtraffic and loads and resolves the inputs: this
  is the set-up a user pays before the first call, timed as ``setup_s``;
- ``run(state, map_fn, out_dir)`` makes the timed calls and writes each
  report, returning one output per call (an operation);
- ``check(state, outputs, pins)`` returns one list of failure messages per
  operation, empty when the operation's outputs are right;
- ``units(state, outputs)`` counts the work the input fixes;
- ``n_operations(inputs)`` is the number of calls ``run`` makes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from fractions import Fraction

# Shared by the three ensemble workloads: N0 = N1 = N2 = 300 (900 points).
ENSEMBLE = {
    "law_w": {"kind": "gaussian"},
    "law_x": {"kind": "skewed_two_point", "a": "2", "b": "-1/2", "p": "1/5"},
    "profile_w": [["1", "1/2"], ["3/2", "1"]],
    "profile_x": [["2", "1"], ["1", "1/2"]],
}

# g5 + h3 in the power basis: x^5 - 9 x^3 + 15 x.
G5_PLUS_H3 = ["0", "15", "0", "-9", "0", "1"]

SCALES = {
    "full": {
        "N": 300,
        "trials": 60,
        "decompose": (("h5", 6), ("g7", 2)),
        "limit_graphs": ["moment-1", "moment-2"],
        "scan_max_edges": 2,
    },
    "tiny": {
        "N": 12,
        "trials": 3,
        "decompose": (("h5", 1), ("g7", 1)),
        "limit_graphs": ["moment-1"],
        "scan_max_edges": 1,
    },
}

# Pinned Monte Carlo values are compared with this relative tolerance: wide
# enough for a reordered float sum, far too narrow for a different result.
REL_TOL = 1e-9
MAX_RESIDUAL = 1e-12

# The two 2-edge graphs with 231,950 split partitions each: leaving them out
# keeps one scan run near five seconds on a 2-core box.
SCAN_EXCLUDED = {("s1t2", (5, 5)), ("s2t1", (5, 5))}


def derive_seed(workload: str, seed: int, index: int) -> int:
    """A call seed derived from the workload seed, stable across platforms."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def ensemble(n: int) -> dict:
    return {"N0": n, "N1": n, "N2": n, **ENSEMBLE}


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b))


def write_report(report: dict, path: str) -> None:
    """Write a report the way ``pwtraffic --format json`` does."""
    with open(path, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2, default=str) + "\n")


class CliWorkload:
    """Workloads made of ``pwtraffic <command>`` runs, one config per call."""

    command = ""
    deterministic = False

    def configs(self, seed: int, scale: dict) -> list[dict]:
        raise NotImplementedError

    def inputs(self, seed: int, scale: str) -> dict:
        return {"configs": self.configs(seed, SCALES[scale])}

    def n_operations(self, inputs: dict) -> int:
        return len(inputs["configs"])

    def prepare(self, inputs: dict, tmp_dir: str) -> dict:
        paths = []
        for k, config in enumerate(inputs["configs"]):
            path = os.path.join(tmp_dir, f"config-{k}.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            paths.append(path)
        return {"paths": paths}

    def setup(self, state: dict) -> dict:
        from pwtraffic import cli

        configs = []
        for path in state["paths"]:
            config = cli.load_config(path)
            cli.resolve_ensemble(config)
            if "graph" in config:
                cli.resolve_graphs(config)
            else:
                cli.parse_polynomial(config["labels"])
            configs.append(config)
        return {"cli": cli, "configs": configs}

    def run(self, state: dict, map_fn, out_dir: str) -> list:
        cli = state["cli"]
        command = getattr(cli, f"cmd_{self.command}")
        outputs = []
        for k, config in enumerate(state["configs"]):
            report, code = command(config, map_fn=map_fn)
            write_report(report, os.path.join(out_dir, f"report-{k}.json"))
            outputs.append((report, code))
        return outputs


class McCompare(CliWorkload):
    """``compare`` on moment-1 and moment-2 with labels h3."""

    command = "compare"

    def configs(self, seed, scale):
        return [
            {
                "ensemble": ensemble(scale["N"]),
                "graph": ["moment-1", "moment-2"],
                "labels": "h3",
                "trials": scale["trials"],
                "seed": derive_seed("mc_compare", seed, 0),
            }
        ]

    def units(self, state, outputs):
        # model trials plus equivalent trials
        return sum(2 * len(c["graph"]) * c["trials"] for c in state["configs"])

    def pin_values(self, outputs) -> dict:
        report, _ = outputs[0]
        return {
            f"{r['graph_id']}/{r['estimator']}": [r["mean"], r["std_error"]]
            for r in report["records"]
            if r["estimator"] != "pairwise"
        }

    def check(self, state, outputs, pins):
        from pwtraffic.limits import limit_pw

        cli = state["cli"]
        problems = []
        for config, (report, code) in zip(state["configs"], outputs):
            bad = [] if code == cli.EXIT_OK else [f"exit code {code}"]
            params = cli.limit_params_of(cli.resolve_ensemble(config))
            exact = {name: float(limit_pw(g, params)) for name, g in cli.resolve_graphs(config)}
            means = {}
            for r in report["records"]:
                key = f"{r['graph_id']}/{r['estimator']}"
                if r["estimator"] == "pairwise":
                    continue
                means[key] = r["mean"]
                if r["exact"] != exact[r["graph_id"]]:
                    bad.append(f"{key}: exact {r['exact']} != float(limit_pw) {exact[r['graph_id']]}")
                if r["trials"] != config["trials"] or r["seed"] != config["seed"]:
                    bad.append(f"{key}: trials/seed not echoed")
                if not (math.isfinite(r["mean"]) and r["std_error"] > 0):
                    bad.append(f"{key}: mean {r['mean']} std_error {r['std_error']}")
            for r in report["records"]:
                if r["estimator"] == "pairwise":
                    want = means[f"{r['graph_id']}/tau_mc_model"] - means[f"{r['graph_id']}/tau_mc_equivalent"]
                    if r["difference"] != want:
                        bad.append(f"{r['graph_id']}: pairwise difference {r['difference']} != {want}")
            if len(means) != 2 * len(config["graph"]):
                bad.append(f"{len(means)} estimates for {len(config['graph'])} graphs")
            if pins is not None:
                got = self.pin_values([(report, code)])
                if set(got) != set(pins):
                    bad.append(f"estimates {sorted(got)} != pinned {sorted(pins)}")
                for key in set(got) & set(pins):
                    if not all(close(a, b) for a, b in zip(got[key], pins[key])):
                        bad.append(f"{key}: mean/std_error {got[key]} != pinned {pins[key]}")
            problems.append(bad)
        return problems


class Decompose(CliWorkload):
    """``decompose`` on h5 and g7 at seeds derived from the workload seed."""

    command = "decompose"

    def configs(self, seed, scale):
        out = []
        for label, count in scale["decompose"]:
            for _ in range(count):
                out.append(
                    {
                        "ensemble": ensemble(scale["N"]),
                        "labels": label,
                        "seed": derive_seed("decompose", seed, len(out)),
                    }
                )
        return out

    def units(self, state, outputs):
        return len(state["configs"])

    def pin_values(self, outputs) -> list:
        return [report["records"][0]["norms"] for report, _ in outputs]

    def check(self, state, outputs, pins):
        problems = []
        for k, (report, code) in enumerate(outputs):
            bad = [] if code == 0 else [f"exit code {code}"]
            rec = report["records"][0]
            if not rec["reassembly_residual"] <= MAX_RESIDUAL:
                bad.append(f"reassembly residual {rec['reassembly_residual']} > {MAX_RESIDUAL}")
            norms = rec["norms"]
            flat = [norms["lin"], norms["def"], norms["eps"], *norms["per"].values()]
            if not all(math.isfinite(v) and v >= 0 for v in flat):
                bad.append(f"norms not finite and nonnegative: {norms}")
            if pins is not None:
                want = pins[k]
                if set(norms["per"]) != set(want["per"]):
                    bad.append(f"per orders {sorted(norms['per'])} != pinned {sorted(want['per'])}")
                pairs = [(norms[key], want[key], key) for key in ("lin", "def", "eps")]
                pairs += [(v, want["per"].get(m, math.nan), f"per[{m}]") for m, v in norms["per"].items()]
                for got, pinned, key in pairs:
                    if not close(got, pinned):
                        bad.append(f"norm {key} {got} != pinned {pinned}")
            problems.append(bad)
        return problems


class ExactLimits(CliWorkload):
    """``limit`` on moment-1 and moment-2 labelled g5+h3."""

    command = "limit"
    deterministic = True

    def configs(self, seed, scale):
        return [{"ensemble": ensemble(scale["N"]), "graph": scale["limit_graphs"], "labels": G5_PLUS_H3}]

    def units(self, state, outputs):
        return sum(len(c["graph"]) for c in state["configs"])

    def pin_values(self, outputs) -> dict:
        report, _ = outputs[0]
        return {r["graph"]: r["components"] for r in report["records"]}

    def check(self, state, outputs, pins):
        problems = []
        for report, code in outputs:
            bad = [] if code == 0 else [f"exit code {code}"]
            if report.get("flag_raised"):
                bad.append("flag_raised")
            for r in report["records"]:
                if r["mismatch"] or r["components"]["pw"] != r["components"]["equivalent_sum"]:
                    bad.append(f"{r['graph']}: recombination mismatch")
                if r["value"] != r["components"]["pw"]:
                    bad.append(f"{r['graph']}: value != components.pw")
            got = self.pin_values([(report, code)])
            if pins is not None and got != pins:
                bad.append(f"limits {got} != pinned {pins}")
            problems.append(bad)
        return problems


class EtaScan:
    """``eta_support_scan`` on the connected reference graphs of <= 2 edges."""

    deterministic = True

    def inputs(self, seed, scale):
        graphs = []
        max_edges = SCALES[scale]["scan_max_edges"]
        labels = (1, 3, 5)
        shapes = [("s1t1", [(0, 0)])]
        if max_edges >= 2:
            shapes += [("s1t1", [(0, 0), (0, 0)]), ("s1t2", [(0, 0), (0, 1)]), ("s2t1", [(0, 0), (1, 0)])]
        for shape, pairs in shapes:
            # both edges of every 2-edge shape are interchangeable, so label
            # multisets list each graph once
            for lab in itertools.combinations_with_replacement(labels, len(pairs)):
                if (shape, lab) not in SCAN_EXCLUDED:
                    graphs.append({"name": f"E{len(pairs)}_{shape}_" + "-".join(map(str, lab)), "pairs": pairs, "labels": lab})
        return {"graphs": graphs}

    def n_operations(self, inputs):
        return len(inputs["graphs"])

    def prepare(self, inputs, tmp_dir):
        return {"specs": inputs["graphs"]}

    def setup(self, state):
        from pwtraffic import cli  # noqa: F401  (the CLI import is part of every workload's set-up)
        from pwtraffic import limits
        from pwtraffic.graphs import Edge, TestGraph

        graphs = []
        for spec in state["specs"]:
            ns = 1 + max(s for s, _ in spec["pairs"])
            nt = 1 + max(t for _, t in spec["pairs"])
            vertices = [(("t", j), 1) for j in range(nt)] + [(("s", i), 2) for i in range(ns)]
            edges = [Edge(k, ("s", s), ("t", t), lab) for k, ((s, t), lab) in enumerate(zip(spec["pairs"], spec["labels"]))]
            graphs.append((spec["name"], TestGraph(vertices, edges, reference=True)))
        return {"limits": limits, "graphs": graphs}

    def run(self, state, map_fn, out_dir):
        scan = state["limits"].eta_support_scan
        outputs = []
        for name, g in state["graphs"]:
            rep = scan(g, max_label=5)
            outputs.append(
                {
                    "graph": name,
                    "n_partitions": rep.n_partitions,
                    "n_supported": rep.n_supported,
                    "max_eta": str(rep.max_eta),
                    "n_eta_zero": len(rep.eta_zero_partitions),
                    "n_violations": len(rep.violations),
                    "pseudo_cactus_ok": rep.pseudo_cactus_ok,
                }
            )
        write_report({"command": "eta_support_scan", "records": outputs}, os.path.join(out_dir, "report-0.json"))
        return outputs

    def units(self, state, outputs):
        # split partitions covered, as the scan reports them
        return sum(o["n_partitions"] for o in outputs)

    def pin_values(self, outputs) -> dict:
        return {o["graph"]: o for o in outputs}

    def check(self, state, outputs, pins):
        problems = []
        for o in outputs:
            bad = []
            if o["n_violations"] or not o["pseudo_cactus_ok"]:
                bad.append(f"{o['graph']}: {o['n_violations']} pseudo-cactus violations")
            if o["max_eta"] != "None" and not Fraction(o["max_eta"]) <= 0:
                bad.append(f"{o['graph']}: max eta {o['max_eta']} > 0")
            if pins is not None and o != pins.get(o["graph"]):
                bad.append(f"{o['graph']}: {o} != pinned {pins.get(o['graph'])}")
            problems.append(bad)
        return problems


WORKLOADS = {
    "mc_compare": McCompare(),
    "decompose": Decompose(),
    "exact_limits": ExactLimits(),
    "eta_scan": EtaScan(),
}


def pin_key(name: str, seed: int) -> str:
    """Deterministic workloads have one pin for every seed."""
    return "*" if WORKLOADS[name].deterministic else str(seed)
