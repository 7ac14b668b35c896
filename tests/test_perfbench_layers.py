"""The benchmark's traced layer names must resolve in the library.

``perfbench/child.py --trace 1`` wraps every function its ``LAYERS`` table
names; a rename or deletion in ``src/`` would break the traced run, so the
table is checked here against the current library, and the samplers are
checked to call the layers that the traced run attributes their time to.
The deterministic workloads also run here in-process, against their pins,
so that a change to what the benchmark reads of the library fails here.
"""

import collections
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHILD = PERFBENCH / "child.py"


def load_layers() -> list[tuple[str, str, str]]:
    path = list(sys.path)
    try:  # child.py puts perfbench/ on sys.path to import its workloads
        spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        return list(child.LAYERS)
    finally:
        sys.path[:] = path
        sys.modules.pop("workloads", None)


LAYERS = load_layers()


def test_layers_table_is_not_empty():
    assert len(LAYERS) >= 20


@pytest.mark.parametrize("name, module_name, attr_path", LAYERS, ids=[name for name, _, _ in LAYERS])
def test_layer_resolves(name, module_name, attr_path):
    # the lookup Tracer.install makes: attributes down the path, the last one
    # from the owner's own namespace
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    assert attr in vars(owner), f"{module_name}.{attr_path} is gone"
    raw = vars(owner)[attr]
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    assert inspect.isfunction(fn), f"{module_name}.{attr_path} is not a function"


def count_layer_calls(monkeypatch) -> collections.Counter:
    """Wrap every layer the way ``Tracer.install`` does, with a call counter.

    The owner's attribute is replaced, and for a module-level function also
    every pwtraffic module global that holds it.
    """
    calls: collections.Counter = collections.Counter()
    for name, module_name, attr_path in LAYERS:
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        raw = vars(owner)[attr]
        original = raw.__func__ if isinstance(raw, staticmethod) else raw

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, staticmethod(counted) if isinstance(raw, staticmethod) else counted)
        if parents:
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pwtraffic":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
    return calls


def test_samplers_run_through_the_traced_layers(monkeypatch):
    # the traced run attributes sampling time to these layers only while the
    # samplers call them: a sampler path that bypassed them would read 0 calls
    from pwtraffic.graphs import moment_cycle
    from pwtraffic.hermite import hermite
    from pwtraffic.models import EntryLaw, ProfiledEnsemble, equivalent_sampler, model_sampler
    from pwtraffic.profiles import StepProfile
    from pwtraffic.traffic import BlockLayout, tau_estimates
    from models_oracle import unit_skewed_law

    profile = StepProfile.of([[1, "1/2"], ["3/2", 1]])
    ens = ProfiledEnsemble(BlockLayout(12, 10, 8), EntryLaw.gaussian(), unit_skewed_law(), profile, profile)
    h = hermite(3)
    graphs = [moment_cycle(1, h), moment_cycle(2, h)]
    model, equivalent = model_sampler(ens, [h]), equivalent_sampler(ens, [h])
    calls = count_layer_calls(monkeypatch)
    tau_estimates(graphs, model, trials=3, seed=0)
    assert {k: calls[k] for k in ("models.EntryLaw.sample", "models.pw_matrix", "traffic.sample_trace")} == {
        "models.EntryLaw.sample": 6,
        "models.pw_matrix": 3,
        "traffic.sample_trace": 6,
    }
    assert calls["models.equivalent_sum"] == 0
    calls.clear()
    tau_estimates(graphs, equivalent, trials=3, seed=0)
    assert {k: calls[k] for k in ("models.equivalent_sum", "models.equivalent_lin", "models.per_matrix")} == {
        "models.equivalent_sum": 3,
        "models.equivalent_lin": 3,
        "models.per_matrix": 3,
    }
    assert calls["models.pw_matrix"] == calls["models.EntryLaw.sample"] == 0


@pytest.mark.parametrize("name", ["eta_scan", "exact_limits"])
def test_deterministic_workload_passes_its_pinned_checks(tmp_path, name):
    # the child's steps, untimed: inputs, prepare, setup, run and check at
    # full scale against the pins every seed shares
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS[name]
    pins = json.loads((PERFBENCH / "pinned.json").read_text())["full"][name][workloads.pin_key(name, 0)]
    inputs = wl.inputs(0, "full")
    state = wl.prepare(inputs, str(tmp_path))
    state.update(wl.setup(state))
    problems = wl.check(state, wl.run(state, None, str(tmp_path)), pins)
    assert len(problems) == wl.n_operations(inputs) and not any(problems), problems


def test_the_cli_import_loads_every_traced_module():
    """``Tracer.install`` looks each layer's module up in ``sys.modules``
    after a workload's set-up, which imports ``pwtraffic.cli`` alone (and
    ``limits`` and ``graphs`` for ``eta_scan``), so that import must load
    every ``LAYERS`` module.  The numpy-free ``limit`` that ROADMAP.md plans
    has ``cli`` import its samplers lazily, which breaks this: it must wait
    until the benchmark child's set-up imports the traced modules itself.
    """
    modules = sorted({module_name for _, module_name, _ in LAYERS})
    probe = f"import sys, pwtraffic.cli; print([m for m in {modules!r} if m not in sys.modules])"
    src = str(PERFBENCH.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", f"not loaded by import pwtraffic.cli: {proc.stdout.strip()}"
