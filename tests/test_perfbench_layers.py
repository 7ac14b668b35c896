"""The benchmark's traced layer names must resolve in the library.

``perfbench/child.py --trace 1`` wraps every function its ``LAYERS`` table
names; a rename or deletion in ``src/`` would break the traced run, so the
table is checked here against the current library.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


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
