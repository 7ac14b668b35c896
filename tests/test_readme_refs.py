"""Every reference that README.md makes in backticks names something that exists.

The README says what the workbench does and names the docstring that says
how; these checks keep its pointers from going stale as the code moves.

- ``module.name`` (or ``pwtraffic.module.name``) for a module of
  ``src/pwtraffic`` resolves by import and ``getattr``, one dotted part at
  a time; a bare module name must import.
- A ``tests/...`` path exists (a glob must match a file).
- ``tests/<file>.<name>`` or ``tests/<file>.py::<name>`` names a function,
  class or assignment at the top level of that file, found through its AST.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in (ROOT / "src" / "pwtraffic").glob("*.py") if p.stem != "__init__"}
REFS = sorted(set(re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())))
MODULE_REFS = [
    ref for ref in REFS if re.fullmatch(r"[\w.]+", ref) and ref.removeprefix("pwtraffic.").split(".")[0] in MODULES
]
TEST_REFS = [ref for ref in REFS if ref.startswith("tests/")]


def top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_the_readme_names_modules_and_tests():
    # the checks below are vacuous if the extraction finds nothing
    assert len(MODULE_REFS) > 20 and len(TEST_REFS) > 5, (MODULE_REFS, TEST_REFS)


@pytest.mark.parametrize("ref", MODULE_REFS)
def test_a_module_reference_resolves(ref):
    module, *attrs = ref.removeprefix("pwtraffic.").split(".")
    obj = importlib.import_module(f"pwtraffic.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)


@pytest.mark.parametrize("ref", TEST_REFS)
def test_a_tests_reference_exists(ref):
    if "*" in ref:
        assert any(ROOT.glob(ref)), ref
        return
    if (ROOT / ref).is_file():
        return
    file, name = ref.split("::") if "::" in ref else (ref.rsplit(".", 1)[0] + ".py", ref.rsplit(".", 1)[1])
    assert (ROOT / file).is_file(), ref
    assert name in top_level_names(ROOT / file), ref
