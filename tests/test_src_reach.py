"""Everything in ``src/pwtraffic`` is reached from what the commands and the benchmark run.

A definition stays in the library only if one of these roots reaches it: a
CLI command (``cli.COMMANDS``, ``cli.main``), the exponent scan
(``limits.eta_support_scan``), an entry of the benchmark's traced
``LAYERS`` table, or a module-level statement (such as the heap setting made
at import).  Definitions that only tests use live in ``tests/*_oracle.py``.
Those that only ``LAYERS`` reaches are pinned in ``LAYERS_ONLY``, the list
of what moves there once the benchmark stops naming them.

Reachability is by name, over the AST of every module: a definition is
reached when a reached body mentions its name, as a variable or as an
attribute (annotations do not count).  A method is reached when its class is
reached and its name is mentioned; dunder methods come with their class.
Matching by name alone can only over-approximate, so a name this scan reports
is certainly not reached.
"""

import ast
from pathlib import Path

import pwtraffic.cli as cli
import pwtraffic.limits as limits
from test_perfbench_layers import load_layers

SRC = Path(__file__).resolve().parents[1] / "src" / "pwtraffic"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def mentioned(node: ast.AST) -> set[str]:
    """Variable and attribute names used under ``node``, annotations skipped."""
    names: set[str] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        for field, value in ast.iter_fields(n):
            if field in ("annotation", "returns"):
                continue
            stack.extend(c for c in (value if isinstance(value, list) else [value]) if isinstance(c, ast.AST))
    return names


def unreached(sources: dict[str, str], roots: list[str]) -> list[str]:
    """Top-level definitions (``module.name``) and methods of reached classes
    (``module.Class.name``) that no root reaches, sorted.

    ``sources`` maps a module name to its source text; a root is a
    definition's qualified name.
    """
    defs: dict[str, ast.AST] = {}
    names: set[str] = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, DEFS):
                defs[f"{module}.{stmt.name}"] = stmt
                if isinstance(stmt, ast.ClassDef):
                    for item in stmt.body:
                        if isinstance(item, DEFS):
                            defs[f"{module}.{stmt.name}.{item.name}"] = item
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):  # an import binds a name, it does not use it
                names |= mentioned(stmt)
    missing = [root for root in roots if root not in defs]
    assert not missing, f"roots with no definition: {missing}"

    reached: set[str] = set()

    def reach(qualname: str) -> None:
        reached.add(qualname)
        node = defs[qualname]
        if not isinstance(node, ast.ClassDef):
            names.update(mentioned(node))
            return
        for part in (*node.decorator_list, *node.bases, *node.keywords):
            names.update(mentioned(part))
        for item in node.body:
            if not isinstance(item, DEFS):
                names.update(mentioned(item))
            elif item.name.startswith("__") and item.name.endswith("__"):
                reach(f"{qualname}.{item.name}")

    for root in roots:
        owner = root.rsplit(".", 1)[0]
        if owner in defs and owner not in reached:  # a method root lives on its class
            reach(owner)
        if root not in reached:
            reach(root)
    grown = True
    while grown:
        grown = False
        for qualname in defs:
            owner, name = qualname.rsplit(".", 1)
            if qualname in reached or name not in names or (owner in defs and owner not in reached):
                continue
            reach(qualname)
            grown = True
    return sorted(q for q in defs if q not in reached and (q.count(".") == 1 or q.rsplit(".", 1)[0] in reached))


def library_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def command_roots() -> list[str]:
    def qualified(fn) -> str:
        return f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}"

    return [qualified(fn) for fn in (*cli.COMMANDS.values(), cli.main, limits.eta_support_scan)]


def library_roots() -> list[str]:
    return command_roots() + [f"{module.rsplit('.', 1)[1]}.{attr_path}" for _, module, attr_path in load_layers()]


#: The definitions that only the benchmark's ``LAYERS`` table reaches: they
#: move to ``tests/*_oracle.py`` once the benchmark stops naming them.
LAYERS_ONLY = [
    "graphs.EtaBreakdown",
    "graphs.NonSplitPartitionError",
    "graphs.StrongComponentReport",
    "graphs.TestGraph.coloring",
    "graphs.TestGraph.vertex_position",
    "graphs._check_split",
    "graphs._w_components",
    "graphs.classify",
    "graphs.edge_groups",
    "graphs.eta",
    "graphs.has_centered_support",
    "graphs.quotient",
    "graphs.split_partitions",
    "limits.delta0_graphon",
    "limits.limit_B",
    "limits.limit_equivalent_sum",
    "limits.limit_lin",
    "limits.limit_per",
    "models.ProfiledEnsemble.realized_profiles",
    "models.z_lambda",
    "partitions.SetPartition.block_index",
    "partitions.SetPartition.from_blocks",
    "partitions.SetPartition.num_blocks",
    "traffic.combinatorial_trace",
]


def test_every_library_definition_is_reached():
    orphans = unreached(library_sources(), library_roots())
    assert not orphans, f"no command, eta_support_scan or LAYERS entry reaches: {orphans}"


def test_definitions_only_the_benchmark_reaches_are_pinned():
    # with every definition reached (above), what the commands and the scan
    # leave unreached is what only LAYERS keeps; a name newly left to the
    # benchmark fails here until it joins the list
    assert unreached(library_sources(), command_roots()) == LAYERS_ONLY


def test_scan_reports_an_unreached_definition():
    # the scan itself: a helper and a method that nothing calls are reported,
    # a module-level call and a dunder method keep theirs
    sources = library_sources()
    sources["extra"] = (
        "class Box:\n"
        "    def __len__(self):\n"
        "        return _sized()\n"
        "    def unused_method(self):\n"
        "        return 0\n"
        "def _sized():\n"
        "    return 1\n"
        "def _orphan():\n"
        "    return Box()\n"
        "def _at_import():\n"
        "    return Box()\n"
        "_at_import()\n"
    )
    assert unreached(sources, library_roots()) == ["extra.Box.unused_method", "extra._orphan"]
