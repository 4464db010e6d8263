"""The package's modules import one another without a cycle, and every
public function or class has a caller."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rotobh"
PERFBENCH = ROOT / "perfbench"

# Public names that nothing in src/ calls and the benchmark does not bind,
# each kept for a reason of its own.
KEEP = {
    "a2": "the paper's quadratic Landau coefficient, literal variant included",
    "a4": "the paper's quartic Landau coefficient",
    "classify": "the one-cell reference of the sweep tests",
    "critical_costheta": "the one-cell reference of the costheta-curve tests",
    "peak_offset": "the reference peak of acceptance 6 and 8 and the "
                   "crossing tests",
}


def _import_graph():
    """module -> the package modules it imports, anywhere in its body.

    Imports inside functions count as well as module-level ones: a cycle
    closed by a deferred import is still a cycle.  'from . import name'
    is an edge to the module name, or to the package itself (__init__)
    when name is an attribute such as __version__.
    """
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(a.name if a.name in modules else "__init__"
                                 for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").startswith("rotobh."):
                    edges.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                edges.update(a.name.split(".")[1] for a in node.names
                             if a.name.startswith("rotobh."))
        graph[path.stem] = edges
    return graph


def test_import_graph_is_acyclic():
    graph = _import_graph()
    assert {"oracle", "phase_diagram", "landau"} <= graph.keys()
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        path.append(module)
        for imported in sorted(graph.get(module, ())):
            visit(imported)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def _public_and_referenced():
    """(public top-level function and class names, the names that src/ code
    refers to outside their own top-level definition).

    A reference is a Name or an attribute; docstrings and imports are not
    references.
    """
    public, referenced = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = node.name
                if not owner.startswith("_"):
                    public.add(owner)
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node)
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            referenced |= names - {owner}
    return public, referenced


def test_every_public_name_has_a_caller():
    # a public name that no subcommand reaches, that the benchmark does not
    # bind and that KEEP does not name is dead API; a KEEP entry that has
    # gained a caller is stale
    public, referenced = _public_and_referenced()
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted(PERFBENCH.glob("*.py")))
    uncalled = {name for name in public - referenced
                if not re.search(r"\b%s\b" % name, bench)}
    assert "minimize_order_parameter" in public
    assert uncalled == KEEP.keys(), sorted(uncalled ^ KEEP.keys())
