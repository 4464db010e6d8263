"""The package's modules import one another without a cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rotobh"


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
