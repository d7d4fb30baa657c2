"""The package's public surface is what README documents, and its modules
import each other at module level without a cycle."""

import ast
import re
from pathlib import Path

import admmcert


def test_all_matches_readme_key_entry_points():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"`(\w+)`", paragraph)
    assert len(documented) == len(set(documented))
    assert sorted(admmcert.__all__) == sorted(documented)
    assert all(hasattr(admmcert, name) for name in admmcert.__all__)


def _relative_imports(path):
    """One module's relative imports: the lines of those inside a function,
    and the modules the others bind at import time (outside TYPE_CHECKING)."""
    in_function, edges = [], set()

    def visit(nodes, in_def, type_checking):
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.level:
                if in_def:
                    in_function.append(node.lineno)
                elif not type_checking:
                    edges.update([node.module] if node.module
                                 else [alias.name for alias in node.names])
            elif isinstance(node, ast.If) and ast.unparse(node.test) in (
                    "TYPE_CHECKING", "typing.TYPE_CHECKING"):
                visit(node.body, in_def, True)
                visit(node.orelse, in_def, type_checking)
            else:
                visit(ast.iter_child_nodes(node), in_def or isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)),
                    type_checking)

    visit([ast.parse(path.read_text())], False, False)
    return in_function, edges


_MODULES = {path.stem: _relative_imports(path)
            for path in sorted(Path(admmcert.__file__).parent.glob("*.py"))}


def test_no_relative_import_inside_a_function():
    inside = {name: lines for name, (lines, _) in _MODULES.items() if lines}
    assert inside == {}


def test_module_level_import_graph_is_acyclic():
    graph = {name: edges for name, (_, edges) in _MODULES.items()}
    assert "solver" not in graph["certify"]
    done, path = set(), []

    def visit(name):
        assert name not in path, f"import cycle: {' -> '.join(path + [name])}"
        if name in done:
            return
        path.append(name)
        for target in sorted(graph.get(name, ())):
            visit(target)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
