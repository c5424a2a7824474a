"""Each outside format has one edge in the package: only `scenario` imports
YAML, the `gathersim-csv` header is written only by `protocol.write_csv`, and
only those two modules call `open`."""

import ast
from pathlib import Path

import gathersim

TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(gathersim.__file__).parent.glob("*.py"))
}


def sites(match) -> set:
    """(module, innermost enclosing function or None) of every node that `match`es."""
    found = set()

    def visit(node, module, function):
        if match(node):
            found.add((module, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module, tree in TREES.items():
        visit(tree, module, None)
    return found


def imports_yaml(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "yaml" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "yaml"


def is_csv_header(node) -> bool:
    return isinstance(node, ast.Constant) and str(node.value).startswith("# gathersim-csv")


def calls_open(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "open") or (
        isinstance(func, ast.Attribute) and func.attr == "open"
    )


def test_the_package_is_parsed():
    assert {"scenario.py", "protocol.py", "cli.py", "experiments.py"} <= set(TREES)


def test_only_scenario_imports_yaml():
    assert {module for module, _ in sites(imports_yaml)} == {"scenario.py"}


def test_only_write_csv_writes_the_csv_header():
    assert sites(is_csv_header) == {("protocol.py", "write_csv")}


def test_only_protocol_and_scenario_open_files():
    assert {module for module, _ in sites(calls_open)} == {"protocol.py", "scenario.py"}
