"""Each outside format has one edge in the package: only `scenario` imports
YAML, the `gathersim-csv` header is written only by `protocol.write_csv`, and
only those two modules call `open`. And the package holds no dead API: every
top-level function and class has a caller outside the tests."""

import ast
from pathlib import Path

import gathersim

PACKAGE = Path(gathersim.__file__).parent
REPO = Path(__file__).resolve().parent.parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}

# top-level names that wait for the open ROADMAP item that will call them
UNCALLED = {
    "power_diff": "item 4",
    "mse_bounds": "item 6",
    "expected_informed": "item 3",
    "scenario_to_dict": "item 10, whose run manifest hashes it",
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


def referenced_names(path) -> set:
    """Every name, attribute and dotted string part used in the file at `path`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))  # benchmark/spans.py patches by name
    return names


def test_every_top_level_name_has_a_caller_outside_the_tests():
    # the package's re-exports in __init__ and the test files are not callers
    callers = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    callers += [path for folder in ("scripts", "benchmark") for path in sorted((REPO / folder).glob("*.py"))
                if not path.name.startswith("test_")]
    used = set().union(*map(referenced_names, callers))
    defined = {node.name for tree in TREES.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert sorted(defined - used) == sorted(UNCALLED)
