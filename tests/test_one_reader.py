"""Every input file is read through ``errors.read_rows``: the package calls
``open`` only there, in the two writers and for the JSON config file."""

import ast
from pathlib import Path

import taskrank

ALLOWED = {
    ("errors.py", "read_rows"),
    ("evaluation.py", "write_run"),
    ("cli.py", "cmd_priors"),
    ("cli.py", "_pipeline_config"),
}


def call_sites(path: Path, callee: str) -> set[tuple[str, str]]:
    """(file, enclosing function) of each ``callee(...)`` or ``x.callee(...)`` call."""
    sites = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                sites.add((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def test_open_is_called_only_by_the_reader_and_the_writers():
    package = Path(taskrank.__file__).parent
    sites = set().union(*(call_sites(path, "open") for path in sorted(package.glob("*.py"))))
    assert ("errors.py", "read_rows") in sites
    assert sites <= ALLOWED, sorted(sites - ALLOWED)
