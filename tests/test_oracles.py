"""The test modules stay independent: of `habit` for the brute-force references in
`tests/oracles.py`, and of one another for every `tests/test_*.py`."""
import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def imported(path):
    """Every module name that `path` imports; a relative one keeps its leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:  # from . import x
            names.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + node.module)
    return names


def test_oracles_import_only_numpy_and_the_standard_library():
    # a relative import keeps its leading dot, so its top-level name is "" and fails
    others = {name.split(".")[0] for name in imported(TESTS / "oracles.py")}
    others -= sys.stdlib_module_names | {"numpy"}
    assert not others, sorted(others)


def test_no_test_module_imports_another():
    for path in sorted(TESTS.glob("test_*.py")):
        tests = [name for name in imported(path) if name.lstrip(".").startswith("test_")]
        assert not tests, (path.name, tests)
