"""The brute-force references in `tests/oracles.py` stay independent of `habit`."""
import ast
import sys
from pathlib import Path

ORACLES_PY = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_only_numpy_and_the_standard_library():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES_PY.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    # a relative import keeps its leading dot, so its top-level name is "" and fails
    others = {name.split(".")[0] for name in imported} - sys.stdlib_module_names - {"numpy"}
    assert not others, sorted(others)
