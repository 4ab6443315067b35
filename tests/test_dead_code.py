"""Every function and method in src/starbundle has a caller.

A definition counts as referenced when its name appears anywhere in src/,
tests/ or bench/ as a name, an attribute or an imported name.  Dunders are
called by Python itself and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "starbundle").glob("*.py"))
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "bench"]


def _defined(tree: ast.Module) -> dict[str, int]:
    """Functions and methods that are not dunders, with their line numbers."""
    return {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _referenced(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.update(alias.name.split("."))
    return out


def test_every_function_is_referenced():
    referenced = set()
    for root in SEARCHED:
        for path in root.rglob("*.py"):
            referenced |= _referenced(ast.parse(path.read_text(), filename=str(path)))
    unreferenced = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for name, line in _defined(ast.parse(path.read_text())).items()
        if name not in referenced
    ]
    assert not unreferenced, f"functions nothing references: {unreferenced}"


def test_detects_an_unreferenced_function():
    tree = ast.parse(
        "import os.path\n"
        "from math import comb\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        return comb(2, 1)\n"
        "    def dead(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return os.path\n"
        "def imported():\n"
        "    pass\n"
        "helper()\n"
        "from pkg import imported\n"
    )
    assert set(_defined(tree)) - _referenced(tree) == {"dead"}
