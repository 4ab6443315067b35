import ast
from pathlib import Path

import pytest

MODULES = sorted(
    p for p in (Path(__file__).resolve().parent.parent / "src" / "starbundle").glob("*.py")
    if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _modules(tree: ast.Module):
    """Dotted names of the modules that import statements load."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_only_berezin_imports_numpy():
    """Floats stay out of the exact package: the float sandbox of berezin.py
    is the one module that may import numpy."""
    importers = {
        path.name
        for path in MODULES
        if any(m.split(".")[0] == "numpy" for m in _modules(ast.parse(path.read_text())))
    }
    assert importers == {"berezin.py"}


def test_detects_an_unused_import():
    tree = ast.parse("from math import comb, factorial\nx: 'Sequence' = comb(2, 1)\n")
    assert set(_imported(tree)) - _used(tree) == {"factorial"}
