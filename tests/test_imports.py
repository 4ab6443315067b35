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


KERNEL = {"_new", "_reduce", "_add_into", "_mul_into", "_scaled", "_lincomb"}


def _kernel_breaches(trees: dict[str, ast.Module]) -> list[tuple[str, str, str]]:
    """(module, name, "defines") for each numerator-arithmetic helper that a
    module other than scalar.py defines, and (module, "_new", "imports") for
    each module that imports the trusted constructor."""
    out = []
    for module, tree in sorted(trees.items()):
        if module != "scalar.py":
            defined = {
                n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            out += [(module, name, "defines") for name in sorted(defined & KERNEL)]
        if "_new" in _imported(tree):
            out.append((module, "_new", "imports"))
    return out


def test_numerator_arithmetic_lives_in_scalar():
    """scalar.py is the one module that knows the {pi power: (re, im)}
    format: it defines the whole kernel, no other module defines any of it,
    and none builds a value with ``_new``."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    assert KERNEL <= {n.name for n in ast.walk(trees["scalar.py"]) if isinstance(n, ast.FunctionDef)}
    assert _kernel_breaches(trees) == []


def test_detects_a_kernel_helper_outside_scalar():
    trees = {
        "scalar.py": ast.parse("def _new(cls, den, num):\n    pass\n"),
        "star.py": ast.parse("from .scalar import _new\ndef _scaled(num, s):\n    return num\n"),
        "cech.py": ast.parse("class W:\n    def _lincomb(self):\n        pass\n"),
    }
    assert _kernel_breaches(trees) == [
        ("cech.py", "_lincomb", "defines"),
        ("star.py", "_scaled", "defines"),
        ("star.py", "_new", "imports"),
    ]
