"""pyproject.toml promises only what the tree provides."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())
SETUPTOOLS = PYPROJECT.get("tool", {}).get("setuptools", {})


def test_script_targets_import():
    for name, target in PYPROJECT["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_readme_and_package_data_exist():
    readme = PYPROJECT["project"].get("readme")
    if isinstance(readme, dict):
        readme = readme.get("file")
    if readme is not None:
        assert (ROOT / readme).is_file(), readme
    roots = SETUPTOOLS.get("packages", {}).get("find", {}).get("where", ["."])
    for package, patterns in SETUPTOOLS.get("package-data", {}).items():
        dirs = [ROOT / root / package.replace(".", "/") for root in roots]
        for pattern in patterns:
            assert any(any(d.glob(pattern)) for d in dirs), f"{package}: {pattern}"
