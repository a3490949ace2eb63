"""Public names: every ``__all__`` entry and every package-level import resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import newsvb

MODULES = ["decisions", "experiment", "model", "numerics", "oracle", "vb"]


def package_imports():
    """(module, name) for each ``from .module import name`` in ``newsvb/__init__.py``."""
    tree = ast.parse(Path(newsvb.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_resolves(name):
    module = importlib.import_module(f"newsvb.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_every_package_import_resolves_to_an_exported_name():
    imports = package_imports()
    assert imports  # the parse found the package's imports
    for module_name, name in imports:
        module = importlib.import_module(f"newsvb.{module_name}")
        assert getattr(newsvb, name) is getattr(module, name), name
        assert name in module.__all__, (module_name, name)
