"""The public API: every exported name resolves, and the package re-exports only listed names."""

import ast
import importlib
import pathlib

import pytest

import quasimix

_MODULES = ("groups", "spectra", "harmonic", "adversary", "report")


def _package_imports():
    """(module, name) for every ``from .module import name`` in quasimix/__init__.py."""
    tree = ast.parse(pathlib.Path(quasimix.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"quasimix.{name}")
    assert len(set(module.__all__)) == len(module.__all__), name
    assert [n for n in module.__all__ if not hasattr(module, n)] == [], name


def test_package_imports_only_listed_names():
    imports = _package_imports()
    assert {module for module, _ in imports} == set(_MODULES)
    for module, name in imports:
        assert name in importlib.import_module(f"quasimix.{module}").__all__, (module, name)
        assert getattr(quasimix, name) is getattr(importlib.import_module(f"quasimix.{module}"), name)
