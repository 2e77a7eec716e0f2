"""The public API: every exported name resolves, and the package re-exports only listed names."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import quasimix
from quasimix.harmonic import Harmonic
from quasimix.report import run_verification

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


# -- the names the traced benchmark run patches -------------------------------


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, executed from its file; nothing in it is changed."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    # a refactor that drops or moves a traced name fails here, not in the traced run
    assert [(owner, attr) for owner, attr, _ in tracing.PATCHES if not hasattr(owner, attr)] == []


def test_traced_verify_records_each_draw_and_check(tracing, s3_spectral):
    # verify draws, centers and evaluates through the names PATCHES wraps:
    # two step1 trials draw three inputs and center one each
    tracer = tracing.Tracer()
    h = Harmonic(s3_spectral)
    with tracer.installed():
        run_verification(h, ["step1"], trials=2, seed=0)
    names = [span[0] for span in tracer.spans]
    assert names.count("harmonic.sample") == 8
    assert names.count("harmonic.step1") == 2
