"""The public API: every exported name resolves, and the package re-exports only listed names."""

import ast
import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

import quasimix
from quasimix.harmonic import BOUNDS, GroupFunction, Harmonic
from quasimix.report import CHECKS, run_verification
from quasimix.spectra import spectral_data

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


def _perfbench_module(name):
    """perfbench/<name>.py, executed from its file; nothing in it is changed."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _perfbench_module("tracing")


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


# -- the bound table the benchmark checks reports against ---------------------


def test_bound_table_is_the_benchmarks():
    # the benchmark checks every verify record's bound against its own table
    assert BOUNDS == _perfbench_module("workloads").BOUNDS


def test_every_record_takes_its_bound_from_the_table(s3_spectral, a5):
    # each record's bound is its row's coefficient·D^power; lemma's and
    # corollary's also scale by their inputs' norms, made visible off the unit sphere
    emitted = set()
    for h in (Harmonic(s3_spectral), Harmonic(spectral_data(a5))):
        for check, spec in CHECKS.items():
            point, scale = spec.draw(h.n, np.random.default_rng(5)), 1.0
            if spec.inputs == ("unit", "unit"):
                point = [GroupFunction(f.values * s) for f, s in zip(point, (1.5, 0.75))]
                uv = point[0].norm2 * point[1].norm2
                scale = uv if check == "lemma" else uv**2
            for record in spec.evaluate(h, spec.functions(point)):
                assert record.quantity_name in BOUNDS, (check, record.quantity_name)
                coefficient, power = BOUNDS[record.quantity_name]
                expected = coefficient * h.degree**power * scale
                assert record.bound == pytest.approx(expected, rel=1e-12), (h.n, check)
                emitted.add(record.quantity_name)
    assert emitted == set(BOUNDS)
