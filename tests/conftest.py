"""Shared fixtures: groups and their analyzed bundles, built once per session."""

import os
import subprocess
import sys

import pytest

from quasimix.groups import (
    build_alternating,
    build_cyclic,
    build_sl2,
    build_psl2,
    build_symmetric,
)
from quasimix.harmonic import Harmonic
from quasimix.spectra import spectral_data


@pytest.fixture(scope="session")
def z6():
    return build_cyclic(6)


@pytest.fixture(scope="session")
def s3():
    return build_symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return build_symmetric(4)


@pytest.fixture(scope="session")
def a4():
    return build_alternating(4)


@pytest.fixture(scope="session")
def a5():
    return build_alternating(5)


@pytest.fixture(scope="session")
def sl2_5():
    return build_sl2(5)


@pytest.fixture(scope="session")
def sl2_7():
    return build_sl2(7)


@pytest.fixture(scope="session")
def psl2_7():
    return build_psl2(7)


@pytest.fixture(scope="session")
def s3_spectral(s3):
    return spectral_data(s3)


@pytest.fixture(scope="session")
def s3_harmonic(s3_spectral):
    return Harmonic(s3_spectral)


@pytest.fixture(scope="session")
def sl2_5_harmonic(sl2_5):
    return Harmonic(spectral_data(sl2_5))


@pytest.fixture(scope="session")
def sl2_7_harmonic(sl2_7):
    return Harmonic(spectral_data(sl2_7))


@pytest.fixture(scope="session")
def psl2_7_harmonic(psl2_7):
    return Harmonic(spectral_data(psl2_7))


@pytest.fixture(scope="session")
def subprocess_stdout():
    """Run a Python script in a fresh interpreter, with this checkout's src/ first on its
    path, and return what it prints."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(script):
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
        )
        return out.stdout

    return run


@pytest.fixture(scope="session")
def subprocess_peak_mb(subprocess_stdout):
    """Run a Python script in a fresh interpreter and return its peak RSS in MB.

    VmHWM counts that process's own peak; ru_maxrss would carry the parent's
    resident set as a floor.
    """
    report = (
        "\nwith open('/proc/self/status') as handle:\n"
        "    print([line.split()[1] for line in handle if line.startswith('VmHWM:')][0])\n"
    )

    def run(script):
        return int(subprocess_stdout(script + report).strip()) / 1024.0

    return run
