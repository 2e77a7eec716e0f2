"""Small numeric helpers shared across modules."""

from __future__ import annotations

import numpy as np


def abs2(z):
    """|z|^2 computed as re^2 + im^2 (bit-consistent with products z * conj(z))."""
    z = np.asarray(z)
    if np.iscomplexobj(z):
        return z.real * z.real + z.imag * z.imag
    return z * z


def l2mu(values: np.ndarray) -> float:
    """Norm in L2 of the uniform probability measure: sqrt(mean |v|^2)."""
    return float(np.sqrt(np.mean(abs2(values))))


TEMP_ENTRIES = 1 << 16
"""Entries per row chunk of an n-wide temporary (1 MB of complex128)."""


def row_chunks(rows: int, width: int, floor: int = 1):
    """Consecutive row slices of a (rows, width) array, each holding at most TEMP_ENTRIES,
    or ``floor`` rows where that is more."""
    step = max(floor, TEMP_ENTRIES // max(1, width))
    for start in range(0, rows, step):
        yield slice(start, min(rows, start + step))
