"""In-memory spans around the package's public calls, installed from outside the package.

The traced run swaps each public function listed in ``PATCHES`` for a wrapper
that records a span (name, start, end, parent, op id) and puts the original
back afterwards, so nothing under ``src/`` changes and the untraced runs call
the package exactly as a user does.
"""

import functools
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import quasimix.adversary as qadversary
import quasimix.cli as qcli
import quasimix.groups as qgroups
import quasimix.harmonic as qharmonic
import quasimix.report as qreport
import quasimix.spectra as qspectra

# Span names for the verify/search checks, keyed by Harmonic method.
HARMONIC_METHODS = {
    "lemma_gap": "lemma",
    "corollary_lhs": "corollary",
    "theorem_lhs": "theorem",
    "step1_reduced_lhs": "step1",
    "step2_squared": "step2",
    "step3_intermediate": "step3",
    "step4_final": "step4",
    "step4_substitution_sweep": "step4sub",
}

# (owner, attribute, span name).  A function is patched where its caller looks
# it up: cli's builders and loader in cli, the group functions that
# spectral_data calls in spectra, isotypic_project in adversary.
PATCHES: Tuple[Tuple[object, str, str], ...] = (
    (qcli, "resolve_group", "cli.resolve_group"),
    *((qcli, b, "groups.build") for b in (
        "build_cyclic", "build_symmetric", "build_alternating", "build_sl2", "build_psl2")),
    (qcli, "load_cayley_table", "groups.load_cayley_table"),
    (qgroups, "group_from_table", "groups.group_from_table"),
    (qgroups.FiniteGroup, "conjugation_table", "groups.conjugation_table"),
    (qspectra, "conjugacy_classes", "groups.conjugacy_classes"),
    (qspectra, "commutator_subgroup", "groups.commutator_subgroup"),
    (qspectra, "spectral_data", "spectra.spectral_data"),
    (qspectra, "class_algebra", "spectra.class_algebra"),
    (qspectra, "character_table", "spectra.character_table"),
    (qspectra, "quasirandomness_degree", "spectra.quasirandomness_degree"),
    (qadversary, "isotypic_project", "spectra.isotypic_project"),
    (qharmonic.Harmonic, "__post_init__", "harmonic.init"),
    *((qharmonic.Harmonic, m, f"harmonic.{c}") for m, c in HARMONIC_METHODS.items()),
    *((qreport, f, "harmonic.sample") for f in ("sample_unit", "sample_disc", "centered")),
    (qreport, "run_verification", "report.run_verification"),
    (qreport, "group_summary", "report.group_summary"),
    (qreport, "theorem_vacuity_note", "report.theorem_vacuity_note"),
    (qreport, "canonical_json", "report.canonical_json"),
    (qreport, "write_csv", "report.write_csv"),
    (qadversary, "maximize", "adversary.maximize"),
    (qadversary, "evaluate_inputs", "adversary.evaluate_inputs"),
)

Span = Tuple[str, float, float, Optional[int], Optional[str]]


class Tracer:
    """Collects spans in memory; single-threaded callers only."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.op_id: Optional[str] = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every PATCHES entry for the duration of the block."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCHES]
        try:
            for owner, attr, name in PATCHES:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time covered by each span's children."""
        totals: Dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def durations(self) -> Dict[str, float]:
        """Inclusive seconds per span name."""
        totals: Dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + end - start
        return totals


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost one no-op call."""

    op_id = None

    @contextmanager
    def span(self, name: str):
        yield


def layer_self_times(self_times: Dict[str, float]) -> Dict[str, float]:
    """Fold span self times into layers by the name's first component."""
    layers: Dict[str, float] = {}
    for name, seconds in self_times.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers
