"""Verification orchestration and bit-stable report assembly.

Runs the selected bound checks over seeded random trials and assembles the
JSON documents quasimix writes.  Every number in a verify report is a pure
function of (group, checks, trials, seed): each trial draws from its own
generator keyed by (seed, check tag, trial index), trials are reduced in index
order, and floats are rendered with 17 significant digits — so two runs with
the same arguments agree byte for byte.
"""

import csv
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .harmonic import BoundCheck, GroupFunction, Harmonic, centered, sample_disc, sample_unit
from .harmonic import BOUNDS, _ConjState, _TripleState

__all__ = [
    "CHECKS",
    "CHECK_ORDER",
    "CheckSpec",
    "TrialRow",
    "VerificationOutcome",
    "envelope",
    "group_summary",
    "run_verification",
    "search_report",
    "canonical_json",
    "write_csv",
    "reproducer_payload",
    "theorem_vacuity_note",
]

@dataclass(frozen=True)
class CheckSpec:
    """How one certified inequality takes its inputs, evaluates them and is searched.

    ``tag`` folds into the trial seeds, so renaming or reordering checks never
    changes the random streams.  ``inputs`` names each input's constraint:
    "unit" vectors have L²(μ) norm 1, "disc" vectors have |f| ≤ 1 and
    "centered" ones are disc vectors less their mean.  ``evaluate`` maps the
    ``functions`` at a drawn or wrapped point to BoundCheck records; corollary
    yields two.  ``state`` is the incremental state a search climbs on, None
    for a check that is not searched.
    """

    tag: int
    inputs: Tuple[str, ...]
    evaluate: Callable[[Harmonic, Sequence[GroupFunction]], List[BoundCheck]]
    state: Optional[type]

    def draw(self, n: int, rng: np.random.Generator) -> List[GroupFunction]:
        """A random point: per input a validated unit or disc-valued function, not yet centered."""
        return [(sample_unit if c == "unit" else sample_disc)(n, rng) for c in self.inputs]

    def wrap(self, vectors: Sequence[np.ndarray]) -> List[GroupFunction]:
        """Raw vectors as the validated functions a draw gives."""
        return [GroupFunction(v, disc_valued=c != "unit") for c, v in zip(self.inputs, vectors)]

    def functions(self, point: Sequence[GroupFunction]) -> List[GroupFunction]:
        """The check's input functions at a point: a centered input less its mean."""
        return [centered(f) if c == "centered" else f for c, f in zip(self.inputs, point)]


CHECKS: Dict[str, CheckSpec] = {
    "lemma": CheckSpec(1, ("unit", "unit"), lambda h, fs: [h.lemma_gap(*fs)], _ConjState),
    "corollary": CheckSpec(
        2, ("unit", "unit"), lambda h, fs: list(h.corollary_lhs(*fs)), _ConjState
    ),
    "theorem": CheckSpec(
        3, ("disc", "disc", "disc"), lambda h, fs: [h.theorem_lhs(*fs)], _TripleState
    ),
    "step1": CheckSpec(
        4, ("centered", "disc", "disc"), lambda h, fs: [h.step1_reduced_lhs(*fs)], _TripleState
    ),
    "step2": CheckSpec(
        5, ("centered", "disc", "disc"), lambda h, fs: [h.step2_squared(*fs)], _TripleState
    ),
    "step3": CheckSpec(6, ("centered", "disc"), lambda h, fs: [h.step3_intermediate(*fs)], None),
    "step4": CheckSpec(7, ("centered", "disc"), lambda h, fs: [h.step4_final(*fs)], None),
    "step4sub": CheckSpec(8, ("disc",), lambda h, fs: [h.step4_substitution_sweep(*fs)], None),
}

CHECK_ORDER: Tuple[str, ...] = tuple(CHECKS)


@dataclass(frozen=True)
class TrialRow:
    """One (check, trial) outcome, flattened for CSV export."""

    check: str
    trial: int
    observed: float
    bound: float
    margin: float


@dataclass
class VerificationOutcome:
    """A verify run's report dict, its rows, and each failing check's first failing trial."""

    report: dict
    rows: List[TrialRow]
    failures: List[Tuple[str, int, Tuple[np.ndarray, ...]]]


def _run_one_trial(
    harmonic: Harmonic, check: str, seed: int, trial: int
) -> Tuple[List[BoundCheck], Tuple[np.ndarray, ...]]:
    spec = CHECKS[check]
    rng = np.random.default_rng(np.random.SeedSequence((seed, spec.tag, trial)))
    point = spec.draw(harmonic.n, rng)
    return spec.evaluate(harmonic, spec.functions(point)), tuple(f.values for f in point)


def theorem_vacuity_note(harmonic: Harmonic) -> Optional[str]:
    """The headline bound is weaker than the trivial ceiling at desk-scale D."""
    coefficient, power = BOUNDS["theorem"]
    bound = coefficient * harmonic.degree_power(power)
    if bound <= 2.0:
        return None
    degree = harmonic.degree
    return (
        f"theorem bound 4*D^(-1/8) = {bound:.6g} at D = {degree} exceeds the "
        "trivial ceiling 2 for disc-valued inputs, so the headline check is "
        "vacuous at this scale; the sharp D^(-1/2)-scale step checks carry "
        "the evidential weight"
    )


def _notes(harmonic: Harmonic, checks: Sequence[str]) -> List[str]:
    note = theorem_vacuity_note(harmonic) if "theorem" in checks else None
    return [note] if note else []


def group_summary(spectral) -> dict:
    return {
        "name": spectral.group.name,
        "order": spectral.group.order,
        "classes": spectral.classes.num_classes,
        "degrees": sorted(int(d) for d in spectral.table.degrees),
        "quasirandomness_degree": spectral.quasirandomness.degree,
        "is_perfect": spectral.is_perfect,
        "associativity_check": "exhaustive",  # validation certifies every table exactly
    }


def envelope(spectral, **body) -> dict:
    """A quasimix JSON document: the header every command's report opens with, then ``body``."""
    header = {"format": 1, "tool": "quasimix", "version": __version__}
    return {**header, "group": group_summary(spectral), **body}


def run_verification(
    harmonic: Harmonic,
    checks: Sequence[str],
    *,
    trials: int = 200,
    seed: int = 0,
    threads: int = 1,
    timings: bool = False,
) -> VerificationOutcome:
    """Run the selected checks and assemble the canonical report structure.

    Trials run one after another and each is reduced as it completes.
    threads selects nothing: it must be >= 1 and is recorded in
    settings.threads, and it stays only until ROADMAP item 6 removes its last
    callers from the benchmark.  runtime_s stays null unless timings is
    requested, keeping default reports byte-stable across machines.
    """
    for check in checks:
        if check not in CHECKS:
            raise ValueError(f"unknown check {check!r}; choose from {CHECK_ORDER}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    plan = [c for c in CHECK_ORDER if c in set(checks)]

    rows: List[TrialRow] = []
    failures: List[Tuple[str, int, Tuple[np.ndarray, ...]]] = []
    records: List[dict] = []

    for check in plan:
        started = time.perf_counter()
        # corollary expands to two named records; each trial is reduced into
        # them as it completes, and its inputs are kept only when it is the
        # check's first failing trial
        reduced: Dict[str, Tuple[int, BoundCheck, float, bool]] = {}
        for trial in range(trials):
            bound_checks, inputs = _run_one_trial(harmonic, check, seed, trial)
            for bc in bound_checks:
                name = bc.quantity_name
                worst_trial, worst, top, ok = reduced.get(name, (trial, bc, bc.observed, True))
                if bc.margin < worst.margin:
                    worst_trial, worst = trial, bc
                reduced[name] = worst_trial, worst, max(top, bc.observed), ok and bc.passed
                rows.append(TrialRow(name, trial, bc.observed, bc.bound, bc.margin))
            first = not failures or failures[-1][0] != check
            if first and not all(bc.passed for bc in bound_checks):
                failures.append((check, trial, inputs))
        elapsed = time.perf_counter() - started

        for name in reduced:  # in the order the check returns its records
            worst_trial, worst, max_observed, passed = reduced[name]
            records.append(
                {
                    "check": name,
                    "token": check,
                    "trials": trials,
                    "seed": seed,
                    "bound": worst.bound,
                    "max_observed": max_observed,
                    "min_margin": worst.margin,
                    "worst_trial": worst_trial,
                    "runtime_s": elapsed if timings else None,
                    "status": "pass" if passed else "fail",
                }
            )

    report = envelope(
        harmonic.spectral,
        settings={
            "checks": list(plan),
            "trials": trials,
            "seed": seed,
            "threads": threads,
            "timings": timings,
        },
        notes=_notes(harmonic, plan),
        checks=records,
    )
    return VerificationOutcome(report=report, rows=rows, failures=failures)


def search_report(harmonic: Harmonic, config, result) -> dict:
    """The document of one search: its SearchConfig and the SearchResult maximize gave."""
    return envelope(
        harmonic.spectral,
        notes=_notes(harmonic, [config.objective]),
        search={
            "objective": config.objective,
            "budget": config.budget,
            "restarts": config.restarts,
            "seed": config.seed,
            "step_schedule": list(config.step_schedule),
            "best_value": result.best_value,
            "bound": result.best_check.bound,
            "margin": result.best_check.margin,
            "evaluations_used": result.evaluations_used,
            "trace": result.trace,
        },
    )


def reproducer_payload(
    group_name: str, check: str, trial: int, seed: int, inputs: Sequence[np.ndarray]
) -> dict:
    """JSON-ready dump of one failing trial's exact inputs."""
    return {
        "format": 1,
        "kind": "reproducer",
        "group": group_name,
        "check": check,
        "trial": trial,
        "seed": seed,
        "inputs": [
            {"real": [float(x) for x in a.real], "imag": [float(x) for x in a.imag]}
            for a in inputs
        ],
    }


# -- canonical serialization -------------------------------------------------


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x} cannot appear in a report")
    return format(x, ".17g")


def _scalar(value) -> Optional[str]:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    return None


def _emit(value, indent: int) -> str:
    scalar = _scalar(value)
    if scalar is not None:
        return scalar
    pad = "  " * (indent + 1)
    close = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{pad}{json.dumps(str(k))}: {_emit(value[k], indent + 1)}"
            for k in sorted(value)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + close + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_scalar(v) for v in value]
        if all(s is not None for s in items):
            return "[" + ", ".join(items) + "]"
        parts = [f"{pad}{_emit(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + close + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats, 2-space indent."""
    return _emit(obj, 0) + "\n"


def write_csv(path: str, rows: Sequence[TrialRow]) -> None:
    """Flat per-trial export: check, trial, observed, bound, margin."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["check", "trial", "observed", "bound", "margin"])
        for row in rows:
            writer.writerow(
                [
                    row.check,
                    row.trial,
                    _format_float(row.observed),
                    _format_float(row.bound),
                    _format_float(row.margin),
                ]
            )
