"""Verification orchestration and bit-stable report assembly.

Runs the selected bound checks over seeded random trials and assembles a
canonical JSON report.  Every number in a report is a pure function of
(group, checks, trials, seed): each trial draws from its own generator keyed
by (seed, check tag, trial index), trials are reduced in index order, and
floats are rendered with 17 significant digits — so two runs with the same
arguments agree byte for byte, regardless of thread count.
"""

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .harmonic import BoundCheck, GroupFunction, Harmonic, centered, sample_disc, sample_unit
from .harmonic import _TripleState

__all__ = [
    "CHECKS",
    "CHECK_ORDER",
    "CheckSpec",
    "TrialRow",
    "VerificationOutcome",
    "group_summary",
    "run_verification",
    "canonical_json",
    "write_csv",
    "reproducer_payload",
    "theorem_vacuity_note",
]

@dataclass(frozen=True)
class CheckSpec:
    """How one certified inequality draws its inputs and evaluates them.

    ``tag`` folds into the trial seeds, so renaming or reordering checks never
    changes the random streams.  ``kind`` is the input constraint set: "unit"
    vectors have L²(μ) norm 1 and "disc" vectors have |f| ≤ 1.  ``evaluate``
    maps ``arity`` raw vectors to BoundCheck records; corollary yields two.
    """

    tag: int
    kind: str
    arity: int
    evaluate: Callable[[Harmonic, Sequence[np.ndarray]], List[BoundCheck]]


def _units(inputs: Sequence[np.ndarray]) -> List[GroupFunction]:
    return [GroupFunction(a) for a in inputs]


def _discs(inputs: Sequence[np.ndarray]) -> List[GroupFunction]:
    return [GroupFunction(a, disc_valued=True) for a in inputs]


def _centered_first(inputs: Sequence[np.ndarray]) -> List[GroupFunction]:
    """step1 to step4 take a centered first argument and disc-valued rest."""
    first, *rest = _discs(inputs)
    return [centered(first), *rest]


CHECKS: Dict[str, CheckSpec] = {
    "lemma": CheckSpec(1, "unit", 2, lambda h, xs: [h.lemma_gap(*_units(xs))]),
    "corollary": CheckSpec(2, "unit", 2, lambda h, xs: list(h.corollary_lhs(*_units(xs)))),
    "theorem": CheckSpec(3, "disc", 3, lambda h, xs: [h.theorem_lhs(*_discs(xs))]),
    "step1": CheckSpec(4, "disc", 3, lambda h, xs: [h.step1_reduced_lhs(*_centered_first(xs))]),
    "step2": CheckSpec(5, "disc", 3, lambda h, xs: [h.step2_squared(*_centered_first(xs))]),
    "step3": CheckSpec(6, "disc", 2, lambda h, xs: [h.step3_intermediate(*_centered_first(xs))]),
    "step4": CheckSpec(7, "disc", 2, lambda h, xs: [h.step4_final(*_centered_first(xs))]),
    "step4sub": CheckSpec(8, "disc", 1, lambda h, xs: [h.step4_substitution_sweep(*_discs(xs))]),
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
    """Everything a verify run produced: the report dict, rows, and failures."""

    report: dict
    rows: List[TrialRow]
    failures: List[Tuple[str, int, Tuple[np.ndarray, ...]]]


def _run_one_trial(
    harmonic: Harmonic, check: str, seed: int, trial: int
) -> Tuple[List[BoundCheck], Tuple[np.ndarray, ...]]:
    spec = CHECKS[check]
    rng = np.random.default_rng(np.random.SeedSequence((seed, spec.tag, trial)))
    sample = sample_unit if spec.kind == "unit" else sample_disc
    inputs = tuple(sample(harmonic.n, rng).values for _ in range(spec.arity))
    return spec.evaluate(harmonic, inputs), inputs


def theorem_vacuity_note(harmonic: Harmonic) -> Optional[str]:
    """The headline bound is weaker than the trivial ceiling at desk-scale D."""
    coefficient, power = _TripleState.BOUNDS["theorem"]
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


def group_summary(spectral) -> dict:
    return {
        "name": spectral.group.name,
        "order": spectral.group.order,
        "classes": spectral.classes.num_classes,
        "degrees": sorted(int(d) for d in spectral.table.degrees),
        "quasirandomness_degree": spectral.quasirandomness.degree,
        "is_perfect": spectral.is_perfect,
        "associativity_check": spectral.group.assoc_check,
    }


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

    Trials are independent; with threads > 1 they are dispatched to a pool
    but reduced in trial order, so the emitted numbers do not depend on the
    thread count.  runtime_s stays null unless timings is requested, keeping
    default reports byte-stable across machines.
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
        trial_of = partial(_run_one_trial, harmonic, check, seed)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(trial_of, range(trials)))
        else:
            results = [trial_of(t) for t in range(trials)]
        elapsed = time.perf_counter() - started

        # corollary expands to two named records; group the flat list back up
        by_name: Dict[str, List[Tuple[int, BoundCheck]]] = {}
        for trial, (bound_checks, inputs) in enumerate(results):
            for bc in bound_checks:
                by_name.setdefault(bc.quantity_name, []).append((trial, bc))
                rows.append(
                    TrialRow(bc.quantity_name, trial, bc.observed, bc.bound, bc.margin)
                )
            if not all(bc.passed for bc in bound_checks):
                failures.append((check, trial, inputs))

        for name in sorted(by_name, key=lambda q: (q != check, q)):
            entries = by_name[name]
            worst_trial, worst = min(entries, key=lambda e: (e[1].margin, e[0]))
            records.append(
                {
                    "check": name,
                    "token": check,
                    "trials": trials,
                    "seed": seed,
                    "bound": worst.bound,
                    "max_observed": max(bc.observed for _, bc in entries),
                    "min_margin": worst.margin,
                    "worst_trial": worst_trial,
                    "runtime_s": elapsed if timings else None,
                    "status": "pass" if all(bc.passed for _, bc in entries) else "fail",
                }
            )

    note = theorem_vacuity_note(harmonic) if "theorem" in plan else None
    report = {
        "format": 1,
        "tool": "quasimix",
        "version": __version__,
        "group": group_summary(harmonic.spectral),
        "settings": {
            "checks": list(plan),
            "trials": trials,
            "seed": seed,
            "threads": threads,
            "timings": timings,
        },
        "notes": [note] if note else [],
        "checks": records,
    }
    return VerificationOutcome(report=report, rows=rows, failures=failures)


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
