"""Worst-case input search for the bound calculus.

Random-restart hill climbing over the constrained input functions of each
observed quantity.  Every iterate stays feasible (projection after each move),
so every evaluated value is a certified lower bound on the true supremum —
useful both for measuring how much slack the degree-driven bounds leave and
for demonstrating that the deviations simply do not decay on abelian controls.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .harmonic import BoundCheck, ConstraintError, GroupFunction, Harmonic, sample_disc
from .report import CHECK_ORDER, CHECKS
from .spectra import isotypic_project

__all__ = [
    "SearchConfig",
    "SearchResult",
    "OBJECTIVES",
    "evaluate_inputs",
    "maximize",
    "witness_abelian_character",
]

OBJECTIVES = ("theorem", "step1", "lemma", "corollary")


@dataclass(frozen=True)
class SearchConfig:
    """Hill-climbing parameters; identical configs give identical results."""

    objective: str
    budget: int = 2000
    restarts: int = 4
    step_schedule: Tuple[float, float] = (0.5, 0.05)
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; choose from {OBJECTIVES}"
            )
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        hi, lo = self.step_schedule
        if not (hi > 0 and lo > 0 and hi >= lo):
            raise ValueError(
                f"step schedule must be positive and non-increasing, got {self.step_schedule}"
            )


@dataclass
class SearchResult:
    """Outcome of one maximize() run."""

    best_value: float
    best_inputs: Tuple[np.ndarray, ...]
    best_check: BoundCheck
    evaluations_used: int
    trace: List[float] = field(default_factory=list)


def _disc_clip(vals: np.ndarray) -> np.ndarray:
    """Radial projection onto the closed unit disc."""
    mags = np.abs(vals)
    scale = np.where(mags > 1.0, mags, 1.0)
    return vals / scale


def _unit_sphere(vals: np.ndarray) -> np.ndarray:
    """Projection onto the unit sphere of L²(μ); leaves the zero vector alone."""
    norm = float(np.sqrt(np.mean(np.abs(vals) ** 2)))
    if norm < 1e-12:
        return vals
    return vals / norm


def evaluate_inputs(
    harmonic: Harmonic, check: str, inputs: Sequence[np.ndarray]
) -> BoundCheck:
    """Run any check in CHECKS on raw input vectors; corollary gives its published record.

    This is the evaluator verify uses and the code path the search uses for
    every iterate, which makes a dumped input tuple exactly reproducible.
    """
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; choose from {CHECK_ORDER}")
    spec = CHECKS[check]
    if len(inputs) != spec.arity:
        raise ValueError(f"{check} takes {spec.arity} input vectors, got {len(inputs)}")
    return spec.evaluate(harmonic, inputs)[0]


def _random_start(
    harmonic: Harmonic, objective: str, rng: np.random.Generator
) -> List[np.ndarray]:
    spec = CHECKS[objective]
    n = harmonic.n
    if spec.kind == "disc":
        return [sample_disc(n, rng).values for _ in range(spec.arity)]
    return [
        _unit_sphere(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for _ in range(spec.arity)
    ]


def _structured_start(
    harmonic: Harmonic, objective: str, rng: np.random.Generator
) -> List[np.ndarray]:
    """Character-flavored initial points that sit near known extremizers."""
    spectral = harmonic.spectral
    witness = spectral.quasirandomness.witness_row
    if witness is None:
        return _random_start(harmonic, objective, rng)
    if CHECKS[objective].kind == "disc":
        chi = spectral.table.values[witness][spectral.classes.class_of]
        base = chi / max(float(spectral.table.degrees[witness]), 1.0)
        third = np.conj(base * base)
        return [base.copy(), base.copy(), _disc_clip(third)]
    # unit pairs: a unit vector inside the lowest-degree nontrivial
    # isotypic component that the conjugation action actually contains
    order = sorted(
        (r for r in range(spectral.classes.num_classes) if r != spectral.table.trivial_row),
        key=lambda r: int(spectral.table.degrees[r]),
    )
    raw = rng.standard_normal(harmonic.n) + 1j * rng.standard_normal(harmonic.n)
    for row in order:
        proj = isotypic_project(
            spectral.group, spectral.classes, spectral.table, raw, row
        )
        norm = float(np.sqrt(np.mean(np.abs(proj) ** 2)))
        if norm > 1e-9:
            unit = proj / norm
            return [unit.copy(), unit.copy()]
    return _random_start(harmonic, objective, rng)


def _project(kind: str, vals: np.ndarray) -> np.ndarray:
    return _disc_clip(vals) if kind == "disc" else _unit_sphere(vals)


def maximize(harmonic: Harmonic, config: SearchConfig) -> SearchResult:
    """Random-restart hill climbing over feasible inputs of one objective.

    Each restart draws its own generator from (seed, restart), so the result
    is independent of evaluation order; restarts alternate random-phase and
    structured character-based initial points.  Moves perturb one function at
    one element by a complex step whose magnitude shrinks linearly along the
    restart's evaluation budget; projection keeps every iterate feasible and
    only strict improvements are kept.  A zero budget evaluates the restart-0
    initial point and returns it.
    """
    if config.budget == 0:
        restarts_run, per_restart = 1, 1
    elif config.budget < config.restarts:
        restarts_run, per_restart = config.budget, 1
    else:
        restarts_run, per_restart = config.restarts, config.budget // config.restarts

    hi, lo = config.step_schedule
    kind = CHECKS[config.objective].kind
    best_value = -1.0
    best_inputs: Optional[List[np.ndarray]] = None
    best_check: Optional[BoundCheck] = None
    trace: List[float] = []
    evaluations = 0

    for restart in range(restarts_run):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, restart)))
        if restart % 2 == 0:
            current = _random_start(harmonic, config.objective, rng)
        else:
            current = _structured_start(harmonic, config.objective, rng)
        check = evaluate_inputs(harmonic, config.objective, current)
        value = check.observed
        evaluations += 1
        if value > best_value:
            best_value, best_check = value, check
            best_inputs = [a.copy() for a in current]
        trace.append(best_value)

        for step_idx in range(per_restart - 1):
            frac = step_idx / max(per_restart - 2, 1)
            magnitude = hi + (lo - hi) * frac
            slot = int(rng.integers(len(current)))
            pos = int(rng.integers(harmonic.n))
            candidate = [a.copy() for a in current]
            bump = complex(rng.standard_normal(), rng.standard_normal())
            candidate[slot][pos] += magnitude * bump
            candidate[slot] = _project(kind, candidate[slot])
            cand_check = evaluate_inputs(harmonic, config.objective, candidate)
            evaluations += 1
            if cand_check.observed > value:
                current, value, check = candidate, cand_check.observed, cand_check
            if value > best_value:
                best_value, best_check = value, cand_check
                best_inputs = [a.copy() for a in current]
            trace.append(best_value)

    assert best_inputs is not None and best_check is not None
    return SearchResult(
        best_value=best_value,
        best_inputs=tuple(best_inputs),
        best_check=best_check,
        evaluations_used=evaluations,
        trace=trace,
    )


def witness_abelian_character(n: int, exponents: Tuple[int, int, int]) -> Tuple[
    GroupFunction, GroupFunction, GroupFunction
]:
    """Closed-form cyclic-group triple f_i(x) = ω^(e_i·x) with ω = e^(2πi/n).

    Requires e₁+e₂+e₃ ≡ 0 (mod n) and not all exponents ≡ 0.  The triple
    correlation then has unit modulus at every g while the structured product
    term is δ(e₁ ≡ 0), so the theorem deviation equals 1 exactly when
    e₁ ≢ 0 (mod n) — no decay without quasi-randomness.
    """
    if n < 2:
        raise ValueError(f"cyclic order must be >= 2, got {n}")
    e1, e2, e3 = (int(e) % n for e in exponents)
    if (e1 + e2 + e3) % n != 0:
        raise ConstraintError(
            f"exponents {exponents} do not sum to 0 mod {n}"
        )
    if e1 == e2 == e3 == 0:
        raise ConstraintError("all exponents vanish mod n; the witness is constant")
    x = np.arange(n)
    omega = np.exp(2j * np.pi / n)
    triple = tuple(
        GroupFunction(omega ** (e * x), disc_valued=True) for e in (e1, e2, e3)
    )
    return triple
