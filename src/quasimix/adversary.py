"""Worst-case input search for the bound calculus.

Random-restart hill climbing over the constrained input functions of each
observed quantity.  Every iterate stays feasible (projection after each move),
so every evaluated value is a certified lower bound on the true supremum —
useful both for measuring how much slack the degree-driven bounds leave and
for demonstrating that the deviations simply do not decay on abelian controls.
"""

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from .harmonic import BoundCheck, GroupFunction, Harmonic, _disc_clip, _unit_norm
from .report import CHECK_ORDER, CHECKS
from .spectra import isotypic_project

__all__ = [
    "SearchConfig",
    "SearchResult",
    "OBJECTIVES",
    "evaluate_inputs",
    "maximize",
]

# the searchable checks are those with a search state, in CHECK_ORDER
OBJECTIVES = tuple(check for check, spec in CHECKS.items() if spec.state is not None)


@dataclass(frozen=True)
class SearchConfig:
    """Hill-climbing parameters; identical configs give identical results."""

    objective: str
    budget: int = 2000
    restarts: int = 4
    seed: int = 0
    step_schedule: ClassVar[Tuple[float, float]] = (0.5, 0.05)
    """Step magnitude at the first and the last move of each restart, linear in between."""

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; choose from {OBJECTIVES}"
            )
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SearchResult:
    """Outcome of one maximize() run."""

    best_value: float
    best_inputs: Tuple[np.ndarray, ...]
    best_check: BoundCheck
    evaluations_used: int
    trace: List[float] = field(default_factory=list)


def evaluate_inputs(
    harmonic: Harmonic, check: str, inputs: Sequence[np.ndarray]
) -> BoundCheck:
    """Run any check in CHECKS on raw input vectors; corollary gives its published record.

    It calls CHECKS[check].evaluate, as each verify trial does, and for a search
    objective that builds the state maximize seeds from, so a dumped trial or
    search input tuple reproduces its value exactly.
    """
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; choose from {CHECK_ORDER}")
    spec = CHECKS[check]
    if len(inputs) != len(spec.inputs):
        raise ValueError(f"{check} takes {len(spec.inputs)} input vectors, got {len(inputs)}")
    return spec.evaluate(harmonic, spec.functions(spec.wrap(inputs)))[0]


def _structured_start(
    harmonic: Harmonic, objective: str, rng: np.random.Generator
) -> List[GroupFunction]:
    """A character-flavored point near known extremizers, as functions in CheckSpec.draw's form."""
    spectral, table = harmonic.spectral, harmonic.spectral.table
    spec = CHECKS[objective]
    witness = spectral.quasirandomness.witness_row
    if witness is None:
        return spec.draw(harmonic.n, rng)
    if "unit" not in spec.inputs:  # disc checks: f1 = f2 = χ/d and f3 = clip(conj (χ/d)²)
        chi = table.values[witness][spectral.classes.class_of]
        base = chi / max(float(table.degrees[witness]), 1.0)
        return spec.wrap([base, base, _disc_clip(np.conj(base * base))][: len(spec.inputs)])
    # unit pairs: a unit vector inside the lowest-degree nontrivial isotypic
    # component that the conjugation action contains; table rows run in degree order
    rows = (r for r in range(len(table.degrees)) if r != table.trivial_row)
    row = next((r for r in rows if table.conjugation_multiplicities[r] > 0), None)
    # drawn before the fallback too, so an abelian group's restarts keep their random stream
    raw = rng.standard_normal(harmonic.n) + 1j * rng.standard_normal(harmonic.n)
    if row is None:
        return spec.draw(harmonic.n, rng)
    projected = isotypic_project(spectral.group, spectral.classes, table, raw, row)
    return spec.wrap([projected / _unit_norm(projected)] * 2)


def _seeded(harmonic: Harmonic, objective: str, point: Sequence[GroupFunction]):
    """A full evaluation at a drawn or wrapped point, and the incremental state it leaves behind."""
    spec = CHECKS[objective]
    state = spec.state(harmonic, objective, spec.functions(point), moved=[f.values for f in point])
    return state.check, state


def maximize(harmonic: Harmonic, config: SearchConfig) -> SearchResult:
    """Random-restart hill climbing over feasible inputs of one objective.

    Each restart draws its own generator from (seed, restart), so the result
    is independent of evaluation order; restarts alternate a random point,
    drawn by CheckSpec.draw as a verify trial draws one, and a structured
    character-based one.  Moves perturb one function at one element by a
    complex step whose magnitude shrinks linearly along the restart's
    evaluation budget; projection keeps every iterate feasible and
    only strict improvements are kept.  The budget is split evenly over the
    restarts, the first budget % restarts of them taking one move more, so
    evaluations_used equals the budget.  A zero budget evaluates the restart-0
    initial point and returns it.

    Each move is judged in O(n) on the objective's per-g search state,
    CHECKS[objective].state, and only strict improvements are taken, so a
    restart's best point is where its climb ends.  A restart runs the one O(n²) pass
    evaluate_inputs runs twice at most: on its initial point, and on its end
    point if the climb moved.  best_value, best_check and the trace come only
    from those full evaluations (best_check equals evaluate_inputs of
    best_inputs), so the trace steps only at a restart's start and end.  The
    end evaluation also bounds the state's rounding drift: an incremental value
    off the full one by more than 1e-12 relative (absolute below 1) raises
    RuntimeError.
    """
    restarts_run = max(1, min(config.restarts, config.budget))
    moves, extra = divmod(config.budget, restarts_run)

    hi, lo = config.step_schedule
    spec = CHECKS[config.objective]
    best_value = -1.0
    best_inputs: Optional[List[np.ndarray]] = None
    best_check: Optional[BoundCheck] = None
    trace: List[float] = []
    evaluations = 0

    for restart in range(restarts_run):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, restart)))
        if restart % 2:
            point = _structured_start(harmonic, config.objective, rng)
        else:
            point = spec.draw(harmonic.n, rng)
        check, state = _seeded(harmonic, config.objective, point)
        value = check.observed
        evaluations += 1
        if value > best_value:
            best_value, best_check = value, check
            best_inputs = [a.copy() for a in state.inputs]
        trace.append(best_value)

        per_restart = max(1, moves + (restart < extra))
        for step_idx in range(per_restart - 1):
            frac = step_idx / max(per_restart - 2, 1)
            magnitude = hi + (lo - hi) * frac
            slot = int(rng.integers(len(state.inputs)))
            pos = int(rng.integers(harmonic.n))
            bump = complex(rng.standard_normal(), rng.standard_normal())
            cand_value = state.propose(slot, pos, magnitude * bump)
            evaluations += 1
            if cand_value > value:
                state.accept()
                value = cand_value
            trace.append(best_value)

        if value > check.observed:  # the climb beat its start: evaluate where it ended
            drifted = value
            check, state = _seeded(harmonic, config.objective, spec.wrap(state.inputs))
            value = check.observed
            if abs(drifted - value) > 1e-12 * max(1.0, abs(value)):
                raise RuntimeError(
                    f"{config.objective} search, restart {restart}: the incremental value "
                    f"{drifted!r} drifted from its full evaluation {value!r}"
                )
            if value > best_value:
                best_value, best_check = value, check
                best_inputs = [a.copy() for a in state.inputs]
                trace[-1] = best_value

    assert best_inputs is not None and best_check is not None
    return SearchResult(
        best_value=best_value,
        best_inputs=tuple(best_inputs),
        best_check=best_check,
        evaluations_used=evaluations,
        trace=trace,
    )
