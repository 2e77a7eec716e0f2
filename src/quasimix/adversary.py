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

from ._numutil import abs2
from .harmonic import (
    BoundCheck,
    ConstraintError,
    GroupFunction,
    Harmonic,
    _corollary_observed,
    _lemma_observed,
    _step1_observed,
    _theorem_observed,
    centered,
    sample_disc,
)
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


def _unit_norm(vals: np.ndarray) -> float:
    """The L²(μ) norm that _unit_sphere divides by: 1 for a vector too short to rescale."""
    squares = np.abs(vals) ** 2
    norm = float(np.sqrt(squares.sum() / squares.size))
    return norm if norm >= 1e-12 else 1.0


def _unit_sphere(vals: np.ndarray) -> np.ndarray:
    """Projection onto the unit sphere of L²(μ); leaves the zero vector alone."""
    return vals / _unit_norm(vals)


def evaluate_inputs(
    harmonic: Harmonic, check: str, inputs: Sequence[np.ndarray]
) -> BoundCheck:
    """Run any check in CHECKS on raw input vectors; corollary gives its published record.

    This is the evaluator verify uses.  The search evaluates each restart's
    initial point and each new best through the same Harmonic code (see
    maximize), so a dumped input tuple reproduces its value exactly.
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


class _TripleState:
    """theorem or step1 at one point, as inner[g] = (1/n) Σ_x first(x)·f2(gx)·f3(xg).

    ``first`` is f1 for theorem and f1 − mean(f1) for step1.  A move changes
    one entry p of one input by δ, and that entry enters inner[g] in one term
    per g: at x = p for f1, x = g⁻¹p for f2 and x = pg⁻¹ for f3.  theorem
    also keeps mean(f1), E(f2|Φ) and E(f3|Φ) for its structured term; step1
    keeps q[g] = (1/n) Σ_x f2(gx)·f3(xg), because moving f1 by δ shifts first
    by −δ/n everywhere, which adds −(δ/n)·q[g].  The disc clip may also
    re-round other entries that sit on the unit circle up to rounding; those
    changes are left to the drift that the next full evaluation resets.
    Construction is that full evaluation: ``check`` is the BoundCheck of
    theorem_lhs or step1_reduced_lhs, reduced from the arrays the state keeps.
    """

    def __init__(self, harmonic: Harmonic, objective: str, inputs: Sequence[np.ndarray]):
        self.h = harmonic
        self.step1 = objective == "step1"
        f1, f2, f3 = (GroupFunction(a, disc_valued=True) for a in inputs)
        self.inputs = [f.values for f in (f1, f2, f3)]
        if self.step1:
            first = centered(f1)
            self.inner, self.q = harmonic._step1_parts(first, f2, f3, pair_sums=True)
            self.check = harmonic._step1_check(self.inner)
        else:
            first = f1
            self.inner, self.terms = harmonic._theorem_parts(f1, f2, f3)
            self.check = harmonic._theorem_check(self.inner, self.terms)
        self.first = first.values
        self._pending = None

    def propose(self, slot: int, pos: int, step: complex) -> float:
        """The objective after adding step to input ``slot`` at pos and clipping to the disc."""
        h = self.h
        vals = self.inputs[slot].copy()
        vals[pos] += step
        vals = _disc_clip(vals)
        delta = (vals[pos] - self.inputs[slot][pos]) / h.n
        f2, f3 = self.inputs[1:]
        if slot == 0:
            pair = f2.take(h.mul[:, pos]) * f3.take(h.mul[pos])  # f2(gp)·f3(pg)
            inner = self.inner + delta * pair
        else:
            if slot == 1:  # x = g⁻¹p, xg = g⁻¹pg
                x, pair = h.mul[h.inv, pos], f3.take(h.conj[h.inv, pos])
            else:  # x = pg⁻¹, gx = gpg⁻¹
                x, pair = h.mul[pos, h.inv], f2.take(h.conj[:, pos])
            inner = self.inner + delta * self.first.take(x) * pair
        if self.step1:
            if slot == 0:
                inner -= delta * self.q
                extra = self.q
            else:
                extra = self.q + delta * pair
            value = _step1_observed(inner)
        else:
            extra = list(self.terms)
            extra[slot] = vals.mean() if slot == 0 else h._class_average(vals)
            value = _theorem_observed(inner, h._structured(*extra))
        self._pending = (slot, vals, inner, extra)
        return value

    def accept(self) -> None:
        """Move to the point of the last propose."""
        slot, vals, self.inner, extra = self._pending
        if self.step1:
            self.q = extra
        else:
            self.terms = extra
        self.inputs[slot] = vals
        if slot == 0:
            self.first = vals - vals.mean() if self.step1 else vals


class _ConjState:
    """lemma or corollary at one point, as centered conjugation coefficients.

    With a₀ = a − E(a|Φ) and c(a, b)[g] = (1/n) Σ_x a(x)·conj b(gxg⁻¹), lemma
    keeps c(u₀,u₀) and c(v₀,v₀), corollary keeps c(u₀,v₀).  Moving u by δ at
    y shifts u₀ by Δ = δ·(e_y − 1_C/|C|) on y's class C.  Every centered function
    sums to 0 over each class, so the constant part drops out of the cross
    terms, and for every b₀
      c(u₀ + Δ, b₀)[g] = c(u₀, b₀)[g] + (δ/n)·conj b₀(gyg⁻¹),
      c(b₀, u₀ + Δ)[g] = c(b₀, u₀)[g] + (conj δ/n)·b₀(g⁻¹yg),
      c(Δ, Δ)[g] = (|δ|²/n)·([g centralizes y] − 1/|C|).
    Renormalizing to the unit sphere divides each coefficient by the norm
    once per factor that moved.  Construction is a full evaluation: ``check``
    is the BoundCheck of lemma_gap or corollary_lhs (its published record),
    reduced from the coefficients the state keeps.
    """

    def __init__(self, harmonic: Harmonic, objective: str, inputs: Sequence[np.ndarray]):
        self.h = harmonic
        self.lemma = objective == "lemma"
        u, v = (GroupFunction(a) for a in inputs)
        self.inputs = [u.values, v.values]
        if self.lemma:
            self.centered, self.coeffs = harmonic._lemma_parts(u, v)
            self.check = harmonic._lemma_check(u, v, self.coeffs)
        else:
            self.centered, self.coeffs = harmonic._corollary_parts(u, v)
            self.check = harmonic._corollary_checks(u, v, self.coeffs)[0]
        self._pending = None

    def propose(self, slot: int, pos: int, step: complex) -> float:
        """The objective after adding step to input ``slot`` at pos and renormalizing."""
        h = self.h
        vals = self.inputs[slot].copy()
        vals[pos] += step
        norm = _unit_norm(vals)
        delta = (vals[pos] - self.inputs[slot][pos]) / h.n
        moved = h.conj[:, pos]  # gyg⁻¹ for every g
        coeffs = list(self.coeffs)
        if self.lemma:
            a0 = self.centered[slot]
            size = h.spectral.classes.class_sizes[h.spectral.classes.class_of[pos]]
            square = (abs2(delta) * h.n) * ((moved == pos) - 1.0 / size)
            cross = delta * np.conj(a0.take(moved)) + np.conj(delta) * a0.take(moved[h.inv])
            coeffs[slot] = (coeffs[slot] + cross + square) / norm**2
            value = _lemma_observed(*coeffs, h.group.identity)
        else:
            if slot == 0:
                cross = delta * np.conj(self.centered[1].take(moved))
            else:
                cross = np.conj(delta) * self.centered[0].take(moved[h.inv])
            coeffs[0] = (coeffs[0] + cross) / norm
            value = _corollary_observed(coeffs[0])
        self._pending = (slot, vals, norm, coeffs)
        return value

    def accept(self) -> None:
        """Move to the point of the last propose."""
        slot, vals, norm, self.coeffs = self._pending
        self.inputs[slot] = vals / norm
        self.centered[slot] = self.inputs[slot] - self.h._class_average(self.inputs[slot])


def _seeded(harmonic: Harmonic, objective: str, inputs: Sequence[np.ndarray]):
    """A full evaluation of inputs, and the incremental state seeded from its per-g arrays."""
    state = _TripleState if CHECKS[objective].kind == "disc" else _ConjState
    seeded = state(harmonic, objective, inputs)
    return seeded.check, seeded


def maximize(harmonic: Harmonic, config: SearchConfig) -> SearchResult:
    """Random-restart hill climbing over feasible inputs of one objective.

    Each restart draws its own generator from (seed, restart), so the result
    is independent of evaluation order; restarts alternate random-phase and
    structured character-based initial points.  Moves perturb one function at
    one element by a complex step whose magnitude shrinks linearly along the
    restart's evaluation budget; projection keeps every iterate feasible and
    only strict improvements are kept.  A zero budget evaluates the restart-0
    initial point and returns it.

    Each move is judged on an incremental per-g state (_TripleState or
    _ConjState) in O(n).  Every restart's initial point, and every accepted
    point that beats the best so far, is evaluated in full, in one O(n²) pass
    through the Harmonic code that evaluate_inputs runs, and the state is
    re-seeded from that evaluation's own per-g arrays.  So best_value,
    best_check and the trace are full evaluations (best_check equals
    evaluate_inputs of best_inputs), and rounding drift never outlives a new
    best.
    """
    if config.budget == 0:
        restarts_run, per_restart = 1, 1
    elif config.budget < config.restarts:
        restarts_run, per_restart = config.budget, 1
    else:
        restarts_run, per_restart = config.restarts, config.budget // config.restarts

    hi, lo = config.step_schedule
    best_value = -1.0
    best_inputs: Optional[List[np.ndarray]] = None
    best_check: Optional[BoundCheck] = None
    trace: List[float] = []
    evaluations = 0

    for restart in range(restarts_run):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, restart)))
        if restart % 2 == 0:
            start = _random_start(harmonic, config.objective, rng)
        else:
            start = _structured_start(harmonic, config.objective, rng)
        check, state = _seeded(harmonic, config.objective, start)
        value = check.observed
        evaluations += 1
        if value > best_value:
            best_value, best_check = value, check
            best_inputs = [a.copy() for a in state.inputs]
        trace.append(best_value)

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
                if value > best_value:
                    check, state = _seeded(harmonic, config.objective, state.inputs)
                    value = check.observed
                    if value > best_value:
                        best_value, best_check = value, check
                        best_inputs = [a.copy() for a in state.inputs]
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
