"""Conditional expectations, conjugation coefficients, and the bound calculus.

All integrals over the group use the uniform probability weight 1/n, and the
L² norm is always the probability-weighted one.  The quantities computed by
the ``*_lhs`` / ``step*`` methods are the left-hand sides of a chain of mixing
inequalities for triple correlations f1(x)·f2(gx)·f3(xg); each returns a
BoundCheck pairing the observed value with the bound implied by the group's
quasi-randomness degree D.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._numutil import abs2, l2mu, row_chunks
from .groups import FiniteGroup
from .spectra import FourierBasis, SpectralData, fourier_basis

__all__ = [
    "GroupFunction",
    "BoundCheck",
    "ConstraintError",
    "Harmonic",
    "centered",
    "sample_disc",
    "sample_unit",
]

DISC_TOL = 1e-12
BOUND_TOL = 1e-12
"""Relative allowance of a bound verdict: absorbs float rounding of a tight bound, nothing more."""
IMAG_RESIDUE_TOL = 1e-9
STEP2_IDENTITY_TOL = 1e-10


class ConstraintError(ValueError):
    """An input violates a declared range or normalization constraint."""


@dataclass(eq=False)
class GroupFunction:
    """A complex function on group elements, with optional verified range flags.

    ``disc_valued`` asserts |f(x)| ≤ 1 everywhere, ``two_disc_valued`` asserts
    |f(x)| ≤ 2, and ``mean_zero`` asserts the mean vanishes; each flag is
    checked at construction (tolerance 1e-12) and trusted afterwards.
    """

    values: np.ndarray
    disc_valued: bool = False
    mean_zero: bool = False
    two_disc_valued: bool = False

    def __post_init__(self):
        # a private copy: the caller's array stays writeable, and writes to it
        # can neither fail nor bypass the flags checked here
        vals = np.array(self.values, dtype=np.complex128, order="C")
        if vals.ndim != 1 or len(vals) == 0:
            raise ConstraintError(f"values must be a nonempty vector, got shape {vals.shape}")
        if self.disc_valued:
            worst = float(np.abs(vals).max())
            if worst > 1.0 + DISC_TOL:
                raise ConstraintError(f"disc_valued set but max |f| = {worst}")
        if self.two_disc_valued:
            worst = float(np.abs(vals).max())
            if worst > 2.0 + DISC_TOL:
                raise ConstraintError(f"two_disc_valued set but max |f| = {worst}")
        if self.mean_zero:
            m = abs(complex(vals.mean()))
            if m > DISC_TOL:
                raise ConstraintError(f"mean_zero set but |mean| = {m}")
        vals.setflags(write=False)
        self.values = vals

    def __len__(self) -> int:
        return len(self.values)

    @property
    def norm2(self) -> float:
        """L² norm under the uniform probability weight."""
        return l2mu(self.values)


@dataclass(frozen=True)
class BoundCheck:
    """One observed quantity against its degree-driven bound.

    margin = bound − observed, recorded raw even when negative.  ``passed`` is
    the verdict: a margin below −BOUND_TOL·max(1, bound) must be surfaced.
    """

    quantity_name: str
    observed: float
    bound: float
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin >= -BOUND_TOL * max(1.0, self.bound)


def centered(f: GroupFunction) -> GroupFunction:
    """Subtract the mean of a disc-valued function.

    The result has range in the radius-2 disc with mean zero and L² norm
    ≤ 1 automatically (‖f − mean‖₂² = ‖f‖₂² − |mean|² ≤ 1), which is exactly
    the normalization the step checks require of their first argument.
    """
    if not f.disc_valued:
        raise ConstraintError("centered() expects a disc_valued function")
    vals = f.values - f.values.mean()
    return GroupFunction(vals, two_disc_valued=True, mean_zero=True)


def sample_disc(n: int, rng: np.random.Generator) -> GroupFunction:
    """Random unit phases: disc-valued extreme points, which stress the inequalities hardest."""
    return GroupFunction(np.exp(2j * np.pi * rng.random(n)), disc_valued=True)


def sample_unit(n: int, rng: np.random.Generator) -> GroupFunction:
    """Random function with L²(μ) norm exactly 1 (complex Gaussian, normalized)."""
    while True:
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm = l2mu(vals)
        if norm > 1e-12:
            return GroupFunction(vals / norm)


def _fourier_grams(basis: FourierBasis, coeffs: np.ndarray):
    """Yield (d, V*V) for each run of degree d: the Gram V(ρ)*V(ρ) of every row's block.

    ``coeffs`` holds Fourier coefficients ``values @ basis.matrix`` row by row; a
    degree-1 block is a scalar, whose Gram is |V|².
    """
    for d, cols in basis.runs:
        block = coeffs[:, cols]
        if d == 1:
            yield d, abs2(block)
        else:
            v = block.reshape(len(coeffs), -1, d, d)
            yield d, np.conj(np.swapaxes(v, 2, 3)) @ v


def _real_nonnegative(value: complex, what: str, scale: float = 1.0) -> float:
    """Take the real part of a quantity that is real and ≥ 0 by symmetry.

    The imaginary residue and any negative excursion must both be numerical
    dust (< 1e-9·scale, ``scale`` bounding |value|); anything larger means a
    symmetry was violated upstream and is raised as a hard failure.
    """
    tol = IMAG_RESIDUE_TOL * scale
    if abs(value.imag) > tol:
        raise RuntimeError(f"{what}: imaginary residue {value.imag} exceeds {tol}")
    real = value.real
    if real < 0.0:
        if real < -tol:
            raise RuntimeError(f"{what}: negative value {real} for a nonnegative quantity")
        real = 0.0
    return float(real)


def _theorem_observed(inner: np.ndarray, structured: complex) -> float:
    """theorem's value from inner[g] and the structured product term; at most 2 for disc inputs.

    A value above the ceiling is an implementation bug and raised unconditionally.
    This and the next three reductions take a sum and one division: np.mean's
    numbers without its per-call overhead, which the search pays on every move.
    """
    deviation = np.abs(inner - structured)
    observed = float(deviation.sum() / deviation.size)
    if observed > 2.0 + 1e-9:
        raise RuntimeError(f"triple correlation deviation {observed} exceeds the ceiling 2")
    return observed


def _step1_observed(inner: np.ndarray) -> float:
    """step1's value from inner[g] of the centered first input."""
    return float(np.abs(inner).sum() / inner.size)


def _lemma_observed(cu: np.ndarray, cv: np.ndarray, identity: int) -> float:
    """lemma's value sqrt(mean_g c(u₀,u₀)[g]·c(v₀,v₀)[g]).

    The guard's scale is ‖u₀‖₂²‖v₀‖₂² = |c(u₀,u₀)[e]·c(v₀,v₀)[e]|, so its
    tolerance is relative and an input of any norm never raises spuriously.
    """
    scale = abs(complex(cu[identity] * cv[identity]))
    total = complex((cu * cv).sum() / cu.size)
    return float(np.sqrt(_real_nonnegative(total, "lemma_gap", scale)))


def _corollary_observed(cuv: np.ndarray) -> float:
    """corollary's value mean_g |c(u₀,v₀)[g]|²."""
    return float(abs2(cuv).sum() / cuv.size)


@dataclass(eq=False)
class Harmonic:
    """Bound calculus over one group's spectral data.

    Wraps a SpectralData bundle and exposes the inequality left-hand sides as
    methods, all pure: results depend only on the inputs.  The group's Fourier
    basis is built on the first call that needs it and kept with this object.
    """

    spectral: SpectralData

    def __post_init__(self):
        self.group: FiniteGroup = self.spectral.group
        self.n: int = self.group.order
        self.mul = self.group.mul
        self.inv = self.group.inv
        self.conj = self.group.conjugation_table()
        self._basis: Optional[FourierBasis] = None
        self._basis_lock = threading.Lock()

    def fourier(self) -> FourierBasis:
        """The group's unitary irreducible representations (built once, thread-safe)."""
        with self._basis_lock:
            if self._basis is None:
                self._basis = fourier_basis(self.group, self.spectral.classes, self.spectral.table)
            return self._basis

    # -- degree-driven bounds ------------------------------------------------

    @property
    def degree(self) -> Optional[int]:
        """Quasi-randomness degree D; None for the trivial group."""
        return self.spectral.quasirandomness.degree

    def degree_power(self, power: float) -> float:
        """D**power, with the trivial-group convention that the bound is 0.

        The trivial group has no nontrivial representations at all, so it is
        vacuously quasi-random of every degree; every D-power bound collapses
        to 0, and its observables are exactly 0.
        """
        if self.degree is None:
            return 0.0
        return float(self.degree) ** power

    def _check(self, name: str, observed: float, bound: float) -> BoundCheck:
        return BoundCheck(
            quantity_name=name, observed=observed, bound=bound, margin=bound - observed
        )

    def _require(self, f: GroupFunction, name: str, **flags) -> None:
        if len(f) != self.n:
            raise ConstraintError(f"{name} has length {len(f)}, group order is {self.n}")
        if flags.get("disc") and not f.disc_valued:
            raise ConstraintError(f"{name} must be disc_valued")
        if flags.get("mean_zero") and not f.mean_zero:
            raise ConstraintError(f"{name} must be mean_zero")
        if flags.get("two_disc") and not f.two_disc_valued:
            raise ConstraintError(f"{name} must be two_disc_valued")
        if flags.get("unit_l2") and f.norm2 > 1.0 + DISC_TOL:
            raise ConstraintError(f"{name} must have L2 norm <= 1, got {f.norm2}")

    # -- conditional expectations ------------------------------------------

    def _class_average(self, vals: np.ndarray) -> np.ndarray:
        cls = self.spectral.classes.class_of
        k = self.spectral.classes.num_classes
        sums = np.bincount(cls, weights=vals.real, minlength=k) + 1j * np.bincount(
            cls, weights=vals.imag, minlength=k
        )
        return (sums / self.spectral.classes.class_sizes)[cls]

    def _points(self, point: str, rows: slice) -> np.ndarray:
        """Element indices of the point p(g, x) for g in rows: "gx", "xg", "gxg^-1" or "xg^-1"."""
        if point == "xg^-1":
            return self.mul.T[self.inv[rows]]
        return {"gx": self.mul, "xg": self.mul.T, "gxg^-1": self.conj}[point][rows]

    def _gathered(self, *terms):
        """Yield (rows, blocks) over row chunks of g, one block per (values, point) term.

        blocks[i][g, x] = values_i(p_i(g, x)); no block is wider than one
        row_chunks slice, and np.take gathers about twice as fast as fancy indexing.
        """
        for rows in row_chunks(self.n, self.n):
            yield rows, [values.take(self._points(point, rows)) for values, point in terms]

    def _coefficients(self, a: np.ndarray, b: np.ndarray, point: str) -> np.ndarray:
        """c[g] = (1/n) Σ_x a(x)·conj b(p(g, x)) for every g, p one of _gathered's points."""
        chunks = [block @ a for _, (block,) in self._gathered((np.conj(b), point))]
        return np.concatenate(chunks) / self.n

    # -- the inequality chain ------------------------------------------------

    def lemma_gap(self, u: GroupFunction, v: GroupFunction) -> BoundCheck:
        """Distance between the fixed part of u ⊗ v and the tensor of fixed parts.

        observed = ‖P°(u⊗v) − E(u|Φ) ⊗ E(v|Φ)‖ in L²(μ⊗μ), P° the average over
        the diagonal conjugation action; bound = D^(-1/2)·‖u‖₂·‖v‖₂.  With
        u₀ = u − E(u|Φ) and v₀ = v − E(v|Φ), P° fixes E(u|Φ)⊗E(v|Φ) and kills
        both cross terms, so the difference is P°(u₀⊗v₀); P° is a self-adjoint
        idempotent, hence observed² = ⟨P°(u₀⊗v₀), u₀⊗v₀⟩ =
        mean_g c(u₀,u₀)[g]·c(v₀,v₀)[g], two O(n²) gathers and no pair function.
        """
        _, coeffs = self._lemma_parts(u, v)
        return self._lemma_check(u, v, coeffs)

    def _centered_pair(self, u: GroupFunction, v: GroupFunction):
        """Validate u and v and return u₀ = u − E(u|Φ), v₀ = v − E(v|Φ)."""
        self._require(u, "u")
        self._require(v, "v")
        return [f.values - self._class_average(f.values) for f in (u, v)]

    def _lemma_parts(self, u: GroupFunction, v: GroupFunction):
        """lemma_gap's per-g arrays: [u₀, v₀] and [c(u₀,u₀), c(v₀,v₀)]."""
        centered = self._centered_pair(u, v)
        return centered, [self._coefficients(a, a, "gxg^-1") for a in centered]

    def _lemma_check(self, u: GroupFunction, v: GroupFunction, coeffs) -> BoundCheck:
        observed = _lemma_observed(*coeffs, self.group.identity)
        bound = self.degree_power(-0.5) * u.norm2 * v.norm2
        return self._check("lemma", observed, bound)

    def corollary_lhs(self, u: GroupFunction, v: GroupFunction) -> Tuple[BoundCheck, BoundCheck]:
        """Mean-square deviation of the conjugation matrix coefficient.

        observed = (1/n) Σ_g |⟨u, π^g v⟩ − ⟨E(u|Φ), E(v|Φ)⟩|² for the
        conjugation action π.  Both cross terms of the centered parts vanish
        (E(u₀|Φ) = E(v₀|Φ) = 0), so the deviation is c(u₀, v₀)[g] exactly and
        observed = mean_g |c(u₀,v₀)[g]|².  Two checks are returned for the same
        observed value: the D^(-1/2)·‖u‖₂²‖v‖₂² bound and the sharper D^(-1) one.
        """
        _, coeffs = self._corollary_parts(u, v)
        return self._corollary_checks(u, v, coeffs)

    def _corollary_parts(self, u: GroupFunction, v: GroupFunction):
        """corollary_lhs's per-g arrays: [u₀, v₀] and [c(u₀,v₀)]."""
        centered = self._centered_pair(u, v)
        return centered, [self._coefficients(*centered, "gxg^-1")]

    def _corollary_checks(
        self, u: GroupFunction, v: GroupFunction, coeffs
    ) -> Tuple[BoundCheck, BoundCheck]:
        observed = _corollary_observed(*coeffs)
        scale = u.norm2**2 * v.norm2**2
        published = self._check("corollary", observed, self.degree_power(-0.5) * scale)
        sharp = self._check("corollary_sharp", observed, self.degree_power(-1.0) * scale)
        return published, sharp

    def _triple_inner(
        self, f1: np.ndarray, f2: np.ndarray, f3: np.ndarray, pair_sums: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """inner[g] = (1/n) Σ_x f1(x)·f2(gx)·f3(xg), and q[g] = (1/n) Σ_x f2(gx)·f3(xg) or None.

        Reduced with an elementwise triple product and a mean rather than a
        matrix-vector product, multiplying each gathered block in place;
        _structured evaluates theorem's structured term with the same in-place
        products so the two cancel exactly (not just to rounding) on the
        one-element group.  q, computed only with pair_sums, comes from the
        same gather between the two products.
        """
        inner = np.empty(self.n, dtype=np.complex128)
        q = np.empty(self.n, dtype=np.complex128) if pair_sums else None
        for rows, (a, b) in self._gathered((f2, "gx"), (f3, "xg")):
            a *= b
            if q is not None:
                q[rows] = a.sum(axis=1) / self.n
            a *= f1
            inner[rows] = a.sum(axis=1) / self.n
        return inner, q

    def _structured(self, m1: complex, e2: np.ndarray, e3: np.ndarray) -> complex:
        """theorem's structured term m1·(1/n) Σ_x e2(x)·e3(x), e_i = E(f_i|Φ), m1 = mean(f1).

        The same in-place products as _triple_inner: numpy's in-place and
        out-of-place multiplies may round a one-element array differently, and
        the deviation must cancel bitwise on the one-element group.
        """
        p = np.array(e2)
        p *= e3
        p *= np.full(self.n, m1)
        return complex(p.sum() / p.size)

    def theorem_lhs(
        self,
        f1: GroupFunction,
        f2: GroupFunction,
        f3: GroupFunction,
    ) -> BoundCheck:
        """Averaged deviation of the triple correlation from its structured product.

        observed = (1/n) Σ_g |(1/n) Σ_x f1(x)f2(gx)f3(xg)
                              − mean(f1)·(1/n) Σ_x E(f2|Φ)(x)E(f3|Φ)(x)|;
        bound = 4·D^(-1/8).  Disc-valued inputs force observed ≤ 2, which is
        asserted unconditionally (a violation is an implementation bug).
        """
        return self._theorem_check(*self._theorem_parts(f1, f2, f3))

    def _theorem_parts(self, f1: GroupFunction, f2: GroupFunction, f3: GroupFunction):
        """theorem_lhs's per-g arrays: inner[g], and [mean(f1), E(f2|Φ), E(f3|Φ)]."""
        for f, name in ((f1, "f1"), (f2, "f2"), (f3, "f3")):
            self._require(f, name, disc=True)
        inner, _ = self._triple_inner(f1.values, f2.values, f3.values)
        terms = [f1.values.mean(), self._class_average(f2.values), self._class_average(f3.values)]
        return inner, terms

    def _theorem_check(self, inner: np.ndarray, terms) -> BoundCheck:
        observed = _theorem_observed(inner, self._structured(*terms))
        bound = 4.0 * self.degree_power(-0.125)
        return self._check("theorem", observed, bound)

    def step1_reduced_lhs(
        self,
        f1: GroupFunction,
        f2: GroupFunction,
        f3: GroupFunction,
    ) -> BoundCheck:
        """First-moment form after centering f1.

        observed = (1/n) Σ_g |(1/n) Σ_x f1(x)f2(gx)f3(xg)| with f1 in the
        radius-2 disc, mean-zero, ‖f1‖₂ ≤ 1; bound = 3·D^(-1/8).
        """
        inner, _ = self._step1_parts(f1, f2, f3)
        return self._step1_check(inner)

    def _step1_parts(
        self, f1: GroupFunction, f2: GroupFunction, f3: GroupFunction, pair_sums: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """step1_reduced_lhs's per-g arrays: inner[g], and q[g] with pair_sums (_triple_inner)."""
        self._require(f1, "f1", two_disc=True, mean_zero=True, unit_l2=True)
        self._require(f2, "f2", disc=True)
        self._require(f3, "f3", disc=True)
        return self._triple_inner(f1.values, f2.values, f3.values, pair_sums)

    def _step1_check(self, inner: np.ndarray) -> BoundCheck:
        observed = _step1_observed(inner)
        bound = 3.0 * self.degree_power(-0.125)
        return self._check("step1", observed, bound)

    def step2_squared(
        self,
        f1: GroupFunction,
        f2: GroupFunction,
        f3: GroupFunction,
    ) -> BoundCheck:
        """Second-moment form with the absolute values removed.

        observed = (1/n) Σ_g |(1/n) Σ_x f3(x)·f1(xg⁻¹)·f2(gxg⁻¹)|²;
        bound = 5·D^(-1/4).  For a deterministic sample of g the squared inner
        integral is re-derived from its pair expansion (the integrand times
        its conjugate, summed over X² in row chunks) and must agree to 1e-10
        — the identity that justifies removing the absolute values.
        """
        self._require(f1, "f1", two_disc=True, mean_zero=True, unit_l2=True)
        self._require(f2, "f2", disc=True)
        self._require(f3, "f3", disc=True)
        step = max(1, self.n // 8) if self.n <= 512 else max(1, self.n // 3)
        inner = np.empty(self.n, dtype=np.complex128)
        for rows, (t1, c2) in self._gathered((f1.values, "xg^-1"), (f2.values, "gxg^-1")):
            twisted = t1 * c2  # [g, x] = f1(x·g⁻¹)·f2(g·x·g⁻¹)
            inner[rows] = (twisted @ f3.values) / self.n
            for g in range(rows.start + (-rows.start) % step, rows.stop, step):  # g % step == 0
                row = twisted[g - rows.start] * f3.values  # the change-of-variables integrand
                pairs = (np.outer(row[p], np.conj(row)).sum() for p in row_chunks(self.n, self.n))
                expanded = complex(sum(pairs)) / self.n**2
                if abs(expanded - complex(abs2(inner[g]))) > STEP2_IDENTITY_TOL:
                    raise RuntimeError(
                        f"pair-expansion identity failed at g={g}: "
                        f"|inner|²={abs2(inner[g])} vs expanded={expanded}"
                    )
        observed = float(np.mean(abs2(inner)))
        bound = 5.0 * self.degree_power(-0.25)
        return self._check("step2", observed, bound)

    def step3_intermediate(self, f1: GroupFunction, f2: GroupFunction) -> BoundCheck:
        """Expanded two-variable form driven through the diagonal expectation.

        observed = (1/n) Σ_h ∫ F1·conj(F1)T̃^h·E(F2·conj(F2)S̃^hT̃^h | Δ) dμ⊗²
        with F_i = f_i ⊗ conj(f_i); bound = 25·D^(-1/2).  Each h-term is a
        correlation pairing of a_h(x) = f2(x)·conj(f2(hxh⁻¹)) with
        b_h(x) = f1(x)·conj(f1(xh⁻¹)); by Plancherel over the irreps ρ it equals
        Σ_ρ d_ρ·tr(V_h*V_h·Y_h*Y_h) with V_h = Σ_x conj a_h(x)ρ(x) and
        Y_h = Σ_x b_h(x)ρ(x), so observed = Σ_h Σ_ρ d_ρ·tr(V_h*V_h·Y_h*Y_h)/n⁵,
        taken with one GEMM against the Fourier basis per block of h.  The
        value is real and ≥ 0 (a trace of two positive matrices); the imaginary
        residue is checked against 1e-9 before discarding.
        """
        self._require(f1, "f1", two_disc=True, mean_zero=True, unit_l2=True)
        self._require(f2, "f2", disc=True)
        basis = self.fourier()
        total = 0.0 + 0.0j
        terms = ((f2.values, "gxg^-1"), (np.conj(f1.values), "xg^-1"))
        for _, (f2_conj, conj_f1_t) in self._gathered(*terms):
            conj_a = np.conj(f2.values) * f2_conj
            b = f1.values * conj_f1_t
            coeffs = np.concatenate([conj_a, b]) @ basis.matrix  # rows V_h, then rows Y_h
            for d, gram in _fourier_grams(basis, coeffs):
                total += d * np.vdot(gram[len(b) :], gram[: len(b)])
        observed = _real_nonnegative(total / self.n**5, "step3_intermediate")
        bound = 25.0 * self.degree_power(-0.5)
        return self._check("step3", observed, bound)

    def step4_final(self, f1: GroupFunction, f2: GroupFunction) -> BoundCheck:
        """Fully scalarized form: product of squared autocorrelation integrals.

        observed = (1/n) Σ_h |(1/n) Σ_x f1(x)conj(f1(xh⁻¹))|²
                           · |(1/n) Σ_x f2(x)conj(f2(hxh⁻¹))|²;
        bound = D^(-1/2) (absorbing ‖f1‖₂ ≤ 1 and ‖f2‖_∞ ≤ 1).
        """
        self._require(f1, "f1", mean_zero=True, unit_l2=True)
        self._require(f2, "f2", disc=True)
        inner_t = self._coefficients(f1.values, f1.values, "xg^-1")
        inner_c = self._coefficients(f2.values, f2.values, "gxg^-1")
        observed = float(np.mean(abs2(inner_t) * abs2(inner_c)))
        bound = self.degree_power(-0.5)
        return self._check("step4", observed, bound)

    def _substitution_distances(self, f2: GroupFunction, f2_conj: np.ndarray) -> np.ndarray:
        """The step-4 substitution distance at every h of the rows f2_conj[h, x] = f2(hxh⁻¹).

        observed_h = ‖E(F2·conj(F2)S̃^hT̃^h | Δ) − |(1/n) Σ f2·conj(f2(h·h⁻¹))|²‖ in L²(μ⊗μ),
        the twisted diagonal expectation's distance from its scalar mean.  E(·|Δ)
        reduces the pair function to the profile φ_h(z) = (1/n) Σ_x a_h(x)·conj(a_h(xz)),
        and subtracting the scalar removes exactly its trivial Fourier component,
        so by Plancherel observed_h² = Σ_{ρ≠1} d_ρ·‖V_h*V_h‖²_F / n⁴.
        """
        basis = self.fourier()
        coeffs = (np.conj(f2.values) * f2_conj) @ basis.matrix
        coeffs[:, basis.trivial_column] = 0.0
        total = np.zeros(len(coeffs))
        for d, gram in _fourier_grams(basis, coeffs):
            total += d * abs2(gram).reshape(len(coeffs), -1).sum(axis=1)
        return np.sqrt(total) / self.n**2

    def step4_substitution_sweep(self, f2: GroupFunction) -> BoundCheck:
        """The worst over every h in the group of _substitution_distances; bound = D^(-1/2)."""
        self._require(f2, "f2", disc=True)
        worst = max(
            float(self._substitution_distances(f2, f2_conj).max())
            for _, (f2_conj,) in self._gathered((f2.values, "gxg^-1"))
        )
        bound = self.degree_power(-0.5)
        return self._check("step4_lemma_substitution", worst, bound)

