"""Conditional expectations, conjugation coefficients, and the bound calculus.

All integrals over the group use the uniform probability weight 1/n, and the
L² norm is always the probability-weighted one.  The quantities computed by
the ``*_lhs`` / ``step*`` methods are the left-hand sides of a chain of mixing
inequalities for triple correlations f1(x)·f2(gx)·f3(xg); each returns a
BoundCheck pairing the observed value with the bound implied by the group's
quasi-randomness degree D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
GEMM_ROWS = 64
"""The fewest h a chunk of step3 and step4sub takes: their GEMM then has at least 256 and
128 operand rows.  Against a 5040×5040 float64 matrix, OpenBLAS on 2 cores ran 79 GFlop/s
at 52 rows, 95 at 128 and 110 at 256."""
# Record name → (coefficient, power): its bound is coefficient·D^power, times _check's norms.
BOUNDS: Dict[str, Tuple[float, float]] = {
    "lemma": (1.0, -0.5),
    "corollary": (1.0, -0.5),
    "corollary_sharp": (1.0, -1.0),
    "theorem": (4.0, -0.125),
    "step1": (3.0, -0.125),
    "step2": (5.0, -0.25),
    "step3": (25.0, -0.5),
    "step4": (1.0, -0.5),
    "step4_lemma_substitution": (1.0, -0.5),
}


class ConstraintError(ValueError):
    """An input violates a declared range or normalization constraint."""


@dataclass(eq=False)
class GroupFunction:
    """A complex function on group elements, with optional verified range flags.

    ``disc_valued`` asserts |f(x)| ≤ 1 everywhere, ``two_disc_valued`` asserts
    |f(x)| ≤ 2, and ``mean_zero`` asserts the mean vanishes; each flag is
    checked at construction (tolerance 1e-12) and trusted afterwards.  Values
    must be finite even unflagged, since a NaN passes every flag's test.
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
        bad = np.flatnonzero(~np.isfinite(vals))
        if len(bad):
            raise ConstraintError(f"values must be finite, got {vals[bad[0]]} at index {bad[0]}")
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
        """L² norm under the uniform probability weight; inf where float64 overflows."""
        with np.errstate(over="ignore"):
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
    """Random function with L²(μ) norm 1 (complex Gaussian, normalized by _unit_norm)."""
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return GroupFunction(vals / _unit_norm(vals))


def _gemm_buffers(basis: FourierBasis, rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """A real operand of ``rows`` rows for _real_grams, and the product it makes with the basis."""
    n, width = basis.matrix.shape
    return np.empty((rows, n)), np.empty((rows, width))


def _real_grams(basis: FourierBasis, blocks, operand: np.ndarray, product: np.ndarray,
                drop_trivial: bool = False):
    """Yield (d, parts) for each run of degree d: real matrices whose Frobenius pairings are
    those of the Grams V*V of the Fourier coefficients V = Σ_x f(x)ρ(x) of every row f.

    ``blocks`` are complex (rows, n) arrays; their rows, stacked in order, are the rows of
    each part, a (rows, blocks of the run, d, d) array.  One real GEMM takes
    [Re blocks; Im blocks] @ ``matrix`` into ``product``.  V = T + iB: on a run of real
    columns T and B are the product's two halves, and on a complex run ρ = P + iQ they are
    Re f·P − Im f·Q and Re f·Q + Im f·P, formed in place in those halves.  So V*V = S + iA with S = TᵀT + BᵀB symmetric and
    A = TᵀB − BᵀT antisymmetric, and parts is (S, A), or (T² + B²,) at d = 1, where A = 0.
    For V*V and Y*Y, ⟨V*V, Y*Y⟩ = ⟨S_V, S_Y⟩ + ⟨A_V, A_Y⟩, since the two cross terms pair
    a symmetric with an antisymmetric matrix, and ‖V*V‖²_F = ‖S‖²_F + ‖A‖²_F: no complex
    array is formed.  With ``drop_trivial`` the trivial representation's coefficient is
    taken as 0.
    """
    rows, n, r = sum(len(block) for block in blocks), len(basis.matrix), basis.real_columns
    start = 0
    for block in blocks:
        np.copyto(operand[start : start + len(block)], block.real)
        np.copyto(operand[rows + start : rows + start + len(block)], block.imag)
        start += len(block)
    np.matmul(operand[: 2 * rows], basis.matrix, out=product[: 2 * rows])
    if drop_trivial:  # the trivial representation is real: one column of each half
        product[: 2 * rows, basis.trivial_column] = 0.0
    re, im = product[:rows], product[rows : 2 * rows]
    for d, cols in basis.runs:
        t, b = re[:, cols], im[:, cols]
        if cols.start >= r:  # in place: neither writes what the other still reads
            shifted = slice(cols.start + n - r, cols.stop + n - r)
            np.subtract(t, im[:, shifted], out=t)
            np.add(b, re[:, shifted], out=b)
        if d == 1:
            yield d, (t * t + b * b,)
            continue
        t, b = (x.reshape(rows, -1, d, d) for x in (t, b))
        t_transposed = np.swapaxes(t, 2, 3)
        s = t_transposed @ t
        s += np.swapaxes(b, 2, 3) @ b
        a = t_transposed @ b
        a -= np.swapaxes(a, 2, 3)  # numpy buffers an operand that overlaps the output
        yield d, (s, a)


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


def _disc_clip(vals: np.ndarray) -> np.ndarray:
    """Radial projection onto the closed unit disc."""
    mags = np.abs(vals)
    scale = np.where(mags > 1.0, mags, 1.0)
    return vals / scale


def _unit_norm(vals: np.ndarray) -> float:
    """The L²(μ) norm a projection onto the unit sphere divides by: 1 for a vector too short to rescale."""
    norm = l2mu(vals)
    return norm if norm >= 1e-12 else 1.0


@dataclass(eq=False)
class Harmonic:
    """Bound calculus over one group's spectral data.

    Wraps a SpectralData bundle and exposes the inequality left-hand sides as
    methods, all pure: results depend only on the inputs.  The group's Fourier
    basis is built on the first call that needs it and kept with this object,
    and so is the half sweep of step3 and step4sub (_half_sweep).
    """

    spectral: SpectralData

    def __post_init__(self):
        self.group: FiniteGroup = self.spectral.group
        self.n: int = self.group.order
        self.mul = self.group.mul
        self.inv = self.group.inv
        self.conj = self.group.conjugation_table()
        self._basis: Optional[FourierBasis] = None
        self._sweep: Optional[Tuple[np.ndarray, np.ndarray]] = None  # _half_sweep's (h, weight)
        self._blocks: List[np.ndarray] = []  # _gathered's scratch, one row chunk per term
        self._index: Optional[np.ndarray] = None  # and its point indices, one row chunk

    def fourier(self) -> FourierBasis:
        """The group's unitary irreducible representations (built on first use)."""
        if self._basis is None:
            self._basis = fourier_basis(self.group, self.spectral.classes, self.spectral.table)
        return self._basis

    def _half_sweep(self) -> Tuple[np.ndarray, np.ndarray]:
        """The h of step3's and step4sub's sweep, the lesser of each pair {h, h⁻¹}, and its
        weight, 2, or 1 where h² = e: (n + #{h : h² = e})/2 rows (built on first use)."""
        if self._sweep is None:
            h = np.flatnonzero(np.arange(self.n) <= self.inv)
            self._sweep = (h, np.where(self.inv[h] == h, 1.0, 2.0))
        return self._sweep

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

    def _check(self, name: str, observed: float, *norms: float) -> BoundCheck:
        """The verdict of record ``name``: its BOUNDS entry at D, times each norm in turn."""
        coefficient, power = BOUNDS[name]
        bound = coefficient * self.degree_power(power)
        for norm in norms:
            bound *= norm
        return BoundCheck(name, observed, bound, bound - observed)

    def _require(self, f: GroupFunction, name: str, **flags) -> None:
        if len(f) != self.n:
            raise ConstraintError(f"{name} has length {len(f)}, group order is {self.n}")
        if flags.get("disc") and not f.disc_valued:
            raise ConstraintError(f"{name} must be disc_valued")
        if flags.get("mean_zero") and not f.mean_zero:
            raise ConstraintError(f"{name} must be mean_zero")
        if flags.get("two_disc") and not (f.two_disc_valued or f.disc_valued):
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

    def _points(self, point: str, rows, out: np.ndarray) -> np.ndarray:
        """Write into the intp block ``out`` the element indices of the point p(g, x) for
        g in rows, a slice or an index array: "gx", "xg", "gxg^-1" or "xg^-1"."""
        if point == "xg^-1":  # column g^-1 of mul
            point, rows = "xg", self.inv[rows]
        table = {"gx": self.mul, "xg": self.mul.T, "gxg^-1": self.conj}[point]
        if isinstance(rows, slice):
            np.copyto(out, table[rows])  # a view of the table, widened straight into out
        else:  # one row per g: fancy indexing the rows makes a block
            for row, g in zip(out, rows.tolist()):
                row[:] = table[g]
        return out

    def _chunk_rows(self, floor: int = 1) -> int:
        """The most rows a chunk of _gathered(..., floor=floor) holds."""
        return next(row_chunks(self.n, self.n, floor)).stop

    def _gathered(self, *terms, g: Optional[np.ndarray] = None, floor: int = 1):
        """Yield (rows, blocks) over row chunks of g, one block per (values, point) term.

        blocks[i][j, x] = values_i(p_i(g_j, x)), g_j = g[rows][j] for an index array g of
        elements.  g = None is every element, g_j = rows.start + j, and slices the tables
        where an index array copies its rows first.  No block is wider than one row_chunks
        slice with ``floor``: step3 and step4sub take GEMM_ROWS rows at least, so that
        their GEMM runs at speed, and every other kernel takes row_chunks' own.
        np.take gathers about twice as fast as fancy indexing.
        The blocks are views of complex scratch arrays this object keeps, so a caller
        uses each chunk's blocks before it takes the next; the caller may overwrite
        them.  The point indices go through an intp block that it also keeps, since
        np.take copies indices of any other dtype to a fresh intp array.  A fresh block
        per chunk (1 MB from n = 256 on) faulted in new pages on every gather whenever
        glibc malloc's dynamic mmap and trim thresholds had not yet risen that high,
        which left sl2:7's searches two to three times slower.
        """
        size = self._chunk_rows(floor)
        if self._index is None or len(self._index) < size:  # the blocks grow with it
            self._index = np.empty((size, self.n), dtype=np.intp)
            self._blocks = []
        while len(self._blocks) < len(terms):
            self._blocks.append(np.empty((size, self.n), dtype=np.complex128))
        for rows in row_chunks(self.n if g is None else len(g), self.n, floor):
            index = self._index[: rows.stop - rows.start]
            elements = rows if g is None else g[rows]
            yield rows, [
                # mode="clip" writes straight into out, where "raise" would buffer; every
                # index is a table entry, so none is clipped
                values.take(self._points(point, elements, index), out=block[: len(index)],
                            mode="clip")
                for (values, point), block in zip(terms, self._blocks)
            ]

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
        return _ConjState(self, "lemma", (u, v)).check

    def corollary_lhs(self, u: GroupFunction, v: GroupFunction) -> Tuple[BoundCheck, BoundCheck]:
        """Mean-square deviation of the conjugation matrix coefficient.

        observed = (1/n) Σ_g |⟨u, π^g v⟩ − ⟨E(u|Φ), E(v|Φ)⟩|² for the
        conjugation action π.  Both cross terms of the centered parts vanish
        (E(u₀|Φ) = E(v₀|Φ) = 0), so the deviation is c(u₀, v₀)[g] exactly and
        observed = mean_g |c(u₀,v₀)[g]|².  Two checks are returned for the same
        observed value: the D^(-1/2)·‖u‖₂²‖v‖₂² bound and the sharper D^(-1) one.
        """
        return _ConjState(self, "corollary", (u, v)).checks

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

    def theorem_lhs(self, f1: GroupFunction, f2: GroupFunction, f3: GroupFunction) -> BoundCheck:
        """Averaged deviation of the triple correlation from its structured product.

        observed = (1/n) Σ_g |(1/n) Σ_x f1(x)f2(gx)f3(xg)
                              − mean(f1)·(1/n) Σ_x E(f2|Φ)(x)E(f3|Φ)(x)|;
        bound = 4·D^(-1/8).  Disc-valued inputs force observed ≤ 2, which is
        asserted unconditionally (a violation is an implementation bug).
        """
        return _TripleState(self, "theorem", (f1, f2, f3)).check

    def step1_reduced_lhs(
        self, f1: GroupFunction, f2: GroupFunction, f3: GroupFunction
    ) -> BoundCheck:
        """First-moment form after centering f1.

        observed = (1/n) Σ_g |(1/n) Σ_x f1(x)f2(gx)f3(xg)| with f1 in the
        radius-2 disc, mean-zero, ‖f1‖₂ ≤ 1; bound = 3·D^(-1/8).
        """
        return _TripleState(self, "step1", (f1, f2, f3)).check

    def step2_squared(self, f1: GroupFunction, f2: GroupFunction, f3: GroupFunction) -> BoundCheck:
        """Second-moment form with the absolute values removed.

        observed = (1/n) Σ_g |(1/n) Σ_x f3(x)·f1(xg⁻¹)·f2(gxg⁻¹)|²;
        bound = 5·D^(-1/4).  After x → xg the inner integral is step1's inner[g]
        of _TripleState, squared where step1 takes its modulus (Cauchy–Schwarz
        over g); the state also checks its gather of inner[g] at a sample of g.
        """
        return _TripleState(self, "step2", (f1, f2, f3)).check

    def step3_intermediate(self, f1: GroupFunction, f2: GroupFunction) -> BoundCheck:
        """Expanded two-variable form driven through the diagonal expectation.

        observed = (1/n) Σ_h ∫ F1·conj(F1)T̃^h·E(F2·conj(F2)S̃^hT̃^h | Δ) dμ⊗²
        with F_i = f_i ⊗ conj(f_i); bound = 25·D^(-1/2).  Each h-term is a
        correlation pairing of a_h(x) = f2(x)·conj(f2(hxh⁻¹)) with
        b_h(x) = f1(x)·conj(f1(xh⁻¹)); by Plancherel over the irreps ρ it equals
        Σ_ρ d_ρ·tr(V_h*V_h·Y_h*Y_h) with V_h = Σ_x conj a_h(x)ρ(x) and
        Y_h = Σ_x b_h(x)ρ(x), so observed = Σ_h Σ_ρ d_ρ·tr(V_h*V_h·Y_h*Y_h)/n⁵.
        A chunk of h takes one real GEMM against the Fourier basis, and each trace is
        the pairing of the two Grams' real parts (_real_grams): a real number, since
        tr(PQ) is real for Hermitian P and Q.  The h⁻¹ term equals the h term (the term
        of ρ at h⁻¹ is the conjugate of the term of ρ̄ at h), so the sum runs over one h
        of each pair {h, h⁻¹}, with weight 2, or 1 where h² = e.  The value is ≥ 0 (a
        trace of two positive matrices); a negative rounding residue is clamped to 0.
        """
        self._require(f1, "f1", two_disc=True, mean_zero=True, unit_l2=True)
        self._require(f2, "f2", disc=True)
        basis = self.fourier()
        hs, weights = self._half_sweep()
        operand, product = _gemm_buffers(basis, 4 * self._chunk_rows(GEMM_ROWS))
        conj_f2 = np.conj(f2.values)
        total = 0.0
        terms = ((f2.values, "gxg^-1"), (np.conj(f1.values), "xg^-1"))
        for rows, (conj_a, b) in self._gathered(*terms, g=hs, floor=GEMM_ROWS):
            conj_a *= conj_f2
            b *= f1.values
            weight, m = weights[rows], len(b)
            for d, parts in _real_grams(basis, (conj_a, b), operand, product):  # V_h, then Y_h
                for part in parts:
                    pairs = np.einsum("ij,ij->i", part[:m].reshape(m, -1), part[m:].reshape(m, -1))
                    total += d * float(weight @ pairs)
        return self._check("step3", _real_nonnegative(total / self.n**5, "step3_intermediate"))

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
        return self._check("step4", float(np.mean(abs2(inner_t) * abs2(inner_c))))

    def _substitution_distances(
        self, conj_a: np.ndarray, operand: np.ndarray, product: np.ndarray
    ) -> np.ndarray:
        """The step-4 substitution distance at each h of the rows conj_a[j, x] = conj a_h(x).

        a_h(x) = f2(x)·conj f2(hxh⁻¹), and ``operand`` and ``product`` are _gemm_buffers
        of at least 2·len(conj_a) rows.
        observed_h = ‖E(F2·conj(F2)S̃^hT̃^h | Δ) − |(1/n) Σ f2·conj(f2(h·h⁻¹))|²‖ in L²(μ⊗μ),
        the twisted diagonal expectation's distance from its scalar mean.  E(·|Δ)
        reduces the pair function to the profile φ_h(z) = (1/n) Σ_x a_h(x)·conj(a_h(xz)),
        and subtracting the scalar removes exactly its trivial Fourier component,
        so by Plancherel observed_h² = Σ_{ρ≠1} d_ρ·‖V_h*V_h‖²_F / n⁴, one real GEMM of
        step3's kind with ‖V*V‖²_F = ‖S‖²_F + ‖A‖²_F (_real_grams).  a_{h⁻¹}(hyh⁻¹) =
        conj a_h(y), so V_{h⁻¹} in ρ is the conjugate of ρ(h)·V_h·ρ(h)⁻¹ in ρ̄, with the
        same Frobenius norms: observed_{h⁻¹} = observed_h.
        """
        m = len(conj_a)
        total = np.zeros(m)
        basis = self.fourier()
        for d, parts in _real_grams(basis, (conj_a,), operand, product, drop_trivial=True):
            for part in parts:
                flat = part.reshape(m, -1)
                total += d * np.einsum("ij,ij->i", flat, flat)
        return np.sqrt(total) / self.n**2

    def step4_substitution_sweep(self, f2: GroupFunction) -> BoundCheck:
        """The worst of _substitution_distances over every h in the group; bound = D^(-1/2).

        The distance at h⁻¹ is the distance at h, so the sweep takes its maximum over
        one h of each pair {h, h⁻¹}.
        """
        self._require(f2, "f2", disc=True)
        hs, _ = self._half_sweep()
        operand, product = _gemm_buffers(self.fourier(), 2 * self._chunk_rows(GEMM_ROWS))
        conj_f2 = np.conj(f2.values)
        worst = 0.0
        for _, (conj_a,) in self._gathered((f2.values, "gxg^-1"), g=hs, floor=GEMM_ROWS):
            conj_a *= conj_f2
            worst = max(worst, float(self._substitution_distances(conj_a, operand, product).max()))
        return self._check("step4_lemma_substitution", worst)


def _state_inputs(functions, moved) -> list:
    """What a state's moves change: a private copy of ``moved``, else the functions' values."""
    if moved is None:
        return [f.values for f in functions]
    return [np.array(a, dtype=np.complex128) for a in moved]


class _TripleState:
    """theorem, step1 or step2 at one point, as inner[g] = (1/n) Σ_x first(x)·f2(gx)·f3(xg).

    Construction is the one evaluation of theorem_lhs, step1_reduced_lhs and
    step2_squared: the input checks, one gather of inner[g], its reduction to
    ``check`` and, for step2, a check of that gather at a sample of g.  ``functions``
    are (f1, f2, f3) as the check takes them, f1 centered for step1 and step2.
    A search also passes ``moved``, the raw vectors its O(n) moves change.

    A move changes one entry p of one input by δ, and that entry enters
    inner[g] in one term per g: at x = p for f1, x = g⁻¹p for f2 and x = pg⁻¹
    for f3.  theorem also keeps mean(f1), E(f2|Φ) and E(f3|Φ) for its
    structured term; a search on centered f1 keeps q[g] = (1/n) Σ_x f2(gx)·f3(xg),
    because moving f1 by δ shifts first by −δ/n everywhere, which adds
    −(δ/n)·q[g].  The disc clip may also re-round other entries that sit on
    the unit circle up to rounding; those changes are left to drift, which a
    search bounds at each restart's end: maximize evaluates the end point in
    full and raises if the two values part by more than 1e-12 relative.
    """

    def __init__(
        self, harmonic: Harmonic, objective: str, functions: Sequence[GroupFunction],
        moved: Optional[Sequence[np.ndarray]] = None,
    ):
        self.h = harmonic
        self.objective = objective
        self.centered_f1 = objective != "theorem"
        f1, f2, f3 = functions
        if self.centered_f1:
            harmonic._require(f1, "f1", two_disc=True, mean_zero=True, unit_l2=True)
        else:
            harmonic._require(f1, "f1", disc=True)
        harmonic._require(f2, "f2", disc=True)
        harmonic._require(f3, "f3", disc=True)
        self.first = f1.values
        self.inputs = _state_inputs(functions, moved)
        pair_sums = self.centered_f1 and moved is not None
        self.inner, self.extra = harmonic._triple_inner(f1.values, f2.values, f3.values, pair_sums)
        if not self.centered_f1:
            self.extra = [f1.values.mean()] + [harmonic._class_average(f.values) for f in (f2, f3)]
        if objective == "step2":
            self._check_gather(f2.values, f3.values)
        self.check = harmonic._check(objective, self._observed(self.inner, self.extra))
        self._pending = None

    def _check_gather(self, f2: np.ndarray, f3: np.ndarray) -> None:
        """inner[g] must equal the mean of its row first(x)·f2(gx)·f3(xg) on a fixed sample of g.

        The row is read from ``mul[g]`` and ``mul[:, g]``, not through _points, and the
        complex values are compared, so a wrong point or a wrong phase in the gather is caught.
        """
        h = self.h
        step = max(1, h.n // 8) if h.n <= 512 else max(1, h.n // 3)
        for g in range(0, h.n, step):
            mean = complex((self.first * f2.take(h.mul[g]) * f3.take(h.mul[:, g])).sum()) / h.n
            if abs(mean - self.inner[g]) > STEP2_IDENTITY_TOL:
                raise RuntimeError(
                    f"step2 gather check failed at g={g}: inner={self.inner[g]} vs row mean={mean}"
                )

    def _observed(self, inner: np.ndarray, extra) -> float:
        """The objective from inner[g] and, for theorem, the structured term's parts.

        theorem's value is at most 2 for disc inputs; a value above that is an
        implementation bug and raised unconditionally.  Each reduction takes a
        sum and one division: np.mean's numbers without its per-call overhead,
        which the search pays on every move.
        """
        if self.objective == "step1":
            return float(np.abs(inner).sum() / inner.size)
        if self.objective == "step2":
            return float(abs2(inner).sum() / inner.size)
        deviation = np.abs(inner - self.h._structured(*extra))
        observed = float(deviation.sum() / deviation.size)
        if observed > 2.0 + 1e-9:
            raise RuntimeError(f"triple correlation deviation {observed} exceeds the ceiling 2")
        return observed

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
        if self.centered_f1:
            if slot == 0:
                inner -= delta * self.extra
                extra = self.extra
            else:
                extra = self.extra + delta * pair
        else:
            extra = list(self.extra)
            extra[slot] = vals.mean() if slot == 0 else h._class_average(vals)
        value = self._observed(inner, extra)
        self._pending = (slot, vals, inner, extra)
        return value

    def accept(self) -> None:
        """Move to the point of the last propose."""
        slot, vals, self.inner, self.extra = self._pending
        self.inputs[slot] = vals
        if slot == 0:
            self.first = vals - vals.mean() if self.centered_f1 else vals


class _ConjState:
    """lemma or corollary at one point, as centered conjugation coefficients.

    Construction is the one evaluation of lemma_gap and corollary_lhs: the
    input checks, the centering, one gather per coefficient and the reduction
    to ``checks`` (corollary's published and sharp records, or lemma's one),
    whose first is ``check``.  ``functions`` are (u, v); a search also passes
    ``moved``, the raw vectors it then moves in O(n) per move, as _TripleState.

    With a₀ = a − E(a|Φ) and c(a, b)[g] = (1/n) Σ_x a(x)·conj b(gxg⁻¹), lemma
    keeps c(u₀,u₀) and c(v₀,v₀), corollary keeps c(u₀,v₀).  Moving u by δ at
    y shifts u₀ by Δ = δ·(e_y − 1_C/|C|) on y's class C.  Every centered function
    sums to 0 over each class, so the constant part drops out of the cross
    terms, and for every b₀
      c(u₀ + Δ, b₀)[g] = c(u₀, b₀)[g] + (δ/n)·conj b₀(gyg⁻¹),
      c(b₀, u₀ + Δ)[g] = c(b₀, u₀)[g] + (conj δ/n)·b₀(g⁻¹yg),
      c(Δ, Δ)[g] = (|δ|²/n)·([g centralizes y] − 1/|C|).
    Renormalizing to the unit sphere divides each coefficient by the norm
    once per factor that moved.
    """

    def __init__(
        self, harmonic: Harmonic, objective: str, functions: Sequence[GroupFunction],
        moved: Optional[Sequence[np.ndarray]] = None,
    ):
        self.h = harmonic
        self.lemma = objective == "lemma"
        u, v = functions
        for name, f in (("u", u), ("v", v)):
            harmonic._require(f, name)
            if not np.isfinite(f.norm2):
                raise ConstraintError(f"{name} is too large: its L2 norm overflows float64")
        self.inputs = _state_inputs(functions, moved)
        self.centered = [f.values - harmonic._class_average(f.values) for f in (u, v)]
        if self.lemma:
            self.coeffs = [harmonic._coefficients(a, a, "gxg^-1") for a in self.centered]
        else:
            self.coeffs = [harmonic._coefficients(*self.centered, "gxg^-1")]
        with np.errstate(over="raise", invalid="raise"):
            try:
                observed = self._observed(self.coeffs)
            except FloatingPointError:  # finite norms whose product overflows, raised below
                observed = np.inf
        if self.lemma:
            self.checks = (harmonic._check("lemma", observed, u.norm2, v.norm2),)
        else:
            scale = u.norm2**2 * v.norm2**2
            names = ("corollary", "corollary_sharp")
            self.checks = tuple(harmonic._check(name, observed, scale) for name in names)
        self.check = self.checks[0]
        if not np.isfinite(self.check.margin):
            raise ConstraintError(f"u and v are too large together: {objective} overflows float64")
        self._pending = None

    def _observed(self, coeffs) -> float:
        """lemma's sqrt(mean_g c(u₀,u₀)[g]·c(v₀,v₀)[g]), or corollary's mean_g |c(u₀,v₀)[g]|².

        lemma's guard has the scale ‖u₀‖₂²‖v₀‖₂² = |c(u₀,u₀)[e]·c(v₀,v₀)[e]|,
        so its tolerance is relative and an input of any norm never raises
        spuriously.
        """
        if not self.lemma:
            return float(abs2(coeffs[0]).sum() / coeffs[0].size)
        cu, cv = coeffs
        identity = self.h.group.identity
        scale = abs(complex(cu[identity] * cv[identity]))
        total = complex((cu * cv).sum() / cu.size)
        return float(np.sqrt(_real_nonnegative(total, "lemma_gap", scale)))

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
        else:
            if slot == 0:
                cross = delta * np.conj(self.centered[1].take(moved))
            else:
                cross = np.conj(delta) * self.centered[0].take(moved[h.inv])
            coeffs[0] = (coeffs[0] + cross) / norm
        value = self._observed(coeffs)
        self._pending = (slot, vals, norm, coeffs)
        return value

    def accept(self) -> None:
        """Move to the point of the last propose."""
        slot, vals, norm, self.coeffs = self._pending
        self.inputs[slot] = vals / norm
        self.centered[slot] = self.inputs[slot] - self.h._class_average(self.inputs[slot])
