"""Class matrices, numeric character tables, quasi-randomness degree, isotypic projections,
and unitary irreducible representations (the Fourier basis)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import List, Optional, Tuple

import numpy as np

from ._numutil import abs2, row_chunks
from .groups import (
    ConjugacyStructure,
    FiniteGroup,
    _generators,
    commutator_subgroup,
    conjugacy_classes,
)

__all__ = [
    "CharacterTable",
    "FourierBasis",
    "QuasiRandomnessDegree",
    "SpectralData",
    "DegenerateSpectrumError",
    "SpectralInconsistencyError",
    "class_algebra",
    "character_table",
    "fourier_basis",
    "quasirandomness_degree",
    "spectral_data",
    "isotypic_project",
    "conjugation_multiplicity",
]

DEFAULT_ORTHO_TOL = 1e-8
DEFAULT_DEGREE_TOL = 1e-6
DEFAULT_ATTEMPTS = 20
_SPECTRA_TAG = 0x5350
_FOURIER_TAG = 0x4652  # fixed: the basis never depends on a user seed
BASIS_TOL = 1e-10
"""Largest homomorphism residue, or unitarity residue of a generator's rho(s), a basis may show."""
SPLIT_GAP = 1e-3
"""Smallest relative gap that separates one irreducible eigenspace of the commutant."""
PROBE_SIZE = 3
"""Elements (each with its inverse) in the support of one commutant probe."""
_CHUNK_ENTRIES = 1 << 20  # int64 entries per pair-count batch (8 MB)


class DegenerateSpectrumError(RuntimeError):
    """Random class-matrix combinations kept producing a non-simple spectrum."""


class SpectralInconsistencyError(RuntimeError):
    """Character data contradicts an independent structural cross-check."""


@dataclass(eq=False)
class CharacterTable:
    """Irreducible characters: values[r, c] is character r on class c.

    Rows are sorted by (degree, rounded real parts, rounded imaginary parts); columns
    follow the canonical conjugacy-class order.  ``trivial_row`` indexes the
    all-ones row.
    """

    values: np.ndarray  # (k, k) complex128
    degrees: np.ndarray  # (k,) int64
    trivial_row: int
    ortho_tol: float = DEFAULT_ORTHO_TOL  # the orthogonality tolerance the table was accepted at


@dataclass(frozen=True)
class QuasiRandomnessDegree:
    """Minimal degree of a nontrivial irreducible character.

    ``degree`` is None for the trivial group (no nontrivial rows exist, so the
    group is vacuously quasi-random of every degree and every D-power bound is
    reported as 0).  ``witness_row`` indexes a minimizing table row.
    """

    degree: Optional[int]
    witness_row: Optional[int]


def _pair_counts(group: FiniteGroup, classes: ConjugacyStructure, targets: np.ndarray):
    """Yield exact counts[b, i, j] = #{x in C_i : x^-1 * z_b in C_j} for the targets z_b,
    in order, in batches whose temporaries hold at most _CHUNK_ENTRIES entries.

    x = z_b * w is a bijection with x^-1 * z_b = w^-1, so the count runs over w
    with i = class(z_b * w), read from the contiguous rows mul[z_b], and
    j = class(w^-1).
    """
    k = classes.num_classes
    cls = classes.class_of.astype(np.int64)
    left_code, right_code = cls * k, cls[group.inv]  # code i*k + j of a pair (i, j)
    step = max(1, _CHUNK_ENTRIES // max(group.order, k * k))
    for start in range(0, len(targets), step):
        batch = targets[start : start + step]
        codes = left_code[group.mul[batch]]  # [b, w] -> class(z_b * w) * k
        codes += right_code
        codes += (np.arange(len(batch)) * k * k)[:, None]
        counts = np.bincount(codes.ravel(), minlength=len(batch) * k * k)
        yield counts.reshape(-1, k, k)


def _check_class_constancy(group: FiniteGroup, classes: ConjugacyStructure) -> None:
    """Every element's pair counts must equal those of its class's first member.

    Conjugation maps the pairs for z onto those for g z g^-1, so on a true
    class partition they agree; singleton classes (all, if abelian) are skipped.
    """
    for c in np.nonzero(classes.class_sizes > 1)[0]:
        members = np.nonzero(classes.class_of == c)[0]
        expect = next(_pair_counts(group, classes, members[:1]))
        for counts in _pair_counts(group, classes, members[1:]):
            if (counts != expect).any():
                raise SpectralInconsistencyError("class product counts not constant on classes")


def class_algebra(
    group: FiniteGroup, classes: ConjugacyStructure, coeffs: np.ndarray
) -> np.ndarray:
    """The (k, k) combination sum_i coeffs[i] * M_i of class multiplication matrices.

    With C_i * C_j = sum_l a[i, j, l] * C_l for the class sums, (M_i)[l, j] =
    a[i, j, l].  Row l is coeffs times the exact pair counts of representative
    z_l, one length-k dot product per entry; no (k, k, k) array is formed.
    """
    rows = [coeffs @ counts for counts in _pair_counts(group, classes, classes.representatives)]
    return np.concatenate(rows)


def _sorted_rows(rows: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Stable row order by degree, then the real parts, then the imaginary parts, each
    rounded to 6 digits and compared column by column."""
    re = np.round(rows.real, 6)
    im = np.round(rows.imag, 6)
    return np.lexsort((*im.T[::-1], *re.T[::-1], degrees))  # the last key sorts first


def character_table(
    group: FiniteGroup,
    classes: ConjugacyStructure,
    *,
    rng: Optional[np.random.Generator] = None,
    ortho_tol: float = DEFAULT_ORTHO_TOL,
) -> CharacterTable:
    """Compute the character table from the class algebra numerically.

    A random positive combination of the class multiplication matrices
    (M_i)[l, j] = constants[i, j, l] has the plain character rows as
    eigenvectors; simple eigenvalues identify them up to scale.  Each
    eigenvector is rescaled to satisfy row orthonormality in the weighted
    metric, phase-fixed so the identity-class entry (the degree) is real and
    positive, and the whole table is polished to the nearest weighted-unitary
    matrix.  Attempts with colliding eigenvalues are retried with fresh
    weights up to DEFAULT_ATTEMPTS times before DegenerateSpectrumError is raised.
    ``ortho_tol`` bounds both Grams after the polish, where they are rounding
    (s:7's column Gram: 4.5e-12); the eigensolver's residues before it go
    unchecked (s:7's column residue: 3.4e-9 against the default 1e-8).
    """
    if not 0.0 < ortho_tol < np.inf:  # also catches nan, which would disable every residue test
        raise ValueError(f"orthogonality tolerance must be finite and > 0, got {ortho_tol}")
    _check_class_constancy(group, classes)
    n = group.order
    k = classes.num_classes
    sizes = classes.class_sizes.astype(np.float64)
    id_class = int(classes.class_of[group.identity])
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence((0, _SPECTRA_TAG)))
    weight = np.sqrt(sizes / n)

    failure = "no attempt made"
    for _ in range(DEFAULT_ATTEMPTS):
        coeffs = rng.uniform(1.0, 2.0, size=k)
        combined = class_algebra(group, classes, coeffs)
        evals, evecs = np.linalg.eig(combined)
        scale = max(1.0, float(np.abs(evals).max()))
        gaps = np.abs(evals[:, None] - evals[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < 1e-6 * scale:
            failure = "eigenvalue collision"
            continue

        rows = np.empty((k, k), dtype=np.complex128)
        usable = True
        for r in range(k):
            vec = evecs[:, r]
            norm = np.sqrt(float((sizes * abs2(vec)).sum()) / n)
            if not np.isfinite(norm) or norm < 1e-12:
                usable = False
                break
            vec = vec / norm
            pivot = vec[id_class]
            if abs(pivot) < 1e-8:
                usable = False
                break
            rows[r] = vec * (pivot.conjugate() / abs(pivot))
        if not usable:
            failure = "degenerate eigenvector"
            continue

        # Polish: snap the weighted table to the nearest unitary matrix, then
        # re-fix each row's phase.  This drives both orthogonality residues to
        # machine precision without moving any entry more than the original
        # eigensolver error.
        weighted = rows * weight[None, :]
        u_mat, _, vh_mat = np.linalg.svd(weighted)
        rows = (u_mat @ vh_mat) / weight[None, :]
        pivots = rows[:, id_class]
        if (np.abs(pivots) < 1e-8).any():
            failure = "vanishing degree entry"
            continue
        rows = rows * (pivots.conjugate() / np.abs(pivots))[:, None]

        raw_degrees = rows[:, id_class].real
        degrees = np.rint(raw_degrees).astype(np.int64)
        if np.abs(raw_degrees - degrees).max() > DEFAULT_DEGREE_TOL or (degrees < 1).any():
            failure = "non-integral degree"
            continue
        if int((degrees**2).sum()) != n:
            failure = "degree squares do not sum to the order"
            continue

        order = _sorted_rows(rows, degrees)
        rows = rows[order]
        degrees = degrees[order]

        trivial_rows = np.nonzero(np.abs(rows - 1.0).max(axis=1) < 1e-6)[0]
        if len(trivial_rows) != 1:
            failure = "trivial row not unique"
            continue

        row_gram = (rows * (sizes / n)[None, :]) @ rows.conj().T
        if np.abs(row_gram - np.eye(k)).max() > ortho_tol:
            failure = "row orthogonality residue too large"
            continue
        col_gram = rows.T @ rows.conj()
        col_target = np.diag(n / sizes)
        if np.abs(col_gram - col_target).max() > ortho_tol:
            failure = "column orthogonality residue too large"
            continue

        return CharacterTable(rows, degrees, int(trivial_rows[0]), ortho_tol)

    raise DegenerateSpectrumError(
        f"no usable spectrum after {DEFAULT_ATTEMPTS} attempts (last failure: {failure})"
    )


def quasirandomness_degree(table: CharacterTable, group_is_perfect: bool) -> QuasiRandomnessDegree:
    """Minimal nontrivial character degree, cross-checked against perfectness.

    The minimum is 1 exactly when the group has a nontrivial degree-1
    character, i.e. when the commutator subgroup is proper; a mismatch with
    the supplied perfectness flag raises SpectralInconsistencyError.
    """
    nontrivial = [r for r in range(len(table.degrees)) if r != table.trivial_row]
    if not nontrivial:
        if not group_is_perfect:
            raise SpectralInconsistencyError(
                "no nontrivial characters, yet the commutator subgroup is proper"
            )
        return QuasiRandomnessDegree(None, None)
    witness = min(nontrivial, key=lambda r: int(table.degrees[r]))
    degree = int(table.degrees[witness])
    if (degree == 1) != (not group_is_perfect):
        raise SpectralInconsistencyError(
            f"minimal nontrivial degree {degree} contradicts perfectness={group_is_perfect}"
        )
    return QuasiRandomnessDegree(degree, witness)


def isotypic_project(
    group: FiniteGroup,
    classes: ConjugacyStructure,
    table: CharacterTable,
    values: np.ndarray,
    row: int,
) -> np.ndarray:
    """Project a function onto one isotypic component of the conjugation action.

    Averaging the conjugation translates of f against the character:
    (P_r f)(x) = (d_r / n) * sum_h chi_r(h) f(h x h^-1).  The projections are
    idempotent, mutually orthogonal, and sum to the identity; the trivial row
    reproduces class averaging.  The sum over h runs in row chunks, so no
    n×n complex array is formed.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (group.order,):
        raise ValueError(f"expected {group.order} values, got shape {values.shape}")
    chi = table.values[row][classes.class_of]
    weights = (table.degrees[row] / group.order) * chi
    conj = group.conjugation_table()
    parts = (weights[h] @ values.take(conj[h]) for h in row_chunks(group.order, group.order))
    return reduce(np.add, parts)


def conjugation_multiplicity(table: CharacterTable, row: int) -> int:
    """Multiplicity of character ``row`` in the conjugation action on functions.

    The conjugation action fixes |centralizer(g)| points at g, and pairing
    that fixed-point count with the character reduces to a plain sum of the
    conjugated character values over the classes.
    """
    total = np.conj(table.values[row]).sum()
    if abs(total.imag) > 1e-6 or abs(total.real - round(total.real)) > 1e-6:
        raise SpectralInconsistencyError(
            f"conjugation multiplicity of row {row} is not a clean integer: {total}"
        )
    m = int(round(total.real))
    if m < 0:
        raise SpectralInconsistencyError(f"negative multiplicity {m} for row {row}")
    return m


@dataclass(eq=False)
class FourierBasis:
    """Unitary irreducible representations, one per character-table row, as one matrix.

    ``matrix[x, offset_r + i*d_r + j]`` = ρ_r(x)[i, j], rows r in table order
    (d_r² columns each, Σd_r² = n), so ``values @ matrix`` holds the Fourier
    coefficients Σ_x f(x)ρ(x) of every row of ``values`` at once.  ``runs``
    lists (d, column slice) for each run of consecutive rows of equal degree;
    ``trivial_column`` is the column of the trivial representation.
    """

    matrix: np.ndarray  # (n, n) complex128
    runs: Tuple[Tuple[int, slice], ...]
    trivial_column: int


def _probe_weights(rng: np.random.Generator, size: int) -> np.ndarray:
    """Complex Gaussian weights for a commutant probe.

    They must be complex: on a quaternionic row, real weights give a probe that
    commutes with the row's antiunitary structure, so every eigenvalue is double
    (Kramers) and no draw splits the row.
    """
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _isotypic_factor(group: FiniteGroup, phi: np.ndarray, d: int, row: int) -> np.ndarray:
    """An n×d² orthonormal frame of the chi-isotypic component, by pivoted Cholesky.

    P[x, y] = phi(y^-1 x), phi = (d/n)·conj chi, is the orthogonal projection onto
    the component (rank d², constant diagonal d²/n), and its column p is one
    O(n) gather.  d² greedy pivots give L with L L* = P (Harbrecht, Peters and
    Schneider, Appl. Numer. Math. 62 (2012)).  A pivot residual that vanishes
    before d² pivots, or one left after them, means P has another rank: the
    table's degree for this row is wrong.  Otherwise L*L - I is below
    n·tol = BASIS_TOL·d² in norm, and one Newton-Schulz step,
    L <- L (3I - L*L)/2 (Björck and Bowie, SIAM J. Numer. Anal. 8 (1971)),
    squares that residue down to rounding with two GEMMs.
    """
    n = group.order
    m = d * d
    tol = BASIS_TOL * m / n
    factor = np.empty((n, m), dtype=np.complex128)
    residual = np.full(n, phi[group.identity].real)
    for k in range(m):
        p = int(np.argmax(residual))
        pivot = residual[p]
        if not pivot > tol:  # also catches nan
            raise SpectralInconsistencyError(
                f"row {row} (degree {d}): isotypic projection has rank {k}, not degree² = {m} "
                f"(pivot residual {pivot:.3g})"
            )
        column = phi.take(group.mul[group.inv[p]])
        column -= factor[:, :k] @ factor[p, :k].conj()
        column /= np.sqrt(pivot)
        factor[:, k] = column
        residual -= abs2(column)
    if not residual.max() <= tol:
        raise SpectralInconsistencyError(
            f"row {row} (degree {d}): isotypic projection has rank above degree² = {m} "
            f"(residual {residual.max():.3g} after {m} pivots)"
        )

    gram = np.zeros((m, m), dtype=np.complex128)
    for rows in row_chunks(n, m):
        gram += factor[rows].conj().T @ factor[rows]
    step = (3 * np.eye(m) - gram) / 2
    for rows in row_chunks(n, m):
        factor[rows] = factor[rows] @ step
    return factor


def _irreducible_frame(
    group: FiniteGroup, phi: np.ndarray, d: int, rng: np.random.Generator, row: int
) -> np.ndarray:
    """An n×d orthonormal frame of one left-invariant irreducible subspace of type chi.

    A Hermitian right convolution R[x, y] = c(x^-1 y), c(g^-1) = conj c(g),
    commutes with the left action and acts on the isotypic component with d
    eigenvalues of multiplicity d; its lowest eigenspace is irreducible.  c is
    supported on PROBE_SIZE random elements t and their inverses, so on the
    frame L, (R L)[x] = sum_t c(t)·L[x t] costs O(n·d²) per support element.
    Draws whose lowest cluster is not separated are retried.
    """
    n = group.order
    m = d * d
    frame = _isotypic_factor(group, phi, d, row)
    failure = "no attempt made"
    for _ in range(DEFAULT_ATTEMPTS):
        t = rng.integers(0, n, size=PROBE_SIZE)
        c = _probe_weights(rng, PROBE_SIZE)
        support, weights = np.concatenate([t, group.inv[t]]), np.concatenate([c, c.conj()])
        herm = np.zeros((m, m), dtype=np.complex128)
        for rows in row_chunks(n, m):
            at = group.mul[rows][:, support]  # x t for each support element t
            image = sum(w * frame[at[:, j]] for j, w in enumerate(weights))  # (R L)[rows]
            herm += frame[rows].conj().T @ image
        evals, evecs = np.linalg.eigh((herm + herm.conj().T) / 2)
        scale = float(np.abs(evals).max())
        if evals[d - 1] - evals[0] > BASIS_TOL * scale:
            failure = "lowest eigenvalue cluster is not d-fold"
        elif evals[d] - evals[d - 1] < SPLIT_GAP * scale:
            failure = "lowest eigenvalue cluster is not separated"
        else:
            return frame @ evecs[:, :d]
    raise DegenerateSpectrumError(
        f"row {row} (degree {d}): no separated irreducible subspace after "
        f"{DEFAULT_ATTEMPTS} attempts (last failure: {failure})"
    )


def _check_basis(
    group: FiniteGroup,
    classes: ConjugacyStructure,
    table: CharacterTable,
    basis: FourierBasis,
    gens: List[int],
) -> None:
    """Raise SpectralInconsistencyError unless the basis holds unitary irreps of the table.

    rho(s)rho(x) = rho(sx) for every generator s (closed under inverses) and
    every x makes rho a homomorphism; unitary rho(s) makes every rho(g) unitary;
    tr rho = chi on orthonormal table rows makes each block irreducible and the
    rows inequivalent.  So Schur orthogonality holds: E*E = I for E scaled by
    sqrt(d/n) per column, with no n×n product formed.
    """
    n = group.order
    E = basis.matrix
    homomorphism = unitarity = 0.0
    for d, cols in basis.runs:
        for s in gens:
            rho_s = E[s, cols].reshape(-1, d, d)
            residue = rho_s @ rho_s.conj().transpose(0, 2, 1) - np.eye(d)
            unitarity = max(unitarity, float(np.abs(residue).max()))
            for rows in row_chunks(n, n):
                if d == 1:
                    lhs = E[s, cols] * E[rows, cols]
                else:
                    lhs = rho_s @ E[rows, cols].reshape(-1, len(rho_s), d, d)
                rhs = E[group.mul[s, rows], cols].reshape(lhs.shape)
                homomorphism = max(homomorphism, float(np.abs(lhs - rhs).max()))
    if homomorphism > BASIS_TOL:
        raise SpectralInconsistencyError(f"Fourier basis homomorphism residue {homomorphism:.3g}")
    if unitarity > BASIS_TOL:
        raise SpectralInconsistencyError(f"Fourier basis unitarity residue {unitarity:.3g}")

    offsets = np.cumsum(table.degrees**2) - table.degrees**2
    traces = np.stack(
        [E[:, off : off + d * d : d + 1].sum(axis=1) for off, d in zip(offsets, table.degrees)]
    )
    worst = float(np.abs(traces - table.values[:, classes.class_of]).max())
    if worst > table.ortho_tol:
        raise SpectralInconsistencyError(
            f"Fourier basis trace differs from the characters by {worst:.3g}"
        )


def fourier_basis(
    group: FiniteGroup, classes: ConjugacyStructure, table: CharacterTable
) -> FourierBasis:
    """Unitary irreducible representations of every table row, from the Cayley table.

    Degree-1 rows are their characters.  For every other row an irreducible
    subspace of the regular representation is split off (Dixon, Math. Comp. 24
    (1970), numerically), rho(s) = W* lambda(s) W is formed on a few random
    generators s, and every rho(x) follows along a breadth-first tree over them:
    rho(s y) = rho(s) rho(y).  _check_basis certifies the result on those generators.
    Random draws come from a fixed seed, so the basis is a function of the table.
    """
    n = group.order
    rng = np.random.default_rng(np.random.SeedSequence(_FOURIER_TAG))
    gens, layers = _generators(group, rng)
    degrees = table.degrees
    offsets = np.concatenate([[0], np.cumsum(degrees**2)])
    E = np.empty((n, n), dtype=np.complex128)
    for r, d in enumerate(degrees):
        chi = table.values[r][classes.class_of]
        if d == 1:
            E[:, offsets[r]] = chi
            continue
        frame = _irreducible_frame(group, (d / n) * chi.conj(), int(d), rng, r)
        # (lambda(s) W)[y] = W[s^-1 y]
        rho_gens = np.stack([frame.conj().T @ frame[group.mul[group.inv[s]]] for s in gens])
        rho = E[:, offsets[r] : offsets[r + 1]].reshape(n, d, d)  # a view: filled in place
        rho[group.identity] = np.eye(d)
        for children, gen_index, parents in layers:
            rho[children] = rho_gens[gen_index] @ rho[parents]

    starts = np.flatnonzero(np.diff(degrees, prepend=0))
    ends = np.append(starts[1:], len(degrees))
    runs = tuple(
        (int(degrees[a]), slice(int(offsets[a]), int(offsets[b]))) for a, b in zip(starts, ends)
    )
    basis = FourierBasis(E, runs, int(offsets[table.trivial_row]))
    _check_basis(group, classes, table, basis, gens)
    return basis


@dataclass(eq=False)
class SpectralData:
    """Bundle of everything the bound calculus needs about one group."""

    group: FiniteGroup
    classes: ConjugacyStructure
    table: CharacterTable
    quasirandomness: QuasiRandomnessDegree
    is_perfect: bool


def spectral_data(
    group: FiniteGroup,
    *,
    seed: int = 0,
    ortho_tol: float = DEFAULT_ORTHO_TOL,
) -> SpectralData:
    """Compute classes, character table and quasi-randomness degree."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    classes = conjugacy_classes(group)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _SPECTRA_TAG)))
    table = character_table(group, classes, rng=rng, ortho_tol=ortho_tol)
    is_perfect = len(commutator_subgroup(group, classes)) == group.order
    degree = quasirandomness_degree(table, is_perfect)
    return SpectralData(group, classes, table, degree, is_perfect)
