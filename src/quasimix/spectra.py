"""Class matrices, numeric character tables, quasi-randomness degree, isotypic projections."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._numutil import abs2
from .groups import (
    ConjugacyStructure,
    FiniteGroup,
    commutator_subgroup,
    conjugacy_classes,
)

__all__ = [
    "CharacterTable",
    "QuasiRandomnessDegree",
    "SpectralData",
    "DegenerateSpectrumError",
    "SpectralInconsistencyError",
    "class_algebra",
    "character_table",
    "quasirandomness_degree",
    "spectral_data",
    "isotypic_project",
    "conjugation_multiplicity",
    "is_multiplicity_free",
]

DEFAULT_ORTHO_TOL = 1e-8
DEFAULT_DEGREE_TOL = 1e-6
DEFAULT_ATTEMPTS = 20
_SPECTRA_TAG = 0x5350
_CHUNK_ENTRIES = 1 << 20  # int64 entries per pair-count batch (8 MB)


class DegenerateSpectrumError(RuntimeError):
    """Random class-matrix combinations kept producing a non-simple spectrum."""


class SpectralInconsistencyError(RuntimeError):
    """Character data contradicts an independent structural cross-check."""


@dataclass(eq=False)
class CharacterTable:
    """Irreducible characters: values[r, c] is character r on class c.

    Rows are sorted by (degree, lexicographic rounded real parts); columns
    follow the canonical conjugacy-class order.  ``trivial_row`` indexes the
    all-ones row.
    """

    values: np.ndarray  # (k, k) complex128
    degrees: np.ndarray  # (k,) int64
    trivial_row: int


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
    """
    k = classes.num_classes
    cls = classes.class_of.astype(np.int64)
    step = max(1, _CHUNK_ENTRIES // max(group.order, k * k))
    for start in range(0, len(targets), step):
        batch = targets[start : start + step]
        left = group.mul[group.inv[:, None], batch[None, :]]  # [x, b] = x^-1 * batch[b]
        codes = (np.arange(len(batch)) * k * k)[None, :] + cls[:, None] * k + cls[left]
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
    keys = []
    for r in range(len(rows)):
        re = tuple(np.round(rows[r].real, 6))
        im = tuple(np.round(rows[r].imag, 6))
        keys.append((int(degrees[r]), re, im, r))
    return np.array([key[-1] for key in sorted(keys)], dtype=np.int64)


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
    """
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
        col_gram = np.einsum("rc,rd->cd", rows, rows.conj())
        col_target = np.diag(n / sizes)
        if np.abs(col_gram - col_target).max() > ortho_tol:
            failure = "column orthogonality residue too large"
            continue

        return CharacterTable(rows, degrees, int(trivial_rows[0]))

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
    reproduces class averaging.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (group.order,):
        raise ValueError(f"expected {group.order} values, got shape {values.shape}")
    chi = table.values[row][classes.class_of]
    weights = (table.degrees[row] / group.order) * chi
    return weights @ values[group.conjugation_table()]


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


def is_multiplicity_free(
    group: FiniteGroup,
    classes: ConjugacyStructure,
    table: CharacterTable,
    row: int,
    rng: np.random.Generator,
) -> bool:
    """Detect multiplicity one via the rank of the isotypic projection.

    The projection rank equals multiplicity * degree, so probing with
    3*degree + 4 random vectors distinguishes rank == degree from any larger
    rank.  The result is cross-checked against the character-sum formula.
    """
    degree = int(table.degrees[row])
    probes = min(group.order, 3 * degree + 4)
    mat = np.empty((probes, group.order), dtype=np.complex128)
    for t in range(probes):
        probe = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        mat[t] = isotypic_project(group, classes, table, probe, row)
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = 0 if svals[0] < 1e-9 else int((svals > 1e-6 * svals[0]).sum())
    free = rank == degree
    if free != (conjugation_multiplicity(table, row) == 1):
        raise SpectralInconsistencyError(
            f"rank-based multiplicity detection disagrees with the character sum on row {row}"
        )
    return free


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
    classes = conjugacy_classes(group)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _SPECTRA_TAG)))
    table = character_table(group, classes, rng=rng, ortho_tol=ortho_tol)
    is_perfect = len(commutator_subgroup(group)) == group.order
    degree = quasirandomness_degree(table, is_perfect)
    return SpectralData(group, classes, table, degree, is_perfect)
