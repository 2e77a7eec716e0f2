"""Class matrices, exact character tables, quasi-randomness degree, isotypic projections,
and unitary irreducible representations (the Fourier basis)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, count
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
]

DEFAULT_ATTEMPTS = 20
_SPECTRA_TAG = 0x5350
_FOURIER_TAG = 0x4652  # fixed: the basis never depends on a user seed
BASIS_TOL = 1e-10
"""Largest homomorphism residue, or unitarity residue of a generator's rho(s), a basis may show."""
TRACE_TOL = 1e-8
"""Largest difference between tr rho and the table's characters a basis may show."""
SPLIT_GAP = 1e-3
"""Smallest relative gap that separates one irreducible eigenspace of the commutant."""
PROBE_SIZE = 3
"""Elements (each with its inverse) in the support of one commutant probe."""


class DegenerateSpectrumError(RuntimeError):
    """Random class-matrix combinations kept producing a non-simple spectrum."""


class SpectralInconsistencyError(RuntimeError):
    """Character data contradicts an independent structural cross-check."""


@dataclass(eq=False)
class CharacterTable:
    """Irreducible characters: values[r, c] is character r on class c.

    Rows are sorted by (degree, rounded real parts, rounded imaginary parts); columns
    follow the canonical conjugacy-class order.  ``trivial_row`` indexes the
    all-ones row.  ``conjugation_multiplicities[r]`` is the exact multiplicity of
    character r in the conjugation action on functions, sum_j chi_r(g_j^-1) over
    the classes: the action fixes |centralizer(g)| points at g.
    """

    values: np.ndarray  # (k, k) complex128
    degrees: np.ndarray  # (k,) int64
    trivial_row: int
    conjugation_multiplicities: np.ndarray  # (k,) int64


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
    in order, in row_chunks batches of the (targets, max(n, k²)) temporaries.

    x = z_b * w is a bijection with x^-1 * z_b = w^-1, so the count runs over w
    with i = class(z_b * w), read from the contiguous rows mul[z_b], and
    j = class(w^-1).
    """
    k = classes.num_classes
    cls = classes.class_of.astype(np.int64)
    left_code, right_code = cls * k, cls[group.inv]  # code i*k + j of a pair (i, j)
    for rows in row_chunks(len(targets), max(group.order, k * k)):
        batch = targets[rows]
        codes = left_code[group.mul[batch]]  # [b, w] -> class(z_b * w) * k
        codes += right_code
        codes += (np.arange(len(batch)) * k * k)[:, None]
        counts = np.bincount(codes.ravel(), minlength=len(batch) * k * k)
        yield counts.reshape(-1, k, k)


def _check_classes(group: FiniteGroup, classes: ConjugacyStructure) -> None:
    """Certify in O(n·k) that class c is the orbit of z = representatives[c]: every g^-1 z g is in
    c, and |c|·|C(z)| = n, C(z) = {g : g^-1 z g = z}, so by orbit-stabilizer the orbit fills c."""
    n, k = group.order, classes.num_classes
    reps, cls, sizes = classes.representatives, classes.class_of, classes.class_sizes
    if not (len(sizes) == k and np.array_equal(cls[reps], np.arange(k))
            and np.array_equal(sizes, np.bincount(cls))):
        raise SpectralInconsistencyError("class_of, representatives and class_sizes disagree")
    for rows in row_chunks(k, n):
        conj = group.mul[group.inv, group.mul[reps[rows]]]  # [b, g] = g^-1 * z_b * g
        if ((cls[conj] != np.arange(k)[rows, None]).any()
                or ((conj == reps[rows, None]).sum(axis=1) * sizes[rows] != n).any()):
            raise SpectralInconsistencyError("a class is not its representative's conjugacy class")


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


def _stable_order(keys, n: int) -> np.ndarray:
    """The order of n rows under one stable sort per key column in turn: the last key decides
    first, and rows equal on every key keep their index order."""
    order = np.arange(n)
    for key in keys:
        order = order[np.argsort(key[order], kind="stable")]
    return order


def _sorted_rows(rows: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Stable row order by degree, then the real parts, then the imaginary parts, each rounded
    to 6 digits, column by column: one stable sort per key, so no rounded table is formed."""
    keys = (*rows.imag.T[::-1], *rows.real.T[::-1], degrees)  # the last key sorts first
    return _stable_order((np.round(key, 6) for key in keys), len(rows))


def _abelian_exponents(group: FiniteGroup) -> Tuple[np.ndarray, List[int]]:
    """Exponents t (int32) of an abelian group's characters, chi_r(x) = exp(2πi·t[r, x]/n),
    and the generators they extend along: from H = {1}, the least g outside H and the least m
    with g^m in H.  g^a·h (a < m, h in H) lists <H, g> once each, and a character psi of H
    extends in m ways, chi(g) = psi(g^m)^(1/m) times an m-th root of 1, chi(g^a·h) = a·chi(g)
    + psi(h)."""
    n = group.order
    elems, exps = np.array([group.identity]), np.zeros((1, 1), dtype=np.int32)
    position = np.full(n, -1)
    position[group.identity] = 0
    gens: List[int] = []
    while len(elems) < n:
        g = int(np.argmax(position < 0))
        powers = [group.identity, g]
        while position[powers[-1]] < 0:
            powers.append(int(group.mul[powers[-1], g]))
        m = len(powers) - 1
        step = np.arange(m, dtype=np.int32)
        at_g = exps[:, position[powers.pop()]] // m + (n // m) * step[:, None]  # (m, |H|)
        exps = step[:, None] * at_g[:, :, None, None] + exps[:, None, :]  # [(b, psi), (a, h)]
        exps %= n
        exps = exps.reshape(m * len(elems), m * len(elems))
        elems = group.mul[np.array(powers)[:, None], elems].ravel()
        position[elems] = np.arange(len(elems))
        gens.append(g)
    return exps[:, position], gens


def _abelian_rows(group: FiniteGroup) -> np.ndarray:
    """Route A: the characters of a group whose classes are all singletons, in table order.

    Exponents additive on the generators make every row a homomorphism G -> Z/n, and n
    distinct ones are all n characters of an abelian group.  The rows are sorted on their
    exponents and lifted once, in row chunks: a rounded real or imaginary part depends only
    on the exponent, so ranking the n rounded values once keeps every comparison and every
    tie of _sorted_rows' keys (every degree is 1), and ranks below 2^16 sort by radix."""
    n = group.order
    exps, gens = _abelian_exponents(group)
    for g in gens:
        for block in (exps[rows] for rows in row_chunks(n, n)):
            if ((block[:, group.mul[g]] - block[:, [g]] - block) % n).any():
                raise SpectralInconsistencyError(f"character exponents not additive at {g}")
    if len(np.unique(exps[:, gens], axis=0)) != n:
        raise SpectralInconsistencyError("abelian characters are not distinct")
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    ranks = [np.unique(np.round(part, 6), return_inverse=True)[1].astype(np.min_scalar_type(n))
             for part in (roots.imag, roots.real)]
    order = _stable_order((rank[exps[:, x]] for rank in ranks for x in range(n - 1, -1, -1)), n)
    values = np.empty((n, n), dtype=np.complex128)
    for rows in row_chunks(n, n):
        values[rows] = roots[exps[order[rows]]]
    return values


def _solve_mod(m: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """x with m @ x = b mod p by Gauss-Jordan elimination, or None if m is singular mod p."""
    aug, unit = np.column_stack([m, b]) % p, np.eye(len(m), dtype=np.int64)
    for col in range(len(m)):
        pivot = col + int(np.argmax(aug[col:, col] != 0))
        if aug[pivot, col] == 0:
            return None
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), -1, p) % p
        aug[:, col:] = (aug[:, col:] - np.outer(aug[:, col] - unit[col], aug[col, col:])) % p
    return aug[:, -1]


def _modular_rows(group: FiniteGroup, classes: ConjugacyStructure, rng: np.random.Generator):
    """Dixon's modular route: characters and degrees exact mod p, lifted to C, in table order."""
    n, k = group.order, classes.num_classes
    reps, sizes = classes.representatives, classes.class_sizes
    inv_class, id_class = classes.class_of[group.inv[reps]], int(classes.class_of[group.identity])
    power, order, power_class = reps, np.zeros(k, dtype=np.int64), [np.full(k, id_class)]
    while not order.all():  # power_class[s][j] = class of g_j^s
        order[(order == 0) & (power == group.identity)] = len(power_class)
        power_class.append(classes.class_of[power])
        power = group.mul[power, reps]
    power_class = np.stack(power_class, axis=1)
    e, bound = int(np.lcm.reduce(order)), max(2 * n, k * k)  # a draw collides w.p. < k²/2p < 1/2
    p = next(q for q in count(bound // e * e + 1, e)
             if q > bound and all(q % r for r in range(2, math.isqrt(q) + 1)))

    eye, t = np.eye(k, dtype=np.int64), np.arange(p)
    for _ in range(DEFAULT_ATTEMPTS):
        a = class_algebra(group, classes, rng.integers(0, p, size=k)) % p
        # A^i e_1, e_1 the sum of the central idempotents: with k distinct eigenvalues they are
        # independent, and A^k e_1 = -sum_i low[i]·A^i e_1 gives t^k + sum_i low[i]·t^i
        krylov = list(accumulate(range(k), lambda v, _: a @ v % p, initial=eye[id_class]))
        low = _solve_mod(np.array(krylov[:k]).T, -krylov[k], p)
        if low is not None:
            break
    else:
        raise DegenerateSpectrumError(f"eigenvalue collision mod {p}, {DEFAULT_ATTEMPTS} attempts")
    roots = np.flatnonzero(reduce(lambda acc, c: (acc * t + c) % p, low[::-1], 1) == 0)  # Horner
    if len(roots) != k:
        raise SpectralInconsistencyError(f"class-matrix combination has {len(roots)} < {k} roots")

    # row r: prod over mu != roots[r] of (A - mu) on e_1, as sum_i quot[i]·A^(k-1-i) e_1
    quot = accumulate(low[:0:-1], lambda q, c: (c + roots * q) % p, initial=np.ones(k, np.int64))
    vecs = np.array(list(quot)).T @ np.array(krylov[k - 1 :: -1]) % p
    v = vecs * np.array([pow(int(x), p - 2, p) for x in vecs[:, id_class]])[:, None] % p
    norm = (v * sizes % p * v[:, inv_class] % p).sum(axis=1) % p  # n / d² mod p
    square = [n * pow(int(x), p - 2, p) % p for x in norm]  # x^(p-2) inverts x, and 0 -> 0
    degrees = np.array([math.isqrt(x) for x in square], dtype=np.int64)
    if (degrees < 1).any() or (degrees**2 != square).any() or int((degrees**2).sum()) != n:
        raise SpectralInconsistencyError("degrees are not integers whose squares sum to the order")
    chi = degrees[:, None] * v % p
    if not np.array_equal((chi * sizes % p) @ chi[:, inv_class].T % p, n * eye):
        raise SpectralInconsistencyError(f"characters are not orthogonal mod {p}")
    # sum_j chi(g_j^-1) is a multiplicity in [0, k·d], and k·d <= max(k², n) < p
    mults = chi[:, inv_class].sum(axis=1) % p

    # a primitive e-th root of unity: some x^((p-1)/e) has order exactly e
    z = next(w for w in (pow(x, (p - 1) // e, p) for x in range(2, p))
             if all(pow(w, e // q, p) != 1 for q in range(2, e + 1) if e % q == 0))
    values, lifted = np.empty((k, k), dtype=np.complex128), np.zeros(k, dtype=bool)
    while not lifted.all():  # eigenvalue multiplicities of rho(g_j), g_j of greatest order left
        j = int(np.argmax(np.where(lifted, 0, order)))
        o, powers = int(order[j]), power_class[j, : order[j]]
        ls = np.outer(range(o), range(o)) % o
        mult = chi[:, powers] @ np.array([pow(z, -x * e // o, p) for x in range(o)])[ls] % p
        mult = mult * pow(o, -1, p) % p
        if (mult > degrees[:, None]).any() or (mult.sum(axis=1) != degrees).any():
            raise SpectralInconsistencyError(f"multiplicities at class {j} do not sum to d")
        # rho(g^s) has the eigenvalue zeta^(l·s) wherever rho(g) has zeta^l
        values[:, powers] = mult @ np.exp(2j * np.pi * ls / o)
        lifted[powers] = True
    rank = _sorted_rows(values, degrees)
    return values[rank], degrees[rank], mults[rank]


def character_table(
    group: FiniteGroup,
    classes: ConjugacyStructure,
    *,
    rng: Optional[np.random.Generator] = None,
) -> CharacterTable:
    """The exact character table: route A (_abelian_rows, whose n distinct homomorphisms G -> Z/n
    make G abelian) when every class is a singleton, else Dixon's modular method (_modular_rows
    on classes _check_classes certifies; Dixon, Numer. Math. 10 (1967); Schneider, J. Symbolic
    Comput. 9 (1990)).  Both certify their integers exactly and round only the roots of unity a
    value sums.  ``rng`` draws the class-algebra combination."""
    n = group.order
    if classes.num_classes == n:
        # route A's column c is element c, the labelling conjugacy_classes gives singletons
        ids = np.arange(n)
        if not (np.array_equal(classes.class_of, ids)
                and np.array_equal(classes.representatives, ids)
                and np.array_equal(classes.class_sizes, np.ones(n))):
            raise SpectralInconsistencyError("singleton classes are not numbered by their element")
        # conjugation fixes every function on an abelian group: all n are in the trivial row,
        # which sorts last
        rows, degrees = _abelian_rows(group), np.ones(n, dtype=np.int64)
        mults = np.append(np.zeros(n - 1, dtype=np.int64), n)
    else:
        _check_classes(group, classes)
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence((0, _SPECTRA_TAG)))
        rows, degrees, mults = _modular_rows(group, classes, rng)
    if int(mults @ degrees) != n:  # the conjugation action on functions has dimension n
        raise SpectralInconsistencyError("sum of multiplicity times degree is not the order")
    # every other linear character has a real part at most cos(2π/n) somewhere, which
    # rounds below 1 up to MAX_ORDER, so the trivial row sorts last of degree 1
    return CharacterTable(rows, degrees, int((degrees == 1).sum()) - 1, mults)


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


@dataclass(eq=False)
class FourierBasis:
    """Unitary irreducible representations, one per character-table row, as one real matrix.

    The Fourier coefficients Σ_x f(x)ρ_r(x) of a function f are n complex numbers;
    ρ_r(x)[i, j] is at column ``offsets[r] + i*d_r + j`` (d_r² columns a row, Σd_r² = n).
    The rows of Frobenius–Schur indicator +1 come first, in table order, with real
    orthogonal ρ_r: ``matrix`` holds their R = ``real_columns`` columns as they are.  The
    other rows follow, in table order, in complex form: ``matrix`` holds the real parts of
    columns R to n in its columns R to n, and their imaginary parts in its columns n to
    2n − R.  So ``matrix`` is n×(2n − R) float64 (8n·(2n − R) bytes), and ``transform``
    takes the coefficients of many functions with one real GEMM.  ``runs`` lists
    (d, column slice) for each run of consecutive blocks of equal degree and one type;
    ``trivial_column`` is the column of the trivial representation.
    """

    matrix: np.ndarray  # (n, 2n - real_columns) float64
    real_columns: int
    offsets: np.ndarray  # (k,) int64: the first column of each table row
    runs: Tuple[Tuple[int, slice], ...]
    trivial_column: int

    def transform(self, values: np.ndarray) -> np.ndarray:
        """The (b, n) complex Fourier coefficients of the b rows of ``values``.

        One GEMM of [Re values; Im values] against ``matrix``: a real column's two products
        are its coefficient's real and imaginary parts, and on a complex column ρ = A + iB,
        (Re f + i·Im f)·ρ = (Re f·A − Im f·B) + i·(Re f·B + Im f·A).
        """
        n, b, r = len(self.matrix), len(values), self.real_columns
        stacked = np.concatenate([values.real, values.imag]) @ self.matrix
        top, bottom = stacked[:b], stacked[b:]
        coeffs = np.empty((b, n), dtype=np.complex128)
        coeffs.real[:, :r], coeffs.imag[:, :r] = top[:, :r], bottom[:, :r]
        np.subtract(top[:, r:n], bottom[:, n:], out=coeffs.real[:, r:])
        np.add(top[:, n:], bottom[:, r:n], out=coeffs.imag[:, r:])
        return coeffs


def _rho(basis: FourierBasis, rows, cols: slice) -> np.ndarray:
    """The entries of coefficient columns ``cols``, all of one type, at the elements ``rows``:
    as stored on the real columns, real part plus i times imaginary part on the others."""
    part = basis.matrix[rows, cols]
    if cols.start < basis.real_columns:
        return part
    shift = basis.matrix.shape[1] - len(basis.matrix)
    return part + 1j * basis.matrix[rows, cols.start + shift : cols.stop + shift : cols.step]


def _indicators(group: FiniteGroup, classes: ConjugacyStructure, table: CharacterTable):
    """The Frobenius–Schur indicator ν(χ) = (1/n)·Σ_x χ(x²) of every row, as exact integers.

    ν is +1, 0 or −1 as χ is the character of a real, a complex or a quaternionic irrep
    (Serre, Linear Representations of Finite Groups (1977), §13.2).  Column orthogonality,
    Σ_χ χ(1)·χ(g) = n·[g = e], gives Σ_χ ν(χ)·χ(1) = #{x : x² = e}, an identity between
    integers.  SpectralInconsistencyError is raised unless every ν rounds to −1, 0 or 1,
    that count holds, and every row of ν = +1 is real.  One O(n) pass over x ↦ x².
    """
    n, k = group.order, classes.num_classes
    squares = np.bincount(classes.class_of[np.diagonal(group.mul)], minlength=k)
    sums = table.values @ squares / n
    nu = np.rint(sums.real)
    off = ~((np.abs(sums - nu) <= TRACE_TOL) & np.isin(nu, (-1, 0, 1)))  # nan is off too
    if off.any():
        row = int(np.argmax(off))
        raise SpectralInconsistencyError(
            f"row {row}: Frobenius–Schur indicator {complex(sums[row]):.6g} is not -1, 0 or 1"
        )
    nu, identity = nu.astype(np.int64), classes.class_of[group.identity]
    # χ(1) from the values: a wrong degree is the rank check's to name (_isotypic_factor)
    count = int(nu @ np.rint(table.values[:, identity].real).astype(np.int64))
    involutions = int(squares[identity])
    if count != involutions:
        raise SpectralInconsistencyError(
            f"Frobenius–Schur count {count} is not #{{x : x² = e}} = {involutions}"
        )
    nonreal = (nu == 1) & (np.abs(table.values.imag) > TRACE_TOL).any(axis=1)
    if nonreal.any():
        row = int(np.argmax(nonreal))
        raise SpectralInconsistencyError(f"row {row} has indicator +1 but a non-real character")
    return nu


def _probe_weights(rng: np.random.Generator, size: int) -> np.ndarray:
    """Complex Gaussian weights for the commutant probe of a row whose indicator is not +1.

    They must be complex: on a quaternionic row, real weights give a probe that
    commutes with the row's antiunitary structure, so every eigenvalue is double
    (Kramers) and no draw splits the row.  A row of indicator +1 is built in real
    arithmetic, and its probe takes real weights (_irreducible_frame).
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
    squares that residue down to rounding with two GEMMs.  L has phi's dtype: a
    real chi makes P real symmetric, and the factor real.
    """
    n = group.order
    m = d * d
    tol = BASIS_TOL * m / n
    factor = np.empty((n, m), dtype=phi.dtype)
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

    gram = np.zeros((m, m), dtype=factor.dtype)
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
    A real phi (indicator +1) gives a real frame and takes real weights, c(t^-1) =
    c(t): R is then real symmetric in the commutant M_d(R) of the real component,
    so its lowest eigenspace is a real irreducible copy.  Any other row takes the
    complex _probe_weights.  Draws whose lowest cluster is not separated are retried.
    """
    n = group.order
    m = d * d
    frame = _isotypic_factor(group, phi, d, row)
    failure = "no attempt made"
    for _ in range(DEFAULT_ATTEMPTS):
        t = rng.integers(0, n, size=PROBE_SIZE)
        if np.iscomplexobj(frame):
            c = _probe_weights(rng, PROBE_SIZE)
        else:
            c = rng.standard_normal(PROBE_SIZE)
        support, weights = np.concatenate([t, group.inv[t]]), np.concatenate([c, c.conj()])
        herm = np.zeros((m, m), dtype=frame.dtype)
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
    sqrt(d/n) per column, with no n×n product formed.  Each run is read in its
    own type, so the real blocks are certified in real arithmetic.
    """
    n = group.order
    homomorphism = unitarity = 0.0
    for d, cols in basis.runs:
        rho_gens = [_rho(basis, s, cols).reshape(-1, d, d) for s in gens]
        for rho_s in rho_gens:
            residue = rho_s @ rho_s.conj().transpose(0, 2, 1) - np.eye(d)
            unitarity = max(unitarity, float(np.abs(residue).max()))
        for rows in row_chunks(n, n):
            block = _rho(basis, rows, cols).reshape(rows.stop - rows.start, -1, d, d)
            for s, rho_s in zip(gens, rho_gens):
                lhs = rho_s * block if d == 1 else rho_s @ block
                rhs = _rho(basis, group.mul[s, rows], cols).reshape(lhs.shape)
                homomorphism = max(homomorphism, float(np.abs(lhs - rhs).max()))
    if homomorphism > BASIS_TOL:
        raise SpectralInconsistencyError(f"Fourier basis homomorphism residue {homomorphism:.3g}")
    if unitarity > BASIS_TOL:
        raise SpectralInconsistencyError(f"Fourier basis unitarity residue {unitarity:.3g}")

    traces = np.stack([
        _rho(basis, slice(None), slice(int(off), int(off + d * d), int(d + 1))).sum(axis=1)
        for off, d in zip(basis.offsets, table.degrees)
    ])
    worst = float(np.abs(traces - table.values[:, classes.class_of]).max())
    if worst > TRACE_TOL:
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
    rho(s y) = rho(s) rho(y).  A row of Frobenius–Schur indicator +1 (_indicators)
    runs all of this in real arithmetic, so its rho is real orthogonal; the other
    rows run it in complex.  _check_basis certifies the result on the generators.
    Random draws come from a fixed seed, so the basis is a function of the table.
    """
    n = group.order
    real = _indicators(group, classes, table) == 1
    rng = np.random.default_rng(np.random.SeedSequence(_FOURIER_TAG))
    gens, layers = _generators(group, rng)
    degrees = table.degrees
    order = np.argsort(~real, kind="stable")  # the real rows first, each type in table order
    ends = np.cumsum(degrees[order] ** 2)
    offsets = np.empty(len(degrees), dtype=np.int64)
    offsets[order] = ends - degrees[order] ** 2
    real_columns = int((degrees[real] ** 2).sum())
    shift = n - real_columns  # from a complex column's real part to its imaginary part
    E = np.empty((n, n + shift))
    for r, d in enumerate(degrees):
        chi = table.values[r][classes.class_of]
        cols = slice(int(offsets[r]), int(offsets[r] + d * d))
        if real[r]:
            chi = chi.real
            rho = E[:, cols].reshape(n, d, d)  # a view: filled in place
        else:
            rho = np.empty((n, d, d), dtype=np.complex128)
        if d == 1:
            rho[:, 0, 0] = chi
        else:
            frame = _irreducible_frame(group, (d / n) * chi.conj(), int(d), rng, r)
            # (lambda(s) W)[y] = W[s^-1 y]
            rho_gens = np.stack([frame.conj().T @ frame[group.mul[group.inv[s]]] for s in gens])
            rho[group.identity] = np.eye(d)
            for children, gen_index, parents in layers:
                rho[children] = rho_gens[gen_index] @ rho[parents]
        if not real[r]:
            E[:, cols] = rho.real.reshape(n, -1)
            E[:, cols.start + shift : cols.stop + shift] = rho.imag.reshape(n, -1)

    # runs of one degree and one type, over the blocks in column order
    new = np.diff(degrees[order], prepend=0) != 0
    new[1:] |= real[order][1:] != real[order][:-1]
    starts = np.flatnonzero(new)
    stops = np.append(starts[1:], len(degrees))
    bounds = np.concatenate([[0], ends])
    runs = tuple(
        (int(degrees[order[a]]), slice(int(bounds[a]), int(bounds[b])))
        for a, b in zip(starts, stops)
    )
    basis = FourierBasis(E, real_columns, offsets, runs, int(offsets[table.trivial_row]))
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
    ortho_tol: float = 1e-8,
) -> SpectralData:
    """Compute classes, character table and quasi-randomness degree.  ``seed`` draws the
    class-algebra combination, which the exact table does not depend on; ``ortho_tol`` is
    only validated, until the benchmark-only change of ROADMAP item 6 removes it."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 < ortho_tol < np.inf:  # also catches nan
        raise ValueError(f"orthogonality tolerance must be finite and > 0, got {ortho_tol}")
    classes = conjugacy_classes(group)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _SPECTRA_TAG)))
    table = character_table(group, classes, rng=rng)
    is_perfect = len(commutator_subgroup(group, classes)) == group.order
    degree = quasirandomness_degree(table, is_perfect)
    return SpectralData(group, classes, table, degree, is_perfect)
