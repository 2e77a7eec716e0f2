"""Slow, independent reference implementations used to cross-check the package.

Everything here works straight from the multiplication table with plain loops
or a deliberately different linear-algebra route, avoiding the package's own
vectorized kernels.  These are the "second set of books" for the test suite:
when a fast implementation and an oracle agree to near machine precision, a
shared bug is about the only way both could be wrong in the same place.
"""

from itertools import permutations
from typing import Optional

import numpy as np

from quasimix.adversary import SearchResult, _structured_start, evaluate_inputs
from quasimix.groups import (
    _CLASSES_TAG,
    TABLE_DTYPE,
    ConjugacyStructure,
    FiniteGroup,
    _generators,
    _tree_layers,
    group_from_table,
)
from quasimix.harmonic import (
    ConstraintError,
    GroupFunction,
    Harmonic,
    _disc_clip,
    _gemm_buffers,
    _unit_norm,
)
from quasimix.report import CHECKS
from quasimix._numutil import abs2, row_chunks
from quasimix.spectra import (
    BASIS_TOL,
    DEFAULT_ATTEMPTS,
    PROBE_SIZE,
    SPLIT_GAP,
    _FOURIER_TAG,
    _SPECTRA_TAG,
    CharacterTable,
    DegenerateSpectrumError,
    FourierBasis,
    SpectralInconsistencyError,
    _check_basis,
    _check_classes,
    _probe_weights,
    _sorted_rows,
    class_algebra,
    isotypic_project,
    spectral_data,
)


def product(group, a, b):
    """a * b, read from the multiplication table."""
    return int(group.mul[a, b])


def inverse(group, a):
    return int(group.inv[a])


def conjugate(group, g, x):
    """g * x * g^-1."""
    return product(group, product(group, g, x), inverse(group, g))


def brute_conjugacy_partition(group):
    """Conjugation orbits as a set of frozensets, via scalar products only."""
    orbits = set()
    for x in range(group.order):
        orbit = set()
        for g in range(group.order):
            gx = product(group, g, x)
            orbit.add(product(group, gx, inverse(group, g)))
        orbits.add(frozenset(orbit))
    return orbits


def regular_degrees(group, rng, attempts=8):
    """Irreducible degree multiset via the regular-representation commutant.

    A random class function c with c(g^-1) = conj(c(g)) yields a Hermitian
    matrix Z[x, y] = c(x·y^-1) commuting with the regular action.  Its
    eigenvalue clusters have sizes d², one per irreducible of degree d, so
    the sorted degree list falls out of plain eigvalsh multiplicities.
    Retries with a fresh c if two clusters happen to collide.
    """
    n = group.order
    partition = sorted(brute_conjugacy_partition(group), key=min)
    class_of = np.empty(n, dtype=np.int64)
    for idx, cls in enumerate(partition):
        for x in cls:
            class_of[x] = idx

    inv_class = np.empty(len(partition), dtype=np.int64)
    for idx, cls in enumerate(partition):
        inv_class[idx] = class_of[inverse(group, min(cls))]

    for _ in range(attempts):
        raw = rng.standard_normal(len(partition)) + 1j * rng.standard_normal(len(partition))
        sym = (raw + np.conj(raw[inv_class])) / 2  # c(g^-1) = conj(c(g))
        c = sym[class_of]
        Z = np.empty((n, n), dtype=np.complex128)
        for x in range(n):
            for y in range(n):
                Z[x, y] = c[product(group, x, inverse(group, y))]
        evals = np.sort(np.linalg.eigvalsh(Z))
        scale = max(1.0, float(np.abs(evals).max()))
        clusters = []
        start = 0
        for i in range(1, n + 1):
            if i == n or evals[i] - evals[i - 1] > 1e-6 * scale:
                clusters.append(i - start)
                start = i
        degrees = []
        ok = True
        for size in clusters:
            d = round(size**0.5)
            if d * d != size:
                ok = False
                break
            degrees.append(d)
        if ok and sum(d * d for d in degrees) == n:
            return sorted(degrees)
    raise RuntimeError("degree oracle failed to separate eigenvalue clusters")


def brute_class_constant(group, class_i, class_j, target_z):
    """Count pairs (x, y) in C_i x C_j with x·y = target_z, by plain loops."""
    count = 0
    for x in class_i:
        for y in class_j:
            if product(group, x, y) == target_z:
                count += 1
    return count


def brute_class_average(group, values):
    """Class averages via the orbit partition, no bincount."""
    out = np.empty(group.order, dtype=np.complex128)
    for cls in brute_conjugacy_partition(group):
        members = sorted(cls)
        avg = sum(values[m] for m in members) / len(members)
        for m in members:
            out[m] = avg
    return out


def brute_cond_exp_diag(group, dense):
    """(x, y) -> (1/n) sum_g F(gx, gy), cubic loops."""
    n = group.order
    out = np.empty((n, n), dtype=np.complex128)
    for x in range(n):
        for y in range(n):
            s = 0.0 + 0.0j
            for g in range(n):
                s += dense[product(group, g, x), product(group, g, y)]
            out[x, y] = s / n
    return out


def brute_fixed_tensor(group, u, v):
    """(x, y) -> (1/n) sum_g u(gxg^-1) v(gyg^-1), cubic loops."""
    n = group.order
    out = np.empty((n, n), dtype=np.complex128)
    for x in range(n):
        for y in range(n):
            s = 0.0 + 0.0j
            for g in range(n):
                s += u[conjugate(group, g, x)] * v[conjugate(group, g, y)]
            out[x, y] = s / n
    return out


def brute_theorem_lhs(group, f1, f2, f3):
    """Averaged triple-correlation deviation, scalar loops only."""
    n = group.order
    e2 = brute_class_average(group, f2)
    e3 = brute_class_average(group, f3)
    structured = (sum(f1) / n) * (sum(e2[x] * e3[x] for x in range(n)) / n)
    total = 0.0
    for g in range(n):
        inner = sum(
            f1[x] * f2[product(group, g, x)] * f3[product(group, x, g)] for x in range(n)
        ) / n
        total += abs(inner - structured)
    return total / n


def brute_step1_lhs(group, f1, f2, f3):
    n = group.order
    total = 0.0
    for g in range(n):
        inner = sum(
            f1[x] * f2[product(group, g, x)] * f3[product(group, x, g)] for x in range(n)
        ) / n
        total += abs(inner)
    return total / n


def brute_step2_squared(group, f1, f2, f3):
    """(1/n) sum_g |(1/n) sum_x f3(x) f1(xg^-1) f2(gxg^-1)|², scalar loops."""
    n = group.order
    total = 0.0
    for g in range(n):
        ginv = inverse(group, g)
        inner = 0.0 + 0.0j
        for x in range(n):
            inner += f3[x] * f1[product(group, x, ginv)] * f2[conjugate(group, g, x)]
        inner /= n
        total += abs(inner) ** 2
    return total / n


def brute_step2_pair_expansion(group, f1, f2, f3):
    """The same quantity through the two-variable pair functions F_i = f_i ⊗ conj(f_i).

    Triple (g, x, y) loops over the expanded integrand — the identity that
    licenses removing the absolute values in the second-moment step.
    """
    n = group.order

    def F(f, x, y):
        return f[x] * np.conj(f[y])

    total = 0.0 + 0.0j
    for g in range(n):
        ginv = inverse(group, g)
        s = 0.0 + 0.0j
        for x in range(n):
            for y in range(n):
                s += (
                    F(f3, x, y)
                    * F(f1, product(group, x, ginv), product(group, y, ginv))
                    * F(f2, conjugate(group, g, x), conjugate(group, g, y))
                )
        total += s / n**2
    return total / n


def brute_step3_quadruple(group, f1, f2):
    """Four-index (g, h, x, y) scalar loop for the expanded second moment.

    Computes ∫∫_{G²} ∫_{X²} F1T̃^g · conj(F1)T̃^{hg} · F2S̃^gT̃^g ·
    conj(F2)S̃^{hg}T̃^{hg} dμ⊗² dg dh with F_i = f_i ⊗ conj(f_i).
    """
    n = group.order

    def F(f, x, y):
        return f[x] * np.conj(f[y])

    total = 0.0 + 0.0j
    for g in range(n):
        for h in range(n):
            hg = product(group, h, g)
            ginv, hginv = inverse(group, g), inverse(group, hg)
            s = 0.0 + 0.0j
            for x in range(n):
                for y in range(n):
                    s += (
                        F(f1, product(group, x, ginv), product(group, y, ginv))
                        * np.conj(F(f1, product(group, x, hginv), product(group, y, hginv)))
                        * F(f2, conjugate(group, g, x), conjugate(group, g, y))
                        * np.conj(F(f2, conjugate(group, hg, x), conjugate(group, hg, y)))
                    )
            total += s / n**2
    return total / n**2


def brute_step3_second_moment(group, f1, f2):
    """∫_{X²} |∫_G F1T̃^g · F2S̃^gT̃^g dg|² dμ⊗² — the pre-expansion form."""
    n = group.order

    def F(f, x, y):
        return f[x] * np.conj(f[y])

    total = 0.0
    for x in range(n):
        for y in range(n):
            inner = 0.0 + 0.0j
            for g in range(n):
                ginv = inverse(group, g)
                inner += F(f1, product(group, x, ginv), product(group, y, ginv)) * F(
                    f2, conjugate(group, g, x), conjugate(group, g, y)
                )
            total += abs(inner / n) ** 2
    return total / n**2


def brute_step4_final(group, f1, f2):
    n = group.order
    total = 0.0
    for h in range(n):
        hinv = inverse(group, h)
        it = sum(f1[x] * np.conj(f1[product(group, x, hinv)]) for x in range(n)) / n
        ic = sum(f2[x] * np.conj(f2[conjugate(group, h, x)]) for x in range(n)) / n
        total += abs(it) ** 2 * abs(ic) ** 2
    return total / n


def brute_right_translation_corollary(group, f1):
    """(1/n) sum_h |<f1, f1(·h^-1)>|² for mean-zero f1 — the step4 cross-path."""
    n = group.order
    total = 0.0
    for h in range(n):
        hinv = inverse(group, h)
        ip = sum(f1[x] * np.conj(f1[product(group, x, hinv)]) for x in range(n)) / n
        total += abs(ip) ** 2
    return total / n


def class_structure_constants(group, classes):
    """The full (k, k, k) tensor a[i, j, l] of class-sum structure constants.

    C_i * C_j = sum_l a[i, j, l] * C_l.  One bincount over all n² products,
    divided by the size of the product's class: the dense O(k³)-memory route
    that the package's per-representative kernel replaces.
    """
    k = classes.num_classes
    cls = classes.class_of.astype(np.int64)
    idx = (cls[:, None] * k + cls[None, :]) * k + cls[group.mul]
    counts = np.bincount(idx.ravel(), minlength=k**3).reshape(k, k, k)
    constants, remainder = np.divmod(counts, classes.class_sizes[None, None, :])
    if remainder.any():
        raise AssertionError("class product counts not constant on classes")
    return constants


def column_minimum_conjugacy_classes(group):
    """Conjugacy classes by the column-minimum rule: column x of the full
    conjugation table is x's orbit, so its minimum labels x by the smallest
    member of its class.  The same np.unique step, order and dtypes as the package."""
    labels = group.conjugation_table().min(axis=0)
    reps, class_of, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    return ConjugacyStructure(
        class_of=class_of.astype(np.int32),
        representatives=reps.astype(np.int32),  # the minima are table entries
        class_sizes=sizes.astype(np.int64),
        num_classes=len(reps),
    )


def column_pair_counts(group, classes, targets):
    """counts[b, i, j] = #{x in C_i : x^-1 * z_b in C_j} for every target at once, over x:
    one (n, len(targets)) gather of x^-1 * z_b down the columns of the table."""
    k = classes.num_classes
    cls = classes.class_of.astype(np.int64)
    targets = np.asarray(targets)
    left = group.mul[group.inv[:, None], targets[None, :]]  # [x, b] = x^-1 * z_b
    codes = (np.arange(len(targets)) * k * k)[None, :] + cls[:, None] * k + cls[left]
    counts = np.bincount(codes.ravel(), minlength=len(targets) * k * k)
    return counts.reshape(-1, k, k)


def tensor_class_combination(group, classes, coeffs):
    """sum_i coeffs[i] * M_i with (M_i)[l, j] = a[i, j, l], through the full tensor."""
    mats = np.transpose(class_structure_constants(group, classes), (0, 2, 1)).astype(np.float64)
    return np.tensordot(coeffs, mats, axes=1)


def tuple_sorted_rows(rows, degrees):
    """Character-row order by Python tuple keys: (degree, rounded real parts, rounded
    imaginary parts, row index), compared element by element by ``sorted``."""
    keys = []
    for r in range(len(rows)):
        re = tuple(np.round(rows[r].real, 6))
        im = tuple(np.round(rows[r].imag, 6))
        keys.append((int(degrees[r]), re, im, r))
    return np.array([key[-1] for key in sorted(keys)], dtype=np.int64)


def dense_isotypic_project(group, classes, table, values, row):
    """isotypic_project in one gather: the n×n array of conjugation translates, unchunked."""
    chi = table.values[row][classes.class_of]
    weights = (table.degrees[row] / group.order) * chi
    return weights @ np.asarray(values, dtype=np.complex128)[group.conjugation_table()]


def proj_fixed_tensor(h, u, v):
    """Average u ⊗ v over the diagonal conjugation action, as a dense n×n array.

    The pair-storage route that lemma_gap replaced.
    """
    U = u.values[h.conj]
    V = v.values[h.conj]
    return (U.T @ V) / h.n


def dense_lemma_gap(h, u, v):
    """lemma's observed value from P°(u⊗v) minus P°(E(u|Φ)⊗E(v|Φ)): two dense GEMMs."""
    projected = proj_fixed_tensor(h, u, v)
    cu = cond_exp_conj(h, u).values
    cv = cond_exp_conj(h, v).values
    fixed = (cu[h.conj].T @ cv[h.conj]) / h.n
    return float(np.sqrt(np.mean(np.abs(projected - fixed) ** 2)))


def dense_corollary_lhs(h, u, v):
    """corollary's observed value from ⟨u, π^g v⟩ − ⟨E(u|Φ), E(v|Φ)⟩, uncentered, unchunked."""
    inner = (np.conj(v.values)[h.conj] @ u.values) / h.n
    cu = cond_exp_conj(h, u).values
    cv = cond_exp_conj(h, v).values
    fixed_term = (np.conj(cv)[h.conj] @ cu) / h.n
    return float(np.mean(np.abs(inner - fixed_term) ** 2))


def dense_step4_final(h, f1, f2):
    """step4's observed value with both autocorrelations as unchunked n×n gathers."""
    inner_t = (f1.values @ np.conj(f1.values)[h.mul[:, h.inv]]) / h.n
    inner_c = (np.conj(f2.values)[h.conj] @ f2.values) / h.n
    return float(np.mean(np.abs(inner_t) ** 2 * np.abs(inner_c) ** 2))


def twisted_step2_squared(h, f1, f2, f3):
    """step2's observed value from its own twisted gather, one matvec per row chunk of g.

    inner[g] = (1/n) Σ_x f3(x)·f1(xg⁻¹)·f2(gxg⁻¹) as rows f1(xg⁻¹)·f2(gxg⁻¹) times
    f3: the route step2_squared took before it read step1's triple state.
    """
    inner = np.empty(h.n, dtype=np.complex128)
    for rows, (t1, c2) in h._gathered((f1.values, "xg^-1"), (f2.values, "gxg^-1")):
        inner[rows] = ((t1 * c2) @ f3.values) / h.n
    return float(np.mean(np.abs(inner) ** 2))


def loop_step3_intermediate(group, f1, f2):
    """step3's observed value by the per-h profile loop (O(n³) gathers), complex.

    For each h: a_h(x) = f2(x)·conj(f2(hxh⁻¹)) and b_h(x) = f1(x)·conj(f1(xh⁻¹))
    reduce to the profiles φ_h(z) = (1/n) Σ_x a_h(x)·conj(a_h(xz)) and
    ψ_h(z) = Σ_x b_h(x)·conj(b_h(xz)); the value is Σ_h φ_h·ψ_h / n³.
    """
    n = group.order
    mul, inv, conj = group.mul, group.inv, group.conjugation_table()
    total = 0.0 + 0.0j
    for h in range(n):
        a = f2 * np.conj(f2[conj[h]])
        phi = (a @ np.conj(a)[mul]) / n
        b = f1 * np.conj(f1[mul[:, inv[h]]])
        psi = b @ np.conj(b)[mul]
        total += phi @ psi
    return total / n**3


def loop_substitution_distance(group, f2, h):
    """step4's substitution distance at one h from the profile φ_h, no Fourier basis."""
    n = group.order
    a = f2 * np.conj(f2[group.conjugation_table()[h]])
    phi = (a @ np.conj(a)[group.mul]) / n
    scalar = np.abs(a.mean()) ** 2
    return float(np.sqrt(np.mean(np.abs(phi - scalar) ** 2)))


# -- test inputs and test-only wrappers around the package -----------------------

# Latin square, two-sided identity 0, every element self-inverse — but not
# associative: (1*1)*2 = 2 while 1*(1*2) = 1*3 = 4.
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def brute_is_group(table):
    """Whether a table is a group, over all n³ triples: associative, with a two-sided
    identity and two-sided inverses."""
    mul = np.asarray(table)
    idx = np.arange(len(mul))
    if not np.array_equal(mul[mul], mul[:, mul]):  # [x, y, z]: (x*y)*z and x*(y*z)
        return False
    units = np.flatnonzero((mul == idx).all(axis=1) & (mul.T == idx).all(axis=1))
    return len(units) > 0 and ((mul == units[0]) & (mul.T == units[0])).any(axis=1).all()


def _line_defect(kind, lines):
    for i, line in enumerate(lines):
        counts = np.bincount(line, minlength=len(line))
        if (counts != 1).any():
            return f"{kind} {i} is not a permutation (element {int(np.argmax(counts > 1))} repeats)"
    return None


def middle_nucleus_verdict(table):
    """The message the middle-nucleus certificate rejects a table with, None if it accepts.

    This was validation's path: Latin rows, a two-sided identity, two-sided inverses, then
    (x*s)*y = x*(s*y) for all x and y for each s drawn, as ``groups._generators`` draws,
    from the elements the earlier draws and their inverses do not generate.  Such s form
    the middle nucleus of the loop, a subgroup, so draws that generate every element
    certify the table.  A column defect is named ahead of any failure after the rows.
    """
    mul = np.asarray(table)
    rows = _line_defect("row", mul)
    if rows is not None:
        return rows
    later = _middle_nucleus_checks(mul)
    return later and (_line_defect("column", mul.T) or later)


def _middle_nucleus_checks(mul):
    n = len(mul)
    idx = np.arange(n)
    identity = int(np.argmax(mul[:, 0] == 0))
    if not (np.array_equal(mul[identity], idx) and np.array_equal(mul[:, identity], idx)):
        return "no two-sided identity element"
    inv = np.argmax(mul == identity, axis=1)  # the rows are Latin: a right inverse each
    if (mul[inv, idx] != identity).any():
        return f"inverse of element {int(np.argmax(mul[inv, idx] != identity))} is not two-sided"
    rng = np.random.default_rng(np.random.SeedSequence(_CLASSES_TAG))
    gens = []
    while True:
        reached = np.zeros(n, dtype=bool)
        reached[identity] = True
        while True:  # left multiplication by gens, from the identity, to a fixed point
            grown = reached.copy()
            grown[mul[np.ix_(gens, np.flatnonzero(reached))]] = True
            if np.array_equal(grown, reached):
                break
            reached = grown
        if reached.all():
            return None
        s = int(rng.choice(np.flatnonzero(~reached)))
        bad = mul[mul[:, s]] != mul[:, mul[s]]  # [x, y]: (x*s)*y and x*(s*y)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            return f"associativity fails at triple {(int(x), s, int(y))}"
        gens += [s] if inv[s] == s else [s, int(inv[s])]


def harmonic_for(group, *, seed=0):
    """Build the full spectral bundle for a group and wrap it for bound checks."""
    return Harmonic(spectral_data(group, seed=seed))


def cond_exp_conj(h, f):
    """E(f|Φ), the projection onto class functions, with f's range flags kept.

    Harmonic's own class average, so that exact-zero tests see the package's rounding.
    """
    return GroupFunction(
        h._class_average(f.values),
        disc_valued=f.disc_valued,
        mean_zero=f.mean_zero,
        two_disc_valued=f.two_disc_valued,
    )


def substitution_distance(h, f2, g):
    """step4's substitution distance at the single element g, through the sweep's own kernel."""
    conj_a = np.conj(f2.values) * f2.values[h.conj[g]]
    return float(h._substitution_distances(conj_a[None, :], *_gemm_buffers(h.fourier(), 2))[0])


def sample_interior_disc(n, rng):
    """Random disc-valued function uniform in the disc: radii drawn first, then phases."""
    vals = np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    return GroupFunction(vals, disc_valued=True)


def witness_abelian_character(n, exponents):
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
        raise ConstraintError(f"exponents {exponents} do not sum to 0 mod {n}")
    if e1 == e2 == e3 == 0:
        raise ConstraintError("all exponents vanish mod n; the witness is constant")
    x = np.arange(n)
    omega = np.exp(2j * np.pi / n)
    return tuple(GroupFunction(omega ** (e * x), disc_valued=True) for e in (e1, e2, e3))


def is_multiplicity_free(group, classes, table, row, rng):
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
    if free != (table.conjugation_multiplicities[row] == 1):
        raise SpectralInconsistencyError(
            f"rank-based multiplicity detection disagrees with the character sum on row {row}"
        )
    return free


def probed_isotypic_row(harmonic, raw):
    """The search's structured-start row found by probing, or None: no multiplicities used.

    Projects raw onto every nontrivial row in degree order, one O(n²)
    isotypic_project pass each, and returns the first row whose projection
    has L²(μ) norm above 1e-9, i.e. the least-degree component that the
    conjugation action visibly contains.  Ties go to table order.
    """
    spectral = harmonic.spectral
    order = sorted(
        (r for r in range(spectral.classes.num_classes) if r != spectral.table.trivial_row),
        key=lambda r: int(spectral.table.degrees[r]),
    )
    for row in order:
        proj = isotypic_project(spectral.group, spectral.classes, spectral.table, raw, row)
        if float(np.sqrt(np.mean(np.abs(proj) ** 2))) > 1e-9:
            return row
    return None


def all_pairs_commutator_subgroup(group):
    """The commutator subgroup from all n² commutators [a, b], closed under products."""
    mul, inv = group.mul, group.inv
    inside = np.zeros(group.order, dtype=bool)
    inside[mul[group.conjugation_table(), inv[None, :]]] = True
    while True:
        current = np.flatnonzero(inside)
        inside[mul[np.ix_(current, current)]] = True
        if np.count_nonzero(inside) == len(current):
            return frozenset(current.tolist())


def product_closure(group, inside):
    """The subgroup generated by a nonempty mask of elements: the mask closed under
    products, a round of all pairwise products at a time (|set|² entries a round)."""
    inside = inside.copy()
    while True:
        current = np.flatnonzero(inside)
        for rows in row_chunks(len(current), len(current)):
            inside[group.mul[np.ix_(current[rows], current)]] = True
        if np.count_nonzero(inside) == len(current):
            return frozenset(current.tolist())


def rebuilt_generators(group, rng, within=None):
    """``groups._generators`` by rebuilding the whole tree from the identity once per
    seed: the seeds are drawn from the elements of ``within`` (every element if None)
    that the tree of the seeds so far does not reach, and the last tree is returned."""
    gens = []
    while True:
        seen = np.zeros(group.order, dtype=bool)
        seen[group.identity] = True
        layers = _tree_layers(group.mul, gens, seen, np.array([group.identity], dtype=np.int64))
        unreached = ~seen if within is None else within & ~seen
        if not unreached.any():
            return gens, layers
        s = int(rng.choice(np.flatnonzero(unreached)))
        gens += [s] if group.inv[s] == s else [s, int(group.inv[s])]


def representative_commutator_subgroup(group, classes):
    """The commutator subgroup by the k·n commutators [r, y], r a class representative.

    The commutators form a union of conjugacy classes, since
    [g r g^-1, b] = g [r, g^-1 b g] g^-1, so the representatives' conjugation
    rows mark every class that holds one; the mark is then closed under products.
    """
    mul, inv = group.mul, group.inv
    reps = classes.representatives
    hit = np.zeros(classes.num_classes, dtype=bool)
    for rows in row_chunks(len(reps), group.order):
        conj = group.conjugation_rows(reps[rows])
        hit[classes.class_of[mul[conj, inv[None, :]]]] = True  # [r, y] = r*y*r^-1*y^-1
    return product_closure(group, hit[classes.class_of])


def loop_permutation_table(m, even_only=False):
    """S_m, or A_m, by the per-row loop: one compose and one searchsorted per row."""
    perms = np.array(list(permutations(range(m))), dtype=np.int64)
    if even_only:
        inversions = np.zeros(len(perms), dtype=np.int64)
        for i in range(m):
            for j in range(i + 1, m):
                inversions += perms[:, i] > perms[:, j]
        perms = perms[inversions % 2 == 0]
    weights = (m ** np.arange(m - 1, -1, -1)).astype(np.int64)
    keys = perms @ weights  # ascending, since perms are listed lexicographically
    n = len(perms)
    mul = np.empty((n, n), dtype=TABLE_DTYPE)
    for i in range(n):
        comp = perms[i][perms]  # [j, x] = p_i(p_j(x))
        mul[i] = np.searchsorted(keys, comp @ weights)
    return group_from_table(mul, name=f"{'a' if even_only else 's'}:{m}")


def chunked_element_table(elements, compose, key):
    """``groups._element_table`` by composing every row: ``compose`` on row chunks of
    ``elements`` against all of them, each temporary at most TEMP_ENTRIES entries."""
    n = len(elements)
    keys = key(elements)
    index = np.full(int(keys.max()) + 1, -1, dtype=TABLE_DTYPE)
    index[keys] = np.arange(n)
    mul = np.empty((n, n), dtype=TABLE_DTYPE)
    for rows in row_chunks(n, elements.size):
        mul[rows] = index[key(compose(elements[rows], elements))]
    return mul


def _sl2_codes(mats, p):
    a, b, c, d = mats.T
    return ((a * p + b) * p + c) * p + d


def _matmul_mod(row, mats, p):
    a1, b1, c1, d1 = (int(v) for v in row)
    a2, b2, c2, d2 = mats.T
    return np.stack(
        [
            (a1 * a2 + b1 * c2) % p,
            (a1 * b2 + b1 * d2) % p,
            (c1 * a2 + d1 * c2) % p,
            (c1 * b2 + d1 * d2) % p,
        ],
        axis=1,
    )


def loop_sl2_table(p, projective=False):
    """SL(2, p), or PSL(2, p), by the per-row loop over (a, b, c, d) tuples.

    PSL(2, p) keeps each coset {M, -M} as the matrix with the smaller code and
    maps both codes of a coset to its index.
    """
    grid = np.indices((p, p, p, p)).reshape(4, -1).T.astype(np.int64)
    a, b, c, d = grid.T
    mats = grid[(a * d - b * c) % p == 1]
    codes = _sl2_codes(mats, p)
    if projective:
        mats = mats[codes == np.minimum(codes, _sl2_codes((-mats) % p, p))]
    n = len(mats)
    lookup = np.full(p**4, -1, dtype=TABLE_DTYPE)
    lookup[_sl2_codes(mats, p)] = np.arange(n)
    if projective:
        lookup[_sl2_codes((-mats) % p, p)] = np.arange(n)
    mul = np.empty((n, n), dtype=TABLE_DTYPE)
    for i in range(n):
        mul[i] = lookup[_sl2_codes(_matmul_mod(mats[i], mats, p), p)]
    return group_from_table(mul, name=f"{'psl2' if projective else 'sl2'}:{p}")


def full_maximize(harmonic, config):
    """maximize with a full evaluate_inputs call per move: O(n²) per move, no incremental state.

    The same restarts, split of the budget, random draws and strict-improvement
    rule as quasimix.adversary.maximize; every candidate is copied, projected
    and evaluated from scratch, and the trace steps at every new best.
    """
    if config.budget == 0:
        restarts_run, moves, extra = 1, 1, 0
    elif config.budget < config.restarts:
        restarts_run, moves, extra = config.budget, 1, 0
    else:
        restarts_run = config.restarts
        moves, extra = config.budget // config.restarts, config.budget % config.restarts

    hi, lo = config.step_schedule
    spec = CHECKS[config.objective]
    project = (lambda vals: vals / _unit_norm(vals)) if "unit" in spec.inputs else _disc_clip
    best_value = -1.0
    best_inputs = best_check = None
    trace = []
    evaluations = 0

    for restart in range(restarts_run):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, restart)))
        if restart % 2 == 0:
            point = spec.draw(harmonic.n, rng)
        else:
            point = _structured_start(harmonic, config.objective, rng)
        current = [np.array(f.values) for f in point]
        check = evaluate_inputs(harmonic, config.objective, current)
        value = check.observed
        evaluations += 1
        if value > best_value:
            best_value, best_check = value, check
            best_inputs = [a.copy() for a in current]
        trace.append(best_value)

        per_restart = moves + 1 if restart < extra else moves
        for step_idx in range(per_restart - 1):
            frac = step_idx / max(per_restart - 2, 1)
            magnitude = hi + (lo - hi) * frac
            slot = int(rng.integers(len(current)))
            pos = int(rng.integers(harmonic.n))
            candidate = [a.copy() for a in current]
            bump = complex(rng.standard_normal(), rng.standard_normal())
            candidate[slot][pos] += magnitude * bump
            candidate[slot] = project(candidate[slot])
            cand_check = evaluate_inputs(harmonic, config.objective, candidate)
            evaluations += 1
            if cand_check.observed > value:
                current, value, check = candidate, cand_check.observed, cand_check
            if value > best_value:
                best_value, best_check = value, cand_check
                best_inputs = [a.copy() for a in current]
            trace.append(best_value)

    return SearchResult(
        best_value=best_value,
        best_inputs=tuple(best_inputs),
        best_check=best_check,
        evaluations_used=evaluations,
        trace=trace,
    )


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _projected_irreducible_frame(group, class_of, chi, d, rng):
    """An n×d orthonormal frame of one irreducible subspace, by dense projection.

    The range of P[x, y] = (d/n)·conj chi(x y^-1) is the chi-isotypic component
    of the regular representation (dimension d²): P times an n×d² Gaussian,
    one n² gather and an n×n·n×d² GEMM, then a Householder QR.  A dense random
    Hermitian right convolution R[x, y] = c(x^-1 y), c(g^-1) = conj c(g), splits
    it: its lowest d-fold eigenspace is irreducible.
    """
    n = group.order
    weights = (d / n) * np.conj(chi)
    gauss = _gaussian(rng, (n, d * d))
    image = np.empty_like(gauss)
    for rows in row_chunks(n, n):
        image[rows] = weights[class_of[group.mul[rows][:, group.inv]]] @ gauss
    del gauss
    frame, _ = np.linalg.qr(image)
    del image

    failure = "no attempt made"
    for _ in range(DEFAULT_ATTEMPTS):
        c = _gaussian(rng, n)
        c = (c + np.conj(c[group.inv])) / 2
        herm = np.zeros((d * d, d * d), dtype=np.complex128)
        for rows in row_chunks(n, n):
            herm += frame[rows].conj().T @ (c[group.mul[group.inv[rows]]] @ frame)
        evals, evecs = np.linalg.eigh((herm + herm.conj().T) / 2)
        scale = float(np.abs(evals).max())
        if evals[d - 1] - evals[0] > BASIS_TOL * scale:
            failure = "lowest eigenvalue cluster is not d-fold"
        elif evals[d] - evals[d - 1] < SPLIT_GAP * scale:
            failure = "lowest eigenvalue cluster is not separated"
        else:
            return frame @ evecs[:, :d]
    raise DegenerateSpectrumError(
        f"no separated irreducible subspace of degree {d} after {DEFAULT_ATTEMPTS} "
        f"attempts (last failure: {failure})"
    )


def projection_fourier_basis(group, classes, table):
    """The Fourier basis by the dense-projection route: O(n²·d²) work per non-linear row.

    The same tree fill and cross-checks as ``fourier_basis``, from frames
    found by a Gaussian projection, a QR and a dense commutant probe, every row
    in complex arithmetic.
    """
    def frame(r, d, rng):
        return _projected_irreducible_frame(group, classes.class_of, table.values[r], d, rng)

    return _complex_tree_basis(group, classes, table, frame)


def isotypic_frame(group, phi, d, rng, row):
    """An n×d orthonormal frame of one irreducible subspace, split off the whole isotypic component.

    This was ``fourier_basis``' frame build before each row was split off one eigenspace
    of a cyclic right translation: d² pivots of a pivoted Cholesky of the isotypic
    projection P[x, y] = phi(y^-1 x), one Newton–Schulz step on the n×d² frame, then a
    Hermitian right convolution on PROBE_SIZE random elements and their inverses, six
    gathers an attempt with the complex _probe_weights, whose lowest d-fold eigenspace of
    the d²×d² compression is irreducible.  phi is complex, as complex_fourier_basis
    passes it.
    """
    n, m = group.order, d * d
    tol = BASIS_TOL * m / n
    frame = np.empty((n, m), dtype=phi.dtype)
    residual = np.full(n, phi[group.identity].real)
    for k in range(m):
        p = int(np.argmax(residual))
        if not residual[p] > tol:
            raise SpectralInconsistencyError(f"row {row}: isotypic projection has rank {k}")
        column = phi.take(group.mul[group.inv[p]])
        column -= frame[:, :k] @ frame[p, :k].conj()
        column /= np.sqrt(residual[p])
        frame[:, k] = column
        residual -= abs2(column)
    if not residual.max() <= tol:
        raise SpectralInconsistencyError(f"row {row}: isotypic projection has rank above {m}")
    frame = frame @ ((3 * np.eye(m) - frame.conj().T @ frame) / 2)

    for _ in range(DEFAULT_ATTEMPTS):
        t = rng.integers(0, n, size=PROBE_SIZE)
        c = _probe_weights(rng, PROBE_SIZE, False)
        support, weights = np.concatenate([t, group.inv[t]]), np.concatenate([c, c.conj()])
        at = group.mul[:, support]
        image = sum(w * frame[at[:, j]] for j, w in enumerate(weights))
        herm = frame.conj().T @ image
        evals, evecs = np.linalg.eigh((herm + herm.conj().T) / 2)
        scale = float(np.abs(evals).max())
        if (evals[d - 1] - evals[0] <= BASIS_TOL * scale
                and evals[d] - evals[d - 1] >= SPLIT_GAP * scale):
            return frame @ evecs[:, :d]
    raise DegenerateSpectrumError(f"row {row}: no separated irreducible subspace")


def complex_fourier_basis(group, classes, table):
    """The Fourier basis with every row built in complex arithmetic, real-type rows too.

    This was ``fourier_basis``' route before the rows of Frobenius–Schur indicator +1
    were built in real arithmetic and before each row was split off one eigenspace of a
    cyclic right translation: isotypic_frame at rank d² on the complex
    phi = (d/n)·conj chi, then the same tree fill.  It is certified by _check_basis and
    stored with no real column.
    """
    n = group.order

    def frame(r, d, rng):
        phi = (d / n) * table.values[r][classes.class_of].conj()
        return isotypic_frame(group, phi, d, rng, r)

    return _complex_tree_basis(group, classes, table, frame)


def _complex_tree_basis(group, classes, table, frame_of):
    """A certified FourierBasis, all of whose rows are complex, from frame_of(r, d, rng): an n×d
    orthonormal frame of an irreducible subspace of row r, from which the tree fills ρ."""
    n = group.order
    rng = np.random.default_rng(np.random.SeedSequence(_FOURIER_TAG))
    gens, layers = _generators(group, rng)
    degrees = table.degrees
    offsets = np.concatenate([[0], np.cumsum(degrees**2)])
    E = np.empty((n, n), dtype=np.complex128)
    for r, d in enumerate(degrees):
        if d == 1:
            E[:, offsets[r]] = table.values[r][classes.class_of]
            continue
        frame = frame_of(r, int(d), rng)
        rho_gens = np.stack([frame.conj().T @ frame[group.mul[group.inv[s]]] for s in gens])
        rho = E[:, offsets[r] : offsets[r + 1]].reshape(n, d, d)
        rho[group.identity] = np.eye(d)
        for children, gen_index, parents in layers:
            rho[children] = rho_gens[gen_index] @ rho[parents]

    starts = np.flatnonzero(np.diff(degrees, prepend=0))
    ends = np.append(starts[1:], len(degrees))
    runs = tuple(
        (int(degrees[a]), slice(int(offsets[a]), int(offsets[b]))) for a, b in zip(starts, ends)
    )
    matrix = np.concatenate([E.real, E.imag], axis=1)  # real_columns = 0: every column complex
    basis = FourierBasis(matrix, 0, offsets[:-1], runs, int(offsets[table.trivial_row]))
    _check_basis(group, classes, table, basis, gens)
    return basis


def complex_basis(basis):
    """The n×n complex matrix E[x, c] = entry c of ρ(x) of a FourierBasis, the coefficient
    columns in the basis's own order (that of ``runs`` and ``offsets``)."""
    n = len(basis.matrix)
    E = basis.matrix[:, :n].astype(np.complex128)
    E.imag[:, basis.real_columns :] = basis.matrix[:, n:]
    return E


def repacked(basis, E):
    """A FourierBasis in the layout of ``basis`` that holds the complex matrix E of
    complex_basis' form: the real parts of E's real columns, and both parts of the others."""
    matrix = np.concatenate([E.real, E.imag[:, basis.real_columns :]], axis=1)
    return FourierBasis(matrix, basis.real_columns, basis.offsets, basis.runs,
                        basis.trivial_column)


def transform(basis, values):
    """The (b, n) complex Fourier coefficients of the b rows of ``values``.

    This was ``FourierBasis.transform``, the package's route before step3 and step4sub
    read real Gram parts off the GEMM product.  One GEMM of [Re values; Im values]
    against ``matrix``: a real column's two products are its coefficient's real and
    imaginary parts, and on a complex column ρ = A + iB,
    (Re f + i·Im f)·ρ = (Re f·A − Im f·B) + i·(Re f·B + Im f·A).
    """
    n, b, r = len(basis.matrix), len(values), basis.real_columns
    stacked = np.concatenate([values.real, values.imag]) @ basis.matrix
    top, bottom = stacked[:b], stacked[b:]
    coeffs = np.empty((b, n), dtype=np.complex128)
    coeffs.real[:, :r], coeffs.imag[:, :r] = top[:, :r], bottom[:, :r]
    np.subtract(top[:, r:n], bottom[:, n:], out=coeffs.real[:, r:])
    np.add(top[:, n:], bottom[:, r:n], out=coeffs.imag[:, r:])
    return coeffs


def fourier_grams(basis, coeffs):
    """Yield (d, V*V) for each run of degree d: the complex Gram V(ρ)*V(ρ) of every row's block.

    ``coeffs`` holds Fourier coefficients row by row (``transform``), in the column
    layout of ``basis.runs``; a degree-1 block is a scalar, whose Gram is |V|².
    """
    for d, cols in basis.runs:
        block = coeffs[:, cols]
        if d == 1:
            yield d, abs2(block)
        else:
            v = block.reshape(len(coeffs), -1, d, d)
            yield d, np.conj(np.swapaxes(v, 2, 3)) @ v


def _sweep_rows(h, f1, f2, hs):
    """conj a_h and b_h at the elements hs, as rows, gathered straight from the tables."""
    conj_a = np.conj(f2.values) * f2.values[h.conj[hs]]
    b = f1.values * np.conj(f1.values)[h.mul[:, h.inv[hs]].T]
    return conj_a, b


def complex_step3_terms(h, basis, f1, f2, hs):
    """step3's unweighted term at each element of hs by the complex route: ``transform``,
    then tr(V*V·Y*Y) = Σ conj(Y*Y)·V*V over the complex Grams of ``fourier_grams``.

    The term at h is Σ_ρ d_ρ·tr(V_h*V_h·Y_h*Y_h)/n⁵ with V_h = Σ_x conj a_h(x)ρ(x),
    Y_h = Σ_x b_h(x)ρ(x), a_h(x) = f2(x)·conj f2(hxh⁻¹), b_h(x) = f1(x)·conj f1(xh⁻¹).
    """
    terms = np.zeros(len(hs), dtype=np.complex128)
    for rows in row_chunks(len(hs), h.n):
        conj_a, b = _sweep_rows(h, f1, f2, hs[rows])
        coeffs = transform(basis, np.concatenate([conj_a, b]))
        for d, gram in fourier_grams(basis, coeffs):
            pair = np.conj(gram[len(b) :]) * gram[: len(b)]
            terms[rows] += d * pair.reshape(len(b), -1).sum(axis=1)
    return terms / h.n**5


def complex_substitution_distances(h, basis, f2, hs):
    """step4sub's distance at each element of hs by the complex route: the norm of the
    non-trivial Fourier coefficients' Grams, ``transform`` and ``fourier_grams``."""
    out = np.empty(len(hs))
    for rows in row_chunks(len(hs), h.n):
        coeffs = transform(basis, np.conj(f2.values) * f2.values[h.conj[hs[rows]]])
        coeffs[:, basis.trivial_column] = 0.0
        total = np.zeros(len(coeffs))
        for d, gram in fourier_grams(basis, coeffs):
            total += d * abs2(gram).reshape(len(coeffs), -1).sum(axis=1)
        out[rows] = np.sqrt(total) / h.n**2
    return out


def full_sweep_step3_terms(h, basis, f1, f2):
    """step3's term at every h, summing to its observed value: every h, no pair {h, h⁻¹}
    folded, and a complex GEMM against complex_basis, gathered straight from the tables.

    The term at h is Σ_ρ d_ρ·tr(V_h*V_h·Y_h*Y_h)/n⁵ as in complex_step3_terms.
    """
    n, E = h.n, complex_basis(basis)
    terms = np.zeros(n, dtype=np.complex128)
    for rows in row_chunks(n, n):
        conj_a, b = _sweep_rows(h, f1, f2, np.arange(n)[rows])
        coeffs = np.concatenate([conj_a, b]) @ E
        for d, gram in fourier_grams(basis, coeffs):
            pair = np.conj(gram[len(b) :]) * gram[: len(b)]
            terms[rows] += d * pair.reshape(len(b), -1).sum(axis=1)
    return terms / n**5


def full_sweep_substitution_distances(h, basis, f2):
    """step4sub's distance at every h, by a complex GEMM against complex_basis: the
    norm of the non-trivial Fourier coefficients of a_h, as _substitution_distances."""
    n, E = h.n, complex_basis(basis)
    out = np.empty(n)
    for rows in row_chunks(n, n):
        coeffs = (np.conj(f2.values) * f2.values[h.conj[rows]]) @ E
        coeffs[:, basis.trivial_column] = 0.0
        total = np.zeros(len(coeffs))
        for d, gram in fourier_grams(basis, coeffs):
            total += d * abs2(gram).reshape(len(coeffs), -1).sum(axis=1)
        out[rows] = np.sqrt(total) / n**2
    return out


DEFAULT_ORTHO_TOL = 1e-8
DEFAULT_DEGREE_TOL = 1e-6


def float_conjugation_multiplicities(values):
    """Multiplicity of each character row in the conjugation action on functions, from
    the lifted values: the route ``spectra`` took before the table carried the exact ones.

    The conjugation action fixes |centralizer(g)| points at g, and pairing
    that fixed-point count with the character reduces to a plain sum of the
    conjugated character values over the classes.
    """
    mults = []
    for row, chi in enumerate(values):
        total = np.conj(chi).sum()
        if abs(total.imag) > 1e-6 or abs(total.real - round(total.real)) > 1e-6:
            raise SpectralInconsistencyError(
                f"conjugation multiplicity of row {row} is not a clean integer: {total}"
            )
        m = int(round(total.real))
        if m < 0:
            raise SpectralInconsistencyError(f"negative multiplicity {m} for row {row}")
        mults.append(m)
    return np.array(mults, dtype=np.int64)


def float_character_table(
    group: FiniteGroup,
    classes: ConjugacyStructure,
    *,
    rng: Optional[np.random.Generator] = None,
    ortho_tol: float = DEFAULT_ORTHO_TOL,
) -> CharacterTable:
    """The character table from the class algebra in floating point: the route
    ``spectra.character_table`` took before its exact routes, kept as their reference.

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
    _check_classes(group, classes)
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

        return CharacterTable(
            rows, degrees, int(trivial_rows[0]), float_conjugation_multiplicities(rows)
        )

    raise DegenerateSpectrumError(
        f"no usable spectrum after {DEFAULT_ATTEMPTS} attempts (last failure: {failure})"
    )
