"""The Fourier basis (unitary irreps from the Cayley table) and the Plancherel kernels."""

import re
import tracemalloc

import numpy as np
import pytest

import quasimix._numutil
import quasimix.harmonic
import quasimix.spectra
from oracles import (
    complex_basis,
    complex_fourier_basis,
    complex_step3_terms,
    complex_substitution_distances,
    cond_exp_conj,
    fourier_grams,
    full_sweep_step3_terms,
    full_sweep_substitution_distances,
    loop_step3_intermediate,
    loop_substitution_distance,
    projection_fourier_basis,
    repacked,
    sample_interior_disc,
    substitution_distance,
    transform,
)
from quasimix._numutil import row_chunks
from quasimix.cli import resolve_group
from quasimix.groups import _generators
from quasimix.harmonic import (
    GEMM_ROWS,
    GroupFunction,
    Harmonic,
    _gemm_buffers,
    _real_grams,
    centered,
    sample_disc,
)
from quasimix.spectra import (
    CharacterTable,
    DegenerateSpectrumError,
    SpectralInconsistencyError,
    _check_basis,
    _cyclic_cosets,
    _eigenspace_kernel,
    _indicators,
    _irreducible_frame,
    _multiplicities,
    fourier_basis,
    spectral_data,
)

# every group a test builds a basis on: _check_basis infers Schur orthogonality
# from checks on the generators, and the full Gram test below measures it
_BASIS_GROUPS = (
    "z:1", "s:3", "a:4", "z:12", "s:4", "a:5", "sl2:5", "sl2:7", "psl2:11", "s:6", "sl2:13"
)
_KERNEL_GROUPS = ("s:3", "a:4", "a:5", "sl2:5", "sl2:7")


@pytest.fixture(scope="module", params=_BASIS_GROUPS)
def built(request):
    group = resolve_group(request.param)
    data = spectral_data(group)
    return group, data, fourier_basis(group, data.classes, data.table)


def _blocks(E, rows, d, cols):
    return E[rows][:, cols].reshape(len(rows), -1, d, d)


def test_basis_is_a_homomorphism_on_sampled_pairs(built):
    group, _, basis = built
    E = complex_basis(basis)
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, group.order, size=(2, 2000))
    for d, cols in basis.runs:
        lhs = _blocks(E, x, d, cols) @ _blocks(E, y, d, cols)
        assert np.abs(lhs - _blocks(E, group.mul[x, y], d, cols)).max() < 1e-12


def test_basis_is_unitary_with_schur_orthogonality(built):
    group, _, basis = built
    E = complex_basis(basis)
    degrees = np.concatenate([np.full(cols.stop - cols.start, d) for d, cols in basis.runs])
    gram = E.conj().T @ E * np.sqrt(np.outer(degrees, degrees)) / group.order
    assert np.abs(gram - np.eye(group.order)).max() < 1e-12


def test_basis_traces_are_the_characters(built):
    group, data, basis = built
    E, table = complex_basis(basis), data.table
    for r, d in enumerate(table.degrees):
        start = basis.offsets[r]
        trace = E[:, start : start + d * d : d + 1].sum(axis=1)
        assert np.abs(trace - table.values[r][data.classes.class_of]).max() < 1e-10
    spans = sorted(zip(basis.offsets, basis.offsets + table.degrees**2))  # the blocks tile [0, n)
    assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]]
    assert spans[-1][1] == group.order


def test_real_type_blocks_are_real_orthogonal_and_stored_once(built):
    # rows of indicator +1 fill the first real_columns columns, as float64 entries
    # that are orthogonal on the generators; every other column is stored as a real
    # and an imaginary part, so the basis holds 8n·(2n − R) bytes, at most 16n²
    group, data, basis = built
    n, table = group.order, data.table
    real = _indicators(group, data.classes, table) == 1
    width = int((table.degrees[real] ** 2).sum())
    assert basis.real_columns == width
    assert basis.matrix.dtype == np.float64 and basis.matrix.shape == (n, 2 * n - width)
    assert basis.matrix.nbytes == 8 * n * (2 * n - width) <= 16 * n * n
    assert (basis.offsets[real] < width).all() and (basis.offsets[~real] >= width).all()
    gens, _ = _generators(group, np.random.default_rng(1))
    for d, cols in basis.runs:
        if cols.start < width:
            rho = basis.matrix[gens][:, cols].reshape(-1, d, d)  # z:1 has no generators
            assert np.abs(rho @ rho.transpose(0, 2, 1) - np.eye(d)).max(initial=0.0) < 1e-12
    if group.name == "s:6":
        assert basis.matrix.nbytes == 8 * n * n


def _mutants(group, data, basis):
    """Corrupted copies of a correct basis's complex matrix, one per cross-check that must
    catch it; each stays within the types of the basis, so repacked keeps every entry."""
    table = data.table
    d, cols = basis.runs[-1]
    E = complex_basis(basis)
    one_entry = E.copy()
    one_entry[group.order // 2, cols.start] += 1e-6
    yield "homomorphism", one_entry

    skewed = E.copy()  # S·ρ·S⁻¹ with S real and not unitary: still a representation
    scale = np.eye(d)
    scale[0, 0] = 2.0
    first = slice(cols.start, cols.start + d * d)
    block = skewed[:, first].reshape(-1, d, d)
    skewed[:, first] = (scale @ block @ np.linalg.inv(scale)).reshape(-1, d * d)
    yield "unitarity", skewed

    # two inequivalent irreps of one degree and type, exchanged: still unitary representations
    real = basis.offsets < basis.real_columns
    r = next(r for r in range(1, len(table.degrees))
             if table.degrees[r] == table.degrees[r - 1] and real[r] == real[r - 1])
    size = int(table.degrees[r]) ** 2
    a, b = (slice(basis.offsets[s], basis.offsets[s] + size) for s in (r - 1, r))
    swapped = E.copy()
    swapped[:, a], swapped[:, b] = E[:, b], E[:, a]
    yield "trace", swapped


@pytest.mark.parametrize("token", ["a:5", "sl2:5"])
def test_corrupted_blocks_are_caught(token):
    group = resolve_group(token)
    data = spectral_data(group)
    basis = fourier_basis(group, data.classes, data.table)
    gens, _ = _generators(group, np.random.default_rng(1))
    _check_basis(group, data.classes, data.table, basis, gens)
    caught = []
    for check, matrix in _mutants(group, data, basis):
        mutant = repacked(basis, matrix)
        assert np.array_equal(complex_basis(mutant), matrix)
        with pytest.raises(SpectralInconsistencyError, match=check):
            _check_basis(group, data.classes, data.table, mutant, gens)
        caught.append(check)
    assert caught == ["homomorphism", "unitarity", "trace"]


# -- the Plancherel kernels against the per-h loops -----------------------------


def _agree(got, ref):
    """1e-12 relative; a true zero computes as rounding noise at the unit scale."""
    return abs(got - ref) <= 1e-12 * abs(ref) + 1e-15


def _inputs(harmonic, seed):
    """(name, f1, f2) cases: random phases, disc interiors, class functions, f2 ≡ 1."""
    n = harmonic.n
    rng = np.random.default_rng(seed)
    phase1, phase2 = sample_disc(n, rng), sample_disc(n, rng)
    inner1, inner2 = sample_interior_disc(n, rng), sample_interior_disc(n, rng)
    yield "phase", centered(phase1), phase2
    yield "disc", centered(inner1), inner2
    yield "class", centered(cond_exp_conj(harmonic, phase1)), cond_exp_conj(harmonic, phase2)
    yield "flat", centered(inner1), GroupFunction(np.ones(n), disc_valued=True)


@pytest.fixture(scope="module", params=_KERNEL_GROUPS)
def kernel_harmonic(request):
    return Harmonic(spectral_data(resolve_group(request.param)))


def test_step3_matches_loop_oracle(kernel_harmonic):
    for name, f1, f2 in _inputs(kernel_harmonic, 3):
        ref = loop_step3_intermediate(kernel_harmonic.group, f1.values, f2.values)
        got = kernel_harmonic.step3_intermediate(f1, f2).observed
        assert abs(ref.imag) < 1e-15
        assert _agree(got, ref.real), (name, got, ref)


def test_substitution_matches_loop_oracle(kernel_harmonic):
    group = kernel_harmonic.group
    hs = np.unique(np.linspace(0, group.order - 1, 24).astype(int))
    for name, _, f2 in _inputs(kernel_harmonic, 4):
        refs = [loop_substitution_distance(group, f2.values, h) for h in hs]
        for h, ref in zip(hs, refs):
            got = substitution_distance(kernel_harmonic, f2, h)
            assert _agree(got, ref), (name, h, got, ref)
        everywhere = max(
            loop_substitution_distance(group, f2.values, h) for h in range(group.order)
        )
        assert _agree(kernel_harmonic.step4_substitution_sweep(f2).observed, everywhere), name


# -- the half sweep over {h, h⁻¹} against the full, all-complex sweep --------------

# one h of each pair {h, h⁻¹}: (n + #{h : h² = e})/2 of them
_SWEEP_ROWS = {"a:5": 38, "sl2:7": 169, "psl2:11": 358, "s:6": 398}


def _gemm_rows(monkeypatch):
    """The rows of every _real_grams call's blocks, as step3 and step4sub make them."""
    seen = []
    real_grams = quasimix.harmonic._real_grams

    def spy(basis, blocks, *args, **kwargs):
        seen.append([len(block) for block in blocks])
        return real_grams(basis, blocks, *args, **kwargs)

    monkeypatch.setattr(quasimix.harmonic, "_real_grams", spy)
    return seen


# psl2:11's 358 sweep rows run in chunks of 65536 // 660 = 99
_SWEEP_CHUNKS = {"psl2:11": [99, 99, 99, 61]}


@pytest.fixture(scope="module")
def full_sweeps(built):
    """On one centered phase f1 and one phase f2: the harmonic on the built basis, the
    per-h step3 terms and step4sub distances over every h on the all-complex basis, and
    that basis, whose frames are split off the whole isotypic component at rank d²."""
    group, data, basis = built
    harmonic = Harmonic(data)
    harmonic._basis = basis
    rng = np.random.default_rng(36)
    f1, f2 = centered(sample_disc(group.order, rng)), sample_disc(group.order, rng)
    oracle = complex_fourier_basis(group, data.classes, data.table)
    assert oracle.real_columns == 0
    terms = full_sweep_step3_terms(harmonic, oracle, f1, f2)
    distances = full_sweep_substitution_distances(harmonic, oracle, f2)
    return harmonic, f1, f2, terms, distances, oracle


def test_half_sweep_terms_are_equal_at_h_and_its_inverse(full_sweeps):
    harmonic, _, _, terms, distances, _ = full_sweeps
    inv, n = harmonic.inv, harmonic.n
    assert np.abs(terms - terms[inv]).max() <= 1e-12 * np.abs(terms).max()
    assert np.abs(distances - distances[inv]).max() <= 1e-12 * distances.max()
    hs, weights = harmonic._half_sweep()
    involutions = int((inv == np.arange(n)).sum())  # h = h⁻¹, so h² = e
    assert len(hs) == (n + involutions) // 2 == _SWEEP_ROWS.get(harmonic.group.name, len(hs))
    assert np.array_equal(np.sort(np.concatenate([hs, inv[hs[weights == 2]]])), np.arange(n))


def test_half_sweep_matches_the_full_all_complex_sweep(full_sweeps, monkeypatch):
    # step3's value and step4sub's distance at each sweep row, read off the real GEMM
    # product, against the complex route on the same basis and the all-complex full
    # sweep, to 1e-12 relative; each chunk of the sweep is one _real_grams call
    harmonic, f1, f2, terms, distances, _ = full_sweeps
    basis, n = harmonic.fourier(), harmonic.n
    hs, weights = harmonic._half_sweep()
    assert abs(terms.sum().imag) <= 1e-12 * abs(terms.sum())
    seen = _gemm_rows(monkeypatch)
    step3 = harmonic.step3_intermediate(f1, f2).observed
    assert _agree(step3, terms.sum().real)
    assert _agree(step3, (weights * complex_step3_terms(harmonic, basis, f1, f2, hs)).sum().real)
    step4sub = harmonic.step4_substitution_sweep(f2).observed
    assert _agree(step4sub, distances.max())
    sizes = [rows.stop - rows.start for rows in row_chunks(len(hs), n, GEMM_ROWS)]
    assert sizes == _SWEEP_CHUNKS.get(harmonic.group.name, sizes)
    assert seen == [[m, m] for m in sizes] + [[m] for m in sizes]

    conj_a = np.conj(f2.values) * f2.values[harmonic.conj[hs]]
    each = harmonic._substitution_distances(conj_a, *_gemm_buffers(basis, 2 * len(hs)))
    for ref in (complex_substitution_distances(harmonic, basis, f2, hs), distances[hs]):
        assert np.all(np.abs(each - ref) <= 1e-12 * np.abs(ref) + 1e-15)


def test_eigenspace_basis_matches_the_isotypic_oracle(full_sweeps):
    # the basis split off one eigenspace of a cyclic right translation and the d²-rank
    # isotypic build are different bases of the same irreps: step3 and step4sub, which
    # do not depend on the choice, agree to 1e-12 relative on every basis group
    harmonic, f1, f2, _, _, oracle = full_sweeps
    reference = Harmonic(harmonic.spectral)
    reference._basis = oracle
    assert _agree(harmonic.step3_intermediate(f1, f2).observed,
                  reference.step3_intermediate(f1, f2).observed)
    assert _agree(harmonic.step4_substitution_sweep(f2).observed,
                  reference.step4_substitution_sweep(f2).observed)


# -- the real Gram parts against the complex route -----------------------------------


def test_real_grams_are_the_complex_grams(built):
    # S + iA of every block is the complex Gram V*V of the coefficients the complex route
    # computes (transform, fourier_grams), on real and complex columns alike: sl2:7 has
    # rows of indicator +1, 0 and -1.  With the trivial coefficient dropped, the trivial
    # column's part is exactly 0 and the rest is the complex route with that column zeroed
    group, _, basis = built
    n = group.order
    rng = np.random.default_rng(37)
    blocks = [rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)) for _ in range(2)]
    coeffs = transform(basis, np.concatenate(blocks))
    operand, product = _gemm_buffers(basis, 12)
    for drop in (False, True):
        if drop:
            coeffs[:, basis.trivial_column] = 0.0
        got = list(_real_grams(basis, blocks, operand, product, drop))
        ref = list(fourier_grams(basis, coeffs))
        assert [d for d, _ in got] == [d for d, _ in ref] == [d for d, _ in basis.runs]
        for (d, parts), (_, gram), (_, cols) in zip(got, ref, basis.runs):
            assert len(parts) == (1 if d == 1 else 2)
            if d == 1:
                value = parts[0].reshape(gram.shape)
            else:
                s, a = parts
                assert np.array_equal(s, np.swapaxes(s, 2, 3))
                assert np.array_equal(a, -np.swapaxes(a, 2, 3))
                value = s + 1j * a
            assert np.abs(value - gram).max() <= 1e-12 * np.abs(gram).max()
            if drop and cols.start <= basis.trivial_column < cols.stop:
                assert not parts[0][:, basis.trivial_column - cols.start].any()
    if group.name == "sl2:7":
        types = {cols.start < basis.real_columns for _, cols in basis.runs}
        assert types == {True, False}


def test_step3_and_step4sub_take_at_least_gemm_rows_a_chunk(monkeypatch):
    # with TEMP_ENTRIES at 2048 every other kernel takes 6 rows a chunk on sl2:7
    # (n = 336), and step3 and step4sub take GEMM_ROWS = 64 of its 169 sweep rows: the
    # gather's blocks grow to 64 rows, and both values keep the complex route's
    harmonic = Harmonic(spectral_data(resolve_group("sl2:7")))
    rng = np.random.default_rng(37)
    f1, f2, f3 = centered(sample_disc(336, rng)), sample_disc(336, rng), sample_disc(336, rng)
    monkeypatch.setattr(quasimix._numutil, "TEMP_ENTRIES", 2048)
    assert harmonic._chunk_rows() == 6 and GEMM_ROWS == 64
    harmonic.step1_reduced_lhs(f1, f2, f3)
    assert [len(block) for block in harmonic._blocks] == [6, 6]
    seen = _gemm_rows(monkeypatch)
    step3 = harmonic.step3_intermediate(f1, f2).observed
    step4sub = harmonic.step4_substitution_sweep(f2).observed
    assert seen == [[64, 64], [64, 64], [41, 41], [64], [64], [41]]
    assert [len(block) for block in harmonic._blocks] == [64, 64]
    monkeypatch.undo()
    basis, (hs, weights) = harmonic.fourier(), harmonic._half_sweep()
    assert _agree(step3, (weights * complex_step3_terms(harmonic, basis, f1, f2, hs)).sum().real)
    assert _agree(step4sub, complex_substitution_distances(harmonic, basis, f2, hs).max())


def _traced_peak_mib(*calls):
    """The tracemalloc peak over ``calls``, in MiB: the arrays they allocate, numpy's included."""
    tracemalloc.start()
    try:
        for call in calls:
            call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_step3_and_step4sub_add_no_complex_temporaries():
    # after the s:6 basis is built and one untraced step3 and step4sub have kept their
    # gather blocks, the next two calls peak at 5.71 MiB under tracemalloc with the real
    # GEMM operand and product; the complex route over the same half sweep (transform,
    # then complex Grams) peaks at 11.07 MiB
    harmonic = Harmonic(spectral_data(resolve_group("s:6")))
    rng = np.random.default_rng(0)
    f1, f2 = centered(sample_disc(harmonic.n, rng)), sample_disc(harmonic.n, rng)
    basis, (hs, _) = harmonic.fourier(), harmonic._half_sweep()
    kernels = (lambda: harmonic.step3_intermediate(f1, f2),
               lambda: harmonic.step4_substitution_sweep(f2))
    oracle = (lambda: complex_step3_terms(harmonic, basis, f1, f2, hs),
              lambda: complex_substitution_distances(harmonic, basis, f2, hs))
    for call in kernels + oracle:
        call()
    assert _traced_peak_mib(*kernels) < 8.0 < _traced_peak_mib(*oracle)


# -- the Frobenius–Schur certificate -------------------------------------------------

# (rows of indicator -1, rows of indicator 0); every other row has indicator +1
_INDICATOR_COUNTS = {
    "a:5": (0, 0), "s:6": (0, 0), "sl2:5": (4, 0), "sl2:7": (3, 4), "psl2:11": (0, 2),
    "a:7": (0, 2), "sl2:13": (8, 0),
}


@pytest.mark.parametrize("token", sorted(_INDICATOR_COUNTS))
def test_frobenius_schur_indicators_are_the_known_ones(token):
    group = resolve_group(token)
    data = spectral_data(group)
    nu = _indicators(group, data.classes, data.table)
    squares = data.table.values[:, data.classes.class_of[np.diagonal(group.mul)]]
    assert np.abs(squares.mean(axis=1) - nu).max() < 1e-9  # (1/n)·Σ_x χ(x²), unrounded
    assert ((nu == -1).sum(), (nu == 0).sum()) == _INDICATOR_COUNTS[token]


def _forced(table, row, values):
    """The table with row ``row``'s values replaced."""
    forced = table.values.copy()
    forced[row] = values
    return CharacterTable(forced, table.degrees, table.trivial_row,
                          table.conjugation_multiplicities)


def test_a_forced_indicator_fails_the_frobenius_schur_certificate():
    # every a:5 row has indicator +1.  Halving a row's values halves its indicator;
    # moving its value on a class c of squares by -2n/#{x : x² in c} takes it to -1,
    # where the count of x with x² = e fails; an imaginary part on a class that no
    # square reaches keeps +1 on a row that is no longer real
    group = resolve_group("a:5")
    data = spectral_data(group)
    table, n = data.table, group.order
    row = 1 + (table.trivial_row == 1)
    squares = np.bincount(data.classes.class_of[np.diagonal(group.mul)],
                          minlength=data.classes.num_classes)
    identity = data.classes.class_of[group.identity]
    squared = next(c for c in range(len(squares)) if squares[c] and c != identity)
    flipped, lifted = table.values[row].copy(), table.values[row].copy()
    flipped[squared] -= 2 * n / squares[squared]
    lifted[np.flatnonzero(squares == 0)[0]] += 0.5j
    d = int(table.degrees[row])
    cases = [
        (table.values[row] / 2, f"row {row}: Frobenius–Schur indicator 0.5"),
        (flipped, re.escape(f"count {16 - 2 * d} is not #{{x : x² = e}} = 16")),
        (lifted, re.escape(f"row {row} has indicator +1 but a non-real character")),
    ]
    for values, message in cases:
        with pytest.raises(SpectralInconsistencyError, match=message):
            fourier_basis(group, data.classes, _forced(table, row, values))


# -- the basis build against the dense-projection oracle ---------------------------


@pytest.mark.parametrize("token", ["s:3", "a:5", "sl2:5", "sl2:7", "psl2:11"])
def test_cholesky_basis_matches_projection_oracle(token):
    # two different bases of the same irreps: both pass the cross-checks, and the
    # Plancherel kernels, which do not depend on the choice, agree to 1e-12
    group = resolve_group(token)
    data = spectral_data(group)
    fast = Harmonic(data)
    oracle = Harmonic(data)
    oracle._basis = projection_fourier_basis(group, data.classes, data.table)
    gens, _ = _generators(group, np.random.default_rng(1))
    for harmonic in (fast, oracle):
        _check_basis(group, data.classes, data.table, harmonic.fourier(), gens)
    assert not np.array_equal(complex_basis(fast.fourier()), complex_basis(oracle.fourier()))
    for name, f1, f2 in _inputs(fast, 5):
        ref = oracle.step3_intermediate(f1, f2).observed
        assert _agree(fast.step3_intermediate(f1, f2).observed, ref), (token, name)
        ref = oracle.step4_substitution_sweep(f2).observed
        assert _agree(fast.step4_substitution_sweep(f2).observed, ref), (token, name)


def _row_multiplicities(group, data, row):
    """The certified eigenvalue multiplicities μ(ω) of ρ(h) on a table row, h as the build
    picks it, with the left cosets of <h> (row 0: the powers of h)."""
    cosets = _cyclic_cosets(group, data.classes)
    chi_powers = data.table.values[row, data.classes.class_of[cosets[0]]]
    return cosets, _multiplicities(chi_powers, row)


@pytest.mark.parametrize("token", ["a:5", "sl2:5"])
def test_wrong_degree_fails_the_rank_cross_check(token):
    # a degree raised to d + 1 with the values kept: the eigenspace projection has
    # rank d·μ, not (d + 1)·μ, and the pivoted Cholesky stops at that row by name
    group = resolve_group(token)
    data = spectral_data(group)
    table = data.table
    row = next(r for r in range(len(table.degrees)) if table.degrees[r] > 1)
    degrees = table.degrees.copy()
    degrees[row] += 1
    wrong = CharacterTable(
        table.values, degrees, table.trivial_row, table.conjugation_multiplicities
    )
    real = _indicators(group, data.classes, table) == 1
    cosets, mu = _row_multiplicities(group, data, row)
    _, mult = _eigenspace_kernel(cosets, table.values[row][data.classes.class_of], mu,
                                 real[row])
    d = int(table.degrees[row])
    with pytest.raises(SpectralInconsistencyError) as caught:
        fourier_basis(group, data.classes, wrong)
    assert f"row {row} (degree {d + 1})" in str(caught.value)
    assert f"rank {d * mult}, not d·μ = {(d + 1) * mult}" in str(caught.value)


def test_real_probe_weights_cannot_split_a_quaternionic_row(monkeypatch):
    # SL(2,5)'s degree-2 rows are quaternionic: on the whole isotypic component (rank
    # d², as the build took it before it split each row off an eigenspace of ρ(h), where
    # every such row has μ = 1 and needs no probe), a probe with real weights commutes
    # with their antiunitary structure, so its eigenvalues come in pairs and no draw
    # separates a d-fold cluster; the error names the row and its degree
    group = resolve_group("sl2:5")
    data = spectral_data(group)
    degrees = data.table.degrees
    row = next(r for r in range(len(degrees)) if degrees[r] > 1)
    assert int(degrees[row]) == 2
    assert _indicators(group, data.classes, data.table)[row] == -1
    phi = (2 / group.order) * data.table.values[row][data.classes.class_of].conj()
    monkeypatch.setattr(
        quasimix.spectra, "_probe_weights", lambda rng, size, real: rng.standard_normal(size)
    )
    with pytest.raises(DegenerateSpectrumError) as caught:
        _irreducible_frame(group, phi, 2, 2, np.random.default_rng(0), row)
    assert str(caught.value) == (
        f"row {row} (degree 2): no separated irreducible subspace after 20 attempts "
        "(last failure: lowest eigenvalue cluster is not separated)"
    )


# -- one eigenspace of the right translation by h ----------------------------------


def test_multiplicities_sum_to_the_degree(built):
    # Σ_ω μ(ω) = χ(1) = d on every row, each μ an integer in [0, d]
    group, data, _ = built
    for row, d in enumerate(data.table.degrees):
        _, mu = _row_multiplicities(group, data, row)
        assert mu.sum() == d and mu.min() >= 0 and mu.max() <= d


def test_multiplicities_must_be_non_negative_integers():
    group = resolve_group("a:5")
    data = spectral_data(group)
    cosets, _ = _row_multiplicities(group, data, 1)
    chi_powers = data.table.values[1, data.classes.class_of[cosets[0]]]
    with pytest.raises(SpectralInconsistencyError, match=r"row 1: eigenvalue exp\(2πi·0/5\)"):
        _multiplicities(chi_powers / 2, 1)


@pytest.mark.parametrize("token", ["a:5", "sl2:7", "s:6"])
def test_eigenspace_kernel_is_a_projection_inside_the_isotypic_component(token):
    # K[x, y] = q(y⁻¹x) is Hermitian and idempotent with diagonal d·μ/n, so it projects
    # onto a space of dimension d·μ; P·K = K with P the isotypic projection puts that
    # space inside the χ-component.  Real rows keep a real q
    group = resolve_group(token)
    data = spectral_data(group)
    n, table = group.order, data.table
    real = _indicators(group, data.classes, table) == 1
    at = group.mul[group.inv].T  # at[x, y] = y⁻¹x
    for row, d in enumerate(table.degrees):
        if d == 1:
            continue
        chi = table.values[row][data.classes.class_of]
        phi = (d / n) * (chi.real if real[row] else chi).conj()
        cosets, mu = _row_multiplicities(group, data, row)
        q, mult = _eigenspace_kernel(cosets, phi, mu, real[row])
        assert np.isrealobj(q) == real[row]
        kernel, isotypic = q[at], phi[at]
        assert np.abs(kernel - kernel.conj().T).max() < 1e-14
        assert np.abs(kernel @ kernel - kernel).max() < 1e-13
        assert np.abs(np.diagonal(kernel) - d * mult / n).max() < 1e-14
        assert np.abs(isotypic @ kernel - kernel).max() < 1e-13
        assert mult <= d


def test_rows_of_multiplicity_one_draw_no_probe(monkeypatch):
    # s:6 and sl2:7: each non-linear row's factor, then the probe draws that follow it
    # before the next row's factor; a row with μ = 1 is irreducible already
    calls = []
    factor, weights = quasimix.spectra._isotypic_factor, quasimix.spectra._probe_weights

    def factor_spy(group, q, d, mu, row):
        calls.append([mu])
        return factor(group, q, d, mu, row)

    def weights_spy(rng, size, real):
        calls[-1].append("probe")
        return weights(rng, size, real)

    monkeypatch.setattr(quasimix.spectra, "_isotypic_factor", factor_spy)
    monkeypatch.setattr(quasimix.spectra, "_probe_weights", weights_spy)
    for token in ("s:6", "sl2:7"):
        calls.clear()
        group = resolve_group(token)
        data = spectral_data(group)
        fourier_basis(group, data.classes, data.table)
        assert len(calls) == (data.table.degrees > 1).sum()
        assert all(len(probes) == 0 for mu, *probes in calls if mu == 1)
        assert all(len(probes) >= 1 for mu, *probes in calls if mu > 1)
        assert {mu == 1 for mu, *_ in calls} == {True, False}


# -- the lazy build ----------------------------------------------------------------


def test_basis_is_built_on_first_use_only(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return fourier_basis(*args)

    monkeypatch.setattr(quasimix.harmonic, "fourier_basis", counting)
    harmonic = Harmonic(spectral_data(resolve_group("a:4")))
    assert harmonic._basis is None and calls == []
    first = harmonic.fourier()
    assert harmonic.fourier() is first
    assert len(calls) == 1
    # the basis seed is fixed: a second Harmonic builds bit-identical matrices
    again = Harmonic(spectral_data(resolve_group("a:4"))).fourier()
    assert np.array_equal(again.matrix, first.matrix)
