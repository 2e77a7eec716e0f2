"""The Fourier basis (unitary irreps from the Cayley table) and the Plancherel kernels."""

import re

import numpy as np
import pytest

import quasimix.harmonic
import quasimix.spectra
from oracles import (
    complex_basis,
    complex_fourier_basis,
    cond_exp_conj,
    full_sweep_step3_terms,
    full_sweep_substitution_distances,
    loop_step3_intermediate,
    loop_substitution_distance,
    projection_fourier_basis,
    repacked,
    sample_interior_disc,
    substitution_distance,
)
from quasimix.cli import resolve_group
from quasimix.groups import _generators
from quasimix.harmonic import GroupFunction, Harmonic, centered, sample_disc
from quasimix.spectra import (
    CharacterTable,
    DegenerateSpectrumError,
    SpectralInconsistencyError,
    _check_basis,
    _indicators,
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


@pytest.fixture(scope="module")
def full_sweeps(built):
    """On one centered phase f1 and one phase f2: the harmonic on the built basis, and
    the per-h step3 terms and step4sub distances over every h on the all-complex basis."""
    group, data, basis = built
    harmonic = Harmonic(data)
    harmonic._basis = basis
    rng = np.random.default_rng(36)
    f1, f2 = centered(sample_disc(group.order, rng)), sample_disc(group.order, rng)
    oracle = complex_fourier_basis(group, data.classes, data.table)
    assert oracle.real_columns == 0
    terms = full_sweep_step3_terms(harmonic, oracle, f1, f2)
    distances = full_sweep_substitution_distances(harmonic, oracle, f2)
    return harmonic, f1, f2, terms, distances


def test_half_sweep_terms_are_equal_at_h_and_its_inverse(full_sweeps):
    harmonic, _, _, terms, distances = full_sweeps
    inv, n = harmonic.inv, harmonic.n
    assert np.abs(terms - terms[inv]).max() <= 1e-12 * np.abs(terms).max()
    assert np.abs(distances - distances[inv]).max() <= 1e-12 * distances.max()
    hs, weights = harmonic._half_sweep()
    involutions = int((inv == np.arange(n)).sum())  # h = h⁻¹, so h² = e
    assert len(hs) == (n + involutions) // 2 == _SWEEP_ROWS.get(harmonic.group.name, len(hs))
    assert np.array_equal(np.sort(np.concatenate([hs, inv[hs[weights == 2]]])), np.arange(n))


def test_half_sweep_matches_the_full_all_complex_sweep(full_sweeps):
    harmonic, f1, f2, terms, distances = full_sweeps
    assert abs(terms.sum().imag) <= 1e-12 * abs(terms.sum())
    assert _agree(harmonic.step3_intermediate(f1, f2).observed, terms.sum().real)
    assert _agree(harmonic.step4_substitution_sweep(f2).observed, distances.max())


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


@pytest.mark.parametrize("token", ["a:5", "sl2:5"])
def test_wrong_degree_fails_the_rank_cross_check(token):
    # a degree raised to d + 1 with the values kept: the isotypic projection has
    # rank d², not (d + 1)², and the pivoted Cholesky stops at that row by name
    group = resolve_group(token)
    data = spectral_data(group)
    table = data.table
    row = next(r for r in range(len(table.degrees)) if table.degrees[r] > 1)
    degrees = table.degrees.copy()
    degrees[row] += 1
    wrong = CharacterTable(
        table.values, degrees, table.trivial_row, table.conjugation_multiplicities
    )
    d = int(table.degrees[row])
    with pytest.raises(SpectralInconsistencyError) as caught:
        fourier_basis(group, data.classes, wrong)
    assert f"row {row} (degree {d + 1})" in str(caught.value)
    assert f"rank {d * d}, not degree² = {(d + 1) ** 2}" in str(caught.value)


def test_real_probe_weights_cannot_split_a_quaternionic_row(monkeypatch):
    # SL(2,5)'s degree-2 rows are quaternionic: a probe with real weights commutes
    # with their antiunitary structure, so its eigenvalues come in pairs and no
    # draw separates a d-fold cluster; the error names the row and its degree
    group = resolve_group("sl2:5")
    data = spectral_data(group)
    degrees = data.table.degrees
    monkeypatch.setattr(
        quasimix.spectra, "_probe_weights", lambda rng, size: rng.standard_normal(size)
    )
    with pytest.raises(DegenerateSpectrumError) as caught:
        fourier_basis(group, data.classes, data.table)
    row = next(r for r in range(len(degrees)) if degrees[r] > 1)
    assert int(degrees[row]) == 2
    assert str(caught.value) == (
        f"row {row} (degree 2): no separated irreducible subspace after 20 attempts "
        "(last failure: lowest eigenvalue cluster is not separated)"
    )


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
