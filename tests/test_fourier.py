"""The Fourier basis (unitary irreps from the Cayley table) and the Plancherel kernels."""

import numpy as np
import pytest

import quasimix.harmonic
import quasimix.spectra
from oracles import (
    cond_exp_conj,
    loop_step3_intermediate,
    loop_substitution_distance,
    projection_fourier_basis,
    sample_interior_disc,
    substitution_distance,
)
from quasimix.cli import resolve_group
from quasimix.groups import _generators
from quasimix.harmonic import GroupFunction, Harmonic, centered, sample_disc
from quasimix.spectra import (
    CharacterTable,
    DegenerateSpectrumError,
    FourierBasis,
    SpectralInconsistencyError,
    _check_basis,
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


def _blocks(basis, rows, d, cols):
    return basis.matrix[rows][:, cols].reshape(len(rows), -1, d, d)


def test_basis_is_a_homomorphism_on_sampled_pairs(built):
    group, _, basis = built
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, group.order, size=(2, 2000))
    for d, cols in basis.runs:
        lhs = _blocks(basis, x, d, cols) @ _blocks(basis, y, d, cols)
        assert np.abs(lhs - _blocks(basis, group.mul[x, y], d, cols)).max() < 1e-12


def test_basis_is_unitary_with_schur_orthogonality(built):
    group, data, basis = built
    degrees = np.repeat(data.table.degrees, data.table.degrees**2)
    gram = basis.matrix.conj().T @ basis.matrix * np.sqrt(np.outer(degrees, degrees)) / group.order
    assert np.abs(gram - np.eye(group.order)).max() < 1e-12


def test_basis_traces_are_the_characters(built):
    group, data, basis = built
    table, start = data.table, 0
    for r, d in enumerate(table.degrees):
        trace = basis.matrix[:, start : start + d * d : d + 1].sum(axis=1)
        assert np.abs(trace - table.values[r][data.classes.class_of]).max() < 1e-10
        start += d * d
    assert start == group.order


def _mutants(group, data, basis):
    """Corrupted copies of a correct basis, one per cross-check that must catch it."""
    table = data.table
    d, cols = basis.runs[-1]
    one_entry = basis.matrix.copy()
    one_entry[group.order // 2, cols.start] += 1e-6
    yield "homomorphism", one_entry

    skewed = basis.matrix.copy()  # S·ρ·S⁻¹ with S not unitary: still a representation
    scale = np.eye(d)
    scale[0, 0] = 2.0
    first = slice(cols.start, cols.start + d * d)
    block = skewed[:, first].reshape(-1, d, d)
    skewed[:, first] = (scale @ block @ np.linalg.inv(scale)).reshape(-1, d * d)
    yield "unitarity", skewed

    # two inequivalent irreps of one degree, exchanged: still unitary representations
    r = next(r for r in range(1, len(table.degrees)) if table.degrees[r] == table.degrees[r - 1])
    offsets = np.concatenate([[0], np.cumsum(table.degrees**2)])
    a, b = slice(offsets[r - 1], offsets[r]), slice(offsets[r], offsets[r + 1])
    swapped = basis.matrix.copy()
    swapped[:, a], swapped[:, b] = basis.matrix[:, b], basis.matrix[:, a]
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
        mutant = FourierBasis(matrix, basis.runs, basis.trivial_column)
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
    assert not np.array_equal(fast.fourier().matrix, oracle.fourier().matrix)
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
    wrong = CharacterTable(table.values, degrees, table.trivial_row)
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
