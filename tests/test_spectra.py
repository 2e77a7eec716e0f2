"""Class-matrix combinations, numerical character tables, and quasi-randomness degrees."""

import tracemalloc

import numpy as np
import pytest

import quasimix.spectra
from oracles import (
    brute_class_average,
    brute_class_constant,
    class_structure_constants,
    column_pair_counts,
    dense_isotypic_project,
    is_multiplicity_free,
    regular_degrees,
    tensor_class_combination,
    tuple_sorted_rows,
)
from quasimix.cli import resolve_group
from quasimix.groups import (
    ConjugacyStructure,
    build_cyclic,
    build_sl2,
    build_symmetric,
    conjugacy_classes,
)
from quasimix.spectra import (
    DegenerateSpectrumError,
    _pair_counts,
    _sorted_rows,
    SpectralInconsistencyError,
    character_table,
    class_algebra,
    conjugation_multiplicity,
    isotypic_project,
    quasirandomness_degree,
    spectral_data,
)

# (group token handled by fixtures) -> sorted irreducible degree multiset
FROZEN_DEGREES = {
    "z:4": [1, 1, 1, 1],
    "z:6": [1, 1, 1, 1, 1, 1],
    "s:3": [1, 1, 2],
    "a:4": [1, 1, 1, 3],
    "s:4": [1, 1, 2, 3, 3],
    "a:5": [1, 3, 3, 4, 5],
    "sl2:3": [1, 1, 1, 2, 2, 2, 3],
    "sl2:5": [1, 2, 2, 3, 3, 4, 4, 5, 6],
    "psl2:7": [1, 3, 3, 6, 7, 8],
}


def _round_row_set(values):
    return {tuple(np.round(row, 6)) for row in values}


def _class_matrix(group, cc, i):
    """M_i read through the kernel: the combination with coefficient vector e_i."""
    return class_algebra(group, cc, np.eye(cc.num_classes)[i])


def test_s3_class_constants(s3):
    cc = conjugacy_classes(s3)
    # class 1 = transpositions, class 2 = 3-cycles; (M_i)[l, j] = a[i, j, l]
    m1, m0 = _class_matrix(s3, cc, 1), _class_matrix(s3, cc, 0)
    assert m1[0, 1] == 3
    assert m1[1, 1] == 0
    assert m1[2, 1] == 3
    assert m1[1, 2] == 2
    assert m0[2, 2] == 1  # identity acts trivially


def test_class_constants_match_brute_counts(s4):
    cc = conjugacy_classes(s4)
    k = cc.num_classes
    oracle = class_structure_constants(s4, cc)
    members = [np.nonzero(cc.class_of == c)[0].tolist() for c in range(k)]
    mats = [_class_matrix(s4, cc, i) for i in range(k)]
    for i in range(k):
        assert np.array_equal(mats[i], oracle[i].T)
    rng = np.random.default_rng(11)
    for _ in range(25):
        i, j, l = rng.integers(0, k, size=3)
        z = members[l][0]
        assert mats[i][l, j] == brute_class_constant(s4, members[i], members[j], z)


def test_class_constant_row_sums(a4):
    cc = conjugacy_classes(a4)
    sizes = cc.class_sizes
    for i in range(cc.num_classes):
        mat = _class_matrix(a4, cc, i)
        # sum_l a[i, j, l] |C_l| = |C_i| |C_j|
        assert np.array_equal(sizes @ mat, sizes[i] * sizes)


def test_random_combinations_match_tensor_oracle(s4, a5, sl2_5, sl2_7):
    rng = np.random.default_rng(12)
    for group in (build_cyclic(12), s4, a5, sl2_5, sl2_7):
        cc = conjugacy_classes(group)
        coeffs = rng.uniform(1.0, 2.0, size=cc.num_classes)
        expect = tensor_class_combination(group, cc, coeffs)
        got = class_algebra(group, cc, coeffs)
        assert got.shape == (cc.num_classes, cc.num_classes)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_character_tables_match_tensor_oracle_path(monkeypatch, s4, a5, sl2_5, sl2_7):
    groups = (s4, a5, sl2_5, sl2_7, build_symmetric(6))
    direct = [spectral_data(group).table for group in groups]
    # character_table looks class_algebra up as a module global
    monkeypatch.setattr(quasimix.spectra, "class_algebra", tensor_class_combination)
    for group, table in zip(groups, direct):
        expect = spectral_data(group).table
        assert np.array_equal(table.degrees, expect.degrees), group.name
        assert np.abs(table.values - expect.values).max() < 1e-12, group.name


def test_sorted_rows_matches_tuple_key_oracle(
    monkeypatch, z6, s3, s4, a4, a5, sl2_5, sl2_7, psl2_7
):
    # each table's rows as character_table sorts them, and again in a shuffled order
    seen = []

    def spy(rows, degrees):
        seen.append((rows.copy(), degrees.copy()))
        return _sorted_rows(rows, degrees)

    monkeypatch.setattr(quasimix.spectra, "_sorted_rows", spy)
    for group in (z6, s3, s4, a4, a5, sl2_5, sl2_7, psl2_7):
        spectral_data(group)
    assert len(seen) == 8
    rng = np.random.default_rng(8)
    for rows, degrees in seen:
        assert np.array_equal(_sorted_rows(rows, degrees), tuple_sorted_rows(rows, degrees))
        shuffle = rng.permutation(len(rows))
        rows, degrees = rows[shuffle], degrees[shuffle]
        assert np.array_equal(_sorted_rows(rows, degrees), tuple_sorted_rows(rows, degrees))


def test_sorted_rows_breaks_rounding_ties_as_the_oracle():
    # Rows 0, 1 and 6 agree once rounded to 6 digits, and so do the real parts of rows 4
    # and 7; -1e-8 rounds to -0.0, and -0.0 ties with +0.0 as it does in Python, so the
    # next key decides, then the imaginary parts, then the row index.
    real = np.array([
        [1.0, 0.5000004, 0.0],
        [1.0, 0.4999996, 0.0],
        [1.0, -1e-8, 0.5],
        [1.0, 0.0, -0.5],
        [1.0, -0.0, 0.25],
        [2.0, -1.0, 0.0],
        [1.0, 0.5, 0.0],
        [1.0, -0.0, 0.25],
    ])
    imag = np.zeros_like(real)
    imag[[0, 1, 6], 2] = [0.2, 0.1, 0.2]
    imag[4, 1] = -0.0
    rows = np.empty(real.shape, dtype=np.complex128)
    rows.real, rows.imag = real, imag
    degrees = np.array([1, 1, 1, 1, 1, 2, 1, 1])
    expect = [3, 4, 7, 2, 1, 0, 6, 5]
    assert tuple_sorted_rows(rows, degrees).tolist() == expect
    assert _sorted_rows(rows, degrees).tolist() == expect


@pytest.mark.parametrize("token", ["z:1", "z:12", "s:4", "a:5", "sl2:5", "sl2:7", "psl2:11"])
def test_pair_counts_match_column_oracle_over_every_target(monkeypatch, token):
    group = resolve_group(token)
    classes = conjugacy_classes(group)
    targets = np.random.default_rng(0).permutation(group.order)
    expect = column_pair_counts(group, classes, targets)
    # the default cap holds every target in one batch; the second holds 7 to a batch
    for cap in (quasimix.spectra._CHUNK_ENTRIES, 7 * max(group.order, classes.num_classes**2)):
        monkeypatch.setattr(quasimix.spectra, "_CHUNK_ENTRIES", cap)
        got = np.concatenate(list(_pair_counts(group, classes, targets)))
        assert got.dtype == expect.dtype and np.array_equal(got, expect), cap


@pytest.mark.parametrize("token", ["z:1", "s:4", "sl2:7"])
def test_spectral_data_builds_no_conjugation_table(token):
    group = resolve_group(token)
    spectral_data(group)
    assert group._conj_table is None


@pytest.mark.parametrize("token", ["sl2:13", "a:7"])
def test_spectral_data_peaks_below_one_conjugation_table(token):
    # classes from generator orbits, commutators from k conjugation rows, and pair
    # counts from row batches: no n×n table is formed at any point
    group = resolve_group(token)
    tracemalloc.start()
    try:
        spectral_data(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < group.order**2 * np.dtype(np.int32).itemsize, peak


def test_misassigned_class_fails_constancy_check(s3):
    cc = conjugacy_classes(s3)
    moved = int(np.nonzero(cc.class_of == 1)[0][-1])  # one transposition ...
    class_of = cc.class_of.copy()
    class_of[moved] = 2  # ... filed with the 3-cycles
    broken = ConjugacyStructure(
        class_of=class_of,
        representatives=cc.representatives,
        class_sizes=np.bincount(class_of, minlength=3).astype(np.int64),
        num_classes=3,
    )
    with pytest.raises(SpectralInconsistencyError, match="not constant on classes"):
        character_table(s3, broken)


def test_cyclic_256_spectral_data_stays_small(subprocess_peak_mb):
    peak_mb = subprocess_peak_mb(
        "from quasimix.groups import build_cyclic\n"
        "from quasimix.spectra import spectral_data\n"
        "spectral_data(build_cyclic(256))\n"
    )
    assert peak_mb < 150.0, peak_mb


def test_s3_character_table_values(s3_spectral):
    rows = _round_row_set(s3_spectral.table.values)
    assert rows == {
        (1.0, 1.0, 1.0),
        (1.0, -1.0, 1.0),
        (2.0, 0.0, -1.0),
    }
    assert s3_spectral.table.degrees.tolist() == [1, 1, 2]
    # sign character sorts before the trivial one
    assert s3_spectral.table.trivial_row == 1


def test_z4_character_table_values():
    data = spectral_data(build_cyclic(4))
    # classes are singletons in element order, so rows are (i^k)_k for k=0..3
    expect = set()
    for k in range(4):
        expect.add(tuple(np.round(1j**(k * np.arange(4)), 6)))
    assert _round_row_set(data.table.values) == expect


def test_frozen_degree_multisets(z6, s3, s4, a4, a5, sl2_5, psl2_7):
    groups = {
        "z:4": build_cyclic(4),
        "z:6": z6,
        "s:3": s3,
        "a:4": a4,
        "s:4": s4,
        "a:5": a5,
        "sl2:3": build_sl2(3),
        "sl2:5": sl2_5,
        "psl2:7": psl2_7,
    }
    for token, expect in FROZEN_DEGREES.items():
        got = sorted(spectral_data(groups[token]).table.degrees.tolist())
        assert got == expect, token


def test_degrees_against_regular_representation_oracle(s3, a4, a5):
    rng = np.random.default_rng(5)
    for group in (build_cyclic(6), s3, a4, a5):
        data = spectral_data(group)
        assert sorted(data.table.degrees.tolist()) == regular_degrees(group, rng)


def test_row_and_column_orthogonality(s4, sl2_5):
    for group in (s4, sl2_5):
        data = spectral_data(group)
        cc = data.classes
        rows = data.table.values
        k = cc.num_classes
        gram = (rows * (cc.class_sizes / group.order)[None, :]) @ rows.conj().T
        assert np.abs(gram - np.eye(k)).max() < 1e-10
        col = np.einsum("rc,rd->cd", rows, rows.conj())
        assert np.abs(col - np.diag(group.order / cc.class_sizes)).max() < 1e-10


def test_spectral_data_rejects_negative_seed_before_class_work(monkeypatch, s3):
    calls = []
    monkeypatch.setattr(quasimix.spectra, "conjugacy_classes", lambda group: calls.append(group))
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        spectral_data(s3, seed=-1)
    assert calls == []


def test_spectral_data_is_deterministic(s3):
    one = spectral_data(s3)
    two = spectral_data(s3)
    assert np.array_equal(one.table.values, two.table.values)
    assert np.array_equal(one.table.degrees, two.table.degrees)


def test_quasirandomness_degrees(z6, s3, a5, sl2_5, sl2_7, psl2_7):
    assert spectral_data(z6).quasirandomness.degree == 1
    assert spectral_data(s3).quasirandomness.degree == 1
    assert spectral_data(a5).quasirandomness.degree == 3
    assert spectral_data(sl2_5).quasirandomness.degree == 2
    assert spectral_data(sl2_7).quasirandomness.degree == 3
    assert spectral_data(psl2_7).quasirandomness.degree == 3
    assert spectral_data(build_sl2(3)).quasirandomness.degree == 1


def test_perfectness_flags(s3, a5, sl2_5):
    assert spectral_data(s3).is_perfect is False
    assert spectral_data(a5).is_perfect is True
    assert spectral_data(sl2_5).is_perfect is True


def test_trivial_group_degree_is_none():
    data = spectral_data(build_cyclic(1))
    assert data.quasirandomness.degree is None
    assert data.quasirandomness.witness_row is None
    assert data.is_perfect is True


def test_wrong_perfectness_flag_is_caught(s3_spectral, a5):
    with pytest.raises(SpectralInconsistencyError, match="contradicts perfectness"):
        quasirandomness_degree(s3_spectral.table, True)
    with pytest.raises(SpectralInconsistencyError, match="contradicts perfectness"):
        quasirandomness_degree(spectral_data(a5).table, False)


class _ConstantWeights:
    """Stub generator whose 'random' class-matrix weights are all equal."""

    def uniform(self, low, high, size):
        return np.ones(size)


def test_equal_weights_collide_and_raise():
    g = build_cyclic(4)
    cc = conjugacy_classes(g)
    # All-equal weights sum the class matrices to the all-ones matrix, whose
    # spectrum {4, 0, 0, 0} never separates the three nontrivial characters.
    with pytest.raises(DegenerateSpectrumError, match="eigenvalue collision"):
        character_table(g, cc, rng=_ConstantWeights())


def test_isotypic_projections_on_abelian(z6):
    data = spectral_data(z6)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    triv = data.table.trivial_row
    for row in range(data.classes.num_classes):
        proj = isotypic_project(z6, data.classes, data.table, f, row)
        if row == triv:
            # conjugation is trivial on an abelian group
            assert np.abs(proj - f).max() < 1e-12
        else:
            assert np.abs(proj).max() < 1e-12


def test_isotypic_projections_decompose_identity(s4):
    data = spectral_data(s4)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    total = np.zeros(24, dtype=np.complex128)
    for row in range(data.classes.num_classes):
        proj = isotypic_project(s4, data.classes, data.table, f, row)
        total += proj
        again = isotypic_project(s4, data.classes, data.table, proj, row)
        assert np.abs(again - proj).max() < 1e-10
        for other in range(row):
            cross = isotypic_project(
                s4, data.classes, data.table,
                isotypic_project(s4, data.classes, data.table, f, other), row,
            )
            assert np.abs(cross).max() < 1e-10
    assert np.abs(total - f).max() < 1e-10


def test_trivial_projection_is_class_average(s3_spectral, s3):
    rng = np.random.default_rng(4)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    proj = isotypic_project(
        s3, s3_spectral.classes, s3_spectral.table, f, s3_spectral.table.trivial_row
    )
    assert np.abs(proj - brute_class_average(s3, f)).max() < 1e-12


@pytest.mark.parametrize("token", ["sl2:7", "psl2:11"])
def test_isotypic_project_matches_dense_gather_across_row_chunks(token):
    # sl2:7 sums its h in 2 row chunks and psl2:11 in 7; orders up to 256 take one
    group = resolve_group(token)
    data = spectral_data(group)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    for row in range(data.classes.num_classes):
        got = isotypic_project(group, data.classes, data.table, f, row)
        expect = dense_isotypic_project(group, data.classes, data.table, f, row)
        assert np.abs(got - expect).max() <= 1e-12 * max(np.abs(expect).max(), 1.0)


def test_isotypic_project_rejects_bad_shape(s3_spectral, s3):
    with pytest.raises(ValueError, match="expected 6 values"):
        isotypic_project(s3, s3_spectral.classes, s3_spectral.table, np.ones(5), 0)


def test_conjugation_multiplicities(s3_spectral, a4):
    table = s3_spectral.table
    assert [conjugation_multiplicity(table, r) for r in range(3)] == [1, 3, 1]
    a4_data = spectral_data(a4)
    ms = [conjugation_multiplicity(a4_data.table, r) for r in range(4)]
    assert ms == [1, 1, 4, 2]


def test_multiplicities_account_for_all_functions(s4, sl2_5):
    # The conjugation action on functions has dimension n, so the
    # multiplicity-weighted degrees must add up to the group order.
    for group in (s4, sl2_5):
        data = spectral_data(group)
        total = sum(
            conjugation_multiplicity(data.table, r) * int(data.table.degrees[r])
            for r in range(data.classes.num_classes)
        )
        assert total == group.order


def test_multiplicity_free_detection(s3_spectral, s3, a4):
    rng = np.random.default_rng(6)
    flags = [
        is_multiplicity_free(s3, s3_spectral.classes, s3_spectral.table, r, rng)
        for r in range(3)
    ]
    assert flags == [True, False, True]
    a4_data = spectral_data(a4)
    flags = [
        is_multiplicity_free(a4, a4_data.classes, a4_data.table, r, rng)
        for r in range(4)
    ]
    assert flags == [True, True, False, False]


def test_sl2_5_has_no_multiplicity_free_nontrivial_rows(sl2_5):
    data = spectral_data(sl2_5)
    rng = np.random.default_rng(7)
    triv = data.table.trivial_row
    for r in range(data.classes.num_classes):
        if r == triv:
            continue
        m = conjugation_multiplicity(data.table, r)
        assert m != 1
        assert not is_multiplicity_free(sl2_5, data.classes, data.table, r, rng)
