"""Class-matrix combinations, numerical character tables, and quasi-randomness degrees."""

import time
import tracemalloc

import numpy as np
import pytest

import quasimix._numutil
import quasimix.spectra
from oracles import (
    brute_class_average,
    brute_class_constant,
    class_structure_constants,
    column_pair_counts,
    dense_isotypic_project,
    float_character_table,
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
    format_cayley_table,
    group_from_table,
)
from quasimix.spectra import (
    DegenerateSpectrumError,
    _abelian_exponents,
    _abelian_rows,
    _pair_counts,
    _sorted_rows,
    SpectralInconsistencyError,
    character_table,
    class_algebra,
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
    monkeypatch, tmp_path, z6, s3, s4, a4, a5, sl2_5, sl2_7, psl2_7
):
    # each modular table's rows as character_table sorts them, and again in a shuffled order;
    # route A (z:6) sorts on its exponents and never calls _sorted_rows
    seen = []

    def spy(rows, degrees):
        seen.append((rows.copy(), degrees.copy()))
        return _sorted_rows(rows, degrees)

    monkeypatch.setattr(quasimix.spectra, "_sorted_rows", spy)
    for group in (z6, s3, s4, a4, a5, sl2_5, sl2_7, psl2_7):
        spectral_data(group)
    assert len(seen) == 7
    rng = np.random.default_rng(8)
    for rows, degrees in seen:
        assert np.array_equal(_sorted_rows(rows, degrees), tuple_sorted_rows(rows, degrees))
        shuffle = rng.permutation(len(rows))
        rows, degrees = rows[shuffle], degrees[shuffle]
        assert np.array_equal(_sorted_rows(rows, degrees), tuple_sorted_rows(rows, degrees))

    # route A's table, from its exponents as given and shuffled, is their lift in the
    # oracle's order, on one generator and on two
    for group in (z6, _relabelled_file_group(tmp_path, _cyclic_product_table(2, 6))):
        n = group.order
        exps, gens = _abelian_exponents(group)
        assert len(gens) == (1 if group is z6 else 2)
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        for shuffle in (np.arange(n), rng.permutation(n)):
            monkeypatch.setattr(
                quasimix.spectra, "_abelian_exponents", lambda _: (exps[shuffle], gens)
            )
            lifted = roots[exps[shuffle]]
            expect = lifted[tuple_sorted_rows(lifted, np.ones(n, dtype=np.int64))]
            assert np.array_equal(_abelian_rows(group), expect)
    assert len(seen) == 7


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
    # row_chunks' default cap, then one that holds 7 targets to a batch
    for cap in (quasimix._numutil.TEMP_ENTRIES, 7 * max(group.order, classes.num_classes**2)):
        monkeypatch.setattr(quasimix._numutil, "TEMP_ENTRIES", cap)
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
    assert peak < group.order**2 * group.mul.itemsize, peak


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
    with pytest.raises(
        SpectralInconsistencyError, match="not its representative's conjugacy class"
    ):
        character_table(s3, broken)


@pytest.mark.parametrize("field", ["class_of", "representatives"])
def test_singleton_classes_must_be_numbered_by_element(monkeypatch, z6, field):
    # route A's column c holds element c's values, so classes whose labels permute the
    # elements would get the canonical table under the wrong columns
    swap = np.array([0, 2, 1, 3, 4, 5])
    cc = conjugacy_classes(z6)
    class_of = swap.astype(np.int32) if field == "class_of" else cc.class_of
    relabelled = ConjugacyStructure(class_of, swap, cc.class_sizes, 6)
    monkeypatch.setattr(quasimix.spectra, "_abelian_rows", lambda group: pytest.fail("reached"))
    with pytest.raises(SpectralInconsistencyError, match="not numbered by their element"):
        character_table(z6, relabelled)


def _partition(labels):
    """The partition of the elements by label, each part represented by its first member;
    nothing checks that the parts are conjugacy classes."""
    _, reps, class_of, sizes = np.unique(
        labels, return_index=True, return_inverse=True, return_counts=True
    )
    return ConjugacyStructure(class_of.astype(np.int32), reps, sizes.astype(np.int64), len(reps))


def _wrong_partition(wrong):
    """A group and a partition of it that is not its conjugacy partition."""
    if wrong == "swapped":  # a member of each 12-element class of a:5 filed with the other's
        group = resolve_group("a:5")
        cc = conjugacy_classes(group)
        first, second = np.nonzero(cc.class_sizes == 12)[0]
        last = [np.nonzero(cc.class_of == c)[0][-1] for c in (first, second)]
        class_of = cc.class_of.copy()
        class_of[last] = second, first
        return group, ConjugacyStructure(class_of, cc.representatives, cc.class_sizes, 5)
    group = build_symmetric(3)
    cc = conjugacy_classes(group)
    split = cc.class_of.copy()
    split[np.nonzero(split == 1)[0][-1]] = 3  # a transposition on its own
    fused = _partition(np.arange(group.order) != group.identity)
    return group, {
        "fused": fused,
        "split": _partition(split),
        # the sizes of the orbits of the representatives, not of the fused parts
        "sizes": ConjugacyStructure(fused.class_of, fused.representatives, np.array([1, 3]), 2),
        "representatives": ConjugacyStructure(
            cc.class_of, cc.representatives[[0, 2, 1]], cc.class_sizes, 3
        ),
    }[wrong]


@pytest.mark.parametrize("wrong", ["fused", "split", "sizes", "representatives", "swapped"])
def test_class_certificate_rejects_wrong_partitions_before_class_algebra(monkeypatch, wrong):
    # the pair counts of s:3's fused partition {e}, G∖{e} and of its split one are constant on
    # their parts, so only the orbit-stabilizer certificate, not the degree test, names the
    # fault; "swapped" keeps every class size and centralizer, so only the orbit test fails
    group, classes = _wrong_partition(wrong)
    calls = []
    real = quasimix.spectra.class_algebra
    monkeypatch.setattr(
        quasimix.spectra, "class_algebra", lambda *args: calls.append(args) or real(*args)
    )
    with pytest.raises(
        SpectralInconsistencyError, match="disagree|not its representative's conjugacy class"
    ):
        character_table(group, classes)
    assert calls == []


@pytest.mark.parametrize("token", ["a:5", "s:6"])
def test_pair_counts_run_on_the_representatives_only(monkeypatch, token):
    # the class certificate reads no pair counts: class_algebra's k targets are the only ones
    group = resolve_group(token)
    classes = conjugacy_classes(group)
    targets = []
    real = quasimix.spectra._pair_counts
    monkeypatch.setattr(
        quasimix.spectra, "_pair_counts", lambda g, c, t: targets.append(t) or real(g, c, t)
    )
    character_table(group, classes)
    assert targets and all(np.array_equal(t, classes.representatives) for t in targets)


def test_cyclic_256_spectral_data_stays_small(subprocess_peak_mb):
    peak_mb = subprocess_peak_mb(
        "from quasimix.groups import build_cyclic\n"
        "from quasimix.spectra import spectral_data\n"
        "spectral_data(build_cyclic(256))\n"
    )
    assert peak_mb < 150.0, peak_mb


def test_cyclic_2048_spectral_data_stays_small(subprocess_peak_mb):
    # route A: int32 exponents (17 MB) and one 67 MB complex table at a time; a second
    # table would pass the bound, and the float route peaked at 876 MB
    peak_mb = subprocess_peak_mb(
        "from quasimix.groups import build_cyclic\n"
        "from quasimix.spectra import spectral_data\n"
        "spectral_data(build_cyclic(2048))\n"
    )
    assert peak_mb < 200.0, peak_mb


# every group token a test builds
PINNED_TOKENS = [f"z:{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 60, 256)] + [
    "s:3", "s:4", "s:5", "s:6", "s:7", "a:4", "a:5", "a:7",
    "sl2:3", "sl2:5", "sl2:7", "sl2:11", "sl2:13", "psl2:7", "psl2:11", "psl2:13",
]


def _assert_matches_float_oracle(group):
    classes = conjugacy_classes(group)
    exact, ref = character_table(group, classes), float_character_table(group, classes)
    assert np.array_equal(exact.degrees, ref.degrees), group.name
    assert exact.trivial_row == ref.trivial_row, group.name
    assert np.abs(exact.values - ref.values).max() < 1e-10, group.name  # rows in one order
    mults = exact.conjugation_multiplicities
    assert mults.dtype == np.int64, group.name
    assert np.array_equal(mults, ref.conjugation_multiplicities), group.name


@pytest.mark.parametrize("token", PINNED_TOKENS)
def test_exact_table_matches_the_float_oracle(token):
    _assert_matches_float_oracle(resolve_group(token))


def _cyclic_product_table(*orders):
    """Z_{orders[0]} × Z_{orders[1]} × ..., element i the mixed-radix digits of i."""
    digits = np.stack(np.unravel_index(np.arange(np.prod(orders)), orders))
    sums = (digits[:, :, None] + digits[:, None, :]) % np.array(orders)[:, None, None]
    return np.ravel_multi_index(tuple(sums), orders)


def _relabelled_file_group(tmp_path, mul):
    """The group of ``mul`` relabelled so its identity is not element 0, read through file:."""
    mul = np.asarray(mul)
    perm = np.random.default_rng(9).permutation(len(mul))  # element i becomes perm[i]
    relabelled = np.empty_like(mul)
    relabelled[np.ix_(perm, perm)] = perm[mul]
    group = group_from_table(relabelled)
    assert group.identity != 0
    path = tmp_path / "table.txt"
    path.write_text(format_cayley_table(group))
    return resolve_group(f"file:{path}")


def _dihedral_table(m):
    """The dihedral group of order 2m, element s·m + r the rotation r followed by s reflections."""
    r, s = np.arange(2 * m) % m, np.arange(2 * m) // m
    return (s[:, None] ^ s) * m + (r[:, None] + np.where(s[:, None] == 1, -r, r)) % m


@pytest.mark.parametrize(
    "table",
    [lambda: resolve_group("z:12").mul, lambda: _cyclic_product_table(2, 6),
     lambda: _cyclic_product_table(2, 2, 2), lambda: _cyclic_product_table(3, 3),
     lambda: resolve_group("s:4").mul, lambda: resolve_group("sl2:3").mul,
     lambda: _dihedral_table(50)],
    ids=["z:12", "z2xz6", "z2xz2xz2", "z3xz3", "s:4", "sl2:3", "dihedral-100"],
)
def test_exact_table_matches_the_float_oracle_on_a_relabelled_file(tmp_path, table):
    # non-cyclic abelian groups extend characters along two or three generators, and
    # the relabelling moves the identity off element 0
    _assert_matches_float_oracle(_relabelled_file_group(tmp_path, table()))


def test_many_class_dihedral_file_table_takes_seconds(tmp_path):
    # order 1000, 253 classes: one Krylov solve for the characteristic polynomial and one
    # DFT per cyclic subgroup keep it O(k³); k int64 k×k products for the polynomial take 40 s
    m = 500
    path = tmp_path / "dihedral.txt"
    path.write_text(format_cayley_table(group_from_table(_dihedral_table(m))))
    group = resolve_group(f"file:{path}")
    classes = conjugacy_classes(group)
    started = time.perf_counter()
    table = character_table(group, classes)
    assert time.perf_counter() - started < 15.0
    assert table.degrees.tolist() == [1] * 4 + [2] * (m // 2 - 1)
    # a degree-2 row takes 2cos(2πhj/m) at the rotation r^j, for one h in 1 .. m/2 - 1
    at_rotation = table.values[4:][:, classes.class_of[np.arange(m)]].real
    h = np.rint(np.arccos(at_rotation[:, 1] / 2) * m / (2 * np.pi))
    assert sorted(h.tolist()) == list(range(1, m // 2))
    expected = 2 * np.cos(2 * np.pi * np.outer(h, np.arange(m)) / m)
    assert np.abs(table.values[4:][:, classes.class_of[np.arange(m)]] - expected).max() < 1e-10


@pytest.mark.parametrize("token", ["s:3", "s:4", "a:5"])
def test_every_perturbed_class_algebra_entry_is_caught(monkeypatch, token):
    group = resolve_group(token)
    classes = conjugacy_classes(group)
    k = classes.num_classes
    for i in range(k):
        for j in range(k):
            def perturbed(group, classes, coeffs, i=i, j=j):
                combined = class_algebra(group, classes, coeffs)
                combined[i, j] += 1  # a nonzero change mod every p
                return combined

            monkeypatch.setattr(quasimix.spectra, "class_algebra", perturbed)
            with pytest.raises(SpectralInconsistencyError):
                character_table(group, classes)


@pytest.mark.parametrize("table", [np.add.outer(np.arange(6), np.arange(6)) % 6,
                                   _cyclic_product_table(2, 2, 2)], ids=["z:6", "z2xz2xz2"])
def test_every_perturbed_abelian_exponent_is_caught(monkeypatch, table):
    group = group_from_table(table)
    classes = conjugacy_classes(group)
    n = group.order
    for r in range(n):
        for x in range(n):
            def perturbed(group, r=r, x=x):
                exps, gens = _abelian_exponents(group)
                exps[r, x] = (exps[r, x] + 1) % n
                return exps, gens

            monkeypatch.setattr(quasimix.spectra, "_abelian_exponents", perturbed)
            with pytest.raises(SpectralInconsistencyError, match="not additive"):
                character_table(group, classes)


def test_spectral_data_still_validates_the_orthogonality_keyword(s3):
    # kept for callers that pass it; the exact table itself has no tolerance
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="orthogonality tolerance must be finite and > 0"):
            spectral_data(s3, ortho_tol=bad)


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

    def integers(self, low, high, size):
        return np.ones(size, dtype=np.int64)


def test_equal_weights_collide_and_raise(s3):
    cc = conjugacy_classes(s3)
    # All-equal weights sum the class matrices to the sum of the whole group, whose
    # eigenvalues 6, 0, 0 never separate the two nontrivial characters.
    with pytest.raises(DegenerateSpectrumError, match="eigenvalue collision"):
        character_table(s3, cc, rng=_ConstantWeights())


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
    assert s3_spectral.table.conjugation_multiplicities.tolist() == [1, 3, 1]
    assert spectral_data(a4).table.conjugation_multiplicities.tolist() == [1, 1, 4, 2]


def test_multiplicities_account_for_all_functions(s4, sl2_5):
    # The conjugation action on functions has dimension n, so the
    # multiplicity-weighted degrees must add up to the group order.
    for group in (s4, sl2_5):
        data = spectral_data(group)
        table = data.table
        assert int(table.conjugation_multiplicities @ table.degrees) == group.order


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
        assert data.table.conjugation_multiplicities[r] != 1
        assert not is_multiplicity_free(sl2_5, data.classes, data.table, r, rng)
