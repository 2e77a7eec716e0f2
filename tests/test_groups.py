"""Cayley-table construction, validation, builders, and conjugacy structure."""

import re
import tracemalloc

import numpy as np
import pytest

from oracles import (
    all_pairs_commutator_subgroup,
    brute_conjugacy_partition,
    inverse,
    loop_permutation_table,
    loop_sl2_table,
    column_minimum_conjugacy_classes,
    product,
)
from quasimix.cli import main, resolve_group
from quasimix.groups import (
    MAX_ORDER,
    CayleyTableError,
    build_alternating,
    build_cyclic,
    build_psl2,
    build_sl2,
    build_symmetric,
    commutator_subgroup,
    conjugacy_classes,
    format_cayley_table,
    group_from_table,
    load_cayley_table,
)
from quasimix.spectra import spectral_data

# Latin square, two-sided identity 0, every element self-inverse — but not
# associative: (1*1)*2 = 2 while 1*(1*2) = 1*3 = 4.
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# Latin square with identity 0 where element 2's right inverse is not a left
# inverse: 2*3 = 0 but 3*2 = 1.
ONE_SIDED_INVERSE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_cyclic_basics():
    g = build_cyclic(6)
    assert g.order == 6
    assert g.identity == 0
    for a in range(6):
        for b in range(6):
            assert product(g, a, b) == (a + b) % 6
        assert inverse(g, a) == (-a) % 6
    assert g.name == "z:6"
    assert g.assoc_check == "exhaustive"


def test_trivial_group():
    g = build_cyclic(1)
    assert g.order == 1
    assert g.identity == 0
    assert product(g, 0, 0) == 0


def test_symmetric_composition_convention():
    # Elements are permutations of {0,1,2} in lexicographic order; the product
    # a*b applies b first.  (1 0 2)∘(0 2 1) = (1 2 0) and (0 2 1)∘(1 0 2) = (2 0 1).
    g = build_symmetric(3)
    assert g.order == 6
    assert product(g, 2, 1) == 3
    assert product(g, 1, 2) == 4


def test_symmetric_orders():
    for m, expect in [(2, 2), (3, 6), (4, 24), (5, 120)]:
        assert build_symmetric(m).order == expect
    assert build_alternating(4).order == 12
    assert build_alternating(5).order == 60


def test_matrix_group_orders():
    assert build_sl2(3).order == 24
    assert build_sl2(5).order == 120
    assert build_sl2(7).order == 336
    assert build_psl2(7).order == 168


def test_builder_range_errors():
    with pytest.raises(ValueError):
        build_symmetric(8)
    with pytest.raises(ValueError):
        build_alternating(1)
    with pytest.raises(ValueError):
        build_sl2(4)
    with pytest.raises(ValueError):
        build_cyclic(0)
    with pytest.raises(ValueError):
        build_psl2(4)
    with pytest.raises(ValueError):
        build_psl2(17)
    with pytest.raises(ValueError):
        build_sl2(17)
    with pytest.raises(ValueError):
        build_symmetric(1)
    with pytest.raises(ValueError):
        build_alternating(8)
    with pytest.raises(ValueError):
        build_cyclic(MAX_ORDER + 1)


# Every built-in permutation and matrix table but s:7, whose row loop alone
# takes over a second.
BUILT_IN_TOKENS = (
    [f"s:{m}" for m in range(2, 7)]
    + [f"a:{m}" for m in range(2, 8)]
    + [f"{family}:{p}" for family in ("sl2", "psl2") for p in (3, 5, 7, 11, 13)]
)


@pytest.mark.parametrize("token", BUILT_IN_TOKENS)
def test_builders_match_row_loop_oracles(token):
    family, arg = token.split(":")
    if family in ("s", "a"):
        oracle = loop_permutation_table(int(arg), even_only=family == "a")
    else:
        oracle = loop_sl2_table(int(arg), projective=family == "psl2")
    group = resolve_group(token)
    assert group.mul.dtype == oracle.mul.dtype and group.mul.shape == oracle.mul.shape
    assert group.mul.tobytes() == oracle.mul.tobytes()
    assert np.array_equal(group.inv, oracle.inv)
    assert (group.identity, group.name, group.assoc_check) == (
        oracle.identity, oracle.name, oracle.assoc_check
    )


def test_alternating_7_build_stays_small(subprocess_peak_mb):
    # Row chunks keep every composition temporary at TEMP_ENTRIES entries; one
    # unchunked n*n*m int64 composition alone would be 356 MB here.
    peak_mb = subprocess_peak_mb("from quasimix.groups import build_alternating\nbuild_alternating(7)\n")
    assert peak_mb < 150.0, peak_mb


def test_symmetric_7_build_keeps_one_table(subprocess_peak_mb):
    # The builder's fresh int32 table becomes the group's own: one 101 MB
    # table at the peak, not a second copy made during validation.
    peak_mb = subprocess_peak_mb("from quasimix.groups import build_symmetric\nbuild_symmetric(7)\n")
    assert peak_mb < 200.0, peak_mb


def test_group_from_table_copies_the_callers_array():
    table = build_cyclic(5).mul.copy()
    g = group_from_table(table)
    assert table.dtype == np.int32 and table.flags.writeable
    assert not np.shares_memory(table, g.mul)
    table[0, 0] = 4
    assert product(g, 0, 0) == 0


def test_identity_need_not_be_zero():
    # Z_2 written with the identity in slot 1.
    g = group_from_table([[1, 0], [0, 1]])
    assert g.order == 2
    assert g.identity == 1
    assert inverse(g, 0) == 0


def test_rejects_non_square():
    with pytest.raises(CayleyTableError, match="must be square"):
        group_from_table([[0, 1, 2], [1, 2, 0]])


def test_rejects_out_of_range_entry():
    with pytest.raises(CayleyTableError, match="outside 0..1"):
        group_from_table([[0, 1], [1, 2]])


@pytest.mark.parametrize(
    "table", [[[0, 1], [1, 0.5]], [[0, 1.9], [1.2, 0]], [[0, 1], [1, "0"]]]
)
def test_rejects_non_integer_table_before_any_cast(table):
    # an integer cast would truncate 0.5 to 0 and 1.9 to 1 and accept both as Z/2
    dtype = str(np.asarray(table).dtype)
    with pytest.raises(CayleyTableError, match=f"must be integers, got dtype {re.escape(dtype)}"):
        group_from_table(table)


def test_accepts_every_integer_dtype():
    for dtype in (np.uint8, np.int16, np.int32, np.int64):
        assert group_from_table(np.array([[0, 1], [1, 0]], dtype=dtype)).order == 2


def test_rejects_repeating_row():
    with pytest.raises(CayleyTableError, match=r"row 1 is not a permutation \(element 1 repeats\)"):
        group_from_table([[0, 1], [1, 1]])


def test_rejects_repeating_column():
    with pytest.raises(CayleyTableError, match="column 0 is not a permutation"):
        group_from_table([[0, 1, 2], [0, 2, 1], [1, 0, 2]])


def test_latin_checks_name_the_first_bad_row_and_column_past_the_first_block():
    # the rows and columns are sorted in blocks of row_chunks(300, 300), 218 to a block
    # at n = 300, so index 250 sits in the second block, ahead of a second bad row 290
    mul = build_cyclic(300).mul.copy()
    mul[250, 7] = mul[250, 8]
    mul[290, 0] = mul[290, 1]
    with pytest.raises(
        CayleyTableError, match=r"^row 250 is not a permutation \(element 258 repeats\)$"
    ):
        group_from_table(mul)
    mul = build_cyclic(300).mul.copy()
    mul[5, [240, 260]] = mul[5, [260, 240]]  # row 5 stays a permutation
    with pytest.raises(
        CayleyTableError, match=r"^column 240 is not a permutation \(element 265 repeats\)$"
    ):
        group_from_table(mul)


def test_rejects_latin_square_without_identity():
    # Latin on both sides, but no row equals the identity permutation.
    with pytest.raises(CayleyTableError, match="no two-sided identity"):
        group_from_table([[1, 0, 2], [0, 2, 1], [2, 1, 0]])


def test_rejects_one_sided_inverse():
    with pytest.raises(CayleyTableError, match="not two-sided"):
        group_from_table(ONE_SIDED_INVERSE)


def test_rejects_non_associative_loop():
    with pytest.raises(CayleyTableError, match=r"associativity fails at triple \(1, 1, 2\)"):
        group_from_table(NONASSOC_LOOP)


def test_relabeled_copy_is_valid():
    # Push each group through a random relabeling that moves its identity off element 0;
    # the copy must validate, with the relabeled identity, inverses and classes.
    for token in ("z:6", "s:4", "sl2:5"):
        _check_relabeled_copy(resolve_group(token), np.random.default_rng(3))


def _relabeled(g, rng):
    """A random relabeling sigma that moves the identity off element 0, and the table under it."""
    sigma = rng.permutation(g.order)
    if sigma[g.identity] == 0:
        sigma = np.roll(sigma, 1)
    inv_sigma = np.argsort(sigma)
    return sigma, sigma[g.mul[np.ix_(inv_sigma, inv_sigma)]]


def _check_relabeled_copy(g, rng):
    sigma, relabeled = _relabeled(g, rng)
    h = group_from_table(relabeled)
    assert h.order == g.order
    assert h.identity == sigma[g.identity] != 0
    assert np.array_equal(h.inv[sigma], sigma[g.inv])

    cc = conjugacy_classes(h)
    members = [np.flatnonzero(cc.class_of == c) for c in range(cc.num_classes)]
    assert {frozenset(m.tolist()) for m in members} == brute_conjugacy_partition(h)
    assert {frozenset(m.tolist()) for m in members} == {
        frozenset(sigma[list(orbit)].tolist()) for orbit in brute_conjugacy_partition(g)
    }
    assert [int(m[0]) for m in members] == cc.representatives.tolist()
    assert np.all(np.diff(cc.representatives) > 0)  # numbered by smallest member
    assert cc.class_sizes.tolist() == [len(m) for m in members]
    assert (cc.class_of.dtype, cc.representatives.dtype, cc.class_sizes.dtype) == (
        np.int32, np.int32, np.int64
    )

    before, after = spectral_data(g), spectral_data(h)
    assert sorted(after.table.degrees.tolist()) == sorted(before.table.degrees.tolist()), g.name
    assert after.quasirandomness.degree == before.quasirandomness.degree, g.name


def test_randomized_assoc_mode_for_large_groups():
    g = build_cyclic(300)
    assert g.assoc_check == "randomized(100000)"
    assert g.order == 300


def test_conjugation_table_matches_scalar_definition(s3):
    conj = s3.conjugation_table()
    for g in range(6):
        for x in range(6):
            assert conj[g, x] == product(s3, product(s3, g, x), inverse(s3, g))


def test_conjugacy_classes_match_brute_force(s3, a4):
    for group in (s3, a4):
        cc = conjugacy_classes(group)
        expect = brute_conjugacy_partition(group)
        got = set()
        for c in range(cc.num_classes):
            got.add(frozenset(np.nonzero(cc.class_of == c)[0].tolist()))
        assert got == expect
        assert int(cc.class_sizes.sum()) == group.order


def test_s3_class_structure(s3):
    cc = conjugacy_classes(s3)
    assert cc.num_classes == 3
    buckets = {}
    for x in range(6):
        buckets.setdefault(int(cc.class_of[x]), set()).add(x)
    assert buckets[0] == {0}
    assert buckets[1] == {1, 2, 5}  # the transpositions
    assert buckets[2] == {3, 4}  # the 3-cycles
    assert cc.class_sizes.tolist() == [1, 3, 2]


# every group a test builds, and the trivial group
_CLASS_GROUPS = (
    "z:1", "z:6", "z:12", "s:3", "s:4", "a:4", "a:5", "sl2:3", "sl2:5", "sl2:7", "psl2:7",
    "psl2:11", "s:6", "sl2:13",
)


def _assert_same_classes(got, expect):
    assert got.num_classes == expect.num_classes
    for field in ("class_of", "representatives", "class_sizes"):
        a, b = getattr(got, field), getattr(expect, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


@pytest.mark.parametrize("token", _CLASS_GROUPS)
def test_conjugacy_classes_match_column_minimum_oracle(token):
    group = resolve_group(token)
    got = conjugacy_classes(group)
    assert group._conj_table is None  # the orbits come from the generators alone
    _assert_same_classes(got, column_minimum_conjugacy_classes(group))


@pytest.mark.parametrize("token", ["z:6", "s:4", "sl2:5"])
def test_relabeled_file_table_classes_match_column_minimum_oracle(tmp_path, token):
    _, relabeled = _relabeled(resolve_group(token), np.random.default_rng(5))
    path = tmp_path / "table.txt"
    path.write_text(format_cayley_table(group_from_table(relabeled, name=token)))
    group = resolve_group(f"file:{path}")
    assert group.identity != 0
    _assert_same_classes(conjugacy_classes(group), column_minimum_conjugacy_classes(group))


def test_class_count_facts(a5, s4):
    assert conjugacy_classes(a5).num_classes == 5
    assert conjugacy_classes(s4).num_classes == 5
    assert conjugacy_classes(build_cyclic(7)).num_classes == 7


def test_commutator_subgroup_sizes(z6, s3, s4, a4, a5):
    assert len(commutator_subgroup(z6)) == 1
    assert len(commutator_subgroup(s3)) == 3
    assert len(commutator_subgroup(s4)) == 12
    assert len(commutator_subgroup(a4)) == 4
    assert len(commutator_subgroup(a5)) == 60
    assert len(commutator_subgroup(build_sl2(3))) == 8


@pytest.mark.parametrize("token", ["s:7", "a:7", "sl2:13", "s:4", "a:5", "z:12", "sl2:3"])
def test_commutator_subgroup_matches_all_pairs_route(token):
    group = resolve_group(token)
    assert commutator_subgroup(group) == all_pairs_commutator_subgroup(group)


def test_commutator_subgroup_is_closed(s4):
    sub = commutator_subgroup(s4)
    for a in sub:
        assert inverse(s4, a) in sub
        for b in sub:
            assert product(s4, a, b) in sub


def test_cayley_text_round_trip(s3):
    text = format_cayley_table(s3)
    g = load_cayley_table(text, name="again")
    assert g.order == s3.order
    assert np.array_equal(g.mul, s3.mul)
    assert g.name == "again"


def test_loader_accepts_comments_and_blanks():
    text = "# a comment\n\n2\n# interior\n0 1\n1 0\n"
    g = load_cayley_table(text)
    assert g.order == 2


def test_loader_error_positions():
    with pytest.raises(CayleyTableError, match="empty input"):
        load_cayley_table("# only comments\n")
    with pytest.raises(CayleyTableError, match="line 1: non-integer token"):
        load_cayley_table("two\n0 1\n1 0\n")
    with pytest.raises(CayleyTableError, match="line 1: expected a single order value"):
        load_cayley_table("2 2\n")
    with pytest.raises(CayleyTableError, match="order must be >= 1"):
        load_cayley_table("0\n")
    with pytest.raises(CayleyTableError, match="line 2: expected 2 entries, got 3"):
        load_cayley_table("2\n0 1 1\n")
    with pytest.raises(CayleyTableError, match="line 4: more than 2 table rows"):
        load_cayley_table("2\n0 1\n1 0\n0 1\n")
    with pytest.raises(CayleyTableError, match="expected 3 table rows, got 1"):
        load_cayley_table("3\n0 1 2\n")


def test_loader_reads_the_tokens_int_reads():
    g = load_cayley_table("2\n+0 1\n0_1 00\n")
    assert np.array_equal(g.mul, [[0, 1], [1, 0]])


def test_loader_names_the_first_entry_outside_the_range():
    # numpy reads the first two lines; an entry beyond int64 sends a line through int()
    with pytest.raises(CayleyTableError, match=r"^line 2: entry -1 is outside 0\.\.1$"):
        load_cayley_table("2\n-1 5\n1 0\n")
    with pytest.raises(CayleyTableError, match=r"^line 3: entry -1 is outside 0\.\.1$"):
        load_cayley_table("2\n0 1\n-1 100000000000000000000000\n")
    with pytest.raises(CayleyTableError, match=r"^line 3: non-integer token$"):
        load_cayley_table("2\n0 1\n100000000000000000000000 x\n")
    with pytest.raises(CayleyTableError, match=f"^order {10**23} exceeds the supported cap"):
        load_cayley_table(f"{10**23}\n0\n")


def test_loader_reads_rows_straight_into_an_int32_table():
    # rows go straight into one int32 table: no list of Python ints (about
    # ten times the table at this order) is kept while the file is read
    text = format_cayley_table(build_cyclic(1000))
    tracemalloc.start()
    try:
        group = load_cayley_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.mul.dtype == np.int32
    assert np.array_equal(group.mul, build_cyclic(1000).mul)
    assert peak < 2 * group.mul.nbytes + 2 * len(text)  # the table and the group's copy


def test_loader_rejects_an_oversized_order_line_before_any_row(tmp_path, capsys):
    message = f"order {MAX_ORDER + 1} exceeds the supported cap {MAX_ORDER}"
    with pytest.raises(CayleyTableError, match=message):
        load_cayley_table(f"{MAX_ORDER + 1}\n")
    # the rows are never read, so a malformed first row is not what gets reported
    with pytest.raises(CayleyTableError, match=message):
        load_cayley_table(f"# big\n{MAX_ORDER + 1}\nnot a row\n")
    path = tmp_path / "big.txt"
    path.write_text(f"{MAX_ORDER + 1}\n")
    assert main(["analyze", "--group", f"file:{path}"]) == 1
    assert message in capsys.readouterr().err
