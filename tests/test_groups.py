"""Cayley-table construction, validation, builders, and conjugacy structure."""

import importlib.util
import pathlib
import re
import time
import tracemalloc
from itertools import permutations
from itertools import product as product_of

import numpy as np
import pytest

from oracles import (
    NONASSOC_LOOP,
    all_pairs_commutator_subgroup,
    brute_conjugacy_partition,
    brute_is_group,
    chunked_element_table,
    inverse,
    loop_permutation_table,
    loop_sl2_table,
    column_minimum_conjugacy_classes,
    middle_nucleus_verdict,
    product,
    product_closure,
    rebuilt_generators,
    representative_commutator_subgroup,
)
import quasimix.groups
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
    _generators,
    _validated_group,
)
from quasimix.report import group_summary
from quasimix.spectra import _FOURIER_TAG, spectral_data

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
    assert (group.identity, group.name) == (oracle.identity, oracle.name)


def _table_builder(token):
    """The unvalidated table builder of a permutation or matrix token."""
    family, arg = token.split(":")
    if family in ("s", "a"):
        return lambda: quasimix.groups._permutation_table(int(arg), even_only=family == "a")
    return lambda: quasimix.groups._sl2_table(int(arg), projective=family == "psl2")


@pytest.mark.parametrize("token", ["s:7", "a:7", "sl2:13", "psl2:13"])
def test_largest_tables_match_the_chunked_oracle(monkeypatch, token):
    # s:7 is the one built-in token the row-loop oracles above skip; the chunked oracle
    # composes every row from the same elements, compose and key
    build = _table_builder(token)
    table = build()
    monkeypatch.setattr(quasimix.groups, "_element_table", chunked_element_table)
    oracle = build()
    assert table.dtype == oracle.dtype and table.shape == oracle.shape
    assert table.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("token", BUILT_IN_TOKENS + ["s:7"])
def test_table_builder_composes_at_most_log2_order_plus_one_rows(monkeypatch, token):
    calls, orders = [], []
    real = quasimix.groups._element_table

    def spy(elements, compose, key):
        orders.append(len(elements))

        def counted(a, b):
            calls.append((len(a), len(b)))
            return compose(a, b)

        return real(elements, counted, key)

    monkeypatch.setattr(quasimix.groups, "_element_table", spy)
    _table_builder(token)()
    (n,) = orders
    assert 1 <= len(calls) <= int(np.log2(n)) + 1, calls
    assert all(call == (1, n) for call in calls)  # one element against every element


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


def _assert_names_a_violation(table, message):
    """The triple (x, s, y) a rejection names has (x*s)*y != x*(s*y) in ``table``."""
    found = re.fullmatch(r"associativity fails at triple \((\d+), (\d+), (\d+)\)", message)
    assert found, message
    x, s, y = map(int, found.groups())
    mul = np.asarray(table)
    assert mul[mul[x, s], y] != mul[x, mul[s, y]], (x, s, y)
    return x, s, y


def test_rejects_non_associative_loop():
    with pytest.raises(CayleyTableError, match="associativity fails at triple") as err:
        group_from_table(NONASSOC_LOOP)
    _assert_names_a_violation(NONASSOC_LOOP, str(err.value))


def test_rejects_a_loop_that_few_triples_reveal():
    # one intercalate of z:4096 swapped: rows 5 and 2053 meet columns 7 and 2055 in the
    # entries 12 and 2060, so the table stays a Latin square with identity 0 and the same
    # inverses, yet is a loop, not a group.  At most 16 of every 4096² triples read a
    # swapped entry, so 10^5 sampled triples would expect at most 0.1 violations.
    mul = build_cyclic(4096).mul.copy()
    mul[np.ix_([5, 2053], [7, 2055])] = mul[np.ix_([5, 2053], [2055, 7])]
    with pytest.raises(CayleyTableError, match="associativity fails at triple") as err:
        group_from_table(mul)
    _assert_names_a_violation(mul, str(err.value))


def _spy_on_certificate(monkeypatch):
    """Record each check the associativity certificate runs, in order, as
    [name, gens, argument, passed]: ``_check_pairs`` opens each seed round and
    ``_check_edges`` compares the rows of the round's tree."""
    calls = []
    for name in ("_check_pairs", "_check_edges"):

        def spy(mul, gens, arg, real=getattr(quasimix.groups, name), name=name):
            calls.append([name, list(gens), arg, False])
            real(mul, gens, arg)
            calls[-1][3] = True

        monkeypatch.setattr(quasimix.groups, name, spy)
    return calls


def _edges(gens, layers):
    """(t, child, parent) for each edge of a round's tree, child = t * parent."""
    return [(gens[k], int(x), int(p)) for xs, ks, ps in layers for x, k, p in zip(xs, ks, ps)]


@pytest.mark.parametrize("token", BUILT_IN_TOKENS + ["s:7", "z:1", "z:2", "z:256", "z:5040"])
def test_associativity_certificate_draws_at_most_log2_order_plus_one(monkeypatch, token):
    calls = _spy_on_certificate(monkeypatch)
    group = resolve_group(token)
    assert all(ok for *_, ok in calls)
    rounds = len(calls) // 2
    assert [name for name, *_ in calls] == ["_check_pairs", "_check_edges"] * rounds
    assert rounds <= int(np.log2(group.order)) + 1, calls
    edges = [edge for name, gens, layers, _ in calls[1::2] for edge in _edges(gens, layers)]
    assert all(group.mul[t, p] == x for t, x, p in edges)
    # each non-identity row is compared exactly once, the identity's never
    assert sorted(x for _, x, _ in edges) == sorted(set(range(group.order)) - {group.identity})
    # the seeds and their inverses are the generators that label the classes
    rng = np.random.default_rng(np.random.SeedSequence(quasimix.groups._CLASSES_TAG))
    assert (calls[-1][1] if calls else []) == _generators(group, rng)[0]
    assert list(group.generators) == (calls[-1][1] if calls else [])


def _assert_same_generators(group, seed, within=None):
    """``_generators`` draws the seeds, builds the tree and leaves the stream as the
    rebuild-per-seed oracle does: the Fourier basis, built on that tree, keeps its bytes."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    gens, layers = _generators(group, rng, within=within)
    expect_gens, expect_layers = rebuilt_generators(group, oracle_rng, within=within)
    assert gens == expect_gens
    assert len(layers) == len(expect_layers)
    for layer, expect in zip(layers, expect_layers):
        for got, want in zip(layer, expect):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng.integers(2**62) == oracle_rng.integers(2**62)  # the stream the basis reads on


@pytest.mark.parametrize("token", BUILT_IN_TOKENS + ["s:7", "z:5040"])
def test_generators_match_the_rebuild_per_seed_oracle(token):
    group = resolve_group(token)
    for tag in (quasimix.groups._CLASSES_TAG, _FOURIER_TAG):
        _assert_same_generators(group, np.random.SeedSequence(tag))


def _spy_on_seed_rounds(monkeypatch):
    """Record the ``within`` mask of each run of the seed-drawing loop."""
    masks = []
    real = quasimix.groups._seed_rounds

    def spy(mul, identity, inv, rng, gens, within=None):
        masks.append(within)
        return real(mul, identity, inv, rng, gens, within)

    monkeypatch.setattr(quasimix.groups, "_seed_rounds", spy)
    return masks


@pytest.mark.parametrize("token", ["z:1", "s:4", "a:5", "sl2:5", "s:7"])
def test_classes_and_commutators_read_the_generators_validation_drew(monkeypatch, token):
    group = resolve_group(token)
    masks = _spy_on_seed_rounds(monkeypatch)
    classes = conjugacy_classes(group)
    assert masks == []  # no seed drawn: the classes conjugate by group.generators
    commutator_subgroup(group, classes)
    # one run, for the closure of the commutators' classes alone
    assert len(masks) == 1 and masks[0] is not None and masks[0].shape == (group.order,)


def test_associativity_certificate_stops_at_the_first_failing_pair_or_edge(monkeypatch):
    calls = _spy_on_certificate(monkeypatch)
    with pytest.raises(CayleyTableError, match="associativity fails at triple") as err:
        group_from_table(NONASSOC_LOOP)
    *passed, (name, gens, arg, ok) = calls
    assert all(ok for *_, ok in passed) and not ok  # the raise is the last check run
    x, s, y = _assert_names_a_violation(NONASSOC_LOOP, str(err.value))
    if name == "_check_pairs":  # a pair x, y of the seeds holding a new one, at some s
        new = gens[len(gens) - arg :]
        assert {x, y} <= set(gens) and {x, y} & set(new)
    else:  # an edge, child x*s of parent s
        assert (x, s) in {(t, p) for t, _, p in _edges(gens, arg)}


def test_columns_are_sorted_only_when_a_later_check_fails(monkeypatch):
    # and the rows too: on a group no line is sorted
    calls = []
    real = quasimix.groups._check_latin
    monkeypatch.setattr(quasimix.groups, "_check_latin", lambda mul: calls.append(1) or real(mul))
    build_symmetric(4)
    group_from_table(build_cyclic(300).mul)
    build_symmetric(7)
    assert calls == []
    with pytest.raises(CayleyTableError, match="associativity fails"):
        group_from_table(NONASSOC_LOOP)
    assert calls == [1]
    with pytest.raises(CayleyTableError, match=r"^row 1 is not a permutation"):
        group_from_table([[0, 1], [1, 1]])
    assert calls == [1, 1]


def _reduced_latin_squares(n):
    """Every Latin square of order n whose first row and column read 0..n-1."""
    square = np.zeros((n, n), dtype=np.int64)
    square[0] = square[:, 0] = np.arange(n)

    def fill(cell):
        if cell == n * n:
            yield square.copy()
            return
        i, j = divmod(cell, n)
        if i == 0 or j == 0:
            yield from fill(cell + 1)
            return
        for v in set(range(n)) - set(square[i, :j]) - set(square[:i, j]):
            square[i, j] = v
            yield from fill(cell + 1)

    yield from fill(0)


def _random_tables(count, seed):
    """Tables of order 4 to 6 with identity 0 and a random inverse pairing, the other
    entries uniform, each with a row or a column that is not a permutation."""
    rng = np.random.default_rng(seed)
    while count:
        n = int(rng.integers(4, 7))
        mul = rng.integers(0, n, size=(n, n))
        mul[0] = mul[:, 0] = np.arange(n)
        others = rng.permutation(np.arange(1, n))
        pairs = int(rng.integers(0, len(others) // 2 + 1))
        idx = np.arange(n)
        inv = idx.copy()
        inv[others[: 2 * pairs]] = others[: 2 * pairs].reshape(-1, 2)[:, ::-1].ravel()
        mul[idx, inv] = 0
        if (np.sort(mul) == idx).all() and (np.sort(mul.T) == idx).all():
            continue  # a Latin square
        count -= 1
        yield mul


def _verdict(table):
    try:
        group_from_table(table)
    except CayleyTableError as err:
        return str(err)
    return None


def test_verdicts_match_brute_force_and_the_middle_nucleus_certificate():
    order_3 = (
        np.array([[0, 1, 2], [1, a, b], [2, c, d]])
        for a, b, c, d in product_of(range(3), repeat=4)
    )
    latin = [*_reduced_latin_squares(4), *_reduced_latin_squares(5)]
    assert len(latin) == 4 + 56
    accepted = 0
    for table in [*order_3, *latin, *_random_tables(2000, seed=35)]:
        got, old = _verdict(table), middle_nucleus_verdict(table)
        assert (got is None) == brute_is_group(table), table
        if got is not None and got.startswith("associativity"):
            assert old.startswith("associativity fails at triple"), (got, old)
            _assert_names_a_violation(table, got)
        else:
            assert got == old, table
        accepted += got is None
    # Z/3 once; all 4 reduced squares of order 4 (Z/4 three ways, and V4); Z/5 six ways
    assert accepted == 1 + 4 + 6


def test_absorbing_rows_fail_in_one_seed_round(monkeypatch):
    # identity 0, inverse pairs x and 5039 - x, and s*y = s for every other y: the rows
    # are far from Latin, yet every element has a two-sided inverse.  Left multiplication
    # by a seed and its inverse reaches no new element past them, so a certificate that
    # only searched would draw about n/2 seeds; the pair check fails on the first.
    calls = _spy_on_certificate(monkeypatch)
    mul = _rejections().absorbing_table(5039)
    start = time.perf_counter()
    with pytest.raises(
        CayleyTableError, match=r"^row 1 is not a permutation \(element 1 repeats\)$"
    ):
        group_from_table(mul)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    assert 1 <= sum(name == "_check_pairs" for name, *_ in calls) <= 2, calls


def _rejections():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "rejections.py"
    spec = importlib.util.spec_from_file_location("rejections", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rejection_listing_names_each_axiom_it_breaks():
    tool = _rejections()
    lines = {
        label: tool.verdict(table, group_from_table, CayleyTableError)
        for label, table in tool.tables()
    }
    assert lines == {
        "row": "row 1 is not a permutation (element 1 repeats)",
        "column": "column 0 is not a permutation (element 0 repeats)",
        "row-second-block-z300": "row 250 is not a permutation (element 258 repeats)",
        "column-second-block-z300": "column 240 is not a permutation (element 265 repeats)",
        "identity": "no two-sided identity element",
        "one-sided-inverse": "inverse of element 2 is not two-sided",
        "nonassociative-loop": tool.VIOLATED,
        "intercalate-z4096": tool.VIOLATED,
        "absorbing-rows-5039": "row 1 is not a permutation (element 1 repeats)",
    }


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
    # every order is certified exactly: no sampled mode above some order
    for token in ("z:300", "s:6"):
        summary = group_summary(spectral_data(resolve_group(token)))
        assert summary["associativity_check"] == "exhaustive", token


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


@pytest.mark.parametrize(
    "token",
    ["s:7", "a:7", "sl2:13", "s:4", "a:5", "z:12", "sl2:3", "z:1", "s:6", "psl2:13", "sl2:11"],
)
def test_commutator_subgroup_matches_all_pairs_route(token):
    group = resolve_group(token)
    classes = conjugacy_classes(group)
    got = commutator_subgroup(group, classes)
    assert got == all_pairs_commutator_subgroup(group)
    assert got == representative_commutator_subgroup(group, classes)


@pytest.mark.parametrize("token", ["s:4", "a:5", "s:5", "sl2:5", "z:12"])
def test_commutator_subgroup_does_not_depend_on_the_generators_drawn(monkeypatch, token):
    # on s:5, tag 5 draws an S whose commutators alone generate a subgroup of
    # order 6: only their conjugacy classes generate G'
    group = resolve_group(token)
    classes = conjugacy_classes(group)
    expect = commutator_subgroup(group, classes)
    drawn = {group.generators}
    for tag in range(1, 9):
        # validation draws S, so another tag means another build
        monkeypatch.setattr(quasimix.groups, "_CLASSES_TAG", tag)
        group = resolve_group(token)
        drawn.add(group.generators)
        other = conjugacy_classes(group)
        assert np.array_equal(other.class_of, classes.class_of)
        assert commutator_subgroup(group, other) == expect
    assert len(drawn) > 1


def _tree_elements(group, within, seed=0):
    _assert_same_generators(group, seed, within)
    gens, layers = _generators(group, np.random.default_rng(seed), within=within)
    members = [group.identity] + [int(x) for children, _, _ in layers for x in children]
    assert len(set(members)) == len(members)  # a tree: each element reached once
    assert (within[gens] | within[group.inv[gens]]).all()  # drawn from the mask, and inverses
    return frozenset(members)


def _even_permutations(m):
    perms = np.array(list(permutations(range(m))))  # build_symmetric's order
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    return inversions % 2 == 0


@pytest.mark.parametrize("token", ["s:4", "s:5", "sl2:5", "psl2:7", "z:12"])
def test_generated_subgroup_tree_matches_product_closure(token):
    group = resolve_group(token)
    n = group.order
    identity = np.zeros(n, dtype=bool)
    identity[group.identity] = True
    element = np.zeros(n, dtype=bool)
    element[n - 1 if group.identity != n - 1 else 0] = True  # a cyclic subgroup
    one_class = conjugacy_classes(group).class_of == 1  # not a subgroup: what it generates
    masks = [identity, element, one_class, np.ones(n, dtype=bool)]
    if token.startswith("s:"):
        masks.append(_even_permutations(int(token[2:])))  # A_m inside S_m
    sizes = []
    for seed, mask in enumerate(masks):
        got = _tree_elements(group, mask, seed)
        assert got == product_closure(group, mask)
        assert set(np.flatnonzero(mask)) <= got
        sizes.append(len(got))
    assert sizes[0] == 1 and sizes[3] == n
    if token.startswith("s:"):
        assert sizes[4] == n // 2


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
    # every line break str.splitlines knows, and none after the last row
    for text in ("2\r\n0 1\r\n1 0", "2\r0 1\r1 0\r", "# x\v2\f0 1\x851 0"):
        assert np.array_equal(load_cayley_table(text).mul, [[0, 1], [1, 0]])


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
    with pytest.raises(CayleyTableError, match="line 4: expected 2 entries, got 3"):
        load_cayley_table("2\r\n0 1\r1 0\n0 1 1")
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
    # rows are read one line at a time into one int32 table, which the group
    # then owns: no list of the lines or of Python ints (about ten times the
    # table at this order), and no second table, is held while the file is
    # read.  Wide columns make the text about three times the table.
    text = format_cayley_table(build_cyclic(1000)).replace(" ", " " * 9)
    tracemalloc.start()
    try:
        group = load_cayley_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.mul.dtype == np.int32
    assert np.array_equal(group.mul, build_cyclic(1000).mul)
    assert peak < group.mul.nbytes + len(text) // 2  # the table and less than half the text


def test_validation_finds_inverses_in_row_chunks():
    # one n×n bool array (mul == identity) would be 25.4 MB at the order cap; every
    # validation step, the associativity certificate's included, works in row chunks
    n = MAX_ORDER
    idx = np.arange(n, dtype=np.int32)
    mul = np.add.outer(idx, idx) % n
    tracemalloc.start()
    try:
        group = _validated_group(mul, f"z:{n}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(group.inv, -idx % n)
    assert peak < n * n // 4, peak


def test_file_token_reads_the_table_from_the_open_file(tmp_path):
    # resolve_group hands the open file to the loader, which reads it one line
    # at a time: the whole text is never held beside the table
    text = format_cayley_table(build_cyclic(1000)).replace(" ", " " * 9)
    path = tmp_path / "z1000.txt"
    path.write_text(text)
    tracemalloc.start()
    try:
        group = resolve_group(f"file:{path}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(group.mul, build_cyclic(1000).mul)
    assert peak < group.mul.nbytes + len(text) // 2  # the table and less than half the text
    # a file keeps the line breaks of a str: text mode turns \r\n and \r into
    # \n, and each line is split again at \v, \f and \x85
    for text in ("2\r\n0 1\r\n1 0", "2\r0 1\r1 0\r", "# x\v2\f0 1\x851 0"):
        path.write_text(text, newline="")
        assert np.array_equal(resolve_group(f"file:{path}").mul, [[0, 1], [1, 0]])
    path.write_text("2\r\n0 1\r1 0\n0 1 1", newline="")
    with pytest.raises(CayleyTableError, match="line 4: expected 2 entries, got 3"):
        resolve_group(f"file:{path}")


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
