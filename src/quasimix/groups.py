"""Finite groups as dense index tables: builders, validation, file IO, conjugacy."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Optional, TextIO, Tuple, Union

import numpy as np

from ._numutil import row_chunks

__all__ = [
    "FiniteGroup",
    "ConjugacyStructure",
    "CayleyTableError",
    "group_from_table",
    "build_cyclic",
    "build_symmetric",
    "build_alternating",
    "build_sl2",
    "build_psl2",
    "load_cayley_table",
    "format_cayley_table",
    "conjugacy_classes",
    "commutator_subgroup",
]

MAX_ORDER = 5040
TABLE_DTYPE = np.dtype(np.int16)
"""The dtype of every multiplication, inverse and conjugation table: entries are element
indices below MAX_ORDER, and nothing does arithmetic on them."""
if MAX_ORDER - 1 > np.iinfo(TABLE_DTYPE).max:
    raise ImportError(f"MAX_ORDER {MAX_ORDER} does not fit the table dtype {TABLE_DTYPE}")
_CLASSES_TAG = 0x434C  # fixed: the generators that label classes never depend on a user seed

_SL2_PRIMES = (3, 5, 7, 11, 13)


class CayleyTableError(ValueError):
    """A multiplication table violates one of the group axioms."""


@dataclass(eq=False)
class FiniteGroup:
    """A finite group on elements 0..order-1 with dense multiplication tables.

    ``mul[i, j]`` is the product i*j, ``inv[i]`` the inverse of i, and ``generators``
    the seeds validation drew with their inverses (``_check_associative``).  Both
    tables, and the cached conjugation table, are TABLE_DTYPE.  Instances are immutable
    after construction; derived tables are cached lazily.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    identity: int
    name: str
    generators: Tuple[int, ...]

    def __post_init__(self):
        self.mul = np.ascontiguousarray(self.mul, dtype=TABLE_DTYPE)
        self.inv = np.ascontiguousarray(self.inv, dtype=TABLE_DTYPE)
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)
        self._conj_table: Optional[np.ndarray] = None

    def conjugation_rows(self, elements) -> np.ndarray:
        """Rows [i, x] = g * x * g^-1, g = elements[i], of the conjugation table.

        ``elements`` is an index array, or a slice (a view of ``mul``, not a copy).
        """
        return self.mul[self.mul[elements], self.inv[elements][:, None]]

    def conjugation_table(self) -> np.ndarray:
        """(n, n) table with entry [g, x] = g * x * g^-1, cached."""
        if self._conj_table is None:
            table = self.conjugation_rows(slice(None))
            table.setflags(write=False)
            self._conj_table = table
        return self._conj_table


@dataclass(eq=False)
class ConjugacyStructure:
    """Partition of a group into conjugacy classes, in canonical order.

    Classes are numbered by their smallest member.  ``class_of[x]`` is the
    class index of element x, ``representatives[c]`` its smallest member and
    ``class_sizes[c]`` its size.  ``class_of`` and ``representatives`` are int32 and
    ``class_sizes`` int64, whatever the table dtype.
    """

    class_of: np.ndarray
    representatives: np.ndarray
    class_sizes: np.ndarray
    num_classes: int


def _find_duplicate(row: np.ndarray) -> int:
    counts = np.bincount(row, minlength=len(row))
    return int(np.argmax(counts > 1))


def group_from_table(mul, name: str = "table") -> FiniteGroup:
    """Validate a raw multiplication table and wrap it as a FiniteGroup.

    Checks, in order: integer dtype, shape, entry range, a two-sided identity,
    two-sided inverses, then exact associativity in one pass along a tree
    (``_check_associative``).  Seeds drawn as ``_generators`` draws them, each
    with its inverse, must satisfy (a*z)*b = a*(z*b) for all z, pairwise; every
    other row must equal row(t)[row(p)] along the breadth-first tree, child t*p of
    parent p, that left multiplication by the seeds grows from the identity.  Each
    row is compared once, and each seed at least doubles the group the earlier
    ones certify: O(n^2) on any table.  That needs no Latin rows or columns, and
    a group has both, so the lines are sorted only when a check fails; a row,
    then a column, that is not a permutation is reported ahead of it.  Violations
    raise CayleyTableError naming an offending index.  The group holds its own
    TABLE_DTYPE copy, so the caller's array is neither frozen nor aliased.
    """
    mul = np.asarray(mul)
    if not np.issubdtype(mul.dtype, np.integer):  # before any cast, which would truncate
        raise CayleyTableError(f"table entries must be integers, got dtype {mul.dtype}")
    _check_shape_and_range(mul)  # before the TABLE_DTYPE copy, so no entry can wrap
    return _validated_group(mul.astype(TABLE_DTYPE), name)


def _check_shape_and_range(mul: np.ndarray) -> None:
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise CayleyTableError(f"table must be square, got shape {mul.shape}")
    n = mul.shape[0]
    if n == 0:
        raise CayleyTableError("order 0 is not a group")
    if n > MAX_ORDER:
        raise CayleyTableError(f"order {n} exceeds the supported cap {MAX_ORDER}")
    if mul.min() < 0 or mul.max() >= n:
        bad = np.argwhere((mul < 0) | (mul >= n))[0]
        raise CayleyTableError(f"entry at row {bad[0]}, column {bad[1]} is outside 0..{n - 1}")


def _validated_group(mul: np.ndarray, name: str) -> FiniteGroup:
    """group_from_table's checks on a fresh TABLE_DTYPE table, which the group then owns."""
    _check_shape_and_range(mul)
    try:
        return _certified_group(mul, name)
    except CayleyTableError:
        _check_latin(mul)  # a group's rows and columns are Latin: a line defect is named first
        raise


def _check_latin(mul: np.ndarray) -> None:
    """Raise naming the first row, then the first column, that is not a permutation."""
    n = mul.shape[0]
    expect = np.arange(n)
    for kind, lines in (("row", mul), ("column", mul.T)):
        for block in row_chunks(n, n):  # sorted blocks of lines
            bad = (np.sort(lines[block], axis=1) != expect).any(axis=1)
            if bad.any():
                i = block.start + int(np.argmax(bad))
                raise CayleyTableError(
                    f"{kind} {i} is not a permutation (element {_find_duplicate(lines[i])} repeats)"
                )


def _certified_group(mul: np.ndarray, name: str) -> FiniteGroup:
    """The identity, inverse and associativity checks, which together certify a group."""
    n = mul.shape[0]
    expect = np.arange(n)
    # the one row fixing 0 if column 0 is Latin; if not, no group: a check below fails
    identity = int(np.argmax(mul[:, 0] == 0))
    if not (np.array_equal(mul[identity], expect) and np.array_equal(mul[:, identity], expect)):
        raise CayleyTableError("no two-sided identity element")

    # the first identity in each row; a row without one fails the two-sided check
    inv = np.concatenate([np.argmax(mul[rows] == identity, axis=1) for rows in row_chunks(n, n)])
    bad = (mul[expect, inv] != identity) | (mul[inv, expect] != identity)
    if bad.any():
        raise CayleyTableError(f"inverse of element {int(np.argmax(bad))} is not two-sided")

    generators = _check_associative(mul, identity, inv)
    return FiniteGroup(n, mul, inv, identity, name, generators)


def _check_associative(mul: np.ndarray, identity: int, inv: np.ndarray) -> Tuple[int, ...]:
    """Raise unless the table, whose identity e and inverses are two-sided, is associative;
    return the seeds S it drew, each with its inverse, which generate the group.

    Each round of ``_seed_rounds`` draws a seed s from the elements not yet known and
    adds s and its inverse to S; the round is checked as it is drawn, so a failing
    round is the last one drawn.  (B) (a*z)*b = a*(z*b) must hold for all z and each
    new pair a, b in S.  (A) The round's tree by left multiplication by S from every
    known element makes each new element x = t*p known by one edge, and row(x) must
    equal row(t)[row(p)].  Why that suffices: by (A) every row map L_x is a composition
    of maps L_s; by (B) each L_s commutes with each z -> z*t, t in S, so every L_x
    commutes with every composition d of those; every element is d(e) for some d,
    since t*d(e) = d(t) = (d after z -> z*t)(e).  L_x after L_y and L_{x*y} both
    commute with every d and send e to x*y, so they agree on every d(e): the table is
    associative.  After each round that passes, the known elements form a group,
    which the next seed, lying outside it, at least doubles: at most
    floor(log2 n) + 1 rounds, n - 1 row compares and O(n log^2 n) other work, on any
    table.
    """
    rng = np.random.default_rng(np.random.SeedSequence(_CLASSES_TAG))
    gens: List[int] = []
    for new, layers in _seed_rounds(mul, identity, inv, rng, gens):
        _check_pairs(mul, gens, new)
        _check_edges(mul, gens, layers)
    return tuple(gens)


def _seed_rounds(mul: np.ndarray, identity: int, inv: np.ndarray, rng, gens, within=None):
    """Per seed, lazily: add a random element of the mask ``within`` (every element if None)
    outside the subgroup ``gens`` generate, with its inverse, to ``gens``, in place; yield
    how many joined and the ``_tree_layers`` that the new seeds grow from that subgroup."""
    known = np.zeros(mul.shape[0], dtype=bool)
    known[identity] = True
    while (unknown := ~known if within is None else within & ~known).any():
        s = int(rng.choice(np.flatnonzero(unknown)))
        new = [s] if inv[s] == s else [s, int(inv[s])]
        gens += new
        yield len(new), _tree_layers(mul, gens, known, np.flatnonzero(known))


def _check_pairs(mul: np.ndarray, gens: List[int], new: int) -> None:
    """Raise unless (a*z)*b = a*(z*b) for every z and every pair a, b of ``gens`` that
    holds one of its last ``new`` members."""
    columns = mul[:, gens]  # [z, j] = z * gens[j]
    old = len(gens) - new
    for i, a in enumerate(gens):
        js = np.arange(0 if i >= old else old, len(gens))
        bad = columns[mul[a]][:, js] != mul[a][columns[:, js]]
        if bad.any():
            z, j = np.argwhere(bad)[0]
            raise CayleyTableError(f"associativity fails at triple {(a, int(z), gens[js[j]])}")


def _check_edges(mul: np.ndarray, gens: List[int], layers) -> None:
    """Raise unless row(t*p) = row(t)[row(p)] on each edge of ``layers``, child t*p of p."""
    children, gen_index, parents = map(np.concatenate, zip(*layers))
    for k, t in enumerate(gens):  # edges grouped by seed: each compare reads one row mul[t]
        xs, ps = children[gen_index == k], parents[gen_index == k]
        # the two gathered rows, take's intp copy of one, its result and the mask take
        # 15 bytes an entry: quarter chunks keep them near 240 KB, below the table
        # build's peak
        for rows in row_chunks(len(xs), 4 * mul.shape[0]):
            bad = mul[xs[rows]] != mul[t].take(mul[ps[rows]])
            if bad.any():
                c, y = np.argwhere(bad)[0]
                raise CayleyTableError(
                    f"associativity fails at triple {(t, int(ps[rows][c]), int(y))}"
                )


# ---------------------------------------------------------------------------
# builders


def build_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n; element i is the residue i, product = addition mod n."""
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported cap {MAX_ORDER}")
    idx = np.arange(n, dtype=TABLE_DTYPE)
    mul = np.subtract.outer(idx, n - idx)  # i + j - n, in -n..n - 2: no entry wraps
    np.remainder(mul, n, out=mul)
    return _validated_group(mul, name=f"z:{n}")


def _element_table(elements: np.ndarray, compose, key) -> np.ndarray:
    """Multiplication table of the group whose elements are ``elements``, in order.

    ``compose(a, b)`` multiplies each element of a by each element of b; ``key`` maps
    elements (their trailing axes) to distinct integers, and a dense key -> index array
    turns each product back into its position.  Only a few seed rows are composed: the
    smallest element whose row is unknown becomes a seed, and the ``_tree_layers`` of
    left multiplication by the seeds from the known rows fill each row they reach by
    row(s*i) = row(s)[row(i)], since (s*i)*j = s*(i*j).  The known rows are then the
    subgroup the seeds generate, which each new seed, lying outside it, at least
    doubles: at most floor(log2 n) + 1 rows are composed.
    """
    n = len(elements)
    keys = key(elements)
    index = np.full(int(keys.max()) + 1, -1, dtype=TABLE_DTYPE)
    index[keys] = np.arange(n)
    mul = np.empty((n, n), dtype=TABLE_DTYPE)
    known = np.zeros(n, dtype=bool)
    seeds: List[int] = []
    while not known.all():
        s = int(np.argmin(known))  # the smallest element whose row is unknown
        mul[s] = index[key(compose(elements[s : s + 1], elements))[0]]
        known[s] = True
        seeds.append(s)
        # the new seed acts on every known row; a layer's parents are filled before it
        for children, gen_index, parents in _tree_layers(mul, seeds, known, np.flatnonzero(known)):
            for k, t in enumerate(seeds):  # children grouped by seed: each fill reads mul[t]
                xs, ps = children[gen_index == k], parents[gen_index == k]
                # the parent rows, np.take's intp copy of them and the result take 12
                # bytes an entry; quarter chunks keep them within 192 KB, since a large
                # group's set-up peaks while its table is built
                for rows in row_chunks(len(xs), 4 * n):
                    mul[xs[rows]] = mul[t].take(mul[ps[rows]])
    return mul


def _base_code(x: np.ndarray, base: int, ndim: int) -> np.ndarray:
    """Each element of x (its last ``ndim`` axes) read as a base-``base`` number."""
    flat = x.reshape(x.shape[: x.ndim - ndim] + (-1,))
    return flat @ base ** np.arange(flat.shape[-1] - 1, -1, -1)


def _permutation_table(m: int, even_only: bool) -> np.ndarray:
    """Permutations of 0..m-1, or the even ones, lexicographic; a*b = a[b] applies b first."""
    perms = np.array(list(permutations(range(m))), dtype=np.int64)
    if even_only:
        inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
        perms = perms[inversions % 2 == 0]
    return _element_table(perms, lambda a, b: np.take(a, b, axis=1), lambda x: _base_code(x, m, 1))


def _sl2_table(p: int, projective: bool) -> np.ndarray:
    """SL(2, p) matrices, lexicographic; for PSL(2, p) each coset {M, -M} as its smaller one."""
    if p not in _SL2_PRIMES:
        raise ValueError(f"matrix groups supported for prime moduli {_SL2_PRIMES}, got {p}")
    grid = np.indices((p, p, p, p), dtype=np.int64).reshape(4, -1).T.reshape(-1, 2, 2)
    mats = grid[(grid[:, 0, 0] * grid[:, 1, 1] - grid[:, 0, 1] * grid[:, 1, 0]) % p == 1]

    def key(x):
        code = _base_code(x, p, 2)
        return np.minimum(code, _base_code(-x % p, p, 2)) if projective else code

    mats = mats[_base_code(mats, p, 2) == key(mats)]
    return _element_table(mats, lambda a, b: (a[:, None] @ b[None]) % p, key)


def build_symmetric(m: int) -> FiniteGroup:
    """Symmetric group on m letters (2 <= m <= 7), permutations in lexicographic order."""
    if not 2 <= m <= 7:
        raise ValueError(f"symmetric group supported for 2 <= m <= 7, got {m}")
    return _validated_group(_permutation_table(m, even_only=False), name=f"s:{m}")


def build_alternating(m: int) -> FiniteGroup:
    """Alternating group on m letters (2 <= m <= 7): even permutations, lexicographic."""
    if not 2 <= m <= 7:
        raise ValueError(f"alternating group supported for 2 <= m <= 7, got {m}")
    return _validated_group(_permutation_table(m, even_only=True), name=f"a:{m}")


def build_sl2(p: int) -> FiniteGroup:
    """SL(2, p) for prime p in 3..13: determinant-1 matrices over Z_p, lexicographic."""
    return _validated_group(_sl2_table(p, projective=False), name=f"sl2:{p}")


def build_psl2(p: int) -> FiniteGroup:
    """PSL(2, p) = SL(2, p) / {I, -I} for prime p in 3..13: each coset's smaller matrix."""
    return _validated_group(_sl2_table(p, projective=True), name=f"psl2:{p}")


# ---------------------------------------------------------------------------
# Cayley-table text format


def load_cayley_table(text: Union[str, TextIO], name: str = "cayley") -> FiniteGroup:
    """Parse the plain-text Cayley format and validate it as a group.

    Format: optional comment lines starting with '#', a line holding the
    order n, then n lines of n space-separated 0-based element indices
    (row i, column j holds i*j).  The identity is located by the identity
    law; it need not be element 0.  ``text`` may also be an open text file; its rows
    are read one line at a time into the one TABLE_DTYPE table the group then owns.
    """
    table: Optional[np.ndarray] = None  # allocated once the order passes its cap check
    filled = 0
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        values = _parse_row(line, lineno)
        if table is None:
            if len(values) != 1:
                raise CayleyTableError(f"line {lineno}: expected a single order value")
            order = int(values[0])
            if order < 1:
                raise CayleyTableError(f"line {lineno}: order must be >= 1, got {order}")
            if order > MAX_ORDER:
                raise CayleyTableError(f"order {order} exceeds the supported cap {MAX_ORDER}")
            table = np.empty((order, order), dtype=TABLE_DTYPE)
            continue
        if len(values) != order:
            raise CayleyTableError(
                f"line {lineno}: expected {order} entries, got {len(values)}"
            )
        outside = values[(values < 0) | (values >= order)]  # TABLE_DTYPE could wrap them
        if len(outside):
            raise CayleyTableError(f"line {lineno}: entry {outside[0]} is outside 0..{order - 1}")
        if filled == order:
            raise CayleyTableError(f"line {lineno}: more than {order} table rows")
        table[filled] = values
        filled += 1
    if table is None:
        raise CayleyTableError("empty input: no order line")
    if filled != order:
        raise CayleyTableError(f"expected {order} table rows, got {filled}")
    return _validated_group(table, name)  # the group takes the table over: no second copy


def _lines(text: Union[str, TextIO]):
    """``splitlines()`` of a str or an open file, one line at a time: no list of lines is held."""
    for piece in [text] if isinstance(text, str) else text:
        start = 0
        while start < len(piece):
            end = piece.find("\n", start) + 1 or len(piece)
            yield from piece[start:end].splitlines()
            start = end


def _parse_row(line: str, lineno: int) -> np.ndarray:
    """The integers on one line, as int64; numpy reads the same tokens as int().

    A line numpy rejects is read token by token with int(), which either names
    the line of a non-integer token or keeps an entry beyond int64 whole, in
    an object array, for the range check to report.
    """
    tokens = line.split()
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    try:
        return np.array([int(tok) for tok in tokens], dtype=object)
    except ValueError:
        raise CayleyTableError(f"line {lineno}: non-integer token") from None


def format_cayley_table(group: FiniteGroup) -> str:
    """Render a group in the Cayley text format (round-trips through the loader)."""
    lines = [f"# {group.name}", str(group.order)]
    lines.extend(" ".join(map(str, row.tolist())) for row in group.mul)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators, conjugacy and commutators


def _generators(group: FiniteGroup, rng: np.random.Generator, within=None):
    """Random unreached elements of the mask ``within`` (every element if None), each with
    its inverse, until they generate what it generates (``_seed_rounds``); with a tree.

    The tree is the breadth-first layers (children, generator index, parents) from the
    identity, child = gens[index] * parent; its elements are the generated subgroup.
    """
    gens: List[int] = []
    for _ in _seed_rounds(group.mul, group.identity, group.inv, rng, gens, within):
        pass
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    return gens, _tree_layers(group.mul, gens, seen, np.array([group.identity], dtype=np.int64))


def _tree_layers(mul: np.ndarray, gens: List[int], seen: np.ndarray, frontier: np.ndarray):
    """Breadth-first layers (children, generator index, parents) of left multiplication
    by ``gens`` from ``frontier``, child = gens[index] * parent: each element not yet
    ``seen`` joins by one edge, and is marked seen."""
    gens = np.asarray(gens, dtype=np.int64)
    layers = []
    while True:
        flat = mul[gens[:, None], frontier[None, :]].ravel()
        fresh = np.flatnonzero(~seen[flat])
        if not len(fresh):
            return layers
        children, first = np.unique(flat[fresh], return_index=True)
        gen_index, parent = np.divmod(fresh[first], len(frontier))
        layers.append((children, gen_index, frontier[parent]))
        seen[children] = True
        frontier = children.astype(np.int64)


def conjugacy_classes(group: FiniteGroup) -> ConjugacyStructure:
    """Partition the group into conjugation orbits, classes ordered by smallest member.

    Each element is labelled by the smallest member of its orbit, found by
    propagating the least label along conjugation by ``group.generators``, which
    are closed under inverses, label[x] <- min(label[x], label[s x s^-1]), and
    pointer jumping, label <- label[label], until nothing changes: O(n·|gens|) per
    round, no seeds drawn and no conjugation table.  A label only ever moves to
    another member of x's orbit; at the fixed point it is constant along every
    generator's conjugation, hence on the orbit, and the orbit's smallest member m
    keeps label m.  The distinct labels, in increasing order, are the
    representatives; a label's rank is the class index and its multiplicity the
    class size.
    """
    n = group.order
    moves = group.conjugation_rows(np.asarray(group.generators, dtype=np.int64))
    labels = np.arange(n, dtype=np.int32)
    while True:
        before = labels
        for move in moves:
            labels = np.minimum(labels, labels[move])
        labels = labels[labels]
        if np.array_equal(labels, before):
            break
    reps, class_of, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if sizes[class_of[group.identity]] != 1:
        raise RuntimeError("identity class is not a singleton")
    if (n % sizes != 0).any():
        c = int(np.argmax(n % sizes != 0))
        raise RuntimeError(f"class {c} size {sizes[c]} does not divide {n}")
    return ConjugacyStructure(
        class_of=class_of.astype(np.int32),
        representatives=reps,
        class_sizes=sizes.astype(np.int64),
        num_classes=len(reps),
    )


def commutator_subgroup(
    group: FiniteGroup, classes: Optional[ConjugacyStructure] = None
) -> frozenset:
    """Element indices of the subgroup generated by all commutators.

    For S = ``group.generators``, G' is the subgroup N generated by the classes of
    the commutators [s, t]: N is normal and inside G', and S commutes modulo N.
    Seeds are drawn only to generate N.  ``classes`` are computed when not given.
    """
    if classes is None:
        classes = conjugacy_classes(group)
    mul, inv = group.mul, group.inv
    s = np.asarray(group.generators, dtype=np.int64)
    hit = np.zeros(classes.num_classes, dtype=bool)
    hit[classes.class_of[mul[mul[mul[s[:, None], s], inv[s][:, None]], inv[s]]]] = True
    rng = np.random.default_rng(np.random.SeedSequence(_CLASSES_TAG))
    _, layers = _generators(group, rng, within=hit[classes.class_of])
    return frozenset(np.concatenate([[group.identity], *(c for c, _, _ in layers)]).tolist())
