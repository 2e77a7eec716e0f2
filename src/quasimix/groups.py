"""Finite groups as dense index tables: builders, validation, file IO, conjugacy."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Optional, TextIO, Union

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
EXHAUSTIVE_ASSOC_LIMIT = 256
RANDOM_ASSOC_TRIPLES = 100_000
_ASSOC_SEED = 0x6173_736F  # fixed, so randomized validation is reproducible
_CLASSES_TAG = 0x434C  # fixed: the generators that label classes never depend on a user seed

_SL2_PRIMES = (3, 5, 7, 11, 13)


class CayleyTableError(ValueError):
    """A multiplication table violates one of the group axioms."""


@dataclass(eq=False)
class FiniteGroup:
    """A finite group on elements 0..order-1 with dense multiplication tables.

    ``mul[i, j]`` is the product i*j, ``inv[i]`` the inverse of i.  Instances
    are immutable after construction; derived tables are cached lazily.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    identity: int
    name: str
    assoc_check: str = "exhaustive"

    def __post_init__(self):
        self.mul = np.ascontiguousarray(self.mul, dtype=np.int32)
        self.inv = np.ascontiguousarray(self.inv, dtype=np.int32)
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
    ``class_sizes[c]`` its size.
    """

    class_of: np.ndarray
    representatives: np.ndarray
    class_sizes: np.ndarray
    num_classes: int


def _find_duplicate(row: np.ndarray) -> int:
    counts = np.bincount(row, minlength=len(row))
    return int(np.argmax(counts > 1))


def _associativity_violation(mul: np.ndarray) -> tuple:
    """Return (mode, offending triple or None)."""
    n = len(mul)
    if n <= EXHAUSTIVE_ASSOC_LIMIT:
        for a in range(n):
            left = mul[mul[a]]  # [b, c] -> (a*b)*c
            right = mul[a][mul]  # [b, c] -> a*(b*c)
            if not np.array_equal(left, right):
                b, c = np.argwhere(left != right)[0]
                return "exhaustive", (a, int(b), int(c))
        return "exhaustive", None
    rng = np.random.default_rng(_ASSOC_SEED)
    a, b, c = rng.integers(0, n, size=(3, RANDOM_ASSOC_TRIPLES))
    bad = mul[mul[a, b], c] != mul[a, mul[b, c]]
    if bad.any():
        i = int(np.argmax(bad))
        return f"randomized({RANDOM_ASSOC_TRIPLES})", (int(a[i]), int(b[i]), int(c[i]))
    return f"randomized({RANDOM_ASSOC_TRIPLES})", None


def group_from_table(mul, name: str = "table") -> FiniteGroup:
    """Validate a raw multiplication table and wrap it as a FiniteGroup.

    Checks, in order: integer dtype, shape, entry range, Latin-square rows and columns,
    two-sided identity, two-sided inverses, associativity (exhaustive up to
    order 256, randomized sampling above that).  Violations raise
    CayleyTableError naming an offending index.  The group holds its own
    int32 copy, so the caller's array is neither frozen nor aliased.
    """
    mul = np.asarray(mul)
    if not np.issubdtype(mul.dtype, np.integer):  # before any cast, which would truncate
        raise CayleyTableError(f"table entries must be integers, got dtype {mul.dtype}")
    _check_shape_and_range(mul)  # before the int32 copy, so no entry can wrap
    return _validated_group(mul.astype(np.int32), name)


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
    """group_from_table's checks on a fresh int32 table, which the group then owns."""
    _check_shape_and_range(mul)
    n = mul.shape[0]
    expect = np.arange(n, dtype=np.int32)
    for rows in row_chunks(n, n):  # sorted blocks of rows, then of columns
        bad = (np.sort(mul[rows], axis=1) != expect).any(axis=1)
        if bad.any():
            i = rows.start + int(np.argmax(bad))
            raise CayleyTableError(
                f"row {i} is not a permutation (element {_find_duplicate(mul[i])} repeats)"
            )
    for cols in row_chunks(n, n):
        bad = (np.sort(mul[:, cols], axis=0) != expect[:, None]).any(axis=0)
        if bad.any():
            j = cols.start + int(np.argmax(bad))
            raise CayleyTableError(
                f"column {j} is not a permutation (element {_find_duplicate(mul[:, j])} repeats)"
            )

    identity = int(np.argmax(mul[:, 0] == 0))  # column 0 is a permutation: one row fixes 0
    if not (np.array_equal(mul[identity], expect) and np.array_equal(mul[:, identity], expect)):
        raise CayleyTableError("no two-sided identity element")

    inv = np.concatenate([np.argmax(mul[rows] == identity, axis=1) for rows in row_chunks(n, n)])
    if not np.array_equal(mul[expect, inv], np.full(n, identity, np.int32)):
        i = int(np.argmax(mul[expect, inv] != identity))
        raise CayleyTableError(f"element {i} has no right inverse")
    if not np.array_equal(mul[inv, expect], np.full(n, identity, np.int32)):
        i = int(np.argmax(mul[inv, expect] != identity))
        raise CayleyTableError(f"inverse of element {i} is not two-sided")

    mode, triple = _associativity_violation(mul)
    if triple is not None:
        raise CayleyTableError(f"associativity fails at triple {triple}")

    return FiniteGroup(n, mul, inv, identity, name, assoc_check=mode)


# ---------------------------------------------------------------------------
# builders


def build_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n; element i is the residue i, product = addition mod n."""
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the supported cap {MAX_ORDER}")
    idx = np.arange(n, dtype=np.int32)
    return _validated_group(np.add.outer(idx, idx) % n, name=f"z:{n}")


def _element_table(elements: np.ndarray, compose, key) -> np.ndarray:
    """Multiplication table of the group whose elements are ``elements``, in order.

    ``compose(a, b)`` multiplies each element of the chunk a by each element of b;
    ``key`` maps elements (their trailing axes) to distinct integers, and a dense
    key -> index array turns each product back into its position.
    """
    n = len(elements)
    keys = key(elements)
    index = np.full(int(keys.max()) + 1, -1, dtype=np.int32)
    index[keys] = np.arange(n, dtype=np.int32)
    mul = np.empty((n, n), dtype=np.int32)
    for rows in row_chunks(n, elements.size):  # every temporary <= TEMP_ENTRIES
        mul[rows] = index[key(compose(elements[rows], elements))]
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
    law; it need not be element 0.  ``text`` may also be an open text file.
    """
    table: Optional[np.ndarray] = None  # int32, allocated once the order passes its cap check
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
            table = np.empty((order, order), dtype=np.int32)
            continue
        if len(values) != order:
            raise CayleyTableError(
                f"line {lineno}: expected {order} entries, got {len(values)}"
            )
        outside = values[(values < 0) | (values >= order)]  # int32 could overflow on them
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
    its inverse, until they generate what it generates; with their spanning tree.

    The tree is the breadth-first layers (children, generator index, parents) from the
    identity, child = gens[index] * parent; its elements are the generated subgroup.
    """
    gens: List[int] = []
    while True:
        seen = np.zeros(group.order, dtype=bool)
        seen[group.identity] = True
        frontier = np.array([group.identity], dtype=np.int64)
        layers = []
        while gens:
            flat = group.mul[np.asarray(gens)[:, None], frontier[None, :]].ravel()
            fresh = np.flatnonzero(~seen[flat])
            if not len(fresh):
                break
            children, first = np.unique(flat[fresh], return_index=True)
            gen_index, parent = np.divmod(fresh[first], len(frontier))
            layers.append((children, gen_index, frontier[parent]))
            seen[children] = True
            frontier = children.astype(np.int64)
        unreached = ~seen if within is None else within & ~seen
        if not unreached.any():
            return gens, layers
        s = int(rng.choice(np.flatnonzero(unreached)))
        gens += [s] if group.inv[s] == s else [s, int(group.inv[s])]


def conjugacy_classes(group: FiniteGroup) -> ConjugacyStructure:
    """Partition the group into conjugation orbits, classes ordered by smallest member.

    Each element is labelled by the smallest member of its orbit, found by
    propagating the least label along conjugation by generators closed under
    inverses, label[x] <- min(label[x], label[s x s^-1]), and pointer jumping,
    label <- label[label], until nothing changes: O(n·|gens|) per round, and
    no conjugation table.  A label only ever moves to another member of x's
    orbit; at the fixed point it is constant along every generator's
    conjugation, hence on the orbit, and the orbit's smallest member m keeps
    label m.  The distinct labels, in increasing order, are the
    representatives; a label's rank is the class index and its multiplicity
    the class size.
    """
    n = group.order
    gens, _ = _generators(group, np.random.default_rng(np.random.SeedSequence(_CLASSES_TAG)))
    moves = group.conjugation_rows(np.asarray(gens, dtype=np.int64))
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

    For S the generators that label the classes, G' is the subgroup N generated
    by the classes of the commutators [s, t]: N is normal and inside G', and S
    commutes modulo N.  ``classes`` are computed when not given.
    """
    if classes is None:
        classes = conjugacy_classes(group)
    mul, inv = group.mul, group.inv
    rng = np.random.default_rng(np.random.SeedSequence(_CLASSES_TAG))
    s = np.asarray(_generators(group, rng)[0], dtype=np.int64)
    hit = np.zeros(classes.num_classes, dtype=bool)
    hit[classes.class_of[mul[mul[mul[s[:, None], s], inv[s][:, None]], inv[s]]]] = True
    _, layers = _generators(group, rng, within=hit[classes.class_of])
    return frozenset(np.concatenate([[group.identity], *(c for c, _, _ in layers)]).tolist())
