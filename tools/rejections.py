"""Print one line ``label: message`` for each of a fixed set of defective Cayley tables.

Usage: python tools/rejections.py [--src DIR]

Each table is validated by ``quasimix.groups.group_from_table`` from the quasimix
package under DIR (default: this checkout's src/), and the line holds the message of
the CayleyTableError it raises, or ``accepted``.  The tables break one axiom each: a
row, a column (also past the first block of sorted lines, on z:300), the identity,
a two-sided inverse, associativity (a 5-element loop, and one swapped intercalate of
z:4096), and an order-5039 table whose non-identity rows absorb every column but the
identity's and their inverse's.  Two correct certificates may name different
associativity violations, so a named triple (x, s, y) is checked by brute force,
(x*s)*y != x*(s*y), and printed as ``<triple>``; a triple that is no violation is
printed as it stands.  Two source trees give two listings, and ``diff`` of the two
shows any message that changed.
"""

import argparse
import os
import re
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TRIPLE = re.compile(r"associativity fails at triple \((\d+), (\d+), (\d+)\)")
VIOLATED = "associativity fails at triple <triple>"


def cyclic(n):
    idx = np.arange(n, dtype=np.int32)
    return np.add.outer(idx, idx) % n


def absorbing_table(n):
    """Identity 0 and inverse pairs x, n - x (n odd), and s*y = s for every other y."""
    idx = np.arange(n)
    mul = np.repeat(idx[:, None], n, axis=1).astype(np.int32)
    mul[0] = idx
    mul[idx[1:], n - idx[1:]] = 0
    return mul


def tables():
    """(label, table) for each defective table, in listing order."""
    yield "row", [[0, 1], [1, 1]]
    yield "column", [[0, 1, 2], [0, 2, 1], [1, 0, 2]]
    mul = cyclic(300)
    mul[250, 7] = mul[250, 8]
    mul[290, 0] = mul[290, 1]
    yield "row-second-block-z300", mul
    mul = cyclic(300)
    mul[5, [240, 260]] = mul[5, [260, 240]]
    yield "column-second-block-z300", mul
    yield "identity", [[1, 0, 2], [0, 2, 1], [2, 1, 0]]
    # a Latin square with identity 0 where 2*3 = 0 but 3*2 = 1
    yield "one-sided-inverse", [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    # a Latin square with identity 0 and two-sided inverses: a loop, not a group
    yield "nonassociative-loop", [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    mul = cyclic(4096)
    mul[np.ix_([5, 2053], [7, 2055])] = mul[np.ix_([5, 2053], [2055, 7])]
    yield "intercalate-z4096", mul
    yield "absorbing-rows-5039", absorbing_table(5039)


def verdict(table, group_from_table, error):
    """The line's message: the rejection, with a violated triple shown as <triple>."""
    try:
        group_from_table(table)
    except error as err:
        message = str(err)
    else:
        return "accepted"
    found = TRIPLE.fullmatch(message)
    if found:
        x, s, y = map(int, found.groups())
        mul = np.asarray(table)
        if mul[mul[x, s], y] != mul[x, mul[s, y]]:
            return VIOLATED
    return message


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=SRC, help="directory holding the quasimix package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from quasimix.groups import CayleyTableError, group_from_table

    for label, table in tables():
        print(f"{label}: {verdict(table, group_from_table, CayleyTableError)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
