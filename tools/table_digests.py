"""Print one line ``token order sha256(mul) sha256(class_of) |G'|`` per built-in
permutation and matrix group.

Usage: python tools/table_digests.py [--src DIR]

Each group is built and validated through ``quasimix.cli.resolve_group`` from the
quasimix package under DIR (default: this checkout's src/); ``class_of`` is the class
index of each element from ``conjugacy_classes``, and |G'| the order of
``commutator_subgroup``, which is the whole group exactly when the group is perfect.
Both arrays are hashed as little-endian int32, whatever dtype the package stores them
in, so the digests compare values: a change of table dtype alone moves none of them.
The tokens are s:2..7, a:2..7, and sl2:p and psl2:p for p in 3, 5, 7, 11, 13: every
table the permutation and matrix builders make.  Two source trees give two listings,
and ``diff`` of the two shows any table, class labelling or commutator subgroup order
that changed, including those of s:7, a:7, sl2:13 and psl2:13, which no command of
tools/command_matrix.py builds.
"""

import argparse
import hashlib
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TOKENS = (
    [f"s:{m}" for m in range(2, 8)]
    + [f"a:{m}" for m in range(2, 8)]
    + [f"{family}:{p}" for family in ("sl2", "psl2") for p in (3, 5, 7, 11, 13)]
)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=SRC, help="directory holding the quasimix package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from quasimix.cli import resolve_group
    from quasimix.groups import commutator_subgroup, conjugacy_classes

    for token in TOKENS:
        group = resolve_group(token)
        classes = conjugacy_classes(group)
        print(
            token,
            group.order,
            hashlib.sha256(group.mul.astype("<i4").tobytes()).hexdigest(),
            hashlib.sha256(classes.class_of.astype("<i4").tobytes()).hexdigest(),
            len(commutator_subgroup(group, classes)),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
