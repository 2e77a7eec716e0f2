"""Summarise how the files of two command-matrix output directories differ, float by float.

Usage: python tools/float_drift.py BASE NEW

BASE and NEW are two OUTDIRs of tools/command_matrix.py.  For every file that differs
between them, it prints one line with the number of floats that moved, the largest
absolute and the largest relative change of any float (with both values), and then
every non-float token that differs.  A float is a decimal number with a point or an
exponent; integers, statuses, names and punctuation are non-float tokens.  Files that
only one directory holds are named.  The last line gives the largest relative change
over all files.  It only reports: the exit code is 0 whenever both directories exist.
"""

import difflib
import os
import re
import sys

FLOAT = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\d+[eE][-+]?\d+)")
WORD = re.compile(r"[^\s\"',:\[\]{}()]+")


def _files(root):
    found = set()
    for folder, _, names in os.walk(root):
        found.update(os.path.relpath(os.path.join(folder, name), root) for name in names)
    return found


def _split(text):
    """(floats, words): the floats of text in order, and the other tokens in order."""
    pieces = FLOAT.split(text)
    floats = [float(x) for x in pieces[1::2]]
    words = [w for piece in pieces[0::2] for w in WORD.findall(piece)]
    return floats, words


def _relative(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare(base_text, new_text):
    """(moved, worst absolute (change, a, b), worst relative (change, a, b), word changes).

    Floats pair up in order when both texts hold the same number of them; otherwise
    nothing is paired, and moved is None."""
    base_floats, base_words = _split(base_text)
    new_floats, new_words = _split(new_text)
    moved, worst_abs, worst_rel = None, (0.0, None, None), (0.0, None, None)
    if len(base_floats) == len(new_floats):
        pairs = [(a, b) for a, b in zip(base_floats, new_floats) if a != b]
        moved = len(pairs)
        for a, b in pairs:
            worst_abs = max(worst_abs, (abs(a - b), a, b), key=lambda t: t[0])
            worst_rel = max(worst_rel, (_relative(a, b), a, b), key=lambda t: t[0])
    words = []
    matcher = difflib.SequenceMatcher(None, base_words, new_words, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            words.append((" ".join(base_words[i1:i2]), " ".join(new_words[j1:j2])))
    if moved is None:
        words.append((f"{len(base_floats)} floats", f"{len(new_floats)} floats"))
    return moved, worst_abs, worst_rel, words


def main(argv):
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        sys.stderr.write(__doc__)
        return 1
    base, new = argv
    base_files, new_files = _files(base), _files(new)
    for name in sorted(base_files ^ new_files):
        print(f"{name}: only in {base if name in base_files else new}")
    overall = (0.0, None)
    for name in sorted(base_files & new_files):
        with open(os.path.join(base, name), "rb") as a, open(os.path.join(new, name), "rb") as b:
            base_bytes, new_bytes = a.read(), b.read()
        if base_bytes == new_bytes:
            continue
        moved, (abs_change, a1, b1), (rel_change, a2, b2), words = compare(
            base_bytes.decode(errors="replace"), new_bytes.decode(errors="replace"))
        if moved is None:
            print(f"{name}: the float counts differ, so no float is paired")
        else:
            print(f"{name}: {moved} floats moved; largest absolute change {abs_change:.3g}"
                  + (f" ({a1!r} -> {b1!r})" if moved else "")
                  + f", largest relative change {rel_change:.3g}"
                  + (f" ({a2!r} -> {b2!r})" if moved else ""))
            overall = max(overall, (rel_change, name), key=lambda t: t[0])
        for old, fresh in words:
            print(f"  non-float: {old!r} -> {fresh!r}")
    where = f" ({overall[1]})" if overall[1] else ""
    print(f"largest relative change of any float: {overall[0]:.3g}{where}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
