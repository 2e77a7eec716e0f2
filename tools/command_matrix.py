"""Run the fixed command matrix and write every command's outputs into OUTDIR.

Usage: python tools/command_matrix.py OUTDIR

The matrix is the invariant a pure refactor must keep byte for byte:
  - verify --check all --trials 3 --seed 7 on z:6, s:4, a:5 and sl2:5,
    once with --csv and once with --threads 2;
  - search --budget 120 --seed 3 for every objective in this checkout's
    quasimix.adversary.OBJECTIVES on z:60, z:12, s:4, a:5, sl2:5, sl2:7,
    psl2:11 and s:6;
  - analyze and export-cayley on s:4, a:5, sl2:5, sl2:7 and z:12, and analyze
    of the exported sl2:7 table read back through a file: token.
With the five objectives lemma, corollary, theorem, step1 and step2 that is
59 commands: 8 verify, 40 search and 11 set-up commands.

Each command runs in a fresh interpreter against this checkout's src/, with
its own directory OUTDIR/<name>/ as working directory.  That directory
receives stdout.txt, stderr.txt, exit_code.txt and every file the command
wrote (report, CSV, reproducers).  Messages that name a written file carry
its absolute path, so the run directory is replaced by "<rundir>" in the
captured streams.  Two checkouts run into two OUTDIRs then compare with
``diff -r OUTDIR_A OUTDIR_B``.  The script exits 1 when any command exited
non-zero, so a matrix that no longer runs cannot pass as an empty diff.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
RUN_MAIN = "import sys; from quasimix.cli import main; sys.exit(main(sys.argv[1:]))"

# the searched objectives are the checkout's own, so a new objective joins the matrix
sys.path.insert(0, SRC)
from quasimix.adversary import OBJECTIVES  # noqa: E402

VERIFY_GROUPS = ("z:6", "s:4", "a:5", "sl2:5")
SEARCH_GROUPS = ("z:60", "z:12", "s:4", "a:5", "sl2:5", "sl2:7", "psl2:11", "s:6")
SETUP_GROUPS = ("s:4", "a:5", "sl2:5", "sl2:7", "z:12")


def _label(token):
    return token.replace(":", "-")


def commands():
    """(name, argv) of every command in the matrix, in a fixed order."""
    verify = ["verify", "--check", "all", "--trials", "3", "--seed", "7", "--out", "report.json"]
    for group in VERIFY_GROUPS:
        yield f"verify-{_label(group)}-csv", verify + ["--group", group, "--csv", "trials.csv"]
        yield f"verify-{_label(group)}-threads2", verify + ["--group", group, "--threads", "2"]
    for group in SEARCH_GROUPS:
        for objective in OBJECTIVES:
            argv = ["search", "--group", group, "--objective", objective,
                    "--budget", "120", "--seed", "3", "--out", "report.json"]
            yield f"search-{objective}-{_label(group)}", argv
    for group in SETUP_GROUPS:
        yield f"analyze-{_label(group)}", ["analyze", "--group", group, "--out", "report.json"]
        yield f"export-cayley-{_label(group)}", [
            "export-cayley", "--group", group, "--out", "table.txt"
        ]
        if group == "sl2:7":  # the loader, on the text the export above wrote
            yield f"analyze-file-{_label(group)}", [
                "analyze", "--group", f"file:../export-cayley-{_label(group)}/table.txt",
                "--out", "report.json",
            ]


def run(outdir):
    env = dict(os.environ, PYTHONPATH=SRC)
    failures = 0
    for name, argv in commands():
        rundir = os.path.abspath(os.path.join(outdir, name))
        os.makedirs(rundir)
        proc = subprocess.run(
            [sys.executable, "-c", RUN_MAIN, *argv],
            cwd=rundir, env=env, capture_output=True, text=True,
        )
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            with open(os.path.join(rundir, f"{stream}.txt"), "w") as handle:
                handle.write(text.replace(rundir, "<rundir>"))
        with open(os.path.join(rundir, "exit_code.txt"), "w") as handle:
            handle.write(f"{proc.returncode}\n")
        failures += proc.returncode != 0
        print(f"{proc.returncode}  {name}")
    print(f"{failures} command(s) exited non-zero")
    return failures


def main(argv):
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 1
    outdir = argv[0]
    if os.path.exists(outdir) and os.listdir(outdir):
        sys.stderr.write(f"command_matrix: {outdir} exists and is not empty\n")
        return 1
    return 1 if run(outdir) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
