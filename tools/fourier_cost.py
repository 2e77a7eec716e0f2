"""Print a row of the README's "Cost of the Fourier checks" table for each group.

Usage: python tools/fourier_cost.py [--src DIR] GROUP...

Each GROUP token (a:5, sl2:13, s:7, ...) runs in a fresh Python process that imports
the quasimix package under DIR (default: this checkout's src/).  The process builds
the group and its spectral data, then times three calls: the Fourier basis build
(``Harmonic.fourier``, its certificate included), one ``step3_intermediate`` and one
``step4_substitution_sweep``, on a centered random phase f1 and a random phase f2
drawn from seed 0.  It then reads its peak RSS as VmHWM from
/proc/self/status (Linux), so every figure is one process's own.  The printed row is

    | `GROUP` | n | real columns | basis | basis build | step3 per trial | step4sub sweep | peak RSS |

with the basis's size in MB.  Pointed by ``--src`` at another checkout, it gives that
checkout's rows, so two source trees can be compared group by group.  A child that
fails prints its traceback, and the script exits 1.
"""

import argparse
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = """
import json, sys, time
import numpy as np
from quasimix.cli import resolve_group
from quasimix.harmonic import Harmonic, centered, sample_disc
from quasimix.spectra import spectral_data

h = Harmonic(spectral_data(resolve_group(sys.argv[1])))
rng = np.random.default_rng(0)
f1, f2 = centered(sample_disc(h.n, rng)), sample_disc(h.n, rng)
seconds = []
for call in (h.fourier, lambda: h.step3_intermediate(f1, f2),
             lambda: h.step4_substitution_sweep(f2)):
    start = time.perf_counter()
    call()
    seconds.append(time.perf_counter() - start)
with open("/proc/self/status") as handle:
    hwm_kb = int(next(line.split()[1] for line in handle if line.startswith("VmHWM:")))
basis = h.fourier()
print(json.dumps({"n": h.n, "real_columns": basis.real_columns,
                  "basis_mb": basis.matrix.nbytes / 1e6, "seconds": seconds,
                  "peak_mb": hwm_kb / 1024}))
"""


def measure(token: str, src: str) -> dict:
    """One fresh process's figures for ``token``, as the child prints them."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", CHILD, token], env=env,
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)


def row(token: str, cost: dict) -> str:
    build, step3, step4sub = cost["seconds"]
    return (f"| `{token}` | {cost['n']} | {cost['real_columns']} | {cost['basis_mb']:.3g} MB "
            f"| {build:.3g} s | {step3:.3g} s | {step4sub:.3g} s | {cost['peak_mb']:.0f} MB |")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=SRC, help="directory holding the quasimix package")
    parser.add_argument("groups", nargs="+", metavar="GROUP", help="group tokens, e.g. s:7")
    args = parser.parse_args(argv)
    for token in args.groups:
        try:
            cost = measure(token, args.src)
        except subprocess.CalledProcessError as error:
            print(f"{token}: the measuring process exited with status {error.returncode}",
                  file=sys.stderr)
            return 1
        print(row(token, cost), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
