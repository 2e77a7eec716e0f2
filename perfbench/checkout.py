"""Import quasimix from the checkout's own src/, never from an installed copy.

The benchmark runs from the root of a checkout; it measures the package
source found there.  Without it the benchmark must fail rather than measure
something else, so a missing or shadowed src/quasimix exits with code 1.
"""

import os
import resource
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def use_checkout_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "quasimix", "__init__.py")):
        sys.stderr.write(f"perfbench: no src/quasimix under {ROOT}; run from the repository root\n")
        sys.exit(1)
    sys.path.insert(0, SRC)
    import quasimix

    if not os.path.abspath(quasimix.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: quasimix imported from {quasimix.__file__}, not {SRC}\n")
        sys.exit(1)


def peak_rss_mb() -> float:
    """Peak resident set of this process since it was started, in MB.

    Linux's getrusage ru_maxrss keeps the parent's resident set at exec as a
    floor, so a small process started from a large one reads the parent's
    size; VmHWM counts this process's own memory only.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
