"""Set up one group in a fresh process: resolve_group and spectral_data, traced.

Usage (from the repository root): python3 perfbench/group_probe.py <token> <seed>

Prints one JSON line with the group summary, self and inclusive seconds per
span name, and this process's peak RSS in MB.
"""

import json
import sys

from checkout import peak_rss_mb, use_checkout_source

use_checkout_source()

import quasimix.cli as qcli  # noqa: E402
import quasimix.report as qreport  # noqa: E402
import quasimix.spectra as qspectra  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import ORTHO_TOL  # noqa: E402


def main(token: str, seed: int) -> None:
    tracer = Tracer()
    with tracer.installed():
        spectral = qspectra.spectral_data(qcli.resolve_group(token), seed=seed, ortho_tol=ORTHO_TOL)
        summary = qreport.group_summary(spectral)
    print(json.dumps({
        "summary": summary,
        "self_s": tracer.self_times(),
        "duration_s": tracer.durations(),
        "peak_rss_mb": peak_rss_mb(),
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
