"""Per-layer metrics for the traced run.

Each layer's public functions are called directly from here, or timed as
spans inside a traced pass, so the numbers say where a workload's time goes:

- groups and spectra: one fresh subprocess per analyze-catalog group runs
  resolve_group and spectral_data under the tracer and reports its peak RSS;
- harmonic: every check method on every verify-chain group, called on inputs
  from the public samplers, plus Harmonic construction;
- report: run_verification per group and serialization, from an untraced
  verify-chain pass, its share outside the check methods, from a traced
  one, and the threads=2 pool against threads=1;
- adversary: maximize per objective and group, from an untraced
  search-adversary pass, against a direct evaluate_inputs call.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

import quasimix.adversary as qadversary
import quasimix.cli as qcli
import quasimix.harmonic as qharmonic
import quasimix.report as qreport
import quasimix.spectra as qspectra

import workloads as wl
from tracing import HARMONIC_METHODS

# Inputs per check, drawn through the public samplers as verify draws them.
_INPUTS = {
    "lemma": ("unit", "unit"),
    "corollary": ("unit", "unit"),
    "theorem": ("disc", "disc", "disc"),
    "step1": ("centered", "disc", "disc"),
    "step2": ("centered", "disc", "disc"),
    "step3": ("centered", "disc"),
    "step4": ("centered", "disc"),
    "step4sub": ("disc",),
}
_METHODS = {check: method for method, check in HARMONIC_METHODS.items()}
# Second SeedSequence entry of the probe inputs; verify's trial streams use 1..8.
_PROBE_STREAM = 0x4C
# Cheap calls are repeated until this much time is spent, then the median taken.
_MIN_PROBE_S = 0.05
_MAX_PROBE_CALLS = 7
POOL_GROUPS = ("sl2:7", "psl2:11")
POOL_TRIALS = 2
GROUP_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "group_probe.py")
GROUP_PROBE_TIMEOUT_S = 150


def _median_call(fn, check=lambda result: None) -> float:
    """Median seconds of repeated calls, each result checked; one call when a call is slow."""
    times: List[float] = []
    while not times or (sum(times) < _MIN_PROBE_S and len(times) < _MAX_PROBE_CALLS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        check(result)
    return statistics.median(times)


def _draw(kind: str, n: int, rng: np.random.Generator):
    if kind == "unit":
        return qharmonic.sample_unit(n, rng)
    f = qharmonic.sample_disc(n, rng)
    return qharmonic.centered(f) if kind == "centered" else f


def harmonic_metrics(seed: int, tally: wl.Tally, metrics: Dict[str, float]) -> None:
    """harmonic.<check>.ms_per_call.<g> and harmonic.init_s."""
    init_total = 0.0
    tokens = list(wl.VERIFY_TRIALS) + [t for t in wl.SEARCH_BUDGETS if t not in wl.VERIFY_TRIALS]
    for index, token in enumerate(tokens):
        spectral = qspectra.spectral_data(qcli.resolve_group(token), ortho_tol=wl.ORTHO_TOL)
        init_total += _median_call(lambda: qharmonic.Harmonic(spectral))
        if token not in wl.VERIFY_TRIALS:
            continue
        harmonic = qharmonic.Harmonic(spectral)
        rng = np.random.default_rng(np.random.SeedSequence((seed, _PROBE_STREAM, index)))
        for check, kinds in _INPUTS.items():
            inputs = [_draw(k, harmonic.n, rng) for k in kinds]
            method = getattr(harmonic, _METHODS[check])

            def within_bound(result):
                checks = result if isinstance(result, tuple) else (result,)
                wl.expect(all(c.margin >= 0.0 for c in checks), f"{token} {check}: bound violated")

            seconds = tally.attempt(
                f"harmonic {check} on {token}",
                lambda: _median_call(lambda: method(*inputs), within_bound),
            )
            if seconds is not None:
                metrics[f"harmonic.{check}.ms_per_call.{wl.label(token)}"] = 1000.0 * seconds
    metrics["harmonic.init_s"] = init_total


def report_metrics(verify_pass: wl.PassResult, traced_s: Dict[str, float],
                   metrics: Dict[str, float]) -> None:
    """report.verify_s.<g>, report.serialize_s and report.overhead_share.

    overhead_share is the part of run_verification spent outside the eight
    check methods, from the inclusive span seconds `traced_s` of a traced
    verify-chain pass.  Taking both from the same calls keeps the machine's
    drift between separate measurements out of a share of a few percent.
    """
    serialize = 0.0
    for op, result in verify_pass.results.items():
        metrics[f"report.verify_s.{op.name}"] = result.core_s
        serialize += result.serialize_s
    metrics["report.serialize_s"] = serialize
    inside = sum(traced_s[f"harmonic.{check}"] for check in _INPUTS)
    metrics["report.overhead_share"] = 1.0 - inside / traced_s["report.run_verification"]


def pool_metrics(seed: int, tally: wl.Tally, metrics: Dict[str, float]) -> None:
    """report.pool2_speedup: run_verification with threads=1 over threads=2."""
    elapsed = {1: 0.0, 2: 0.0}

    def measure(token):
        harmonic = qharmonic.Harmonic(qspectra.spectral_data(qcli.resolve_group(token)))
        reports = {}
        for threads in (1, 2):
            t0 = time.perf_counter()
            outcome = qreport.run_verification(
                harmonic, qreport.CHECK_ORDER, trials=POOL_TRIALS, seed=seed, threads=threads
            )
            elapsed[threads] += time.perf_counter() - t0
            reports[threads] = qreport.canonical_json(dict(outcome.report, settings=None))
        wl.expect(reports[1] == reports[2], f"{token}: threads=2 report differs from threads=1")

    for token in POOL_GROUPS:
        tally.attempt(f"pool on {token}", lambda: measure(token))
    metrics["report.pool2_speedup"] = elapsed[1] / elapsed[2]


def adversary_metrics(search_pass: wl.PassResult, tally: wl.Tally, metrics: Dict[str, float]) -> None:
    """adversary.<obj>.{ms_per_eval,self_ms_per_eval,improve_ratio}.<g>."""
    for op, result in search_pass.results.items():
        search = result.search
        evals = search.evaluations_used
        per_eval = 1000.0 * result.core_s / evals

        def direct():
            return _median_call(
                lambda: qadversary.evaluate_inputs(result.harmonic, op.objective, search.best_inputs)
            )

        seconds = tally.attempt(f"evaluate_inputs {op.name}", direct)
        if seconds is None:
            continue
        g = wl.label(op.token)
        rises = sum(b > a for a, b in zip(search.trace, search.trace[1:]))
        metrics[f"adversary.{op.objective}.ms_per_eval.{g}"] = per_eval
        metrics[f"adversary.{op.objective}.self_ms_per_eval.{g}"] = per_eval - 1000.0 * seconds
        metrics[f"adversary.{op.objective}.improve_ratio.{g}"] = rises / evals


def group_metrics(ops: List[wl.Op], ctx: wl.Context, tally: wl.Tally,
                  metrics: Dict[str, float]) -> None:
    """groups.* and spectra.* per analyze-catalog group, one fresh process each."""
    root = os.getcwd()
    for op in ops:

        def probe():
            done = subprocess.run(
                [sys.executable, GROUP_PROBE, op.token, str(ctx.seed)],
                cwd=root, capture_output=True, text=True, timeout=GROUP_PROBE_TIMEOUT_S,
            )
            wl.expect(done.returncode == 0, f"group probe {op.token} exited with "
                      f"{done.returncode}: {done.stderr.strip()[-500:]}")
            found = json.loads(done.stdout.strip().splitlines()[-1])
            wl.check_group(found["summary"], op.known)
            return found

        found = tally.attempt(f"group probe {op.name}", probe)
        if found is None:
            continue
        self_s, total = found["self_s"], found["duration_s"]
        build = self_s.get("groups.build", 0.0) + self_s.get("groups.load_cayley_table", 0.0)
        values = {
            "groups.build_s": build,
            "groups.validate_s": total.get("groups.group_from_table", 0.0),
            "groups.conj_table_s": total.get("groups.conjugation_table", 0.0),
            "groups.classes_s": self_s.get("groups.conjugacy_classes", 0.0),
            "groups.commutator_s": total.get("groups.commutator_subgroup", 0.0),
            "spectra.class_algebra_s": total.get("spectra.class_algebra", 0.0),
            "spectra.character_table_s": total.get("spectra.character_table", 0.0),
            "spectra.peak_rss_mb": found["peak_rss_mb"],
        }
        for key, value in values.items():
            metrics[f"{key}.{op.name}"] = value
