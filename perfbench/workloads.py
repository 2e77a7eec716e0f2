"""The benchmark's workloads: their operations, passes and output checks.

One operation is one quasimix command on one group (per objective for
search), driven through the package's public functions the way the CLI
drives them, so each phase can be timed on its own.  Every output is checked
against facts from the literature, the closed-form bounds, the report's own
invariants and a committed reference; none of these is a digest of float
bytes, so a kernel that moves the last digits still passes.
"""

import csv
import hashlib
import io
import json
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import quasimix.adversary as qadversary
import quasimix.cli as qcli
import quasimix.groups as qgroups
import quasimix.harmonic as qharmonic
import quasimix.report as qreport
import quasimix.spectra as qspectra

# The CLI default of --tolerance-orthogonality.
ORTHO_TOL = 1e-8

# (order, conjugacy classes, quasi-randomness degree D) from the character
# tables in the literature: A_m and S_m (James–Kerber), SL(2,p) with p + 4
# classes and D = (p - 1)/2, PSL(2,11) with D = 5, and the cyclic groups.
KNOWN: Dict[str, Tuple[int, int, int]] = {
    "a:5": (60, 5, 3),
    "sl2:5": (120, 9, 2),
    "sl2:7": (336, 11, 3),
    "psl2:11": (660, 8, 5),
    "s:6": (720, 11, 1),
    "a:7": (2520, 9, 6),
    "s:7": (5040, 15, 1),
    "sl2:13": (2184, 17, 6),
    "z:256": (256, 256, 1),
    "z:60": (60, 60, 1),
}

# Record name -> (coefficient, power) of its bound c·D^p for normalized inputs.
BOUNDS: Dict[str, Tuple[float, float]] = {
    "lemma": (1.0, -0.5),
    "corollary": (1.0, -0.5),
    "corollary_sharp": (1.0, -1.0),
    "theorem": (4.0, -0.125),
    "step1": (3.0, -0.125),
    "step2": (5.0, -0.25),
    "step3": (25.0, -0.5),
    "step4": (1.0, -0.5),
    "step4_lemma_substitution": (1.0, -0.5),
}
BOUND_RTOL = 1e-9

VERIFY_TRIALS = {"a:5": 20, "sl2:5": 5, "sl2:7": 1, "psl2:11": 1, "s:6": 1}
SEARCH_BUDGETS = {"a:5": 400, "sl2:7": 80, "z:60": 400}
SEARCH_RESTARTS = 4
SEARCH_OBJECTIVES = ("theorem", "step1", "lemma", "corollary")
ABELIAN_WITNESS_TOL = 1e-9
FILE_SOURCE = "sl2:7"
ANALYZE_GROUPS = ("s:7", "a:7", "sl2:13", "z:256", "file")

WORKLOADS = ("verify-chain", "search-adversary", "analyze-catalog")


class OutputMismatch(Exception):
    """An output disagrees with what the benchmark knows it must be."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OutputMismatch(message)


def label(token: str) -> str:
    """Metric suffix of a group token: ':' becomes '-'."""
    return token.replace(":", "-")


@dataclass(frozen=True)
class Op:
    kind: str  # verify, search or analyze
    token: str  # group token as the CLI receives it
    known: str  # KNOWN key of the group
    name: str  # label used in metric names and output files
    objective: Optional[str] = None


@dataclass
class OpResult:
    setup_s: float  # resolve_group + spectral_data (+ Harmonic)
    core_s: float  # run_verification, maximize, or spectral_data for analyze
    work: int  # (check, trial) pairs, evaluations, or groups
    serialize_s: float  # canonical_json and file writes
    files: Dict[str, bytes]
    harmonic: Optional[qharmonic.Harmonic] = None
    search: Optional[qadversary.SearchResult] = None


@dataclass
class Context:
    seed: int
    outdir: str
    tracer: object
    file_token: str = ""


def build_ops(workload: str, ctx: Context) -> List[Op]:
    if workload == "verify-chain":
        return [Op("verify", t, t, label(t)) for t in VERIFY_TRIALS]
    if workload == "search-adversary":
        return [
            Op("search", t, t, f"{label(t)}.{o}", objective=o)
            for t in SEARCH_BUDGETS
            for o in SEARCH_OBJECTIVES
        ]
    if workload == "analyze-catalog":
        ops = []
        for t in ANALYZE_GROUPS:
            if t == "file":
                ops.append(Op("analyze", ctx.file_token, FILE_SOURCE, f"file-{label(FILE_SOURCE)}"))
            else:
                ops.append(Op("analyze", t, t, label(t)))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def export_source_file(ctx: Context) -> None:
    """Write the file: group with `quasimix export-cayley` and check its bytes."""
    path = os.path.join(ctx.outdir, f"{label(FILE_SOURCE)}.txt")
    code = qcli.main(["export-cayley", "--group", FILE_SOURCE, "--out", path])
    expect(code == 0, f"export-cayley exited with {code}")
    with open(path, "rb") as handle:
        written = handle.read()
    expected = qgroups.format_cayley_table(qcli.resolve_group(FILE_SOURCE)).encode()
    expect(written == expected, "export-cayley bytes differ from format_cayley_table")
    ctx.file_token = f"file:{path}"


# -- one operation -----------------------------------------------------------


def _write(path: str, text: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)


def _read_files(paths: Dict[str, str]) -> Dict[str, bytes]:
    files = {}
    for key, path in paths.items():
        with open(path, "rb") as handle:
            files[key] = handle.read()
    return files


def run_op(op: Op, ctx: Context) -> OpResult:
    """Run one command the way quasimix.cli does, timing each phase."""
    tracer = ctx.tracer
    tracer.op_id = f"{op.kind}:{op.name}"
    base = os.path.join(ctx.outdir, f"{op.kind}-{op.name}")
    paths = {"json": base + ".json"}
    harmonic = search = None
    with tracer.span(f"op.{op.kind}"):
        t0 = time.perf_counter()
        group = qcli.resolve_group(op.token)
        if op.kind == "analyze":
            c0 = time.perf_counter()
            spectral = qspectra.spectral_data(group, seed=ctx.seed, ortho_tol=ORTHO_TOL)
            t1 = time.perf_counter()
            core_s, work = t1 - c0, 1
            payload = {
                "format": 1,
                "tool": "quasimix",
                "version": qcli.__version__,
                "group": qreport.group_summary(spectral),
            }
        else:
            spectral = qspectra.spectral_data(group, ortho_tol=ORTHO_TOL)
            harmonic = qharmonic.Harmonic(spectral)
            t1 = time.perf_counter()
        if op.kind == "verify":
            outcome = qreport.run_verification(
                harmonic, qreport.CHECK_ORDER, trials=VERIFY_TRIALS[op.token],
                seed=ctx.seed, threads=1,
            )
            core_s = time.perf_counter() - t1
            work = VERIFY_TRIALS[op.token] * len(qreport.CHECK_ORDER)
            payload = outcome.report
        elif op.kind == "search":
            config = qadversary.SearchConfig(
                objective=op.objective, budget=SEARCH_BUDGETS[op.token],
                restarts=SEARCH_RESTARTS, seed=ctx.seed,
            )
            search = qadversary.maximize(harmonic, config)
            core_s = time.perf_counter() - t1
            work = search.evaluations_used
            payload = _search_payload(harmonic, config, search)
        s0 = time.perf_counter()
        with tracer.span("op.write"):
            _write(paths["json"], qreport.canonical_json(payload))
            if op.kind == "verify":
                paths["csv"] = base + ".csv"
                qreport.write_csv(paths["csv"], outcome.rows)
        t3 = time.perf_counter()
    return OpResult(
        setup_s=t1 - t0,
        core_s=core_s,
        work=work,
        serialize_s=t3 - s0,
        files=_read_files(paths),
        harmonic=harmonic,
        search=search,
    )


def _search_payload(harmonic, config, result) -> dict:
    """The JSON document `quasimix search` writes."""
    spectral = harmonic.spectral
    note = qreport.theorem_vacuity_note(harmonic) if config.objective == "theorem" else None
    return {
        "format": 1,
        "tool": "quasimix",
        "version": qcli.__version__,
        "group": qreport.group_summary(spectral),
        "notes": [note] if note else [],
        "search": {
            "objective": config.objective,
            "budget": config.budget,
            "restarts": config.restarts,
            "seed": config.seed,
            "step_schedule": list(config.step_schedule),
            "best_value": result.best_value,
            "bound": result.best_check.bound,
            "margin": result.best_check.margin,
            "evaluations_used": result.evaluations_used,
            "trace": result.trace,
        },
    }


def cli_argv(op: Op, ctx: Context, base: str) -> List[str]:
    """The quasimix command line equivalent to an operation."""
    argv = [op.kind, "--group", op.token, "--out", base + ".json", "--seed", str(ctx.seed)]
    if op.kind == "verify":
        argv += ["--check", "all", "--trials", str(VERIFY_TRIALS[op.token]),
                 "--threads", "1", "--csv", base + ".csv"]
    elif op.kind == "search":
        argv += ["--objective", op.objective, "--budget", str(SEARCH_BUDGETS[op.token]),
                 "--restarts", str(SEARCH_RESTARTS)]
    return argv


def run_cli(op: Op, ctx: Context) -> Dict[str, bytes]:
    """Run the operation through quasimix.cli.main and return the files it wrote."""
    base = os.path.join(ctx.outdir, f"cli-{op.kind}-{op.name}")
    code = qcli.main(cli_argv(op, ctx, base))
    expect(code == 0, f"quasimix {op.kind} on {op.token} exited with {code}")
    paths = {"json": base + ".json"}
    if op.kind == "verify":
        paths["csv"] = base + ".csv"
    return _read_files(paths)


# -- output checks -----------------------------------------------------------


def _close(observed: float, expected: float, rtol: float) -> bool:
    return abs(observed - expected) <= rtol * max(1.0, abs(expected))


def check_group(summary: dict, known: str) -> int:
    """Order, class count and D against the literature; returns D."""
    order, classes, degree = KNOWN[known]
    expect(summary["order"] == order, f"{known}: order {summary['order']} != {order}")
    expect(summary["classes"] == classes, f"{known}: {summary['classes']} classes != {classes}")
    expect(
        summary["quasirandomness_degree"] == degree,
        f"{known}: D = {summary['quasirandomness_degree']} != {degree}",
    )
    degrees = summary["degrees"]
    expect(len(degrees) == classes, f"{known}: {len(degrees)} degrees for {classes} classes")
    expect(sum(d * d for d in degrees) == order, f"{known}: sum of squared degrees != order")
    expect(summary["is_perfect"] == (degree >= 2), f"{known}: is_perfect disagrees with D")
    return degree


def _check_bound(name: str, bound: float, degree: int, known: str) -> None:
    coefficient, power = BOUNDS[name]
    expected = coefficient * float(degree) ** power
    expect(_close(bound, expected, BOUND_RTOL), f"{known} {name}: bound {bound} != {expected}")


def check_op(op: Op, result: OpResult, ctx: Context) -> None:
    report = json.loads(result.files["json"])
    degree = check_group(report["group"], op.known)
    if op.kind == "verify":
        trials = VERIFY_TRIALS[op.token]
        expect(report["settings"]["seed"] == ctx.seed, "verify report carries another seed")
        names = [r["check"] for r in report["checks"]]
        expect(sorted(names) == sorted(BOUNDS), f"{op.token}: records {names}")
        for record in report["checks"]:
            expect(record["status"] == "pass", f"{op.token} {record['check']}: status {record['status']}")
            expect(record["trials"] == trials, f"{op.token} {record['check']}: trial count")
            _check_bound(record["check"], record["bound"], degree, op.known)
            expect(record["max_observed"] <= record["bound"], f"{op.token} {record['check']}: above bound")
        rows = list(csv.reader(io.StringIO(result.files["csv"].decode())))
        expect(len(rows) == 1 + trials * len(BOUNDS), f"{op.token}: {len(rows) - 1} CSV rows")
    elif op.kind == "search":
        search = report["search"]
        budget = SEARCH_BUDGETS[op.token]
        expect(search["evaluations_used"] == budget, f"{op.name}: used {search['evaluations_used']} of {budget}")
        trace = search["trace"]
        expect(len(trace) == budget, f"{op.name}: trace length {len(trace)}")
        expect(all(b >= a for a, b in zip(trace, trace[1:])), f"{op.name}: trace decreases")
        expect(search["best_value"] == trace[-1], f"{op.name}: best_value is not the trace maximum")
        _check_bound(op.objective, search["bound"], degree, op.known)
        expect(search["margin"] >= 0.0, f"{op.name}: bound violated")
        if degree == 1 and op.objective in ("theorem", "step1"):
            expect(
                abs(search["best_value"] - 1.0) <= ABELIAN_WITNESS_TOL,
                f"{op.name}: best_value {search['best_value']} misses the character witness 1.0",
            )


# -- the committed reference -------------------------------------------------

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def reference_observations() -> Dict[str, float]:
    """Observed values of a fixed small configuration, independent of --seed."""
    values = {}
    for token in ("a:5", "sl2:5"):
        harmonic = qharmonic.Harmonic(qspectra.spectral_data(qcli.resolve_group(token)))
        outcome = qreport.run_verification(harmonic, qreport.CHECK_ORDER, trials=2, seed=0)
        for record in outcome.report["checks"]:
            values[f"verify.{token}.{record['check']}.max_observed"] = record["max_observed"]
        for objective in SEARCH_OBJECTIVES:
            config = qadversary.SearchConfig(objective=objective, budget=40, seed=0)
            values[f"search.{token}.{objective}.best_value"] = qadversary.maximize(harmonic, config).best_value
    return values


def check_reference() -> None:
    with open(REFERENCE_PATH) as handle:
        reference = json.load(handle)
    rtol, expected = reference["rtol"], reference["values"]
    observed = reference_observations()
    expect(sorted(observed) == sorted(expected), "reference keys differ")
    for key, value in expected.items():
        expect(_close(observed[key], value, rtol), f"{key}: {observed[key]} != reference {value}")


# -- passes ------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    results: Dict[Op, OpResult] = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    digests: Dict[Op, str] = field(default_factory=dict)

    def attempt(self, what: str, fn: Callable[[], object]):
        """Run one checked operation; a failure is counted and its traceback printed."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            sys.stderr.write(f"perfbench: {what} failed\n{traceback.format_exc()}")
            return None


def files_digest(files: Dict[str, bytes]) -> str:
    return hashlib.sha256(b"".join(files[k] for k in sorted(files))).hexdigest()


def _checked_op(op: Op, ctx: Context, tally: Tally, keep_objects: bool) -> OpResult:
    result = run_op(op, ctx)
    check_op(op, result, ctx)
    digest = files_digest(result.files)
    first = tally.digests.setdefault(op, digest)
    expect(digest == first, f"{op.kind} {op.name}: output differs between passes of one run")
    # Dropped so that peak RSS does not grow with the number of passes.
    result.files = {}
    if not keep_objects:
        result.harmonic = result.search = None
    return result


def run_pass(ops: List[Op], ctx: Context, tally: Tally, keep_objects: bool = False) -> PassResult:
    """One pass over the operations; keep_objects keeps each Harmonic and SearchResult."""
    started = time.perf_counter()
    results = {}
    for op in ops:
        result = tally.attempt(
            f"{op.kind} {op.name}", lambda: _checked_op(op, ctx, tally, keep_objects)
        )
        if result is not None:
            results[op] = result
    return PassResult(time.perf_counter() - started, results)


def run_passes(ops: List[Op], ctx: Context, tally: Tally, seconds: float) -> List[PassResult]:
    """Whole passes, back to back, until `seconds` have gone by."""
    passes: List[PassResult] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(run_pass(ops, ctx, tally))
    return passes


def median_setup_s(samples: Dict[str, List[float]]) -> float:
    """Sum over groups of each group's median set-up time."""
    return sum(statistics.median(v) for v in samples.values())


def setup_samples(passes: List[PassResult]) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {}
    for p in passes:
        for op, result in p.results.items():
            samples.setdefault(op.known, []).append(result.setup_s)
    return samples


def extra_setups(ops: List[Op], tally: Tally, reps: int, samples: Dict[str, List[float]]) -> None:
    """Set-up only (resolve_group, spectral_data, Harmonic), repeated per group."""
    tokens = {op.known: op.token for op in ops}

    def once(token):
        t0 = time.perf_counter()
        spectral = qspectra.spectral_data(qcli.resolve_group(token), ortho_tol=ORTHO_TOL)
        qharmonic.Harmonic(spectral)
        return time.perf_counter() - t0

    for _ in range(reps):
        for known, token in tokens.items():
            elapsed = tally.attempt(f"set-up {token}", lambda: once(token))
            if elapsed is not None:
                samples[known].append(elapsed)
