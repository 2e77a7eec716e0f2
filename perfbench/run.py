"""The quasimix benchmark: one command, three closed-loop workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-chain --seed 1 --seconds 15 --trace 0

One caller runs the workload's operations one after another (a closed loop)
in this process, with numpy and its BLAS at their default threading.
Workloads and metrics are declared in BENCHMARK.json at the root.

--trace 0 runs the workload once through quasimix.cli.main, untimed, then
repeats whole passes of direct calls until --seconds have gone by, and
reports the end-to-end metrics.  --trace 1 is the separate per-layer run: it
times every layer's public calls (see layers.py), runs one pass of the
workload with spans around those calls and one without, reports the
difference as the tracing overhead, prints each layer's self time, and writes
the spans to perfbench/out/.  It ignores --seconds.  Every output is checked; the last line of
stdout is one JSON object with correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

from checkout import ROOT, peak_rss_mb, use_checkout_source

use_checkout_source()

import numpy as np  # noqa: E402

import quasimix  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import NullTracer, Tracer, layer_self_times  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# Extra set-up-only repetitions per group on top of those inside the passes.
SETUP_REPS = 5
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OMP_PROC_BIND")
# Names of the throughput metric on the workloads it is quoted for.
WORK_UNITS = {
    "verify-chain": ("verify_trials_per_s", "trials/s"),
    "search-adversary": ("search_evals_per_s", "evals/s"),
    "analyze-catalog": ("analyze_groups_per_s", "groups/s"),
}


def run_context(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "quasimix": quasimix.__version__,
    }


def _spread(values) -> str:
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def measure(args, ctx: wl.Context, tally: wl.Tally) -> dict:
    """End-to-end metrics of whole passes, untraced."""
    ops = wl.build_ops(args.workload, ctx)
    # The pass through quasimix.cli.main is untimed: it warms the process up
    # (the first pass of analyze-catalog is ~15% slower than the next) and its
    # bytes are compared with those of the timed direct calls.
    cli_digests = {}
    for op in ops:
        files = tally.attempt(f"cli {op.kind} {op.name}", lambda: wl.run_cli(op, ctx))
        if files is not None:
            cli_digests[op] = wl.files_digest(files)
    passes = wl.run_passes(ops, ctx, tally, args.seconds)
    for op, digest in cli_digests.items():
        tally.attempt(f"cli bytes {op.kind} {op.name}", lambda: wl.expect(
            digest == tally.digests.get(op),
            f"quasimix.cli.main output for {op.name} differs from the direct calls"))
    samples = wl.setup_samples(passes)
    if args.workload != "analyze-catalog":
        wl.extra_setups(ops, tally, SETUP_REPS, samples)
    tally.attempt("committed reference", wl.check_reference)

    walls = [p.wall_s for p in passes]
    rates = [
        sum(r.work for r in p.results.values()) / sum(r.core_s for r in p.results.values())
        for p in passes if p.results
    ]
    metrics = {
        "setup_s": wl.median_setup_s(samples),
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    alias, unit = WORK_UNITS[args.workload]
    print(f"wall_s: median {metrics['wall_s']:.6g} s per pass ({_spread(walls)})")
    print(f"setup_s: {metrics['setup_s']:.6g} s, sum of per-group medians over "
          f"{min(len(v) for v in samples.values())}+ set-ups per group")
    print(f"work_per_s = {alias}: median {metrics['work_per_s']:.6g} {unit} ({_spread(rates)})")
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.6g} MB")
    return metrics


def _traced_pass(ops, ctx: wl.Context, tally: wl.Tally):
    tracer = Tracer()
    ctx.tracer = tracer
    try:
        with tracer.installed():
            return wl.run_pass(ops, ctx, tally), tracer
    finally:
        ctx.tracer = NullTracer()


def trace(args, ctx: wl.Context, tally: wl.Tally) -> dict:
    """Per-layer metrics, tracing overhead and the traced pass's self times."""
    ops = {w: wl.build_ops(w, ctx) for w in wl.WORKLOADS}
    # The traced workload's untraced pass runs last, right before its traced
    # pass, so the other passes warm the process up for both.
    order = [w for w in ("search-adversary", "verify-chain") if w != args.workload]
    untraced = {w: wl.run_pass(ops[w], ctx, tally, keep_objects=True) for w in order + [args.workload]}
    traced, tracer = _traced_pass(ops[args.workload], ctx, tally)
    verify_tracer = (tracer if args.workload == "verify-chain"
                     else _traced_pass(ops["verify-chain"], ctx, tally)[1])

    overhead = traced.wall_s - untraced[args.workload].wall_s
    metrics = {
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced[args.workload].wall_s,
    }
    layers.harmonic_metrics(args.seed, tally, metrics)
    layers.report_metrics(untraced["verify-chain"], verify_tracer.durations(), metrics)
    layers.pool_metrics(args.seed, tally, metrics)
    layers.adversary_metrics(untraced["search-adversary"], tally, metrics)
    layers.group_metrics(ops["analyze-catalog"], ctx, tally, metrics)

    self_times = tracer.self_times()
    by_layer = layer_self_times(self_times)
    traced_total = sum(by_layer.values())
    print(f"traced pass: {traced.wall_s:.6g} s, untraced: {untraced[args.workload].wall_s:.6g} s, "
          f"tracing overhead {overhead:+.6g} s")
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"self_s {layer}: {seconds:.6g} s ({100.0 * seconds / traced_total:.1f}%)")
    for name, seconds in sorted(self_times.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  self_s {name}: {seconds:.6g} s ({100.0 * seconds / traced_total:.1f}%)")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as handle:
        json.dump({
            "context": run_context(args),
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[n, s - origin, e - origin, p, o] for n, s, e, p, o in tracer.spans],
            "self_s_by_span": self_times,
            "self_s_by_layer": by_layer,
            "metrics": metrics,
        }, handle)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("context: " + json.dumps(run_context(args), sort_keys=True), flush=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    tally = wl.Tally()
    ctx = wl.Context(seed=args.seed, outdir=outdir, tracer=NullTracer())
    started = time.perf_counter()
    try:
        tally.attempt("export-cayley", lambda: wl.export_source_file(ctx))
        measured = (trace if args.trace else measure)(args, ctx, tally)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in measured]
    undeclared = sorted(set(measured) - set(names))
    if missing or undeclared:
        sys.stderr.write(f"perfbench: declared but not measured: {missing}; "
                         f"measured but not declared in BENCHMARK.json: {undeclared}\n")
    print(f"ops_failed_ratio: {tally.failed / tally.attempted:.6g} failed/attempted "
          f"({tally.failed} of {tally.attempted})")
    print(f"run took {time.perf_counter() - started:.1f} s")
    correct = tally.failed == 0 and not missing and not undeclared
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in declared if m["name"] in measured
    }
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
