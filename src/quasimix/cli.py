"""Command-line interface: group catalog, analysis, verification, search, export.

Exit codes: 0 — success, every margin ≥ −BOUND_TOL·max(1, bound) (float rounding
of a tight bound); 1 — usage, argument, or I/O error; 2 — a margin below that
(the offending inputs are dumped to a reproducer file next to the report).
"""

import argparse
import os
import sys
from typing import List, Optional

from .adversary import OBJECTIVES, SearchConfig, maximize
from .groups import (
    MAX_ORDER,
    _SL2_PRIMES,
    FiniteGroup,
    build_alternating,
    build_cyclic,
    build_psl2,
    build_sl2,
    build_symmetric,
    format_cayley_table,
    load_cayley_table,
)
from .harmonic import Harmonic
from .report import (
    CHECK_ORDER,
    canonical_json,
    envelope,
    reproducer_payload,
    run_verification,
    search_report,
    write_csv,
)
from .spectra import spectral_data
from . import __version__

_PRIMES = "{" + ", ".join(map(str, _SL2_PRIMES)) + "}"
_CATALOG = f"""\
group tokens:
  z:<n>       cyclic of order n (1 <= n <= {MAX_ORDER})
  s:<m>       symmetric group on m symbols (2 <= m <= 7)
  a:<m>       alternating group on m symbols (2 <= m <= 7)
  sl2:<p>     SL(2, p), p prime in {_PRIMES}
  psl2:<p>    PSL(2, p), p prime in {_PRIMES}
  file:<path> Cayley-table text file (same format as export-cayley)

showcase groups:
  z:6  s:3  s:4  a:4  a:5  sl2:3  sl2:5  psl2:7  sl2:7  sl2:11
"""


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def resolve_group(token: str) -> FiniteGroup:
    """Turn a one-token identifier (z:6, sl2:5, file:path.txt, ...) into a group."""
    family, sep, arg = token.partition(":")
    if not sep or not arg:
        raise ValueError(
            f"group token must look like family:argument, got {token!r} (try 'groups list')"
        )
    if family == "file":
        with open(arg) as handle:
            return load_cayley_table(handle, name=token)
    try:
        value = int(arg)
    except ValueError:
        raise ValueError(f"group token {token!r}: {arg!r} is not an integer") from None
    builders = {
        "z": build_cyclic,
        "s": build_symmetric,
        "a": build_alternating,
        "sl2": build_sl2,
        "psl2": build_psl2,
    }
    if family not in builders:
        raise ValueError(
            f"unknown group family {family!r}; valid families: z, s, a, sl2, psl2, file"
        )
    return builders[family](value)


def _at_least(low: int):
    """An argparse type for integers >= low: a bad count or seed exits before any group work."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _dump_reproducer(out: Optional[str], name: str, payload: dict, message: str) -> None:
    """Write a failing input tuple next to ``out`` (or into the working directory)."""
    target_dir = os.path.dirname(os.path.abspath(out)) if out else os.getcwd()
    path = os.path.join(target_dir, name)
    with open(path, "w") as handle:
        handle.write(canonical_json(payload))
    sys.stderr.write(f"{message}; inputs dumped to {path}\n")


def _cmd_groups(args) -> int:
    sys.stdout.write(_CATALOG)
    return 0


def _cmd_analyze(args) -> int:
    group = resolve_group(args.group)
    spectral = spectral_data(group, seed=args.seed)
    _write_text(canonical_json(envelope(spectral)), args.out)
    return 0


def _parse_checks(raw: str) -> List[str]:
    if raw == "all":
        return list(CHECK_ORDER)
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    unknown = [t for t in tokens if t not in CHECK_ORDER]
    if unknown:
        raise ValueError(
            f"unknown check token(s) {', '.join(unknown)}; valid: {', '.join(CHECK_ORDER)}"
        )
    if not tokens:
        raise ValueError("empty check list")
    return tokens


def _cmd_verify(args) -> int:
    checks = _parse_checks(args.check)
    group = resolve_group(args.group)
    harmonic = Harmonic(spectral_data(group))
    outcome = run_verification(
        harmonic,
        checks,
        trials=args.trials,
        seed=args.seed,
        threads=args.threads,
        timings=args.timings,
    )
    _write_text(canonical_json(outcome.report), args.out)
    if args.csv:
        write_csv(args.csv, outcome.rows)
    for check, trial, inputs in outcome.failures:
        _dump_reproducer(
            args.out,
            f"quasimix-reproducer-{check}-trial{trial}.json",
            reproducer_payload(group.name, check, trial, args.seed, inputs),
            f"bound check {check} failed at trial {trial}",
        )
    return 2 if outcome.failures else 0


def _cmd_search(args) -> int:
    group = resolve_group(args.group)
    harmonic = Harmonic(spectral_data(group))
    config = SearchConfig(
        objective=args.objective,
        budget=args.budget,
        restarts=args.restarts,
        seed=args.seed,
    )
    result = maximize(harmonic, config)
    _write_text(canonical_json(search_report(harmonic, config, result)), args.out)
    if not result.best_check.passed:
        _dump_reproducer(
            args.out,
            f"quasimix-reproducer-search-{args.objective}.json",
            reproducer_payload(group.name, args.objective, -1, args.seed, result.best_inputs),
            f"search found a bound violation for {args.objective}",
        )
        return 2
    return 0


def _cmd_export(args) -> int:
    group = resolve_group(args.group)
    _write_text(format_cayley_table(group), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="quasimix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"quasimix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    groups = sub.add_parser("groups", help="group catalog")
    groups_sub = groups.add_subparsers(dest="groups_command", required=True)
    lister = groups_sub.add_parser("list", help="print the builtin group catalog")
    lister.set_defaults(func=_cmd_groups)

    def common(p):
        p.add_argument("--group", required=True, help="group token, e.g. sl2:5 (see 'groups list')")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    analyze = sub.add_parser("analyze", help="spectral report: degrees and quasi-randomness")
    common(analyze)
    analyze.add_argument("--seed", type=_at_least(0), default=0,
                         help="class-algebra seed >= 0; the exact table does not depend on it")
    analyze.set_defaults(func=_cmd_analyze)

    verify = sub.add_parser("verify", help="run bound checks over seeded random trials")
    common(verify)
    verify.add_argument(
        "--check",
        default="all",
        help=f"comma-separated subset of {','.join(CHECK_ORDER)} (default all)",
    )
    verify.add_argument("--trials", type=_at_least(1), default=200,
                        help="trials per check >= 1 (default 200)")
    verify.add_argument("--seed", type=_at_least(0), default=0, help="trial seed >= 0 (default 0)")
    verify.add_argument("--threads", type=_at_least(1), default=1,
                        help="worker threads >= 1 (default 1)")
    verify.add_argument("--csv", default=None, help="also write per-trial rows to this CSV file")
    verify.add_argument(
        "--timings", action="store_true", help="record wall-clock runtimes (breaks byte-stability)"
    )
    verify.set_defaults(func=_cmd_verify)

    search = sub.add_parser("search", help="hill-climb for worst-case inputs")
    common(search)
    search.add_argument("--objective", required=True, choices=OBJECTIVES)
    search.add_argument("--budget", type=_at_least(0), default=2000,
                        help="evaluation budget >= 0 (default 2000)")
    search.add_argument("--restarts", type=_at_least(1), default=4, help="restarts >= 1 (default 4)")
    search.add_argument("--seed", type=_at_least(0), default=0, help="search seed >= 0 (default 0)")
    search.set_defaults(func=_cmd_search)

    export = sub.add_parser("export-cayley", help="write the multiplication table as text")
    common(export)
    export.set_defaults(func=_cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConstraintError and CayleyTableError are ValueErrors
        sys.stderr.write(f"quasimix: error: {exc}\n")
        return 1
    except RuntimeError as exc:
        sys.stderr.write(f"quasimix: computation failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
