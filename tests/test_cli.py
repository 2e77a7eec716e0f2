"""CLI behavior: subcommands, exit codes, report stability, serialization."""

import csv
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

import quasimix.adversary
import quasimix.cli
import quasimix.harmonic
import quasimix.spectra
from quasimix.cli import main, resolve_group
from quasimix.groups import build_symmetric
from quasimix.harmonic import BoundCheck, GroupFunction, Harmonic
from quasimix.report import (
    CHECK_ORDER,
    CHECKS,
    canonical_json,
    reproducer_payload,
    run_verification,
)
from quasimix.spectra import spectral_data


def test_groups_list(capsys):
    assert main(["groups", "list"]) == 0
    out = capsys.readouterr().out
    for token in ("z:<n>", "sl2:<p>", "file:<path>", "a:5", "sl2:11"):
        assert token in out


def test_resolve_group_tokens():
    assert resolve_group("z:8").order == 8
    assert resolve_group("s:4").order == 24
    assert resolve_group("a:4").order == 12
    assert resolve_group("sl2:3").order == 24
    assert resolve_group("psl2:7").order == 168
    with pytest.raises(ValueError, match="unknown group family"):
        resolve_group("q:5")
    with pytest.raises(ValueError, match="not an integer"):
        resolve_group("z:six")
    with pytest.raises(ValueError, match="family:argument"):
        resolve_group("z6")


def test_analyze_example(tmp_path):
    out = tmp_path / "a5.json"
    assert main(["analyze", "--group", "a:5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["format"] == 1
    assert data["group"]["degrees"] == [1, 3, 3, 4, 5]
    assert data["group"]["quasirandomness_degree"] == 3
    assert data["group"]["is_perfect"] is True
    assert data["group"]["order"] == 60


def test_analyze_to_stdout(capsys):
    assert main(["analyze", "--group", "z:4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["group"]["quasirandomness_degree"] == 1


def test_verify_theorem_example(tmp_path):
    out = tmp_path / "z6.json"
    rc = main(
        ["verify", "--group", "z:6", "--check", "theorem", "--trials", "10",
         "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["group"]["quasirandomness_degree"] == 1
    (record,) = data["checks"]
    assert record["check"] == "theorem"
    assert record["bound"] == 4.0
    assert record["status"] == "pass"
    assert record["runtime_s"] is None
    # the headline bound never beats the trivial ceiling at small D
    assert len(data["notes"]) == 1
    assert "vacuous" in data["notes"][0]


def test_verify_reports_are_byte_identical(tmp_path):
    args = ["verify", "--group", "s:3", "--trials", "6", "--seed", "3"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a), "--csv", str(ca)]) == 0
    assert main(args + ["--out", str(b), "--csv", str(cb)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert ca.read_bytes() == cb.read_bytes()


@pytest.mark.parametrize(
    "args",
    [["--group", "s:3", "--trials", "8", "--seed", "5"],
     ["--group", "sl2:7", "--check", "step3,step4sub", "--trials", "2"]],
    ids=["s3-all", "sl2-7-step3-step4sub"],
)
def test_threads_option_is_recorded_and_changes_nothing_else(monkeypatch, tmp_path, args):
    # trials run in one serial loop, so --threads starts no thread; the settings
    # block records its value, and every other byte must agree
    def refuse(thread):
        raise AssertionError("verify started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    outputs = {}
    for threads in ("1", "4"):
        out, table = tmp_path / f"t{threads}.json", tmp_path / f"t{threads}.csv"
        argv = ["verify", *args, "--threads", threads, "--out", str(out), "--csv", str(table)]
        assert main(argv) == 0
        outputs[threads] = (out.read_bytes(), table.read_bytes())
    serial, threaded = outputs["1"], outputs["4"]
    assert b'"threads": 1' in serial[0] and b'"threads": 4' in threaded[0]
    assert threaded[0].replace(b'"threads": 4', b'"threads": 1') == serial[0]
    assert threaded[1] == serial[1]


def test_step4sub_runs_above_the_old_pair_cap(subprocess_peak_mb, tmp_path):
    # sl2:13 has order 2184, above the 2000 that once refused step4sub; the sweep
    # is a chunked Plancherel sum, so the Fourier basis build sets the peak
    out = tmp_path / "sl2-13.json"
    script = (
        "import json\n"
        "from quasimix.cli import main\n"
        f"out = {str(out)!r}\n"
        "rc = main(['verify', '--group', 'sl2:13', '--check', 'step4sub', '--trials', '1',\n"
        "           '--out', out])\n"
        "assert rc == 0, rc\n"
        "statuses = [r['status'] for r in json.load(open(out))['checks']]\n"
        "assert statuses == ['pass'], statuses\n"
    )
    assert subprocess_peak_mb(script) < 250.0


def test_lemma_runs_above_the_old_pair_cap(tmp_path):
    # lemma keeps no pair storage, so it runs above order 2000 like every check
    out = tmp_path / "a7.json"
    assert main(["verify", "--group", "a:7", "--check", "lemma", "--trials", "1",
                 "--out", str(out)]) == 0
    assert [r["status"] for r in json.loads(out.read_text())["checks"]] == ["pass"]
    out = tmp_path / "sl2-13.json"
    assert main(["search", "--group", "sl2:13", "--objective", "lemma", "--budget", "8",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["search"]["evaluations_used"] == 8


def test_csv_layout(tmp_path):
    out, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    rc = main(
        ["verify", "--group", "z:4", "--check", "lemma,corollary", "--trials", "5",
         "--out", str(out), "--csv", str(csv_path)]
    )
    assert rc == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["check", "trial", "observed", "bound", "margin"]
    body = rows[1:]
    # 5 lemma rows + 5 corollary + 5 corollary_sharp
    assert len(body) == 15
    for check, trial, observed, bound, margin in body:
        assert check in ("lemma", "corollary", "corollary_sharp")
        assert math.isclose(float(bound) - float(observed), float(margin), abs_tol=1e-15)


def test_timings_flag_records_runtimes(tmp_path):
    out = tmp_path / "t.json"
    rc = main(
        ["verify", "--group", "z:4", "--check", "lemma", "--trials", "3",
         "--timings", "--out", str(out)]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["settings"]["timings"] is True
    assert data["checks"][0]["runtime_s"] >= 0.0


def test_bound_failure_exits_two_and_dumps_reproducer(tmp_path, monkeypatch):
    def failing_lemma(self, u, v):
        return BoundCheck(quantity_name="lemma", observed=1.0, bound=0.25, margin=-0.75)

    monkeypatch.setattr(quasimix.harmonic.Harmonic, "lemma_gap", failing_lemma)
    out = tmp_path / "fail.json"
    rc = main(
        ["verify", "--group", "z:4", "--check", "lemma", "--trials", "2",
         "--seed", "9", "--out", str(out)]
    )
    assert rc == 2
    data = json.loads(out.read_text())
    assert data["checks"][0]["status"] == "fail"
    assert data["checks"][0]["min_margin"] == -0.75
    dumps = list(tmp_path.glob("quasimix-reproducer-lemma-trial*.json"))
    assert len(dumps) == 1
    repro = json.loads(dumps[0].read_text())
    assert repro["kind"] == "reproducer"
    assert repro["group"] == "z:4"
    assert repro["check"] == "lemma"
    assert repro["seed"] == 9
    assert len(repro["inputs"]) == 2
    assert len(repro["inputs"][0]["real"]) == 4


@pytest.mark.parametrize("objective", ["theorem", "lemma"])
def test_search_violation_exits_two_and_dumps_reproducer(
    tmp_path, monkeypatch, capsys, objective
):
    # maximize takes each full evaluation from the state's seed (_seeded), so a
    # failing check is injected there, with the real state for the moves
    seeded = quasimix.adversary._seeded

    def failing_seed(harmonic, check, inputs):
        _, state = seeded(harmonic, check, inputs)
        return BoundCheck(quantity_name=check, observed=3.0, bound=1.0, margin=-2.0), state

    monkeypatch.setattr(quasimix.adversary, "_seeded", failing_seed)
    out = tmp_path / "search.json"
    argv = ["search", "--group", "z:4", "--objective", objective,
            "--budget", "8", "--seed", "11", "--out", str(out)]
    assert main(argv) == 2
    assert json.loads(out.read_text())["search"]["margin"] == -2.0
    path = tmp_path / f"quasimix-reproducer-search-{objective}.json"
    assert capsys.readouterr().err == (
        f"search found a bound violation for {objective}; inputs dumped to {path}\n"
    )
    repro = json.loads(path.read_text())
    assert repro["kind"] == "reproducer"
    assert repro["group"] == "z:4"
    assert repro["check"] == objective
    assert repro["trial"] == -1
    assert repro["seed"] == 11
    assert len(repro["inputs"]) == len(CHECKS[objective].inputs)
    assert all(len(vector["real"]) == 4 for vector in repro["inputs"])


@pytest.mark.parametrize(
    "observed, margin, rc",
    [(1.0 + 2.0**-52, -(2.0**-52), 0), (1.0 + 1e-9, -1e-9, 2)],
)
def test_bound_verdict_allows_rounding_only(tmp_path, monkeypatch, observed, margin, rc):
    def tight_lemma(self, u, v):
        return BoundCheck(quantity_name="lemma", observed=observed, bound=1.0, margin=margin)

    monkeypatch.setattr(quasimix.harmonic.Harmonic, "lemma_gap", tight_lemma)
    out = tmp_path / "tight.json"
    argv = ["verify", "--group", "z:4", "--check", "lemma", "--trials", "2", "--out", str(out)]
    assert main(argv) == rc
    record = json.loads(out.read_text())["checks"][0]
    assert record["min_margin"] == margin  # raw, never clamped
    assert record["status"] == ("pass" if rc == 0 else "fail")
    assert len(list(tmp_path.glob("quasimix-reproducer-*.json"))) == rc // 2


@pytest.mark.parametrize(
    "group, objective, budget, seed",
    [("s:5", "lemma", 200, 0), ("s:4", "corollary", 120, 3),
     ("s:4", "corollary", 120, 5), ("s:4", "corollary", 120, 9)],
)
def test_tight_d1_search_is_not_a_violation(tmp_path, group, objective, budget, seed):
    # At D = 1 these searches reach the bound itself, up to float rounding.
    out = tmp_path / "search.json"
    argv = ["search", "--group", group, "--objective", objective,
            "--budget", str(budget), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    search = json.loads(out.read_text())["search"]
    assert abs(search["margin"]) < 1e-12
    assert not list(tmp_path.glob("quasimix-reproducer-*.json"))


def test_export_round_trips_identical_tables(tmp_path):
    path = tmp_path / "s4.txt"
    assert main(["export-cayley", "--group", "s:4", "--out", str(path)]) == 0
    loaded = resolve_group(f"file:{path}")
    assert np.array_equal(loaded.mul, build_symmetric(4).mul)


@pytest.mark.parametrize("entry", ["100000000000000000000000", "-100000000000000000000000"])
@pytest.mark.parametrize("command", ["analyze", "export-cayley"])
def test_huge_cayley_entry_exits_one_naming_the_line(tmp_path, capsys, command, entry):
    # no int64 holds ±10²³: the loader must reject it before building the array
    path = tmp_path / "table.txt"
    path.write_text(f"# z:2\n2\n0 1\n1 {entry}\n")
    assert main([command, "--group", f"file:{path}"]) == 1
    err = capsys.readouterr().err
    assert err == f"quasimix: error: line 4: entry {int(entry)} is outside 0..1\n"


def test_search_cli_is_deterministic(tmp_path):
    base = ["search", "--group", "z:3", "--objective", "theorem",
            "--budget", "200", "--seed", "4"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    search = data["search"]
    assert search["evaluations_used"] == 200
    assert len(search["trace"]) == 200
    assert search["trace"] == sorted(search["trace"])
    assert search["best_value"] >= 0.5  # D = 1 control climbs fast


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["analyze", "--group", "q:5"]) == 1
    assert main(["verify", "--group", "z:6", "--check", "step9"]) == 1
    assert main(["verify"]) == 1
    assert main(["analyze", "--group", "file:/does/not/exist.txt"]) == 1
    assert main(["verify", "--group", "z:6", "--trials", "0"]) == 1
    for threads in ("0", "-4"):
        out = tmp_path / f"threads{threads}.json"
        assert main(["verify", "--group", "z:6", "--threads", threads, "--out", str(out)]) == 1
        assert not out.exists()
    assert main(["search", "--group", "z:6", "--objective", "bogus"]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()  # swallow the usage noise


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "command",
    [["analyze"], ["verify", "--check", "step3", "--trials", "1"],
     ["search", "--objective", "lemma", "--budget", "1"]],
    ids=["analyze", "verify", "search"],
)
def test_bad_orthogonality_tolerance_exits_one_before_class_algebra(
    monkeypatch, capsys, command, tolerance
):
    # the exact character table has no tolerance: every value of the removed option,
    # the ones that once switched residue tests off included, is an unknown argument
    calls = []
    monkeypatch.setattr(quasimix.spectra, "class_algebra", lambda *args: calls.append(args))
    argv = command[:1] + ["--group", "a:5", "--tolerance-orthogonality", tolerance] + command[1:]
    assert main(argv) == 1
    assert "unrecognized arguments: --tolerance-orthogonality" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("token", ["sl2:7", "s:6"])
def test_analyze_bytes_do_not_depend_on_the_seed(monkeypatch, tmp_path, token):
    # the seed draws the class-algebra combination; the sorted exact table is the same
    drawn = []
    class_algebra = quasimix.spectra.class_algebra

    def spy(group, classes, coeffs):
        drawn.append(tuple(coeffs.tolist()))
        return class_algebra(group, classes, coeffs)

    monkeypatch.setattr(quasimix.spectra, "class_algebra", spy)
    reports = []
    for seed in ("0", "1", "2"):
        out = tmp_path / f"seed{seed}.json"
        assert main(["analyze", "--group", token, "--seed", seed, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert len(set(drawn)) == len(drawn) >= 3


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["verify", "--check", "lemma", "--trials", "1"],
     ["search", "--objective", "lemma", "--budget", "1"]],
    ids=["analyze", "verify", "search"],
)
def test_negative_seed_exits_one_before_group_work(monkeypatch, capsys, command):
    # numpy rejects a negative seed too, and the library a bad count, but only
    # after the group and spectral set-up
    calls = []
    monkeypatch.setattr(quasimix.cli, "resolve_group", lambda token: calls.append(token))
    bad = {"analyze": [], "verify": [("--trials", 0, 1), ("--threads", 0, 1)],
           "search": [("--budget", -1, 0), ("--restarts", 0, 1)]}[command[0]]
    for flag, value, low in [("--seed", -1, 0)] + bad:
        argv = command[:1] + ["--group", "s:7", flag, str(value)] + command[1:]
        assert main(argv) == 1
        assert f"argument {flag}: must be >= {low}, got {value}" in capsys.readouterr().err
    assert calls == []


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out


# -- report internals ---------------------------------------------------------


def test_run_verification_rejects_bad_plan(s3_spectral):
    h = Harmonic(s3_spectral)
    with pytest.raises(ValueError, match="unknown check"):
        run_verification(h, ["lemma", "stepX"], trials=1)
    with pytest.raises(ValueError, match="trials"):
        run_verification(h, ["lemma"], trials=0)
    with pytest.raises(ValueError, match="threads"):
        run_verification(h, ["lemma"], trials=1, threads=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run_verification(h, ["lemma"], trials=1, seed=-1)


def test_run_verification_plan_order(s3_spectral):
    h = Harmonic(s3_spectral)
    outcome = run_verification(h, ["step4", "lemma", "corollary"], trials=2, seed=0)
    names = [r["check"] for r in outcome.report["checks"]]
    assert names == ["lemma", "corollary", "corollary_sharp", "step4"]
    tokens = [r["token"] for r in outcome.report["checks"]]
    assert tokens == ["lemma", "corollary", "corollary", "step4"]
    assert all(r["status"] == "pass" for r in outcome.report["checks"])
    assert outcome.failures == []


def test_verify_keeps_no_inputs_of_passing_trials(a5):
    # each trial is reduced as it completes, and only a failing trial keeps its
    # inputs: 1,000 a:5 theorem trials (three 60-entry complex inputs, about
    # 3 KB a trial) hold little more than their rows
    h = Harmonic(spectral_data(a5))
    run_verification(h, ["theorem"], trials=2, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outcome = run_verification(h, ["theorem"], trials=1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(outcome.rows) == 1000 and outcome.failures == []
    assert (peak - base) / 1000 < 1500


def test_verify_keeps_one_reproducer_per_failing_check(tmp_path, monkeypatch, a5, s3_spectral):
    # a negative tolerance fails every trial, yet only each check's first
    # failing trial keeps its inputs: 1,000 failing a:5 theorem trials stay
    # within the passing run's memory bound, and corollary's two failing
    # records keep one entry, so the CLI writes one reproducer per check
    monkeypatch.setattr(quasimix.harmonic, "BOUND_TOL", -1e6)
    h = Harmonic(spectral_data(a5))
    run_verification(h, ["theorem"], trials=2, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outcome = run_verification(h, ["theorem"], trials=1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r["status"] for r in outcome.report["checks"]] == ["fail"]
    assert [(check, trial) for check, trial, _ in outcome.failures] == [("theorem", 0)]
    rng = np.random.default_rng(np.random.SeedSequence((0, CHECKS["theorem"].tag, 0)))
    for kept, drawn in zip(outcome.failures[0][2], CHECKS["theorem"].draw(60, rng), strict=True):
        assert np.array_equal(kept, drawn.values)
    assert (peak - base) / 1000 < 1500

    outcome = run_verification(Harmonic(s3_spectral), ["corollary"], trials=3, seed=0)
    assert [r["status"] for r in outcome.report["checks"]] == ["fail", "fail"]
    assert [(check, trial) for check, trial, _ in outcome.failures] == [("corollary", 0)]
    argv = ["verify", "--group", "s:3", "--check", "corollary,step4", "--trials", "3",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 2
    assert sorted(p.name for p in tmp_path.glob("quasimix-reproducer-*")) == [
        "quasimix-reproducer-corollary-trial0.json",
        "quasimix-reproducer-step4-trial0.json",
    ]


@pytest.mark.parametrize("check", CHECK_ORDER)
def test_verify_reproducer_inputs_are_the_check_draw(tmp_path, monkeypatch, check):
    # a negative tolerance fails every margin, so trial 0 dumps its inputs:
    # the point CHECKS[check].draw gives on the trial's generator (seed, tag, 0)
    monkeypatch.setattr(quasimix.harmonic, "BOUND_TOL", -1e6)
    argv = ["verify", "--group", "s:3", "--check", check, "--trials", "1",
            "--seed", "13", "--out", str(tmp_path / "report.json")]
    assert main(argv) == 2
    repro = json.loads((tmp_path / f"quasimix-reproducer-{check}-trial0.json").read_text())
    rng = np.random.default_rng(np.random.SeedSequence((13, CHECKS[check].tag, 0)))
    drawn = CHECKS[check].draw(6, rng)
    dumped = [np.array(a["real"]) + 1j * np.array(a["imag"]) for a in repro["inputs"]]
    assert len(dumped) == len(drawn)
    for got, want in zip(dumped, drawn):
        assert np.array_equal(got, want.values)


@pytest.mark.parametrize("check", CHECK_ORDER)
def test_verify_trial_validates_each_input_once(monkeypatch, s3_spectral, check):
    # a trial hands its drawn functions to the check as drawn, a centered input
    # after one more validated function, and converts nothing twice
    built = []

    def counted(self, _init=GroupFunction.__post_init__):
        built.append(len(self.values))
        _init(self)

    h = Harmonic(s3_spectral)
    monkeypatch.setattr(GroupFunction, "__post_init__", counted)
    run_verification(h, [check], trials=1, seed=0)
    inputs = CHECKS[check].inputs
    assert len(built) == len(inputs) + inputs.count("centered")


def test_canonical_json_shape():
    text = canonical_json(
        {"b": [1, 2.5, None, True], "a": {"x": "hi\n", "empty": [], "n": 0.1}}
    )
    assert text == (
        '{\n'
        '  "a": {\n'
        '    "empty": [],\n'
        '    "n": 0.10000000000000001,\n'
        '    "x": "hi\\n"\n'
        '  },\n'
        '  "b": [1, 2.5, null, true]\n'
        '}\n'
    )
    # floats round-trip through the 17-digit rendering
    assert json.loads(canonical_json({"v": 1 / 3}))["v"] == 1 / 3


def test_canonical_json_rejects_bad_values():
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"x": float("nan")})
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json({"x": object()})


def test_reproducer_payload_shape():
    arr = np.array([1.0 + 2.0j, -0.5 + 0.0j])
    payload = reproducer_payload("z:2", "lemma", 3, 7, (arr,))
    assert payload["inputs"] == [{"real": [1.0, -0.5], "imag": [2.0, 0.0]}]
    assert payload["trial"] == 3 and payload["seed"] == 7
