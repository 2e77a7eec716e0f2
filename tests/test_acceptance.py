"""Acceptance suite: one test per headline guarantee of the package.

Each test is self-contained and pins the tolerance it claims, so a
`pytest -v` run of this file is the scoreboard: eight pass/fail lines.
"""

import time

import numpy as np
import pytest

from quasimix.adversary import SearchConfig, maximize, witness_abelian_character
from quasimix.cli import resolve_group
from quasimix.harmonic import (
    GroupFunction,
    Harmonic,
    centered,
    sample_disc,
)
from quasimix.report import canonical_json, run_verification
from quasimix.spectra import is_multiplicity_free, isotypic_project, spectral_data

from oracles import (
    brute_step2_pair_expansion,
    brute_step2_squared,
    brute_theorem_lhs,
    regular_degrees,
)

SHOWCASE_TOKENS = ("z:2", "z:3", "z:4", "z:5", "z:6", "z:7", "z:8", "z:9",
                   "z:10", "z:11", "z:12", "s:3", "s:4", "a:4", "a:5",
                   "sl2:3", "sl2:5", "psl2:7", "sl2:7")

_SPECTRA = {}


def _spectral(token):
    if token not in _SPECTRA:
        _SPECTRA[token] = spectral_data(resolve_group(token))
    return _SPECTRA[token]


def test_criterion_1_spectral_correctness():
    started = time.perf_counter()
    for token in SHOWCASE_TOKENS:
        data = _spectral(token)
        table, sizes, n = data.table, data.classes.class_sizes, data.group.order
        weighted = table.values * sizes[None, :]
        row_gram = weighted @ np.conj(table.values.T) / n
        assert np.max(np.abs(row_gram - np.eye(len(sizes)))) < 1e-8, token
        col_gram = np.conj(table.values.T) @ table.values
        col_expect = np.diag(n / sizes).astype(np.complex128)
        assert np.max(np.abs(col_gram - col_expect)) < 1e-8, token
        assert int(np.sum(table.degrees.astype(np.int64) ** 2)) == n, token
        if n <= 60:
            oracle = regular_degrees(data.group, np.random.default_rng(17))
            assert sorted(int(d) for d in table.degrees) == oracle, token
    assert time.perf_counter() - started < 30.0


def test_criterion_2_quasirandomness_degrees():
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 30, 97):
        assert _spectral(f"z:{n}").quasirandomness.degree == 1
    expected = {"a:5": 3, "sl2:5": 2, "psl2:7": 3, "sl2:7": 3, "sl2:11": 5}
    for token, degree in expected.items():
        data = _spectral(token)
        assert data.quasirandomness.degree == degree, token
        # perfectness cross-check: D >= 2 exactly when the group is perfect
        assert (data.quasirandomness.degree >= 2) == data.is_perfect, token
    assert not _spectral("z:6").is_perfect


def test_criterion_3_lemma_suite(sl2_5_harmonic, psl2_7_harmonic, sl2_7_harmonic):
    started = time.perf_counter()
    for h in (sl2_5_harmonic, psl2_7_harmonic, sl2_7_harmonic):
        outcome = run_verification(h, ["lemma"], trials=200, seed=0)
        assert outcome.failures == []
        (record,) = outcome.report["checks"]
        assert record["status"] == "pass"
        assert record["trials"] == 200
        assert abs(record["bound"] - h.degree ** -0.5) < 1e-12
        for row in outcome.rows:
            assert row.margin >= 0.0, (h.degree, row.trial)
    assert time.perf_counter() - started < 300.0


def test_criterion_4_corollary_suite(sl2_5_harmonic, psl2_7_harmonic, sl2_7_harmonic):
    for h in (sl2_5_harmonic, psl2_7_harmonic, sl2_7_harmonic):
        outcome = run_verification(h, ["corollary"], trials=200, seed=0)
        assert outcome.failures == []
        published, sharp = outcome.report["checks"]
        assert published["check"] == "corollary"
        assert sharp["check"] == "corollary_sharp"
        assert abs(published["bound"] - h.degree ** -0.5) < 1e-12
        assert abs(sharp["bound"] - h.degree ** -1.0) < 1e-12
        for row in outcome.rows:
            assert row.margin >= 0.0, (h.degree, row.check, row.trial)
    # Schur exact values: a unit vector in a multiplicity-free nontrivial
    # component must give corollary observed exactly 1/d.
    detected = 0
    for token in SHOWCASE_TOKENS:
        data = _spectral(token)
        h = None
        for row in range(len(data.table.degrees)):
            if row == data.table.trivial_row:
                continue
            rng = np.random.default_rng(np.random.SeedSequence((7, row)))
            if not is_multiplicity_free(data.group, data.classes, data.table, row, rng):
                continue
            detected += 1
            if h is None:
                h = Harmonic(data)
            raw = rng.standard_normal(data.group.order) + 1j * rng.standard_normal(
                data.group.order
            )
            proj = isotypic_project(data.group, data.classes, data.table, raw, row)
            proj = proj / np.sqrt(np.mean(np.abs(proj) ** 2))
            pub, _ = h.corollary_lhs(GroupFunction(proj), GroupFunction(proj))
            d = int(data.table.degrees[row])
            assert abs(pub.observed - 1.0 / d) < 1e-8, (token, row, d)
    assert detected >= 1


def test_criterion_5_proof_chain(sl2_5_harmonic, sl2_7_harmonic):
    checks = ["theorem", "step1", "step2", "step3", "step4", "step4sub"]
    scale = {
        "step1": (3.0, -0.125),
        "step2": (5.0, -0.25),
        "step3": (25.0, -0.5),
        "step4": (1.0, -0.5),
        "step4_lemma_substitution": (1.0, -0.5),
        "theorem": (4.0, -0.125),
    }
    for h in (sl2_5_harmonic, sl2_7_harmonic):
        outcome = run_verification(h, checks, trials=100, seed=0)
        assert outcome.failures == []
        for record in outcome.report["checks"]:
            coeff, power = scale[record["check"]]
            assert abs(record["bound"] - coeff * h.degree**power) < 1e-12
            assert record["status"] == "pass"
            assert record["min_margin"] >= 0.0
        for row in outcome.rows:
            assert row.margin >= 0.0, (h.degree, row.check, row.trial)
        # the headline bound exceeds the trivial ceiling 2 at desk-scale D,
        # and the report says so; the sharp steps above carry the weight
        notes = outcome.report["notes"]
        assert len(notes) == 1 and "vacuous" in notes[0]
        assert 4.0 * h.degree**-0.125 > 2.0


def test_criterion_6_oracle_equivalences(s3_harmonic, s3):
    rng = np.random.default_rng(62)
    for _ in range(3):
        f1, f2, f3 = (sample_disc(6, rng) for _ in range(3))
        f1 = centered(f1)
        got = s3_harmonic.step2_squared(f1, f2, f3).observed
        assert abs(got - brute_step2_squared(s3, f1.values, f2.values, f3.values)) < 1e-12
        expanded = brute_step2_pair_expansion(s3, f1.values, f2.values, f3.values)
        assert abs(expanded.imag) < 1e-12
        assert abs(got - expanded.real) < 1e-12
    for token in ("z:6", "s:3", "s:4", "a:4", "a:5", "sl2:3"):
        data = _spectral(token)
        h = Harmonic(data)
        rng = np.random.default_rng(63)
        f = GroupFunction(
            rng.standard_normal(data.group.order)
            + 1j * rng.standard_normal(data.group.order)
        )
        via_classes = h.cond_exp_conj(f).values
        via_spectrum = isotypic_project(
            data.group, data.classes, data.table, f.values, data.table.trivial_row
        )
        assert np.max(np.abs(via_classes - via_spectrum)) < 1e-10, token


def test_criterion_7_abelian_control():
    h = Harmonic(_spectral("z:3"))
    f1, f2, f3 = witness_abelian_character(3, (1, 1, 1))
    check = h.theorem_lhs(f1, f2, f3)
    assert abs(check.observed - 1.0) < 1e-12
    brute = brute_theorem_lhs(h.spectral.group, f1.values, f2.values, f3.values)
    assert abs(brute - 1.0) < 1e-12
    config = SearchConfig(objective="theorem", budget=10_000, restarts=4, seed=0)
    result = maximize(h, config)
    assert result.evaluations_used == 10_000
    assert result.best_value >= 0.9


def test_criterion_8_determinism(sl2_5_harmonic):
    checks = list(
        ("lemma", "corollary", "theorem", "step1", "step2", "step3", "step4", "step4sub")
    )
    first = run_verification(sl2_5_harmonic, checks, trials=12, seed=2026)
    second = run_verification(sl2_5_harmonic, checks, trials=12, seed=2026)
    assert canonical_json(first.report) == canonical_json(second.report)
    threaded = run_verification(sl2_5_harmonic, checks, trials=12, seed=2026, threads=4)
    assert len(first.rows) == len(threaded.rows)
    for a, b in zip(first.rows, threaded.rows):
        assert (a.check, a.trial) == (b.check, b.trial)
        assert abs(a.observed - b.observed) <= 1e-12
