"""Worst-case search: witnesses, determinism, feasibility, and tightness trends."""

from dataclasses import astuple

import numpy as np
import pytest

import quasimix.adversary as adversary
import quasimix.harmonic as harmonic
from oracles import full_maximize, harmonic_for, probed_isotypic_row, witness_abelian_character
from quasimix.adversary import (
    OBJECTIVES,
    SearchConfig,
    _seeded,
    _structured_start,
    evaluate_inputs,
    maximize,
)
from quasimix.cli import resolve_group
from quasimix.groups import build_cyclic, build_sl2
from quasimix.harmonic import (
    ConstraintError,
    Harmonic,
    _ConjState,
    _disc_clip,
    _TripleState,
    _unit_norm,
    sample_disc,
    sample_unit,
)
from quasimix.report import CHECK_ORDER, CHECKS, run_verification
from quasimix.spectra import isotypic_project


def test_witness_attains_one_on_z3():
    h = harmonic_for(build_cyclic(3))
    f1, f2, f3 = witness_abelian_character(3, (1, 1, 1))
    check = h.theorem_lhs(f1, f2, f3)
    assert abs(check.observed - 1.0) < 1e-12


def test_witness_on_z2():
    h = harmonic_for(build_cyclic(2))
    f1, f2, f3 = witness_abelian_character(2, (1, 1, 0))
    assert abs(h.theorem_lhs(f1, f2, f3).observed - 1.0) < 1e-12


def test_witness_with_constant_first_factor_detects_nothing():
    # e1 ≡ 0 makes the structured product term swallow the inner integral
    h = harmonic_for(build_cyclic(3))
    f1, f2, f3 = witness_abelian_character(3, (0, 1, 2))
    assert h.theorem_lhs(f1, f2, f3).observed < 1e-12


def test_witness_rejects_degenerate_exponents():
    with pytest.raises(ConstraintError, match="sum to 0"):
        witness_abelian_character(5, (1, 1, 1))
    with pytest.raises(ConstraintError, match="constant"):
        witness_abelian_character(4, (0, 0, 0))
    with pytest.raises(ConstraintError, match="constant"):
        witness_abelian_character(4, (4, 8, 0))  # all vanish mod 4
    with pytest.raises(ValueError, match=">= 2"):
        witness_abelian_character(1, (0, 0, 0))


def test_config_validation():
    with pytest.raises(ValueError, match="unknown objective"):
        SearchConfig("step9")
    with pytest.raises(ValueError, match="budget"):
        SearchConfig("theorem", budget=-1)
    with pytest.raises(ValueError, match="restarts"):
        SearchConfig("theorem", restarts=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SearchConfig("theorem", seed=-1)


def test_budget_zero_evaluates_initial_point(s3_harmonic):
    res = maximize(s3_harmonic, SearchConfig("theorem", budget=0, seed=3))
    assert res.evaluations_used == 1
    assert res.trace == [res.best_value]


def test_tiny_budget_spends_one_eval_per_restart(s3_harmonic):
    res = maximize(s3_harmonic, SearchConfig("corollary", budget=2, restarts=4, seed=0))
    assert res.evaluations_used == 2


def test_search_is_deterministic(s3_harmonic):
    cfg = SearchConfig("step1", budget=60, seed=11)
    one = maximize(s3_harmonic, cfg)
    two = maximize(s3_harmonic, cfg)
    assert one.best_value == two.best_value
    assert one.trace == two.trace
    for a, b in zip(one.best_inputs, two.best_inputs):
        assert np.array_equal(a, b)


def test_trace_is_nondecreasing_and_counts_evaluations(s3_harmonic):
    res = maximize(s3_harmonic, SearchConfig("lemma", budget=80, seed=4))
    assert len(res.trace) == res.evaluations_used == 80
    assert all(a <= b + 1e-15 for a, b in zip(res.trace, res.trace[1:]))
    # full evaluations only: the trace steps at a restart's start or end (20 moves each)
    rises = {i for i in range(1, 80) if res.trace[i] != res.trace[i - 1]}
    assert rises and rises <= {19, 20, 39, 40, 59, 60, 79}
    assert res.trace[-1] == res.best_value


# (seed tag, sampler, arity) of verify's trial streams; tags must never change.
_VERIFY_STREAMS = {
    "lemma": (1, sample_unit, 2),
    "corollary": (2, sample_unit, 2),
    "theorem": (3, sample_disc, 3),
    "step1": (4, sample_disc, 3),
    "step2": (5, sample_disc, 3),
    "step3": (6, sample_disc, 2),
    "step4": (7, sample_disc, 2),
    "step4sub": (8, sample_disc, 1),
}


@pytest.mark.parametrize("check", CHECK_ORDER)
def test_evaluate_inputs_reproduces_verify_trial_zero(s3_harmonic, check):
    assert {c: spec.tag for c, spec in CHECKS.items()} == {
        c: tag for c, (tag, _, _) in _VERIFY_STREAMS.items()
    }
    seed = 13
    tag, sampler, arity = _VERIFY_STREAMS[check]
    rng = np.random.default_rng(np.random.SeedSequence((seed, tag, 0)))
    inputs = [sampler(s3_harmonic.n, rng).values for _ in range(arity)]
    got = evaluate_inputs(s3_harmonic, check, inputs)
    rows = run_verification(s3_harmonic, [check], trials=1, seed=seed).rows
    (row,) = [r for r in rows if r.check == got.quantity_name]
    assert row.trial == 0
    assert got.observed == row.observed


def test_evaluate_inputs_rejects_unknown_check_and_arity(s3_harmonic):
    with pytest.raises(ValueError, match="unknown check"):
        evaluate_inputs(s3_harmonic, "step9", [])
    with pytest.raises(ValueError, match="takes 2 input vectors, got 3"):
        evaluate_inputs(s3_harmonic, "lemma", [np.ones(6)] * 3)


def test_iterates_stay_feasible(s3_harmonic):
    res = maximize(s3_harmonic, SearchConfig("theorem", budget=50, seed=6))
    for arr in res.best_inputs:
        assert np.abs(arr).max() <= 1.0 + 1e-12
    res = maximize(s3_harmonic, SearchConfig("corollary", budget=50, seed=6))
    for arr in res.best_inputs:
        assert abs(np.sqrt(np.mean(np.abs(arr) ** 2)) - 1.0) < 1e-9


def test_z3_search_recovers_no_decay():
    h = harmonic_for(build_cyclic(3))
    res = maximize(h, SearchConfig("theorem", budget=2000, seed=1))
    assert res.best_value >= 0.9


def test_trivial_group_search_is_all_zero():
    # exact zeros: on one element the triple kernel and theorem's structured
    # term must round identically, and every centered input vanishes
    h = harmonic_for(build_cyclic(1))
    for objective in OBJECTIVES:
        res = maximize(h, SearchConfig(objective, budget=10, seed=0))
        assert res.best_value == 0.0, objective
        assert res.best_check.bound == 0.0, objective


def test_sl2_5_corollary_search_respects_sharp_cap(sl2_5_harmonic):
    res = maximize(sl2_5_harmonic, SearchConfig("corollary", budget=2000, seed=0))
    assert res.best_value <= 0.5 + 1e-9
    assert res.best_check.margin >= 0.0


def test_search_never_beats_bound_on_quasirandom_groups(sl2_5_harmonic):
    for objective in ("theorem", "step1", "lemma", "corollary"):
        res = maximize(sl2_5_harmonic, SearchConfig(objective, budget=120, seed=9))
        assert res.best_check.margin >= 0.0, objective


def test_theorem_search_trend_across_degrees(sl2_5_harmonic, sl2_7_harmonic):
    # the reachable deviation shrinks as the quasi-randomness degree grows;
    # small reversals are search noise, tolerated up to 0.02
    best = {}
    for p, h in ((5, sl2_5_harmonic), (7, sl2_7_harmonic), (11, harmonic_for(build_sl2(11)))):
        best[p] = maximize(h, SearchConfig("theorem", budget=200, seed=2)).best_value
    assert best[5] >= best[7] - 0.02
    assert best[7] >= best[11] - 0.02


# -- the incremental search state against full evaluation --------------------

_STATE_GROUPS = ("s:3", "a:5", "sl2:5", "z:60")
_MOVE_GROUPS = _STATE_GROUPS + ("sl2:7",)  # n = 336: each gather spans two row chunks


def _unit_sphere(vals):
    return vals / _unit_norm(vals)


def _drawn_start(h, objective, rng):
    """maximize's start on an even restart: a point drawn as a verify trial draws one."""
    return CHECKS[objective].draw(h.n, rng)


@pytest.fixture(scope="module")
def state_harmonics():
    return {token: harmonic_for(resolve_group(token)) for token in _MOVE_GROUPS}


@pytest.mark.parametrize("token", _MOVE_GROUPS)
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_incremental_value_matches_full_evaluation_after_every_move(
    state_harmonics, token, objective
):
    # moves as maximize draws them, from a random and a structured start; the
    # state is never re-seeded, so drift accumulates over the whole walk, and
    # every third move is taken even when it is worse
    h = state_harmonics[token]
    project = _unit_sphere if "unit" in CHECKS[objective].inputs else _disc_clip
    abelian_zero = token == "z:60" and objective in ("lemma", "corollary")
    for start in (_drawn_start, _structured_start):
        rng = np.random.default_rng(np.random.SeedSequence((17, len(token))))
        check, state = _seeded(h, objective, start(h, objective, rng))
        value = check.observed
        for move in range(60):
            slot = int(rng.integers(len(state.inputs)))
            pos = int(rng.integers(h.n))
            step = 0.4 * complex(rng.standard_normal(), rng.standard_normal())
            cand_value = state.propose(slot, pos, step)
            candidate = list(state.inputs)
            vals = candidate[slot].copy()
            vals[pos] += step
            candidate[slot] = project(vals)
            full = evaluate_inputs(h, objective, candidate).observed
            assert abs(cand_value - full) <= 1e-12 * max(1.0, full), (move, cand_value, full)
            if abelian_zero:
                assert cand_value == 0.0 and full == 0.0
            if cand_value > value or move % 3 == 0:
                state.accept()
                value = cand_value
                for got, want in zip(state.inputs, candidate):
                    assert np.array_equal(got, want)


def test_best_inputs_reevaluate_to_best_value(state_harmonics):
    # best_check is a full evaluation of best_inputs, never an incremental value
    for token in _MOVE_GROUPS:
        h = state_harmonics[token]
        for objective in OBJECTIVES:
            res = maximize(h, SearchConfig(objective, budget=40, seed=5))
            again = evaluate_inputs(h, objective, res.best_inputs)
            assert again.observed == res.best_value, (token, objective)
            assert astuple(again) == astuple(res.best_check), (token, objective)


@pytest.mark.parametrize("budget, restarts", [(10, 4), (7, 3), (5, 4), (83, 4), (41, 6)])
def test_budget_not_divisible_by_restarts_is_spent_whole(s3_harmonic, budget, restarts):
    # the first budget % restarts restarts take one move more
    cfg = SearchConfig("lemma", budget=budget, restarts=restarts, seed=2)
    for res in (maximize(s3_harmonic, cfg), full_maximize(s3_harmonic, cfg)):
        assert res.evaluations_used == len(res.trace) == budget


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_drift_between_incremental_and_full_value_raises(monkeypatch, state_harmonics, objective):
    # a state whose moves are off by 1e-9 climbs on values no full evaluation
    # reproduces; the restart's end evaluation must catch it
    for state in (_TripleState, _ConjState):
        def drifting(self, *args, _propose=state.propose):
            return _propose(self, *args) + 1e-9

        monkeypatch.setattr(state, "propose", drifting)
    with pytest.raises(RuntimeError, match=f"{objective} search, restart 0: .* drifted"):
        maximize(state_harmonics["a:5"], SearchConfig(objective, budget=40, seed=0))


@pytest.mark.parametrize("token", _STATE_GROUPS)
def test_maximize_agrees_with_full_reevaluation_oracle(state_harmonics, token):
    h = state_harmonics[token]
    for objective in OBJECTIVES:
        cfg = SearchConfig(objective, budget=80, seed=3)
        fast, full = maximize(h, cfg), full_maximize(h, cfg)
        assert fast.evaluations_used == full.evaluations_used == 80
        assert abs(fast.best_value - full.best_value) <= 1e-12, objective
        if token == "z:60" and objective in ("lemma", "corollary"):
            # every value is exactly 0.0: no move improves, and the drift guard never trips
            assert fast.best_value == full.best_value == 0.0
            assert fast.trace == full.trace == [0.0] * 80


# O(n²) kernel calls of one full evaluation of each objective
_KERNEL_CALLS = {"theorem": 1, "step1": 1, "step2": 1, "lemma": 2, "corollary": 1}


@pytest.mark.parametrize("token", ("s:3", "a:5"))
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_one_kernel_pass_per_full_evaluation(monkeypatch, state_harmonics, token, objective):
    # the state is seeded from the full evaluation's own per-g arrays, and a
    # search evaluates in full only each restart's start and, when its climb
    # took a move, its end: the kernels run once per such evaluation
    calls = {"kernel": 0, "seeds": 0}
    for name in ("_triple_inner", "_coefficients"):
        def counted(self, *args, _kernel=getattr(Harmonic, name), **kwargs):
            calls["kernel"] += 1
            return _kernel(self, *args, **kwargs)

        monkeypatch.setattr(Harmonic, name, counted)

    def counted_seed(*args, _seeded=adversary._seeded):
        calls["seeds"] += 1
        return _seeded(*args)

    climbed = {}  # the states an accepted move changed, held so their ids stay unique
    for state in (_TripleState, _ConjState):
        def recorded(self, _accept=state.accept):
            climbed[id(self)] = self
            _accept(self)

        monkeypatch.setattr(state, "accept", recorded)
    monkeypatch.setattr(adversary, "_seeded", counted_seed)
    h = state_harmonics[token]
    start = _drawn_start(h, objective, np.random.default_rng(0))
    evaluate_inputs(h, objective, [f.values for f in start])
    assert calls["kernel"] == _KERNEL_CALLS[objective]
    calls["kernel"] = 0
    cfg = SearchConfig(objective, budget=200, seed=3)
    maximize(h, cfg)
    assert 0 < len(climbed) <= cfg.restarts
    assert calls["seeds"] == cfg.restarts + len(climbed)
    assert calls["kernel"] == calls["seeds"] * _KERNEL_CALLS[objective]


def test_full_step1_evaluation_gathers_no_pair_sums(monkeypatch, state_harmonics):
    # q[g] serves only the search's f1 moves: verify's step1 and step2 and
    # evaluate_inputs leave it out of the gather, and only a search seed asks for it
    pair_sums = []

    def recorded(self, *args, _kernel=Harmonic._triple_inner, **kwargs):
        inner, q = _kernel(self, *args, **kwargs)
        pair_sums.append(q is not None)
        return inner, q

    monkeypatch.setattr(Harmonic, "_triple_inner", recorded)
    h = state_harmonics["a:5"]
    start = _drawn_start(h, "step1", np.random.default_rng(0))
    evaluate_inputs(h, "step1", [f.values for f in start])
    run_verification(h, ["step1", "step2"], trials=2, seed=0)
    assert pair_sums == [False] * 5
    _seeded(h, "step1", start)
    assert pair_sums[-1] is True


# -- the structured start's isotypic row --------------------------------------


def _projected_rows(monkeypatch):
    """Record the row of every adversary.isotypic_project call."""
    rows = []

    def recorded(group, classes, table, values, row, _project=adversary.isotypic_project):
        rows.append(row)
        return _project(group, classes, table, values, row)

    monkeypatch.setattr(adversary, "isotypic_project", recorded)
    return rows


@pytest.mark.parametrize(
    "token", ("s:3", "s:4", "a:4", "a:5", "sl2:3", "sl2:5", "sl2:7", "psl2:11", "z:12")
)
def test_structured_start_row_matches_projection_probe(monkeypatch, token):
    # the exact multiplicities pick the row the old probe found by projecting
    # a random vector onto every row; an abelian group has none, and its start
    # falls back to a random one after the same draw
    h = harmonic_for(resolve_group(token))
    rng = np.random.default_rng(11)
    raw = rng.standard_normal(h.n) + 1j * rng.standard_normal(h.n)
    expect_row = probed_isotypic_row(h, raw)
    assert (expect_row is None) == (token == "z:12")
    rows = _projected_rows(monkeypatch)
    start = _structured_start(h, "lemma", np.random.default_rng(11))
    assert rows == ([] if expect_row is None else [expect_row])
    if expect_row is None:
        expect = [f.values for f in _drawn_start(h, "lemma", rng)]
    else:
        data = h.spectral
        unit = _unit_sphere(isotypic_project(h.group, data.classes, data.table, raw, expect_row))
        expect = [unit, unit]
    for got, want in zip(start, expect, strict=True):
        assert np.array_equal(got.values, want)


@pytest.mark.parametrize("token, projections", [("sl2:5", 1), ("z:60", 0)])
def test_structured_unit_start_projects_at_most_once(
    monkeypatch, state_harmonics, token, projections
):
    # one O(n²) projection onto the chosen component, and none on an abelian
    # group, whose conjugation action fixes every function
    rows = _projected_rows(monkeypatch)
    _structured_start(state_harmonics[token], "lemma", np.random.default_rng(0))
    assert len(rows) == projections


# -- one check table for verify and search ------------------------------------


def test_objectives_are_the_checks_with_a_search_state():
    assert OBJECTIVES == ("lemma", "corollary", "theorem", "step1", "step2")
    assert [c for c in CHECK_ORDER if CHECKS[c].state is not None] == list(OBJECTIVES)


@pytest.mark.parametrize("token", _STATE_GROUPS)
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_search_seed_is_evaluate_inputs(state_harmonics, token, objective):
    # a search's full evaluation and evaluate_inputs convert through the same
    # CHECKS row, so they agree field for field
    h = state_harmonics[token]
    for start in (_drawn_start, _structured_start):
        point = start(h, objective, np.random.default_rng(23))
        check, _ = _seeded(h, objective, point)
        inputs = [f.values for f in point]
        assert astuple(check) == astuple(evaluate_inputs(h, objective, inputs)), start


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_search_start_is_the_check_draw(s3_harmonic, objective):
    # restart 0 starts from the point CHECKS[objective].draw gives on (seed, 0),
    # the draw a verify trial makes; with no move, the start is the best point
    spec = CHECKS[objective]
    res = maximize(s3_harmonic, SearchConfig(objective, budget=1, restarts=1, seed=0))
    drawn = spec.draw(s3_harmonic.n, np.random.default_rng(np.random.SeedSequence((0, 0))))
    for got, want in zip(res.best_inputs, drawn, strict=True):
        assert np.array_equal(got, want.values)
    if "unit" in spec.inputs:
        # on this stream |z|² as np.abs(z)**2 rounds the second unit vector
        # differently from l2mu's re² + im², the one normalization draws use
        rng = np.random.default_rng(np.random.SeedSequence((0, 0)))
        raw = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(2)][1]
        other = raw / float(np.sqrt(np.mean(np.abs(raw) ** 2)))
        assert not np.array_equal(other, drawn[1].values)


@pytest.mark.parametrize("check", [c for c in CHECK_ORDER if "unit" not in CHECKS[c].inputs])
def test_structured_disc_start_has_one_vector_per_input(state_harmonics, check):
    # a:5 has a witness row, so every disc check takes the character start
    start = _structured_start(state_harmonics["a:5"], check, np.random.default_rng(0))
    assert len(start) == len(CHECKS[check].inputs)


def test_step2_search_checks_its_gather(monkeypatch, state_harmonics):
    # building the step2 state runs the gather check, so each full
    # evaluation of a step2 search runs it, and no move does
    monkeypatch.setattr(harmonic, "STEP2_IDENTITY_TOL", -1.0)
    with pytest.raises(RuntimeError, match="step2 gather check failed at g=0"):
        maximize(state_harmonics["a:5"], SearchConfig("step2", budget=40, seed=0))
    monkeypatch.undo()
    calls = {"gather": 0, "seeds": 0}

    def counted_gather(self, *args, _check=_TripleState._check_gather):
        calls["gather"] += 1
        return _check(self, *args)

    def counted_seed(*args, _seeded=adversary._seeded):
        calls["seeds"] += 1
        return _seeded(*args)

    monkeypatch.setattr(_TripleState, "_check_gather", counted_gather)
    monkeypatch.setattr(adversary, "_seeded", counted_seed)
    maximize(state_harmonics["a:5"], SearchConfig("step2", budget=200, seed=3))
    assert calls["gather"] == calls["seeds"] > 0
