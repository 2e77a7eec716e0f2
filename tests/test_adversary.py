"""Worst-case search: witnesses, determinism, feasibility, and tightness trends."""

import numpy as np
import pytest

import quasimix.adversary as adversary
from oracles import full_maximize, harmonic_for, witness_abelian_character
from quasimix.adversary import (
    OBJECTIVES,
    SearchConfig,
    _disc_clip,
    _random_start,
    _seeded,
    _structured_start,
    _unit_sphere,
    evaluate_inputs,
    maximize,
)
from quasimix.cli import resolve_group
from quasimix.groups import build_cyclic, build_sl2
from quasimix.harmonic import ConstraintError, Harmonic, sample_disc, sample_unit
from quasimix.report import CHECK_ORDER, CHECKS, run_verification


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
    with pytest.raises(ValueError, match="non-increasing"):
        SearchConfig("theorem", step_schedule=(0.1, 0.5))


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


def test_best_inputs_reevaluate_to_best_value(s3_harmonic):
    for objective in ("theorem", "step1", "lemma", "corollary"):
        res = maximize(s3_harmonic, SearchConfig(objective, budget=40, seed=5))
        again = evaluate_inputs(s3_harmonic, objective, res.best_inputs)
        assert again.observed == res.best_value, objective
        assert again == res.best_check, objective


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


@pytest.fixture(scope="module")
def state_harmonics():
    return {token: harmonic_for(resolve_group(token)) for token in _STATE_GROUPS}


@pytest.mark.parametrize("token", _STATE_GROUPS)
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_incremental_value_matches_full_evaluation_after_every_move(
    state_harmonics, token, objective
):
    # moves as maximize draws them, from a random and a structured start; the
    # state is never re-seeded, so drift accumulates over the whole walk, and
    # every third move is taken even when it is worse
    h = state_harmonics[token]
    project = _disc_clip if CHECKS[objective].kind == "disc" else _unit_sphere
    abelian_zero = token == "z:60" and objective in ("lemma", "corollary")
    for start in (_random_start, _structured_start):
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


@pytest.mark.parametrize("token", _STATE_GROUPS)
def test_maximize_agrees_with_full_reevaluation_oracle(state_harmonics, token):
    h = state_harmonics[token]
    for objective in OBJECTIVES:
        cfg = SearchConfig(objective, budget=80, seed=3)
        fast, full = maximize(h, cfg), full_maximize(h, cfg)
        assert fast.evaluations_used == full.evaluations_used == 80
        assert abs(fast.best_value - full.best_value) <= 1e-12, objective
        if token == "z:60" and objective in ("lemma", "corollary"):
            assert fast.best_value == full.best_value == 0.0
            assert fast.trace == full.trace == [0.0] * 80


# O(n²) kernel calls of one full evaluation of each objective
_KERNEL_CALLS = {"theorem": 1, "step1": 1, "lemma": 2, "corollary": 1}


@pytest.mark.parametrize("token", ("s:3", "a:5"))
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_one_kernel_pass_per_full_evaluation(monkeypatch, state_harmonics, token, objective):
    # the state is seeded from the full evaluation's own per-g arrays, so a
    # search runs the gather kernels once per restart and re-evaluated new best
    calls = {"kernel": 0, "seeds": 0}
    for name in ("_triple_inner", "_coefficients"):
        def counted(self, *args, _kernel=getattr(Harmonic, name), **kwargs):
            calls["kernel"] += 1
            return _kernel(self, *args, **kwargs)

        monkeypatch.setattr(Harmonic, name, counted)

    def counted_seed(*args, _seeded=adversary._seeded):
        calls["seeds"] += 1
        return _seeded(*args)

    monkeypatch.setattr(adversary, "_seeded", counted_seed)
    h = state_harmonics[token]
    start = _random_start(h, objective, np.random.default_rng(0))
    evaluate_inputs(h, objective, start)
    assert calls["kernel"] == _KERNEL_CALLS[objective]
    calls["kernel"] = 0
    cfg = SearchConfig(objective, budget=200, seed=3)
    maximize(h, cfg)
    assert calls["seeds"] > cfg.restarts  # new bests were re-evaluated, not only starts
    assert calls["kernel"] == calls["seeds"] * _KERNEL_CALLS[objective]
