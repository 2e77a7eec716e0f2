"""Function containers, conditional expectations, and the inequality chain left-hand sides."""

import tracemalloc

import numpy as np
import pytest

from oracles import (
    brute_class_average,
    brute_cond_exp_diag,
    brute_fixed_tensor,
    brute_right_translation_corollary,
    brute_step1_lhs,
    brute_step2_pair_expansion,
    brute_step2_squared,
    brute_step3_quadruple,
    brute_step3_second_moment,
    brute_step4_final,
    brute_theorem_lhs,
    cond_exp_conj,
    conjugate,
    dense_corollary_lhs,
    dense_lemma_gap,
    dense_step4_final,
    harmonic_for,
    proj_fixed_tensor,
    sample_interior_disc,
    substitution_distance,
    twisted_step2_squared,
)
from quasimix.cli import resolve_group
from quasimix.groups import build_cyclic
from quasimix.harmonic import (
    ConstraintError,
    GroupFunction,
    Harmonic,
    _real_nonnegative,
    centered,
    sample_disc,
    sample_unit,
)
from quasimix._numutil import row_chunks
from quasimix.spectra import isotypic_project, spectral_data


def _rand_disc(n, seed):
    return sample_disc(n, np.random.default_rng(seed))


def _rand_free(n, seed):
    rng = np.random.default_rng(seed)
    return GroupFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))


# -- function containers -----------------------------------------------------


def test_flag_validation():
    with pytest.raises(ConstraintError, match="disc_valued"):
        GroupFunction(np.array([1.5, 0.0]), disc_valued=True)
    with pytest.raises(ConstraintError, match="two_disc_valued"):
        GroupFunction(np.array([2.5, 0.0]), two_disc_valued=True)
    with pytest.raises(ConstraintError, match="mean_zero"):
        GroupFunction(np.array([1.0, 0.5]), mean_zero=True)
    with pytest.raises(ConstraintError, match="nonempty"):
        GroupFunction(np.array([]))
    # boundary values are allowed
    GroupFunction(np.array([1.0, -1.0]), disc_valued=True, mean_zero=True)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("flag", [None, "disc_valued", "two_disc_valued", "mean_zero"])
def test_non_finite_values_are_rejected(flag, value):
    # a NaN passes every flag's comparison, so it would reach the checks as nan
    vals = np.zeros(4, dtype=np.complex128)
    vals[2] = value
    with pytest.raises(ConstraintError, match="finite, got .* at index 2"):
        GroupFunction(vals, **({flag: True} if flag else {}))


def test_values_are_read_only():
    f = GroupFunction(np.zeros(3))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_values_are_a_private_copy():
    # the caller's array stays writeable, and writing it cannot change the
    # values whose flags were checked at construction
    x = np.ones(4, dtype=complex)
    f = GroupFunction(x, disc_valued=True)
    assert f.values is not x
    assert x.flags.writeable
    x[0] = 5.0
    assert f.values[0] == 1.0
    assert np.abs(f.values).max() <= 1.0


def test_centered_properties():
    f = _rand_disc(12, 0)
    g = centered(f)
    assert g.two_disc_valued and g.mean_zero
    assert abs(g.values.mean()) < 1e-12
    assert g.norm2 <= 1.0 + 1e-12
    with pytest.raises(ConstraintError, match="disc_valued"):
        centered(GroupFunction(np.ones(4) * 3.0))


def test_sampling_modes():
    rng = np.random.default_rng(1)
    phases = sample_disc(50, rng)
    assert np.allclose(np.abs(phases.values), 1.0)
    interior = sample_interior_disc(50, rng)
    assert np.abs(interior.values).max() <= 1.0 + 1e-12
    assert interior.disc_valued
    unit = sample_unit(50, rng)
    assert abs(unit.norm2 - 1.0) < 1e-12


def test_real_nonnegative_guard():
    assert _real_nonnegative(1.5 + 1e-12j, "q") == 1.5
    assert _real_nonnegative(-1e-12 + 0j, "q") == 0.0
    with pytest.raises(RuntimeError, match="imaginary residue"):
        _real_nonnegative(1.0 + 1e-6j, "q")
    with pytest.raises(RuntimeError, match="negative value"):
        _real_nonnegative(-1e-3 + 0j, "q")


# -- conditional expectations ------------------------------------------------


def test_cond_exp_conj_is_class_average(s3_harmonic, s3):
    f = _rand_free(6, 6)
    e = cond_exp_conj(s3_harmonic, f)
    assert np.abs(e.values - brute_class_average(s3, f.values)).max() < 1e-13
    again = cond_exp_conj(s3_harmonic, e)
    assert np.abs(again.values - e.values).max() < 1e-13


def test_proj_fixed_tensor(s3_harmonic, s3):
    u = _rand_free(6, 8)
    v = _rand_free(6, 9)
    got = proj_fixed_tensor(s3_harmonic, u, v)
    expect = brute_fixed_tensor(s3, u.values, v.values)
    assert np.abs(got - expect).max() < 1e-13


# -- inequality left-hand sides against brute loops --------------------------


def test_theorem_lhs_matches_brute(s3_harmonic, s3):
    f1, f2, f3 = (_rand_disc(6, s) for s in (10, 11, 12))
    check = s3_harmonic.theorem_lhs(f1, f2, f3)
    expect = brute_theorem_lhs(s3, f1.values, f2.values, f3.values)
    assert abs(check.observed - expect) < 1e-14
    assert check.quantity_name == "theorem"
    assert check.bound == 4.0  # D = 1 for S_3
    assert check.margin == check.bound - check.observed


def test_checks_reject_inputs_of_the_wrong_length(s3_harmonic):
    # a 5-vector on the 6-element S_3, in one argument of each check
    h, short, disc = s3_harmonic, _rand_disc(5, 5), _rand_disc(6, 14)
    c1 = centered(disc)
    calls = [
        lambda: h.lemma_gap(short, disc),
        lambda: h.corollary_lhs(disc, short),
        lambda: h.theorem_lhs(disc, disc, short),
        lambda: h.step1_reduced_lhs(c1, short, disc),
        lambda: h.step2_squared(c1, disc, short),
        lambda: h.step3_intermediate(c1, short),
        lambda: h.step4_final(centered(short), disc),
        lambda: h.step4_substitution_sweep(short),
    ]
    for call in calls:
        with pytest.raises(ConstraintError, match="has length 5, group order is 6"):
            call()


def test_theorem_requires_disc_inputs(s3_harmonic):
    free = _rand_free(6, 13)
    disc = _rand_disc(6, 14)
    with pytest.raises(ConstraintError, match="disc_valued"):
        s3_harmonic.theorem_lhs(free, disc, disc)


def test_disc_valued_f1_meets_the_two_disc_requirement(s3_harmonic, s3):
    # |f1| <= 1 <= 2, so a disc-valued mean-zero f1 is a valid first input of every step
    h = s3_harmonic
    alt = 0.5 * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    f1 = GroupFunction(alt, disc_valued=True, mean_zero=True)
    f2, f3 = _rand_disc(6, 30), _rand_disc(6, 31)
    vals = (f1.values, f2.values, f3.values)
    assert abs(h.step1_reduced_lhs(f1, f2, f3).observed - brute_step1_lhs(s3, *vals)) < 1e-14
    assert abs(h.step2_squared(f1, f2, f3).observed - brute_step2_squared(s3, *vals)) < 1e-13
    step3 = brute_step3_second_moment(s3, *vals[:2])
    assert abs(h.step3_intermediate(f1, f2).observed - step3) < 1e-13
    assert abs(h.step4_final(f1, f2).observed - brute_step4_final(s3, *vals[:2])) < 1e-14
    unflagged = GroupFunction(alt, mean_zero=True)
    for call in (
        lambda: h.step1_reduced_lhs(unflagged, f2, f3),
        lambda: h.step2_squared(unflagged, f2, f3),
        lambda: h.step3_intermediate(unflagged, f2),
    ):
        with pytest.raises(ConstraintError, match="f1 must be two_disc_valued"):
            call()
    off_mean = GroupFunction(alt + 0.25, disc_valued=True)
    for call in (
        lambda: h.step1_reduced_lhs(off_mean, f2, f3),
        lambda: h.step2_squared(off_mean, f2, f3),
        lambda: h.step3_intermediate(off_mean, f2),
    ):
        with pytest.raises(ConstraintError, match="f1 must be mean_zero"):
            call()


def test_step1_matches_brute(s3_harmonic, s3):
    f1 = centered(_rand_disc(6, 15))
    f2, f3 = _rand_disc(6, 16), _rand_disc(6, 17)
    check = s3_harmonic.step1_reduced_lhs(f1, f2, f3)
    expect = brute_step1_lhs(s3, f1.values, f2.values, f3.values)
    assert abs(check.observed - expect) < 1e-14
    with pytest.raises(ConstraintError, match="mean_zero"):
        s3_harmonic.step1_reduced_lhs(_rand_disc(6, 18), f2, f3)


def test_step2_matches_brute_and_pair_expansion(s3_harmonic, s3):
    f1 = centered(_rand_disc(6, 19))
    f2, f3 = _rand_disc(6, 20), _rand_disc(6, 21)
    check = s3_harmonic.step2_squared(f1, f2, f3)
    expect = brute_step2_squared(s3, f1.values, f2.values, f3.values)
    assert abs(check.observed - expect) < 1e-13
    expanded = brute_step2_pair_expansion(s3, f1.values, f2.values, f3.values)
    assert abs(expanded.imag) < 1e-13
    assert abs(check.observed - expanded.real) < 1e-13


def test_step2_gather_check_catches_a_phase_and_a_wrong_point(monkeypatch, s3_harmonic):
    # every g of S3 is sampled; a unit phase on one inner[g] keeps |inner[g]|²,
    # so only a check of the complex value sees it
    f1 = centered(_rand_disc(6, 19))
    f2, f3 = _rand_disc(6, 20), _rand_disc(6, 21)
    observed = s3_harmonic.step2_squared(f1, f2, f3).observed

    def rotated(self, *args, _kernel=Harmonic._triple_inner, **kwargs):
        inner, q = _kernel(self, *args, **kwargs)
        inner[3] *= np.exp(0.5j)
        return inner, q

    monkeypatch.setattr(Harmonic, "_triple_inner", rotated)
    inner, _ = s3_harmonic._triple_inner(f1.values, f2.values, f3.values)
    assert abs(np.mean(np.abs(inner) ** 2) - observed) < 1e-15
    with pytest.raises(RuntimeError, match=r"step2 gather check failed at g=3: "):
        s3_harmonic.step2_squared(f1, f2, f3)
    monkeypatch.undo()

    def swapped(self, point, rows, out, _points=Harmonic._points):
        return _points(self, "gx" if point == "xg" else point, rows, out)  # f3 at gx, not xg

    monkeypatch.setattr(Harmonic, "_points", swapped)
    with pytest.raises(RuntimeError, match="step2 gather check failed at g="):
        s3_harmonic.step2_squared(f1, f2, f3)


def test_step1_step2_cauchy_schwarz(s3_harmonic):
    # the first moment is dominated by the root of the second moment
    f1 = centered(_rand_disc(6, 22))
    f2, f3 = _rand_disc(6, 23), _rand_disc(6, 24)
    one = s3_harmonic.step1_reduced_lhs(f1, f2, f3)
    two = s3_harmonic.step2_squared(f1, f2, f3)
    assert one.observed**2 <= two.observed + 1e-12


def test_step3_matches_both_brute_forms(s3_harmonic, s3):
    f1 = centered(_rand_disc(6, 25))
    f2 = _rand_disc(6, 26)
    check = s3_harmonic.step3_intermediate(f1, f2)
    moment = brute_step3_second_moment(s3, f1.values, f2.values)
    assert abs(check.observed - moment) < 1e-13
    quadruple = brute_step3_quadruple(s3, f1.values, f2.values)
    assert abs(quadruple.imag) < 1e-13
    assert abs(check.observed - quadruple.real) < 1e-13


def test_step4_matches_brute(s3_harmonic, s3):
    f1 = sample_unit(6, np.random.default_rng(27))
    f1 = GroupFunction(f1.values - f1.values.mean())
    f1 = GroupFunction(f1.values / max(f1.norm2, 1e-12), mean_zero=True)
    f2 = _rand_disc(6, 28)
    check = s3_harmonic.step4_final(f1, f2)
    expect = brute_step4_final(s3, f1.values, f2.values)
    assert abs(check.observed - expect) < 1e-14


def test_step4_with_flat_f2_is_translation_corollary(s3_harmonic, s3):
    # with f2 ≡ 1 the conjugation factor drops out and step4 degenerates to
    # the averaged squared right-translation autocorrelation
    f1 = sample_unit(6, np.random.default_rng(29))
    f1 = GroupFunction(f1.values - f1.values.mean())
    f1 = GroupFunction(f1.values / max(f1.norm2, 1e-12), mean_zero=True)
    flat = GroupFunction(np.ones(6), disc_valued=True)
    check = s3_harmonic.step4_final(f1, flat)
    expect = brute_right_translation_corollary(s3, f1.values)
    assert abs(check.observed - expect) < 1e-12


def test_step4_substitution_matches_brute(s3_harmonic, s3):
    f2 = _rand_disc(6, 30)
    for h in range(6):
        observed = substitution_distance(s3_harmonic, f2, h)
        a = f2.values * np.conj(f2.values[[conjugate(s3, h, x) for x in range(6)]])
        diag = brute_cond_exp_diag(s3, np.outer(a, np.conj(a)))
        scalar = abs(a.mean()) ** 2
        expect = float(np.sqrt(np.mean(np.abs(diag - scalar) ** 2)))
        assert abs(observed - expect) < 1e-13


def test_substitution_sweep_is_worst_single_h(s3_harmonic):
    f2 = _rand_disc(6, 31)
    sweep = s3_harmonic.step4_substitution_sweep(f2)
    singles = [substitution_distance(s3_harmonic, f2, h) for h in range(6)]
    assert abs(sweep.observed - max(singles)) < 1e-15


def test_lemma_gap_matches_brute(s3_harmonic, s3):
    u = _rand_free(6, 32)
    v = _rand_free(6, 33)
    check = s3_harmonic.lemma_gap(u, v)
    fixed = brute_fixed_tensor(s3, u.values, v.values)
    eu = brute_class_average(s3, u.values)
    ev = brute_class_average(s3, v.values)
    diff = fixed - np.outer(eu, ev)
    expect = float(np.sqrt(np.mean(np.abs(diff) ** 2)))
    assert abs(check.observed - expect) < 1e-13
    assert abs(check.bound - u.norm2 * v.norm2) < 1e-12  # D = 1


def test_corollary_matches_brute(s3_harmonic, s3):
    u = _rand_free(6, 34)
    v = _rand_free(6, 35)
    published, sharp = s3_harmonic.corollary_lhs(u, v)
    eu = brute_class_average(s3, u.values)
    ev = brute_class_average(s3, v.values)
    fixed = np.vdot(ev, eu) / 6  # <E(u|Φ), E(v|Φ)>
    total = 0.0
    for g in range(6):
        inner = sum(
            u.values[x] * np.conj(v.values[conjugate(s3, g, x)]) for x in range(6)
        ) / 6
        total += abs(inner - fixed) ** 2
    expect = total / 6
    assert abs(published.observed - expect) < 1e-13
    assert published.observed == sharp.observed
    assert published.quantity_name == "corollary"
    assert sharp.quantity_name == "corollary_sharp"
    scale = u.norm2**2 * v.norm2**2
    assert abs(published.bound - scale) < 1e-12  # D = 1 for S_3
    assert abs(sharp.bound - scale) < 1e-12


# -- conjugation-coefficient kernels against the dense pair oracles ----------

_KERNEL_GROUPS = ("s:4", "a:5", "z:12", "sl2:7", "psl2:11", "s:6")


@pytest.fixture(scope="module")
def kernel_harmonics():
    return {token: harmonic_for(resolve_group(token)) for token in _KERNEL_GROUPS}


def _close(got, expect):
    return abs(got - expect) <= 1e-12 * abs(expect) + 1e-15


@pytest.mark.parametrize("token", _KERNEL_GROUPS)
def test_conjugation_kernels_match_dense_oracles(kernel_harmonics, token):
    h = kernel_harmonics[token]
    rng = np.random.default_rng(42)
    for _ in range(3):
        u, v = sample_unit(h.n, rng), sample_unit(h.n, rng)
        assert _close(h.lemma_gap(u, v).observed, dense_lemma_gap(h, u, v))
        pub, sharp = h.corollary_lhs(u, v)
        assert pub.observed == sharp.observed
        assert _close(pub.observed, dense_corollary_lhs(h, u, v))
        f1, f2 = centered(sample_disc(h.n, rng)), sample_interior_disc(h.n, rng)
        assert _close(h.step4_final(f1, f2).observed, dense_step4_final(h, f1, f2))
    # mixed inputs: one argument a class function, the other not
    u = sample_unit(h.n, rng)
    v = cond_exp_conj(h, sample_unit(h.n, rng))
    assert _close(h.lemma_gap(u, v).observed, dense_lemma_gap(h, u, v))
    assert _close(h.corollary_lhs(v, u)[0].observed, dense_corollary_lhs(h, v, u))


@pytest.mark.parametrize("token", ["sl2:7", "psl2:11", "s:6"])
def test_lemma_vanishes_when_one_input_is_a_class_function(kernel_harmonics, token):
    h = kernel_harmonics[token]
    rng = np.random.default_rng(43)
    u = sample_unit(h.n, rng)
    v = cond_exp_conj(h, sample_unit(h.n, rng))
    assert h.lemma_gap(u, v).observed <= 1e-14
    assert h.lemma_gap(v, u).observed <= 1e-14


@pytest.mark.parametrize("token", ["sl2:7", "s:6"])
def test_lemma_is_homogeneous_at_any_scale(kernel_harmonics, token):
    # the real-part guard scales with ‖u₀‖²‖v₀‖², so a large input never trips it
    h = kernel_harmonics[token]
    rng = np.random.default_rng(44)
    u, v = sample_unit(h.n, rng), sample_unit(h.n, rng)
    base = h.lemma_gap(u, v).observed
    for lam in (1e4, -1e4j, 1e-4):
        scaled = h.lemma_gap(GroupFunction(lam * u.values), v).observed
        assert abs(scaled - abs(lam) * base) <= 1e-12 * abs(lam) * base
        both = h.lemma_gap(GroupFunction(lam * u.values), GroupFunction(lam * v.values))
        assert abs(both.observed - abs(lam) ** 2 * base) <= 1e-12 * abs(lam) ** 2 * base


_RAMP = np.arange(1.0, 7.0)  # one value per element of s:3


@pytest.mark.parametrize("method", ["lemma_gap", "corollary_lhs"])
@pytest.mark.parametrize(
    "u, v, named",
    [
        (1e200 * _RAMP, _RAMP - 1.0, "u is too large: its L2 norm overflows"),
        (_RAMP - 1.0, 1e200 * _RAMP, "v is too large: its L2 norm overflows"),
        (1e80 * _RAMP, 1e80 * (6.0 - _RAMP), "u and v are too large together"),
    ],
    ids=["u-1e200", "v-1e200", "both-1e80"],
)
def test_inputs_that_overflow_float64_are_rejected(s3_harmonic, method, u, v, named):
    # finite inputs once gave nan, inf, or (lemma at 1e80) a false violation;
    # any numpy warning would fail the test
    with pytest.raises(ConstraintError, match=named):
        getattr(s3_harmonic, method)(GroupFunction(u), GroupFunction(v))


@pytest.mark.parametrize("scale_u, scale_v", [(1e40, 1e40), (1e150, 1.0), (1.0, 1e150)])
def test_large_finite_inputs_scale_homogeneously(s3_harmonic, scale_u, scale_v):
    # lemma's records scale by |λ||μ| and corollary's by |λ|²|μ|², up to rounding
    h = s3_harmonic
    u, v = GroupFunction(_RAMP), GroupFunction(_RAMP - 1.0)
    big_u, big_v = GroupFunction(scale_u * _RAMP), GroupFunction(scale_v * (_RAMP - 1.0))
    pairs = [(h.lemma_gap(u, v), h.lemma_gap(big_u, big_v), scale_u * scale_v)]
    for small, big in zip(h.corollary_lhs(u, v), h.corollary_lhs(big_u, big_v)):
        pairs.append((small, big, (scale_u * scale_v) ** 2))
    for small, big, factor in pairs:
        assert big.passed
        for field in ("observed", "bound", "margin"):
            want = factor * getattr(small, field)
            assert abs(getattr(big, field) - want) <= 1e-12 * want, (big, field)


def test_an_overflowing_norm_reads_inf_and_fails_unit_l2(s3_harmonic):
    f1 = GroupFunction(1e200 * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]), mean_zero=True)
    assert f1.norm2 == np.inf
    with pytest.raises(ConstraintError, match="L2 norm <= 1, got inf"):
        s3_harmonic.step4_final(f1, GroupFunction(np.ones(6), disc_valued=True))


def test_lemma_and_corollary_above_the_old_pair_cap(subprocess_peak_mb):
    # sl2:13 has order 2184, above the 2000 that once capped pair storage; no
    # n×n complex array is built, neither by the kernels nor by the isotypic
    # projection behind search's structured start
    script = (
        "import numpy as np\n"
        "from quasimix.adversary import _structured_start\n"
        "from quasimix.groups import build_sl2\n"
        "from quasimix.harmonic import Harmonic, sample_unit\n"
        "from quasimix.spectra import spectral_data\n"
        "h = Harmonic(spectral_data(build_sl2(13)))\n"
        "rng = np.random.default_rng(0)\n"
        "u, v = sample_unit(h.n, rng), sample_unit(h.n, rng)\n"
        "lemma = h.lemma_gap(u, v)\n"
        "pub, sharp = h.corollary_lhs(u, v)\n"
        "assert 0.0 < lemma.observed < lemma.bound, lemma\n"
        "assert 0.0 < sharp.observed < sharp.bound, sharp\n"
        "start = _structured_start(h, 'lemma', rng)\n"
        "assert abs(start[0].norm2 - 1.0) < 1e-12, start[0].norm2\n"
        "assert h.lemma_gap(*start).passed\n"
    )
    assert subprocess_peak_mb(script) < 150.0


@pytest.mark.parametrize("token", ["sl2:7", "psl2:11"])
def test_chain_kernels_match_brute_across_row_chunks(kernel_harmonics, token):
    # sl2:7 gathers its rows in 2 chunks and psl2:11 in 7, where s:3 takes one
    h = kernel_harmonics[token]
    group = h.group
    rng = np.random.default_rng(45)
    f1, f2, f3 = (sample_disc(h.n, rng) for _ in range(3))
    c1 = centered(f1)
    theorem = h.theorem_lhs(f1, f2, f3).observed
    assert _close(theorem, brute_theorem_lhs(group, f1.values, f2.values, f3.values))
    step1 = h.step1_reduced_lhs(c1, f2, f3).observed
    assert _close(step1, brute_step1_lhs(group, c1.values, f2.values, f3.values))
    step2 = h.step2_squared(c1, f2, f3).observed
    assert _close(step2, brute_step2_squared(group, c1.values, f2.values, f3.values))
    step4 = h.step4_final(c1, f2).observed
    assert _close(step4, brute_step4_final(group, c1.values, f2.values))


@pytest.mark.parametrize("token", ["z:1", "s:3", "a:5", "z:12", "sl2:7", "psl2:11"])
def test_step2_matches_its_twisted_gather_oracle(kernel_harmonics, token):
    # step2 reads step1's triple state, whose inner[g] is step2's twisted
    # integral after x → xg; the oracle gathers sl2:7 in 2 row chunks
    h = kernel_harmonics.get(token) or harmonic_for(resolve_group(token))
    rng = np.random.default_rng(46)
    for _ in range(3):
        f1, f2, f3 = centered(sample_disc(h.n, rng)), sample_disc(h.n, rng), sample_disc(h.n, rng)
        got = h.step2_squared(f1, f2, f3).observed
        expect = twisted_step2_squared(h, f1, f2, f3)
        assert _close(got, expect)
        if h.n == 1:
            assert got == expect == 0.0


def test_chain_kernels_stay_small_on_alternating_7(subprocess_peak_mb):
    # a:7 has order 2520; an unchunked n×n complex gather alone is 102 MB
    script = (
        "import numpy as np\n"
        "from quasimix.groups import build_alternating\n"
        "from quasimix.harmonic import Harmonic, centered, sample_disc\n"
        "from quasimix.spectra import spectral_data\n"
        "h = Harmonic(spectral_data(build_alternating(7)))\n"
        "rng = np.random.default_rng(0)\n"
        "f1, f2, f3 = (sample_disc(h.n, rng) for _ in range(3))\n"
        "c1 = centered(f1)\n"
        "checks = [h.theorem_lhs(f1, f2, f3), h.step1_reduced_lhs(c1, f2, f3),\n"
        "          h.step2_squared(c1, f2, f3), h.step4_final(c1, f2)]\n"
        "assert all(0.0 < c.observed < c.bound for c in checks), checks\n"
    )
    assert subprocess_peak_mb(script) < 150.0


def test_gathers_reuse_their_blocks_across_calls():
    # each row chunk of a gather is taken into complex scratch the Harmonic keeps, through
    # an intp index block it also keeps: np.take copies int32 indices to a fresh intp
    # array, and fancy indexing "xg^-1" rows makes a fresh int32 block.  After the first
    # call, no check allocates even one int32 index block (262 KB on sl2:7).
    h = Harmonic(spectral_data(resolve_group("sl2:7")))
    rng = np.random.default_rng(0)
    f1, f2, f3 = (sample_disc(h.n, rng) for _ in range(3))
    u, v = sample_unit(h.n, rng), sample_unit(h.n, rng)
    checks = {
        "theorem": lambda: h.theorem_lhs(f1, f2, f3).observed,
        "step1": lambda: h.step1_reduced_lhs(centered(f1), f2, f3).observed,
        "step2": lambda: h.step2_squared(centered(f1), f2, f3).observed,
        "step4": lambda: h.step4_final(centered(f1), f2).observed,
        "lemma": lambda: h.lemma_gap(u, v).observed,
        "corollary": lambda: [c.observed for c in h.corollary_lhs(u, v)],
    }
    index_bytes = next(row_chunks(h.n, h.n)).stop * h.n * np.dtype(np.int32).itemsize
    for name, check in checks.items():
        first = check()
        tracemalloc.start()
        try:
            again = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first, name
        assert peak < index_bytes, (name, peak, index_bytes)


# -- structural exactness ----------------------------------------------------


def test_trivial_group_everything_exactly_zero():
    h = harmonic_for(build_cyclic(1))
    assert h.degree is None
    assert h.degree_power(-0.5) == 0.0
    one = GroupFunction(np.ones(1), disc_valued=True)
    zero = centered(one)
    unit_zero = GroupFunction(np.zeros(1), mean_zero=True)
    checks = [
        h.lemma_gap(one, one),
        *h.corollary_lhs(one, one),
        h.theorem_lhs(one, one, one),
        h.step1_reduced_lhs(zero, one, one),
        h.step2_squared(zero, one, one),
        h.step3_intermediate(zero, one),
        h.step4_final(unit_zero, one),
        h.step4_substitution_sweep(one),
    ]
    for check in checks:
        assert check.observed == 0.0, check.quantity_name
        assert check.bound == 0.0, check.quantity_name
        assert check.margin == 0.0, check.quantity_name


def test_abelian_conjugation_deviations_exactly_zero(z6):
    # conjugation is trivial on an abelian group, so the lemma and corollary
    # deviations cancel exactly — same-kernel evaluation, not just rounding
    h = harmonic_for(z6)
    rng = np.random.default_rng(36)
    for _ in range(5):
        u = GroupFunction(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        v = GroupFunction(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert h.lemma_gap(u, v).observed == 0.0
        pub, sharp = h.corollary_lhs(u, v)
        assert pub.observed == 0.0 and sharp.observed == 0.0


def test_class_function_inputs_are_exactly_fixed(s3_harmonic):
    # conjugation-invariant inputs make the deviation vanish exactly
    f = cond_exp_conj(s3_harmonic, _rand_free(6, 37))
    assert s3_harmonic.lemma_gap(f, f).observed == 0.0
    pub, _ = s3_harmonic.corollary_lhs(f, f)
    assert pub.observed == 0.0


def test_schur_exact_matrix_coefficient_average(s3_harmonic, s3):
    # u = v a unit vector inside a multiplicity-free nontrivial isotypic
    # component gives corollary observed exactly 1/d
    data = s3_harmonic.spectral
    rng = np.random.default_rng(38)
    for row, d in ((0, 1), (2, 2)):
        raw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        proj = isotypic_project(s3, data.classes, data.table, raw, row)
        proj = proj / (np.sqrt(np.mean(np.abs(proj) ** 2)))
        u = GroupFunction(proj)
        pub, sharp = s3_harmonic.corollary_lhs(u, u)
        assert abs(pub.observed - 1.0 / d) < 1e-12
        assert sharp.observed <= sharp.bound + 1e-12


def test_degree_power_and_bounds_scale(sl2_5_harmonic):
    assert sl2_5_harmonic.degree == 2
    assert abs(sl2_5_harmonic.degree_power(-0.5) - 2**-0.5) < 1e-15
    f1 = centered(sample_disc(120, np.random.default_rng(39)))
    f2 = sample_disc(120, np.random.default_rng(40))
    f3 = sample_disc(120, np.random.default_rng(41))
    s1 = sl2_5_harmonic.step1_reduced_lhs(f1, f2, f3)
    assert abs(s1.bound - 3.0 * 2**-0.125) < 1e-15
    s2 = sl2_5_harmonic.step2_squared(f1, f2, f3)
    assert abs(s2.bound - 5.0 * 2**-0.25) < 1e-15
    assert s1.observed**2 <= s2.observed + 1e-12
    s3c = sl2_5_harmonic.step3_intermediate(f1, f2)
    assert abs(s3c.bound - 25.0 * 2**-0.5) < 1e-15
    assert s2.observed <= s3c.observed + 1e-9  # dropping |·| can only grow it
