"""Bessel oracle, cutoff rules, polynomial zeros, and factorized evaluation."""

import cmath
import contextlib
import hashlib
import json
import math
import os
import signal

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

import trotterkit
from trotterkit import bench, polyexp
from trotterkit.bench import BenchPlan, run_benchmark
from trotterkit.errors import ConvergenceError, DimensionError, RangeError, StructuralError
from trotterkit.polyexp import (
    SeriesSpec,
    chebyshev_admissible_k,
    eval_factorized,
    eval_summed,
    factorize,
    r_valid,
    suggest_gamma,
    taylor_cutoff,
    truncation_zeros,
)
from trotterkit.spinmodel import XxzConfig, build_xxz
from trotterkit.tolerances import TAYLOR_K_MAX

# k values reserved for the cache behaviour tests: nothing else in the
# suite may request them, or the in-process memo would mask the file I/O.
CACHE_ONLY_K = (2, 3, 4)


def mp_exp_poly(k, z, dps=80):
    """Reference value of the degree-k Taylor truncation, in mp arithmetic."""
    with mp.workdps(dps):
        zz = mp.mpc(z)
        acc = mp.mpf(1)
        term = mp.mpf(1)
        for i in range(1, k + 1):
            term = term * zz / i
            acc += term
        return acc


# ---------------------------------------------------------------------------
# Bessel sequences


def bessel_seq(kind, order, x):
    """f_order(x) from `_bessel_sequence` run from order 2x + 200, the
    reach of `chebyshev_admissible_k`, so it comes out of the recurrence."""
    return polyexp._bessel_sequence(kind, int(2 * x) + 200, x)[order]


def test_bessel_sequence_known_values():
    assert polyexp._bessel_sequence("I", 3, 0.0) == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert polyexp._bessel_sequence("J", 3, 0.0) == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert bessel_seq("I", 1, 1.0) == pytest.approx(0.565159103992485, rel=1e-12)
    assert abs(bessel_seq("J", 0, 2.404825557695773)) < 1e-10  # first J0 zero


@pytest.mark.parametrize("kind", ["I", "J"])
def test_bessel_sequence_against_mpmath_grid(kind):
    # every value is the correctly rounded double, up to order 1200 at x = 500
    ref = mp.besseli if kind == "I" else mp.besselj
    for order, x in [
        (0, 0.3),
        (1, 1.0),
        (5, 2.0),
        (12, 12.0),
        (40, 25.0),
        (0, 100.0),
        (146, 100.0),
        (300, 100.0),
        (0, 500.0),
        (250, 500.0),
        (1200, 500.0),
    ]:
        got = bessel_seq(kind, order, x)
        with mp.workdps(40):
            want = float(ref(order, x))
        assert got == want, (order, x)


@pytest.mark.parametrize("kind", ["I", "J"])
def test_bessel_sequence_against_scipy_grid(kind):
    # scipy's iv/jv drift to ~1e-10 themselves at large order/argument, so
    # this is a loose independence check next to the tight mpmath one.
    fn = scipy.special.iv if kind == "I" else scipy.special.jv
    for order, x in [(0, 1.0), (3, 7.5), (20, 30.0), (80, 90.0), (146, 100.0)]:
        want = float(fn(order, x))
        assert bessel_seq(kind, order, x) == pytest.approx(want, rel=5e-10)


@given(
    st.sampled_from(["I", "J"]),
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=0.01, max_value=120.0, allow_nan=False),
)
def test_property_bessel_sequence_matches_mpmath(kind, order, x):
    # seeded at order 61 and 60, so every drawn order below 60 comes out of
    # the recurrence, the way `_chebyshev_plane` reads a_0..a_{k-1}
    got = polyexp._bessel_sequence(kind, 60, x)[order]
    ref = mp.besseli if kind == "I" else mp.besselj
    with mp.workdps(40):
        want = float(ref(order, x))
    assert got == pytest.approx(want, rel=1e-13, abs=1e-300)


# ---------------------------------------------------------------------------
# cutoff rules


def test_taylor_cutoff_pinned_values():
    assert taylor_cutoff(1.0, 1.0, 1e-16) == 18
    assert taylor_cutoff(0.0, 1.0, 1e-12) == 1
    assert taylor_cutoff(10.0, 1.0, 2.2e-16) == 50
    assert taylor_cutoff(100.0, 1.0, 1e-14) == 294


def test_taylor_cutoff_range_errors():
    with pytest.raises(RangeError):
        taylor_cutoff(-1.0, 1.0, 1e-12)
    with pytest.raises(RangeError):
        taylor_cutoff(1.0, 0.0, 1e-12)
    with pytest.raises(RangeError):
        taylor_cutoff(1.0, 1.0, 2.0)


@given(
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    st.floats(min_value=1e-18, max_value=1e-3, allow_nan=False),
)
def test_property_cutoff_matches_brute_force(lh, eps):
    k = taylor_cutoff(lh, 1.0, eps)
    with mp.workdps(50):
        mlh, meps = mp.mpf(lh), mp.mpf(eps)
        assert mlh**k / mp.factorial(k + 1) < meps
        if k > 1:
            assert mlh ** (k - 1) / mp.factorial(k) >= meps


def test_chebyshev_admissible_pinned_values():
    assert chebyshev_admissible_k(100.0, "imaginary", 1e-14) == 146
    # the real axis needs more terms: I_n(x) decays later than J_n(x)
    assert chebyshev_admissible_k(100.0, "real", 1e-14) > 146


def test_chebyshev_admissible_rejects_unknown_axis():
    # "Real" used to be taken as the imaginary axis (k = 25 where the real
    # axis needs 26)
    assert chebyshev_admissible_k(10.0, "real", 1e-8) == 26
    assert chebyshev_admissible_k(10.0, "imaginary", 1e-8) == 25
    for gh in (10.0, 0):
        for axis in ("Real", "imag", None):
            with pytest.raises(StructuralError):
                chebyshev_admissible_k(gh, axis, 1e-8)


def _admissible_k_reference(gamma_h, axis, epsilon):
    """chebyshev_admissible_k as it was with its own Bessel sequence."""
    if gamma_h == 0:
        return 1
    kind = "I" if axis == "real" else "J"
    n_hi = int(2 * gamma_h) + 200
    seq = polyexp._bessel_sequence(kind, n_hi, gamma_h)
    for k in range(1, n_hi):
        if 2.0 * abs(seq[k + 1]) < epsilon:
            return k
    raise AssertionError("no admissible k")


@pytest.mark.parametrize("axis", ["real", "imaginary"])
def test_admissible_k_reads_the_dropped_coefficient_of_the_plane(axis):
    # a_{k+1} = 2 f_{k+1} exactly, from the same seeds and recurrence
    for gh in (0, 1e-3, 0.213, 1, 10, 27.27, 100, 499, 500):
        for eps in (1e-4, 1e-8, 1e-12, 1e-16):
            assert chebyshev_admissible_k(gh, axis, eps) == _admissible_k_reference(gh, axis, eps)


def test_admissible_k_leaves_the_plane_cache_alone():
    # its planes of order 2 Gamma*h + 200 would push out the solve's
    before = polyexp._chebyshev_plane.cache_info()
    chebyshev_admissible_k(123.25, "imaginary", 1e-10)
    after = polyexp._chebyshev_plane.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)


def test_admissible_tail_is_suppressed():
    for gh, axis, eps in [(20.0, "imaginary", 1e-12), (35.0, "real", 1e-10)]:
        k = chebyshev_admissible_k(gh, axis, eps)
        kind = "J" if axis == "imaginary" else "I"
        assert 2.0 * abs(bessel_seq(kind, k + 1, gh)) < eps
        assert 2.0 * abs(bessel_seq(kind, k, gh)) >= eps


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once it runs past `seconds`, so a
    call that never returns fails instead of holding the suite."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    lambda: taylor_cutoff(math.inf, 0.1, 1e-8),
    lambda: taylor_cutoff(1.0, math.inf, 1e-8),
    lambda: taylor_cutoff(1e200, 1e200, 1e-8),  # finite, but lambda * h overflows
    lambda: taylor_cutoff(math.nan, 0.1, 1e-8),
    lambda: taylor_cutoff(1.0, math.nan, 1e-8),
    lambda: taylor_cutoff(1e306, 1.0, 1e-8),  # finite, but the cutoff k overflows
    lambda: chebyshev_admissible_k(math.nan, "imaginary", 1e-8),
    lambda: chebyshev_admissible_k(math.inf, "real", 1e-8),
    lambda: chebyshev_admissible_k(1e6, "imaginary", 1e-8),
    lambda: chebyshev_admissible_k(polyexp.BESSEL_X_MAX * (1 + 1e-15), "imaginary", 1e-8),
], ids=["taylor-inf-lambda", "taylor-inf-h", "taylor-overflow", "taylor-nan-lambda",
        "taylor-nan-h", "taylor-k-overflow", "chebyshev-nan", "chebyshev-inf", "chebyshev-1e6",
        "chebyshev-past-max"])
def test_out_of_range_cutoff_and_bessel_input_is_refused_within_a_second(call):
    with _within(1.0), pytest.raises(RangeError):
        call()


@pytest.mark.parametrize("call", [
    lambda spec: factorize(spec),
    lambda spec: truncation_zeros(spec),
    lambda spec: eval_summed(1j, 1.0, spec),
], ids=["factorize", "truncation_zeros", "eval_summed"])
def test_gamma_h_past_the_bessel_range_is_refused_on_every_chebyshev_path(call):
    spec = SeriesSpec("chebyshev", 40, gamma_scale=math.nextafter(polyexp.BESSEL_X_MAX, math.inf),
                      axis="imaginary")
    with pytest.raises(RangeError, match="beyond supported range"):
        call(spec)


def test_taylor_cutoff_of_a_huge_lambda_h_returns_within_a_second():
    with _within(1.0):
        k = taylor_cutoff(1e12, 1.0, 1e-8)
    log_term = lambda j: j * math.log(1e12) - math.lgamma(j + 2)  # noqa: E731
    assert log_term(k) < math.log(1e-8) <= log_term(k - 1)


def test_taylor_cutoff_search_matches_the_step_by_step_count():
    rng = np.random.default_rng(31)
    for lh, eps in zip(10 ** rng.uniform(-3, 3.3, 500), 10 ** rng.uniform(-17, -0.05, 500)):
        k = 1
        while k * math.log(lh) - math.lgamma(k + 2) >= math.log(eps):
            k += 1
        assert taylor_cutoff(float(lh), 1.0, float(eps)) == k, (lh, eps)


def test_admissible_k_takes_the_largest_supported_gamma_h():
    k = chebyshev_admissible_k(polyexp.BESSEL_X_MAX, "imaginary", 1e-8)
    assert 2.0 * abs(bessel_seq("J", k + 1, polyexp.BESSEL_X_MAX)) < 1e-8


def test_taylor_to_chebyshev_k_ratio():
    # matched reach Gamma*h = 100 at epsilon = 1e-14
    ratio = taylor_cutoff(100.0, 1.0, 1e-14) / chebyshev_admissible_k(100.0, "imaginary", 1e-14)
    assert 2.0 <= ratio <= 2.8


def test_suggest_gamma():
    diag = np.diag([3.0, -1.0, 0.5]).astype(complex)
    assert suggest_gamma(diag) == pytest.approx(1.01 * 3.0, rel=1e-15)
    assert suggest_gamma(None, eigvals=[-4.0, 2.0]) == pytest.approx(1.01 * 4.0, rel=1e-15)


@pytest.mark.parametrize("h_matrix, eigvals, error, message", [
    (np.zeros((0, 0)), None, DimensionError, "h_matrix must hold at least one index"),
    (np.ones(3), None, DimensionError, "h_matrix must be square"),
    (np.ones((2, 3)), None, DimensionError, "h_matrix must be square"),
    ([[math.inf]], None, StructuralError, "no finite Gamma"),
    ([[1e308, 1e308], [1e308, 1e308]], None, StructuralError, "no finite Gamma"),
    (None, [math.nan], StructuralError, "no finite Gamma"),
    (None, [], DimensionError, "at least one eigenvalue"),
])
def test_suggest_gamma_refuses_what_it_cannot_use(h_matrix, eigvals, error, message):
    with pytest.raises(error, match=message):
        suggest_gamma(h_matrix, eigvals=eigvals)


def test_suggest_gamma_checks_the_bound_not_the_matrix(monkeypatch):
    h_total = build_xxz(XxzConfig(L=6)).total
    want = suggest_gamma(h_total)
    scans = []
    real = np.isfinite

    def recording(a, *args, **kwargs):
        scans.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", recording)
    assert suggest_gamma(h_total) == want
    assert suggest_gamma(h_total, eigvals=[-4.0, 2.0]) == pytest.approx(1.01 * 4.0, rel=1e-15)
    assert scans == []


def test_every_public_name_resolves():
    for module in (trotterkit, polyexp):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


# ---------------------------------------------------------------------------
# spec validation


def test_series_spec_validation():
    with pytest.raises(StructuralError):
        SeriesSpec("pade", 10)
    with pytest.raises(StructuralError):
        SeriesSpec("taylor", 0)
    with pytest.raises(StructuralError):
        SeriesSpec("chebyshev", 10)  # missing gamma_scale
    with pytest.raises(StructuralError):
        SeriesSpec("chebyshev", 10, gamma_scale=-1.0, axis="real")
    with pytest.raises(StructuralError):
        SeriesSpec("chebyshev", 10, gamma_scale=1.0, axis="diagonal")
    # the spec keys the zero cache: a non-integer k, a non-finite h or a
    # Gamma*h that is not finite and > 0 would name a file or reach a solve
    for k in (5.5, 5.0, True):
        with pytest.raises(StructuralError):
            SeriesSpec("taylor", k)
    for h in (math.inf, math.nan):
        with pytest.raises(StructuralError):
            SeriesSpec("taylor", 5, h=h)
    for scale, h in [(5.0, -1.0), (5.0, 0.0), (math.inf, 1.0), (math.nan, 1.0), (1e300, 1e10)]:
        with pytest.raises(StructuralError):
            SeriesSpec("chebyshev", 20, gamma_scale=scale, axis="imaginary", h=h)
    spec = SeriesSpec("chebyshev", 10, gamma_scale=4.0, axis="real", h=0.5)
    assert spec.gamma_h == 2.0


@pytest.mark.parametrize("family, field, value", [
    ("taylor", "h", "x"), ("taylor", "h", True),
    pytest.param("taylor", "h", 10**400, id="taylor-h-int-past-float"),
    ("chebyshev", "h", None), ("chebyshev", "gamma_scale", "x"),
    ("chebyshev", "gamma_scale", True), ("chebyshev", "gamma_scale", 1j),
])
def test_series_spec_refuses_a_non_number(family, field, value):
    fields = {"h": 0.5} if family == "taylor" else {"gamma_scale": 4.0, "axis": "real", "h": 0.5}
    with pytest.raises(StructuralError, match=f"'{field}'"):
        SeriesSpec(family, 10, **dict(fields, **{field: value}))


@pytest.mark.parametrize("fields", [
    {"gamma_scale": 2.0}, {"axis": "real"}, {"gamma_scale": 2.0, "axis": "imaginary"},
    {"gamma_scale": math.nan},
], ids=["gamma_scale", "axis", "both", "nan-gamma_scale"])
def test_taylor_spec_refuses_the_chebyshev_fields(fields):
    # a Taylor truncation reads neither, so neither is accepted and ignored
    with pytest.raises(StructuralError, match="gamma_scale"):
        SeriesSpec("taylor", 5, **fields)


@pytest.mark.parametrize("k, gh, axis", [(302, 100.0, "imaginary"), (304, 20.0, "real")])
def test_chebyshev_plane_correctly_rounded(k, gh, axis):
    a = polyexp._chebyshev_plane(SeriesSpec("chebyshev", k, gamma_scale=gh, axis=axis))
    assert len(a) == k + 2
    with mp.workdps(50):
        for i, got in enumerate(a):
            want = mp.besselj(i, gh) if axis == "imaginary" else mp.besseli(i, gh)
            want = want if i == 0 else 2 * want
            if abs(want) > 1e-290:
                assert abs(mp.mpf(got) - want) <= 2e-16 * abs(want), i


def test_chebyshev_plane_high_order_tiny_argument():
    # a_i underflows to zero from i = 80 on; nothing overflows on the way.
    a = polyexp._chebyshev_plane(SeriesSpec("chebyshev", 200, gamma_scale=0.005, axis="real"))
    assert len(a) == 202
    assert all(math.isfinite(m) for m in a)
    assert a[0] == pytest.approx(1.0, rel=1e-5)


def test_chebyshev_plane_range_gate():
    spec = SeriesSpec("chebyshev", 10, gamma_scale=501.0, axis="real", h=1.0)
    with pytest.raises(RangeError):
        polyexp._chebyshev_plane(spec)


# ---------------------------------------------------------------------------
# zeros


def test_taylor_k1_zero_is_minus_one():
    (z,) = truncation_zeros(SeriesSpec("taylor", 1))
    assert abs(z + 1.0) < 1e-14


@pytest.mark.parametrize("family", ["taylor", "chebyshev"])
def test_truncation_zeros_range_errors(family):
    fields = {} if family == "taylor" else {"gamma_scale": 20.0, "axis": "imaginary"}
    with pytest.raises(StructuralError, match="k must be an integer >= 1"):
        truncation_zeros(SeriesSpec(family, 0, **fields))
    with pytest.raises(RangeError, match=r"k must be in \[1, 400\], got 401"):
        truncation_zeros(SeriesSpec(family, TAYLOR_K_MAX + 1, **fields))


@pytest.mark.parametrize("k", [25, 52])
def test_taylor_zeros_conjugate_closed(k, zeros_cache):
    zs = truncation_zeros(SeriesSpec("taylor", k), cache_dir=zeros_cache)
    assert len(zs) == k
    as_pairs = sorted((z.real, z.imag) for z in zs)
    conjugated = sorted((z.real, -z.imag) for z in zs)
    assert as_pairs == conjugated  # exact, not approximate
    n_real = sum(1 for z in zs if z.imag == 0.0)
    assert n_real == (1 if k % 2 else 0)


@pytest.mark.parametrize("k", [25, 52])
def test_taylor_zeros_are_accurate(k, zeros_cache):
    # Newton correction at each double-rounded zero is at rounding level.
    zs = truncation_zeros(SeriesSpec("taylor", k), cache_dir=zeros_cache)
    with mp.workdps(60):
        coeffs = [mp.mpf(1) / mp.factorial(i) for i in range(k + 1)]
        for z in zs:
            zz = mp.mpc(z)
            p = coeffs[-1]
            dp = mp.mpf(0)
            for c in reversed(coeffs[:-1]):
                dp = dp * zz + p
                p = p * zz + c
            assert abs(p / dp) < 1e-13 * max(1.0, abs(z))


def test_zero_solvers_raise_convergence_error(monkeypatch):
    # With a zero residual contract no solve can pass, and no number of
    # digits meets it: both solvers must give up and report the residual
    # reached.
    monkeypatch.setattr(polyexp, "ZERO_RESIDUAL_PER_K", 0.0)
    monkeypatch.setattr(polyexp, "_memo", {})
    with pytest.raises(ConvergenceError) as exc:
        polyexp._zeros_mp(SeriesSpec("taylor", 5))
    assert math.isfinite(exc.value.worst_residual)
    spec = SeriesSpec("chebyshev", 6, gamma_scale=2.0, axis="imaginary")
    with pytest.raises(ConvergenceError) as exc:
        polyexp._zeros_mp(spec)
    assert math.isfinite(exc.value.worst_residual)


def _recorded_solves(monkeypatch, family):
    """Lists that record the zero solves of family from here on: each
    set-up's (digits, started from given zeros), each pass's (failed check,
    worst residual), and each refinement."""
    setups, passes, refined = [], [], []
    setup, certified = polyexp._SETUPS[family], polyexp._newton_certified
    refine = polyexp._refined_guesses

    def recording_setup(spec, dps, zeros=None):
        setups.append((dps, zeros is not None))
        return setup(spec, dps, zeros)

    def recording_pass(*args):
        got = certified(*args)
        passes.append((got[2], got[1]))
        return got

    monkeypatch.setitem(polyexp._SETUPS, family, recording_setup)
    monkeypatch.setattr(polyexp, "_newton_certified", recording_pass)
    monkeypatch.setattr(polyexp, "_refined_guesses", lambda *a: refined.append(1) or refine(*a))
    return setups, passes, refined


def _measured_raise(dps, failed_pass, k):
    """The digits the solve's rule gives after failed_pass, a (failed
    check, worst residual) of `_recorded_solves`."""
    return dps + math.ceil(math.log10(failed_pass[1] / (1e-25 * k))) + 2


@pytest.mark.parametrize("base", [12, 16, 20])
def test_a_solve_that_fails_at_its_digits_sets_up_again_at_the_digits_it_measured(
        monkeypatch, base):
    # Taylor k = 20 needs about 23 digits: below that both passes miss
    # Newton's stop rule, and their worst residual measures the digits
    # missing; the one set-up at those digits, started from the refined
    # guesses, finds the zeros the 46-digit solve finds and refines nothing
    spec = SeriesSpec("taylor", 20)
    want = polyexp._sort_conjugate_closed(polyexp._zeros_mp(spec)[0])
    monkeypatch.setattr(polyexp, "_working_dps", lambda spec: base)
    setups, passes, refined = _recorded_solves(monkeypatch, "taylor")
    zs, _, dps = polyexp._zeros_mp(spec)
    assert polyexp._sort_conjugate_closed(zs) == want
    assert [failed for failed, _ in passes] == ["Newton missed its stop rule"] * 2 + [None]
    assert setups == [(base, False), (dps, True)] and refined == [1]
    assert dps == _measured_raise(base, passes[1], 20) == 25


def test_a_raised_set_up_that_fails_refines_nothing_and_gives_up(monkeypatch):
    # every pass misses the contract by a factor 2000, its roots all
    # converged: the solve sets up once more, 4 + 2 digits up, from the
    # first pass's own guesses, refines nothing, and reports the raised
    # pass's residual
    monkeypatch.setattr(polyexp, "_newton_certified",
                        lambda k, *args: ([], 2e-22 * k, "residual above contract"))
    setups, passes, refined = _recorded_solves(monkeypatch, "taylor")
    spec = SeriesSpec("taylor", 5)
    with pytest.raises(ConvergenceError) as exc:
        polyexp._zeros_mp(spec)
    base = polyexp._working_dps(spec)
    assert setups == [(base, False), (base + 6, True)] and refined == [] and len(passes) == 2
    assert exc.value.worst_residual == 2e-22 * 5


# Imaginary-axis truncations below their admissible k that a second solve
# at 1.5 times the working digits used to rescue, with the digits their
# failed pass measures, and the digest (as in PINNED_ZEROS) and
# overall_scale of the zeros that second solve gave.  (48, 70) is off the
# grid the three others came from.
FAR_BELOW_ADMISSIBLE = {
    (24, 100.0): (77, "fa67bca6dc96c80f9e4c1289f1e34cef42f4e97d867f81f5b44879fbdbbfff4d",
                  "-0x1.4f29d82f7252ep-6"),
    (80, 150.0): (93, "38ef8f50bdef6d231bf557c6174034fd9650112394e73d6aa265cef1ac3e21b6",
                  "-0x1.27d6685e693c1p-5"),
    (80, 172.0): (92, "3a7ce353e1bf0f78454ac0b774e54b737e089cb290e142637f407164cd284fa7",
                  "-0x1.4fb207d8f7a56p-5"),
    (48, 70.0): (85, "c06dd32bb785355d051c1b43c9f2803335b1713091ae899ff33ae98ddf4d691e",
                 "0x1.bc2415fbe7a86p-4"),
}


@pytest.mark.parametrize("k, gh", list(FAR_BELOW_ADMISSIBLE), ids=str)
def test_a_truncation_below_its_admissible_k_solves_at_the_digits_its_failed_pass_measures(
        monkeypatch, k, gh):
    # at the base digits the guessed pass misses the contract on the
    # residual floor, its roots all converged; one set-up from its own
    # guesses, at the digits it measures, meets it with the zeros and
    # scale the second solve gave, and nothing is refined
    spec = SeriesSpec("chebyshev", k, gamma_scale=gh, axis="imaginary")
    monkeypatch.setattr(polyexp, "_memo", {})
    setups, passes, refined = _recorded_solves(monkeypatch, "chebyshev")
    fact = factorize(spec)
    base = polyexp._working_dps(spec)
    digits, digest, scale = FAR_BELOW_ADMISSIBLE[k, gh]
    assert base == 65 + k // 4
    assert [failed for failed, _ in passes] == ["residual above contract", None]
    assert setups == [(base, False), (digits, True)] and refined == []
    assert _measured_raise(base, passes[0], k) == digits
    text = " ".join(f"{z.real.hex()},{z.imag.hex()}" for z in fact.zeros)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert fact.overall_scale.hex() == scale


def test_the_residual_floor_falls_as_ten_to_the_minus_digits():
    # the worst residual w of a guessed pass that misses the contract tol
    # measures the floor: from the same guesses, two digits short of
    # log10(w / tol) more neither meets it, and two digits over it does
    spec = SeriesSpec("chebyshev", 48, gamma_scale=70.0, axis="imaginary")
    dps, tol = polyexp._working_dps(spec), 1e-25 * 48

    def guessed_pass(dps, zeros=None):
        with mp.workdps(dps):
            guesses, scale, bits, kernel, slack = polyexp._SETUPS["chebyshev"](spec, dps, zeros)
            _, worst, failed = polyexp._newton_certified(48, guesses, scale, bits, kernel, slack)
        return [w * scale for w in guesses], worst, failed

    start, worst, failed = guessed_pass(dps)
    assert failed == "residual above contract"
    missing = math.ceil(math.log10(worst / tol))
    assert missing > 4
    assert guessed_pass(dps + missing - 2, start)[2] == "residual above contract"
    assert guessed_pass(dps + missing + 2, start)[2] is None


def test_working_digits_are_the_base_rule_alone():
    def dps(k, gh=None, axis=None):
        family = "taylor" if gh is None else "chebyshev"
        return polyexp._working_dps(SeriesSpec(family, k, gamma_scale=gh, axis=axis))

    assert [dps(k) for k in (1, 52, 400)] == [41, 54, 141]
    assert dps(40, 20.0, "real") == 65 + 10 + int(0.44 * 20.0) + 10
    assert dps(100, 80.0, "imaginary") == dps(100, 100.0, "imaginary") == 65 + 25
    # below and far above the admissible k alike: the solve raises them
    assert dps(52, 100.0, "imaginary") == 65 + 13
    assert dps(24, 100.0, "imaginary") == 65 + 6
    assert dps(304, 100.0, "imaginary") == 65 + 76


def _to_mp(a, bits):
    return mp.mpc(mp.mpf((a[0], -bits)), mp.mpf((a[1], -bits)))


def _plane_clenshaw(coeffs, w, sign):
    """sum c_i t_i(w) and its w-derivative by Clenshaw's recurrence in
    mpmath, over t_0 = 1, t_1 = w, t_{i+1} = 2w t_i - sign t_{i-1} (any
    coefficient count >= 1): the reference for the fixed-point kernel."""
    b1 = b2 = d1 = d2 = mp.mpc(0)
    for c in coeffs[:0:-1]:
        b1, b2, d1, d2 = 2 * w * b1 - sign * b2 + c, b1, 2 * b1 + 2 * w * d1 - sign * d2, d1
    return w * b1 - sign * b2 + coeffs[0], b1 + w * d1 - sign * d2


@pytest.mark.parametrize("k", [5, 52, 152, TAYLOR_K_MAX])
def test_fixed_horner_matches_mpmath(k):
    # P(u) = p(k u) and P'(u) = k p'(k u) at the solve's fraction bits
    # against the mpmath evaluator (Horner in z, p' = p - z^k/k!) at 3x the
    # working digits, on the unit disk and on |u| in [0.27, 0.3], where the
    # zeros nearest the origin sit and u^k < 2^-bits for k >= 52.  p is
    # within 2(k + 1) units of 2^-bits (truncations and floored
    # coefficients); p' = k (p - T) with T = c_k u^k is within k times that,
    # 3 units more for T's floored c_k and final shift, plus |T| units for
    # T's relative rounding: relatively about 2^-bits wherever |p'| >> k^2
    # 2^-bits.  A u^k taken at the plain fraction bits loses T there: p' off
    # by 2e-32 relatively at k = 52, 0.05 at k = 152 and 1.3 at k = 400.
    dps = polyexp._working_dps(SeriesSpec("taylor", k))
    bits = polyexp._fraction_bits(dps)
    c = [(k**i << bits) // math.factorial(i) for i in range(k + 1)]
    rng = np.random.default_rng(k)
    radii = np.concatenate([rng.uniform(0, 1, 20), rng.uniform(0.27, 0.3, 20)])
    with mp.workdps(3 * dps):
        fac = [1 / mp.factorial(i) for i in range(k + 1)]
        unit = mp.ldexp(1, -bits)
        for r, t in zip(radii, rng.uniform(-math.pi, math.pi, 40)):
            # random low bits, as along a Newton run: a u from doubles has
            # only 53 significant bits, and its |u|^2 needs far fewer than
            # the 2*bits fraction bits the kernel keeps
            w = tuple(polyexp._fixed(x, bits) + int.from_bytes(rng.bytes(bits // 16), "little")
                      for x in (r * math.cos(t), r * math.sin(t)))
            p, dp = polyexp._fixed_horner(c, w, bits)
            z = k * _to_mp(w, bits)
            want = mp.mpc(fac[k])
            for i in range(k - 1, -1, -1):
                want = want * z + fac[i]
            t_k = z**k * fac[k]
            want_d = k * (want - t_k)
            assert abs(_to_mp(p, bits) - want) <= 2 * (k + 1) * unit
            assert abs(_to_mp(dp, bits) - want_d) <= k * (2 * (k + 1) + 3 + abs(t_k)) * unit


@pytest.mark.parametrize("k, gh, axis", [(6, 2.0, "real"), (40, 20.0, "real"), (40, 0.5, "real"),
                                         (40, 20.0, "imaginary"), (40, 0.5, "imaginary"),
                                         (100, 80.0, "imaginary")])
def test_fixed_clenshaw_matches_mpmath(k, gh, axis):
    # p and the identity's p' of the working-plane kernel, at the solve's
    # fraction bits with guard bits for each point, against the truncation
    # of the exact Bessel coefficients and its derivative in mpmath at 3x
    # the working digits, out to 1.5 k / Gamma*h, where the Taylor-like zeros
    # lie: p within the kernel's bound (k + 1)(2 + |w|) rho^k + 3 units of
    # 2^-bits, and p' within Gamma*h ((k + 1)(5 + |w|) rho^k + 4) + 1 (p's
    # bound, the floored a_k and a_{k+1} against |u_k| + |u_{k-1}| <= 2 (k +
    # 1) rho^k, and u_k, u_{k-1} within (k + 1) rho^k units each)
    spec = SeriesSpec("chebyshev", k, gamma_scale=gh, axis=axis)
    sign = -1 if axis == "imaginary" else 1
    dps = polyexp._working_dps(spec)
    num, den = gh.as_integer_ratio()
    gh_ratio = (num, den.bit_length() - 1)
    rng = np.random.default_rng(k)
    with mp.workdps(3 * dps):
        a = polyexp._chebyshev_plane(spec, 3 * dps)
        reach = 1.5 * max(1.0, k / gh)
        for re, im in zip(rng.uniform(-reach, reach, 20), rng.uniform(-reach, reach, 20)):
            x = complex(re, im)
            w = 1j * x if sign < 0 else x
            bits = polyexp._fraction_bits(dps) + polyexp._clenshaw_guard_bits(a[:-1], [x])
            fixed_a = [polyexp._fixed(m, bits) for m in a]
            fw = (polyexp._fixed(w.real, bits), polyexp._fixed(w.imag, bits))
            p, dp = polyexp._fixed_chebyshev(fixed_a, fw, bits, sign, gh_ratio)
            want, want_d = _plane_clenshaw(a[:-1], _to_mp(fw, bits), sign)
            rho = 2 ** polyexp._clenshaw_log_rho([x]) * (1 + 1e-12)
            unit = mp.ldexp(1, -bits)
            assert abs(_to_mp(p, bits) - want) <= ((k + 1) * (2 + abs(w)) * rho**k + 3) * unit
            bound = gh * ((k + 1) * (5 + abs(w)) * rho**k + 4) + 1
            assert abs(_to_mp(dp, bits) - want_d) <= bound * unit


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 20, 21])
def test_taylor_zeros_match_polyroots(k):
    # mpmath's polyroots (Durand-Kerner) is an independent solver
    zs, _, _ = polyexp._zeros_mp(SeriesSpec("taylor", k))
    with mp.workdps(50):
        coeffs = [1 / mp.factorial(i) for i in range(k, -1, -1)]
        ref = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
    key = lambda z: (round(z.real, 6), round(z.imag, 6))
    for got, want in zip(sorted(zs, key=key), sorted((complex(r) for r in ref), key=key)):
        assert abs(got - want) <= 4e-16 * abs(want)


def test_szego_guesses_need_no_refinement(monkeypatch):
    # the Szego curve is coarse at small k, but its polished guesses certify
    # directly, each representative in one Newton step and the evaluation
    # that meets the stop rule; at k = 304 a few take a third where the
    # polish's constant is rounded in double precision
    def refine(*args):
        raise AssertionError("refinement stage reached")

    evaluations = []
    newton = polyexp._newton_fixed

    def counted(kernel, *args):
        evaluations.append(0)

        def counting(w):
            evaluations[-1] += 1
            return kernel(w)

        return newton(counting, *args)

    monkeypatch.setattr(polyexp, "_refined_guesses", refine)
    monkeypatch.setattr(polyexp, "_newton_fixed", counted)
    for k in [*range(1, 21), 52, 152, 304]:
        evaluations.clear()
        zs, worst, _ = polyexp._zeros_mp(SeriesSpec("taylor", k))
        assert len(zs) == k and worst < 1e-25 * k
        assert len(evaluations) == (k + 1) // 2 and max(evaluations) <= 2


@pytest.mark.parametrize("k", [5, 52, 152])
def test_polished_szego_guesses_are_the_zeros_in_double(k):
    zs = np.array(polyexp._zeros_mp(SeriesSpec("taylor", k))[0])
    guesses = polyexp._szego_guesses(k)
    nearest = [np.argmin(np.abs(zs - g)) for g in guesses]
    assert sorted(nearest) == list(range(k))
    for g, i in zip(guesses, nearest):
        assert abs(g - zs[i]) <= 1e-14 * abs(zs[i])


@pytest.mark.parametrize("spoil", [
    lambda ws: [np.nan, *ws[1:]],                     # not finite: no run stops
    lambda ws: [ws[0], ws[0] * (1 + 1e-6), *ws[2:]],  # two runs end at one zero
    lambda ws: [ws[0].conjugate(), *ws[1:]],          # a run ends below the axis
    lambda ws: [ws[1], ws[0], *ws[2:]],               # two runs swap places
])
def test_a_failed_polish_returns_the_guesses_whole(monkeypatch, spoil):
    given = []  # the w-plane guesses `_szego_guesses` hands to `_polished`
    with monkeypatch.context() as m:
        m.setattr(polyexp, "_polished", lambda ws, k: given.append(ws) or ws)
        polyexp._szego_guesses(7)
    (ws,) = given
    assert np.all(polyexp._polished(ws, 7) != ws)
    bad = np.array(spoil(ws), dtype=complex)
    assert polyexp._polished(bad, 7) is bad


def test_unpolished_szego_guesses_certify_the_same_zeros(monkeypatch):
    # a failed polish costs Newton steps, never the solve or its zeros
    want = [polyexp._zeros_mp(SeriesSpec("taylor", k))[0] for k in (7, 52)]
    monkeypatch.setattr(polyexp, "_polished", lambda ws, k: ws)
    assert [polyexp._zeros_mp(SeriesSpec("taylor", k))[0] for k in (7, 52)] == want


def _duplicate_guesses(monkeypatch):
    """Taylor k = 5 guesses with two upper-half guesses next to one zero:
    independent Newton takes both to it and misses another zero."""
    true = sorted(polyexp._szego_guesses(5), key=lambda z: z.imag)
    (z1,) = [z for z in true if z.imag > 0 and abs(z) < 3]
    near = z1 * 1.001
    guesses = [z for z in true if z.imag == 0] + [z1, near, z1.conjugate(), near.conjugate()]
    monkeypatch.setattr(polyexp, "_szego_guesses", lambda k: guesses)


def test_duplicate_convergence_fails_the_certificate(monkeypatch):
    # the residual contract holds, but the disks overlap; with the
    # refinement stage switched off nothing repairs the guesses
    _duplicate_guesses(monkeypatch)
    monkeypatch.setattr(polyexp, "_refined_guesses", lambda p_and_dp, guesses, bits: guesses)
    with pytest.raises(ConvergenceError, match="disks not disjoint") as exc:
        polyexp._zeros_mp(SeriesSpec("taylor", 5))
    assert exc.value.worst_residual < 1e-25 * 5


def test_refined_guesses_repair_duplicate_convergence(monkeypatch):
    want = polyexp._sort_conjugate_closed(polyexp._zeros_mp(SeriesSpec("taylor", 5))[0])
    _duplicate_guesses(monkeypatch)
    assert polyexp._sort_conjugate_closed(polyexp._zeros_mp(SeriesSpec("taylor", 5))[0]) == want


def test_overresolved_chebyshev_is_solved_from_refined_guesses(monkeypatch):
    # k = 60 at Gamma*h = 20 on the real axis: the colleague guesses put
    # two zero pairs on the real axis (there are no real zeros), so the
    # first Newton pass fails its certificate and the refinement stage runs
    calls = []
    refine = polyexp._refined_guesses
    monkeypatch.setattr(polyexp, "_refined_guesses", lambda *a: calls.append(1) or refine(*a))
    spec = SeriesSpec("chebyshev", 60, gamma_scale=20.0, axis="real")
    zs, worst, _ = polyexp._zeros_mp(spec)
    assert calls == [1] and worst < 1e-25 * 60
    assert len(polyexp._sort_conjugate_closed(zs)) == 60
    with mp.workdps(120):
        a = polyexp._chebyshev_plane(spec, 120)[:-1]
        for z in zs:
            # Newton correction at each double-rounded zero is at rounding level
            p, dp = _plane_clenshaw(a, mp.mpc(z) / 20, 1)
            assert abs(p / dp) * 20 < 1e-14 * abs(z)


@pytest.mark.parametrize("contract, runs, certified", [(1e-25, 3, True), (0.0, 1, False)])
def test_newton_pass_stops_at_first_unconverged_representative(monkeypatch, contract, runs,
                                                                certified):
    # Taylor k = 5 has three representatives (one real zero, two upper);
    # a zero contract means a zero stop step, which no Newton run meets, so
    # the pass gives up after the first representative's run, with the
    # finite residual of the point where that run stopped
    monkeypatch.setattr(polyexp, "ZERO_RESIDUAL_PER_K", contract)
    newton = polyexp._newton_fixed
    seen = []
    monkeypatch.setattr(polyexp, "_newton_fixed", lambda *a: seen.append(a) or newton(*a))
    k = 5
    bits = polyexp._fraction_bits(60)
    c = [(k**i << bits) // math.factorial(i) for i in range(k + 1)]
    guesses = [z / k for z in polyexp._szego_guesses(k)]
    zs, worst, failed = polyexp._newton_certified(
        k, guesses, k, bits, lambda w: polyexp._fixed_horner(c, w, bits), 3 * (k + 1)
    )
    assert len(seen) == runs and (failed is None) is certified
    assert 0 < worst < math.inf
    assert failed in (None, "Newton missed its stop rule")


@pytest.mark.parametrize("attr, value, reason", [
    ("ZERO_RESIDUAL_PER_K", 0.0, "Newton missed its stop rule"),
    ("_residual", lambda value, slack, scale: 1.0, "residual above contract"),
    ("_representatives", lambda guesses: None, "guesses not conjugate-symmetric"),
])
def test_zero_solve_failure_names_the_failed_check(monkeypatch, attr, value, reason):
    # a zero contract stops no Newton run; a residual of 1 stops them all
    # but misses the contract; guesses without a conjugate split leave no
    # pass to run (disjointness: the duplicate-guess test)
    monkeypatch.setattr(polyexp, attr, value)
    with pytest.raises(ConvergenceError, match=f"taylor zeros k=5: {reason}: residual"):
        polyexp._zeros_mp(SeriesSpec("taylor", 5))


@pytest.mark.parametrize("spec", [SeriesSpec("taylor", k) for k in (1, 2, 5, 12, 21, 52, 152)] + [
    SeriesSpec("chebyshev", k, gamma_scale=gh, axis=axis)
    for k, gh, axis in [(6, 2.0, "real"), (16, 2.5, "real"), (40, 20.0, "real"),
                        (40, 20.0, "imaginary"), (40, 0.5, "real"), (100, 80.0, "imaginary"),
                        (51, 27.27, "imaginary"), (40, 0.21304262029217305, "imaginary")]
], ids=str)
def test_newton_residual_bounds_the_kernel_polynomials(spec):
    # The residual each Newton run returns, (|p| + allowance) / |p'| from
    # the kernel's last evaluation, bounds |p/p'| at that point of the
    # kernel's own polynomial (its fixed-point coefficients read as exact
    # numbers: k^i / i! in u = z/k, or the real a_0..a_k in the Chebyshev
    # working plane), evaluated in mpmath at 3x the working digits; the
    # fixed-point |p| alone truncates to 0 at many representatives.  The
    # Chebyshev (40, 0.213) spec is over-resolved: 290 guard bits.
    k, dps = spec.k, polyexp._working_dps(spec)
    with mp.workdps(dps):
        guesses, scale, bits, kernel, slack = polyexp._SETUPS[spec.family](spec, dps)
        if spec.family == "taylor":
            c = [(k**i << bits) // math.factorial(i) for i in range(k + 1)]
        else:
            c = [polyexp._fixed(m, bits) for m in polyexp._chebyshev_plane(spec, dps)[:-1]]
    stop = polyexp._fixed(1e-25 * k * 1e-2 / scale, bits)
    sign = -1 if spec.axis == "imaginary" else 1
    with mp.workdps(3 * dps):
        coeffs = [mp.ldexp(ci, -bits) for ci in c]
        for g in polyexp._representatives(guesses):
            w0 = (polyexp._fixed(g.real, bits), polyexp._fixed(g.imag, bits))
            w, res, converged = polyexp._newton_fixed(kernel, w0, bits, stop, slack, scale)
            assert converged and res < 1e-25 * k
            u = _to_mp(w, bits)
            if spec.family == "taylor":
                p, dp = mp.polyval(coeffs[::-1], u, derivative=True)
            else:
                p, dp = _plane_clenshaw(coeffs, u, sign)
            assert res >= scale * abs(p / dp) / (1 + 1e-12)


def _requested_step(value, bits):
    """The fixed-point Newton step p/p' of one kernel evaluation value."""
    (pr, pi), (dr, di) = value
    den = dr * dr + di * di
    return ((pr * dr + pi * di) << bits) // den, ((pi * dr - pr * di) << bits) // den


@pytest.mark.parametrize("spec", [SeriesSpec("taylor", k) for k in (1, 5, 52, 152)] + [
    SeriesSpec("chebyshev", 40, gamma_scale=20.0, axis="real"),
    SeriesSpec("chebyshev", 100, gamma_scale=80.0, axis="imaginary"),
], ids=str)
def test_newton_evaluates_nothing_after_its_stop_rule(spec):
    # In every run each kernel call but the last requests a step of at least
    # stop, and the next call is at the point that step reaches; the last
    # call requests a step below stop, which is not taken, and the run
    # returns that call's point and residual.  So the kernel is called once
    # per step taken plus once.  A run that never meets the rule (stop 0)
    # makes NEWTON_MAX_STEPS calls and returns the point of the last.
    k, dps = spec.k, polyexp._working_dps(spec)
    with mp.workdps(dps):
        guesses, scale, bits, kernel, slack = polyexp._SETUPS[spec.family](spec, dps)
    stop = polyexp._fixed(1e-25 * k * 1e-2 / scale, bits)
    for i, g in enumerate(polyexp._representatives(guesses)):
        calls = []

        def recorded(w):
            calls.append((w, kernel(w)))
            return calls[-1][1]

        w0 = (polyexp._fixed(g.real, bits), polyexp._fixed(g.imag, bits))
        w, res, converged = polyexp._newton_fixed(recorded, w0, bits, stop, slack, scale)
        assert converged
        for (at, value), (nxt, _) in zip(calls, calls[1:]):
            step = _requested_step(value, bits)
            assert step[0] ** 2 + step[1] ** 2 >= stop**2
            assert nxt == (at[0] - step[0], at[1] - step[1])
        step = _requested_step(calls[-1][1], bits)
        assert step[0] ** 2 + step[1] ** 2 < stop**2
        assert w == calls[-1][0] and res == polyexp._residual(calls[-1][1], slack, scale)
        if i == 0:
            calls = []
            w, res, converged = polyexp._newton_fixed(recorded, w0, bits, 0, slack, scale)
            assert not converged and len(calls) == polyexp.NEWTON_MAX_STEPS
            assert w == calls[-1][0] and res == polyexp._residual(calls[-1][1], slack, scale)


def test_representatives_snap_and_pair():
    guesses = [complex(-2.0, 3e-17), complex(1, 2), complex(1, -2), complex(5, -1e-16)]
    reps = polyexp._representatives(guesses)
    assert reps == [complex(-2.0, 0.0), complex(5.0, 0.0), complex(1, 2)]
    assert all(w.imag == 0.0 for w in reps[:2])
    # two guesses above the axis and none below: no symmetric split
    assert polyexp._representatives([complex(1, 2), complex(3, 1)]) is None


def test_line_roots_stay_exactly_real():
    # guesses on the symmetry line are snapped onto it; Newton keeps them there
    cheb = [SeriesSpec("chebyshev", 7, gamma_scale=0.5, axis="real"),
            SeriesSpec("chebyshev", 7, gamma_scale=2.0, axis="imaginary")]
    for zs, _, _ in [polyexp._zeros_mp(s) for s in [SeriesSpec("taylor", 21)] + cheb]:
        assert sum(1 for z in zs if z.imag == 0.0) % 2 == 1
        assert polyexp._sort_conjugate_closed(zs)


def test_szego_curve_convergence(zeros_cache):
    # Scaled zeros approach |w e^{1 - w}| = 1; the two zeros nearest w = 1
    # converge slowest and are excluded, as the remainder term there decays
    # only like k^{-1/2}.
    devs = []
    for k in (25, 50, 100, 200):
        zs = truncation_zeros(SeriesSpec("taylor", k), cache_dir=zeros_cache)
        ws = sorted((z / k for z in zs), key=lambda w: abs(w - 1.0))[2:]
        devs.append(max(abs(abs(w * cmath.exp(1.0 - w)) - 1.0) for w in ws))
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] < 0.05


def test_zero_modulus_floor(zeros_cache):
    # min |z| / k decreases toward W(1/e) = 0.27846... (the Szego curve's
    # crossing of the negative real axis), so that is the honest floor.
    floor = 0.27846
    for k in (25, 50, 100, 200):
        zs = truncation_zeros(SeriesSpec("taylor", k), cache_dir=zeros_cache)
        assert min(abs(z) for z in zs) > floor * k


def test_plan_factors_vanish_at_the_zeros(zeros_cache):
    # each zero z is a root of its group's factor 1 + c1 z/k (+ c2 (z/k)^2)
    fact = factorize(SeriesSpec("taylor", 25), cache_dir=zeros_cache)
    for z in fact.zeros:
        u = z / 25
        assert min(abs(1 + sum(c * u ** (j + 1) for j, c in enumerate(g.coeffs)))
                   for g in fact.groups) < 1e-13


# ---------------------------------------------------------------------------
# zero files


def _file_header(family, k, gh=None, axis=None):
    return {"family": family, "k": k, "gamma_h": None if gh is None else float(gh).hex(),
            "axis": axis}


def _no_solve(spec, start=None):
    raise AssertionError(f"zero solve for {spec}")


def _no_guesses(*args):
    raise AssertionError("zero guesses made")


def _as_written(zs):
    """The zeros field of the zero file a solve writes for the zeros zs."""
    return [[f"{z.real:.35g}", f"{z.imag:.35g}"] for z in zs]


def test_a_file_one_unit_off_starts_the_solve_and_is_rewritten(tmp_path, monkeypatch):
    # the k = 2 zeros -1 +- i stored one unit in the last place off: the
    # solve starts from them, with one set-up at the base digits and no
    # guesses, serves the zeros it certifies, and rewrites the file
    seeded = [[-1.0, 1.0 + 2.0**-52], [-1.0, -1.0 - 2.0**-52]]
    path = tmp_path / "taylor_2.json"
    path.write_text(json.dumps(dict(_file_header("taylor", 2),
                                    zeros=[[repr(a), repr(b)] for a, b in seeded])))
    monkeypatch.setattr(polyexp, "_memo", {})
    monkeypatch.setattr(polyexp, "_szego_guesses", _no_guesses)
    setups, passes, refined = _recorded_solves(monkeypatch, "taylor")
    zs = truncation_zeros(SeriesSpec("taylor", 2), cache_dir=str(tmp_path))
    assert zs == [complex(-1.0, 1.0), complex(-1.0, -1.0)]
    assert setups == [(41, True)] and [failed for failed, _ in passes] == [None]
    assert refined == []
    assert json.loads(path.read_text()) == dict(_file_header("taylor", 2), zeros=_as_written(zs))


@pytest.mark.parametrize("k, gh", [(24, 100.0), (48, 70.0)], ids=str)
def test_a_raised_spec_reads_its_file_back_after_one_raise(tmp_path, monkeypatch, k, gh):
    # the stored zeros of a spec whose solve raised its digits start a pass
    # that misses the contract at the base digits, their roots all
    # converged; one raise from them meets it, at the digits of the cold
    # solve, with nothing refined, no guesses and the file left as it is
    spec = SeriesSpec("chebyshev", k, gamma_scale=gh, axis="imaginary")
    monkeypatch.setattr(polyexp, "_memo", {})
    want = factorize(spec, cache_dir=str(tmp_path)).zeros
    (path,) = tmp_path.iterdir()
    written = path.read_text()
    monkeypatch.setattr(polyexp, "_memo", {})
    monkeypatch.setattr(polyexp, "_colleague_guesses", _no_guesses)
    setups, passes, refined = _recorded_solves(monkeypatch, "chebyshev")
    assert factorize(spec, cache_dir=str(tmp_path)).zeros == want
    base, digits = polyexp._working_dps(spec), FAR_BELOW_ADMISSIBLE[k, gh][0]
    assert [failed for failed, _ in passes] == ["residual above contract", None]
    assert setups == [(base, True), (digits, True)] and refined == []
    assert _measured_raise(base, passes[0], k) == digits
    assert path.read_text() == written


def test_memo_is_kept_per_cache_file(tmp_path, monkeypatch):
    # zeros met in one directory are still written to the next, and a
    # directory that has met them needs neither its file nor a solve
    monkeypatch.setattr(polyexp, "_memo", {})
    a, b = tmp_path / "a", tmp_path / "b"
    want = truncation_zeros(SeriesSpec("taylor", 3), cache_dir=str(a))
    assert truncation_zeros(SeriesSpec("taylor", 3), cache_dir=str(b)) == want
    assert [p.name for p in b.iterdir()] == ["taylor_3.json"]
    (a / "taylor_3.json").unlink()
    monkeypatch.setattr(polyexp, "_zeros_mp", _no_solve)
    assert truncation_zeros(SeriesSpec("taylor", 3), cache_dir=str(a)) == want


def test_without_a_directory_zeros_are_kept_in_the_memo_only(tmp_path, monkeypatch):
    # no directory, no file, neither in the working directory nor under
    # HOME: a second call is served from the memo
    monkeypatch.setattr(polyexp, "_memo", {})
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    want = truncation_zeros(SeriesSpec("taylor", 4))
    monkeypatch.setattr(polyexp, "_zeros_mp", _no_solve)
    assert truncation_zeros(SeriesSpec("taylor", 4)) == want
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", [
    SeriesSpec("taylor", 1), SeriesSpec("taylor", 12), SeriesSpec("taylor", 52),
    SeriesSpec("chebyshev", 16, gamma_scale=2.5, axis="real"),
    SeriesSpec("chebyshev", 60, gamma_scale=20.0, axis="real"),
    SeriesSpec("chebyshev", 40, gamma_scale=20.0, axis="imaginary"),
], ids=str)
def test_a_file_is_left_as_it_is_until_a_pair_moves(tmp_path, monkeypatch, spec):
    # a file the solver wrote starts a solve that makes no guesses and
    # serves the zeros it holds, so it is not written again ...
    monkeypatch.setattr(polyexp, "_memo", {})
    want = factorize(spec, cache_dir=str(tmp_path)).zeros
    (path,) = tmp_path.iterdir()
    written = path.read_text()
    monkeypatch.setattr(polyexp, "_memo", {})
    with monkeypatch.context() as m:
        m.setattr(polyexp, "_szego_guesses", _no_guesses)
        m.setattr(polyexp, "_colleague_guesses", _no_guesses)
        assert factorize(spec, cache_dir=str(tmp_path)).zeros == want
    assert path.read_text() == written
    # ... and once a zero moves by 1e-3 (the last zero: a pair's lower
    # half, moved with its partner, if there is one), the zeros served are
    # the same and the file is rewritten with them
    data = json.loads(written)
    for pair in data["zeros"][-2 if data["zeros"][-1][1] != "0" else -1:]:
        pair[0] = repr(float(pair[0]) + 1e-3)
    path.write_text(json.dumps(data))
    monkeypatch.setattr(polyexp, "_memo", {})
    assert factorize(spec, cache_dir=str(tmp_path)).zeros == want
    assert path.read_text() == written


@pytest.mark.parametrize("solver", ["certified-newton-1", "certified-newton-2"])
@pytest.mark.parametrize("spec", [
    SeriesSpec("taylor", 52), SeriesSpec("chebyshev", 40, gamma_scale=20.0, axis="imaginary"),
], ids=str)
def test_a_legacy_file_starts_the_solve_and_is_not_rewritten(tmp_path, monkeypatch, solver,
                                                              spec):
    # the files of the solvers that recorded their version and residual,
    # and from certified-newton-2 their digits, hold the spec's fields too:
    # read back, they make no guesses, serve the cold solve's zeros and
    # stay as they are
    monkeypatch.setattr(polyexp, "_memo", {})
    want = factorize(spec, cache_dir=str(tmp_path)).zeros
    (path,) = tmp_path.iterdir()
    data = dict(json.loads(path.read_text()), solver=solver, residual=1e-40)
    if solver == "certified-newton-2":
        data["digits"] = polyexp._working_dps(spec)
    legacy = json.dumps(data)
    path.write_text(legacy)
    monkeypatch.setattr(polyexp, "_memo", {})
    monkeypatch.setattr(polyexp, "_szego_guesses", _no_guesses)
    monkeypatch.setattr(polyexp, "_colleague_guesses", _no_guesses)
    assert factorize(spec, cache_dir=str(tmp_path)).zeros == want
    assert path.read_text() == legacy


def test_corrupt_cache_file_recomputed(tmp_path):
    path = tmp_path / "taylor_3.json"
    path.write_text("{ not json !")
    zs = truncation_zeros(SeriesSpec("taylor", 3), cache_dir=str(tmp_path))
    # 1 + z + z^2/2 + z^3/6 has one real root and a conjugate pair
    assert len(zs) == 3
    assert sum(1 for z in zs if z.imag == 0.0) == 1
    data = json.loads(path.read_text())  # rewritten with a valid payload
    assert data == dict(_file_header("taylor", 3), zeros=_as_written(zs))
    reloaded = [complex(float(re), float(im)) for re, im in data["zeros"]]
    assert sorted((z.real, z.imag) for z in reloaded) == sorted((z.real, z.imag) for z in zs)


def _recomputed(path, payload, solve, monkeypatch):
    """Write payload to path, solve with an empty memo, and return the zeros
    and the file read back."""
    monkeypatch.setattr(polyexp, "_memo", {})
    path.write_text(json.dumps(payload))
    zs = solve()
    return zs, json.loads(path.read_text())


@pytest.mark.parametrize("spec", [
    SeriesSpec("chebyshev", k, gamma_scale=gh, axis=axis)
    for k, gh in [(6, 2.0), (20, 10.0), (40, 20.0)] for axis in ("real", "imaginary")
] + [SeriesSpec("chebyshev", 100, gamma_scale=80.0, axis="imaginary")], ids=str)
def test_load_setup_from_the_zeros_matches_the_solve(spec):
    # rho over the certified zeros (x = z / Gamma*h, times -i on the
    # imaginary axis) gives a solve started from them the fraction bits and
    # allowance the solve took from the colleague guesses
    dps = polyexp._working_dps(spec)
    zs, _, _ = polyexp._zeros_mp(spec)
    with mp.workdps(dps):
        _, _, bits, _, slack = polyexp._chebyshev_setup(spec, dps)
        _, _, load_bits, _, load_slack = polyexp._chebyshev_setup(spec, dps, zs)
    assert (load_bits, load_slack) == (bits, slack)


CORRUPTIONS = ["nan", "inf", "too_few", "too_many", "not_closed", "overlapping", "far", "k",
               "moved"]


def _corrupted_file_recomputed(tmp_path, monkeypatch, spec, corruption):
    """Write spec's zeros with one corruption to its zero file (a zero set
    with one real zero first, then pairs) and check that a read serves the
    cold solve's zeros bit for bit and rewrites the file with them."""
    good = polyexp._sort_conjugate_closed(polyexp._zeros_mp(spec)[0])
    zeros = [[repr(z.real), repr(z.imag)] for z in good]
    cheb = spec.family == "chebyshev"
    header = (_file_header("chebyshev", spec.k, spec.gamma_h, spec.axis) if cheb
              else _file_header("taylor", spec.k))
    payload = dict(header, zeros=zeros)
    if corruption in ("nan", "inf"):
        zeros[0][0] = corruption
    elif corruption == "too_few":
        del zeros[1:3]
    elif corruption == "too_many":
        zeros += zeros[1:3]
    elif corruption == "not_closed":
        zeros[1][1] = repr(float(zeros[1][1]) * (1 + 1e-15))
    elif corruption == "overlapping":
        # conjugate-closed, but one real zero twice
        zeros[:3] = [["-1.0", "0.0"], ["-1.0", "0.0"], ["-3.0", "0.0"]]
    elif corruption == "far":
        # one conjugate pair 1e300 times too far out: past what the
        # set-up's floats hold
        for pair in zeros[1:3]:
            pair[:] = [repr(float(x) * 1e300) for x in pair]
    elif corruption == "moved":
        # one conjugate pair moved by 1e-3: still closed, and its disks of
        # radius k |p/p'| stay disjoint
        for pair in zeros[1:3]:
            pair[0] = repr(float(pair[0]) + 1e-3)
    else:
        payload["k"] = spec.k - 1
    name = f"chebyshev_{spec.k}_{spec.gamma_h.hex()}_{spec.axis}" if cheb else f"taylor_{spec.k}"
    zs, data = _recomputed(tmp_path / f"{name}.json", payload,
                           lambda: factorize(spec, cache_dir=str(tmp_path)).zeros, monkeypatch)
    assert [(z.real.hex(), z.imag.hex()) for z in zs] == [
        (z.real.hex(), z.imag.hex()) for z in good]
    assert data == dict(header, zeros=_as_written(good))


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupted_cache_file_recomputed(tmp_path, monkeypatch, corruption):
    _corrupted_file_recomputed(tmp_path, monkeypatch, SeriesSpec("taylor", 5), corruption)


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupted_chebyshev_cache_file_recomputed(tmp_path, monkeypatch, corruption):
    # a start sets the guard bits and allowance up from its own zeros, the
    # corrupted ones too
    spec = SeriesSpec("chebyshev", 9, gamma_scale=5.0, axis="imaginary")
    _corrupted_file_recomputed(tmp_path, monkeypatch, spec, corruption)


def test_gamma_h_mismatched_cache_file_recomputed(tmp_path, monkeypatch):
    # the file named for Gamma*h = 1.2500001 holds the zeros of 1.25: its
    # header tells them apart
    near = SeriesSpec("chebyshev", 6, gamma_scale=1.2500001, axis="real")
    want = truncation_zeros(near, cache_dir=str(tmp_path / "ref"))
    path = tmp_path / f"chebyshev_6_{(1.2500001).hex()}_real.json"
    payload = dict(_file_header("chebyshev", 6, 1.25, "real"),
                   zeros=[[repr(z.real), repr(z.imag)] for z in want])
    zs, data = _recomputed(path, payload,
                           lambda: truncation_zeros(near, cache_dir=str(tmp_path)), monkeypatch)
    assert zs == want
    assert data["gamma_h"] == (1.2500001).hex()


def test_nearby_gamma_h_get_their_own_zeros(tmp_path):
    # keyed on the exact Gamma*h: a rounded key returned the zeros of 10.0
    # for 10.0000004, off by ~2.6e-7
    a = truncation_zeros(SeriesSpec("chebyshev", 20, gamma_scale=10.0, axis="imaginary"),
                        cache_dir=str(tmp_path))
    b = truncation_zeros(SeriesSpec("chebyshev", 20, gamma_scale=10.0000004, axis="imaginary"),
                        cache_dir=str(tmp_path))
    moved = max(abs(x - y) for x, y in zip(a, b))
    assert 1e-8 < moved < 1e-5


def test_nearby_gamma_h_keep_their_own_cache_files(tmp_path, monkeypatch):
    # Gamma*h one ulp apart, as two eigh runs can give: each is solved cold
    # once into its own file, then started from it, and neither overwrites
    # the other
    specs = [SeriesSpec("chebyshev", 6, gamma_scale=gh, axis="real")
             for gh in (1.25, math.nextafter(1.25, 2.0))]
    solves = []
    solve = polyexp._zeros_mp
    monkeypatch.setattr(polyexp, "_zeros_mp",
                        lambda spec, start=None: solves.append((spec, start is None))
                        or solve(spec, start))
    for spec in specs + specs:
        monkeypatch.setattr(polyexp, "_memo", {})
        truncation_zeros(spec, cache_dir=str(tmp_path))
    assert solves == [(spec, True) for spec in specs] + [(spec, False) for spec in specs]
    assert len(list(tmp_path.glob("chebyshev_6_*_real.json"))) == 2


def test_wrong_length_cache_file_recomputed(tmp_path):
    (tmp_path / "taylor_4.json").write_text(json.dumps([["-1.0", "0.0"], ["-2.0", "0.0"]]))
    zs = truncation_zeros(SeriesSpec("taylor", 4), cache_dir=str(tmp_path))
    assert len(zs) == 4
    with mp.workdps(40):
        for z in zs:
            val = mp_exp_poly(4, z, dps=40)
            assert abs(val) < 1e-12


def test_uncreatable_cache_directory_still_returns_the_zeros(tmp_path, monkeypatch):
    # a directory under a regular file cannot be made, whatever the user's
    # permissions; the zeros are solved and returned, and nothing is written
    (tmp_path / "file").write_text("")
    blocked = tmp_path / "file" / "zeros"
    monkeypatch.setattr(polyexp, "_memo", {})
    zs = truncation_zeros(SeriesSpec("taylor", 6), cache_dir=str(blocked))
    assert zs == polyexp._sort_conjugate_closed(polyexp._zeros_mp(SeriesSpec("taylor", 6))[0])
    assert not blocked.exists()


def test_chebyshev_cache_filename(tmp_path):
    spec = SeriesSpec("chebyshev", 2, gamma_scale=1.25, axis="imaginary", h=1.0)
    zs = truncation_zeros(spec, cache_dir=str(tmp_path))
    assert len(zs) == 2
    assert (tmp_path / f"chebyshev_2_{(1.25).hex()}_imaginary.json").exists()


# The zeros (sha256 of the float.hex parts of each zero, "re,im" joined by
# spaces) and overall_scale of the specs scripts/cli_outputs.sh solves cold,
# its real-axis k = 40 solve left out, and of the (51, 27.27) spec that
# perfbench's state-L10 solves cold.
PINNED_ZEROS = {
    SeriesSpec("taylor", 1): (
        "2b2653580743ebf19186f2d13417f9cbf7abbae868fdb9d6d1e9358a5b204a88",
        "0x1.0000000000000p+0"),
    SeriesSpec("taylor", 5): (
        "252897eed67b310330d569354246c2419801ad5fb9c4d94cd4d5f87244232b0d",
        "0x1.0000000000000p+0"),
    SeriesSpec("taylor", 20): (
        "9653e650a587c988813584d23e163db4413918e92cd3db4f1bcf172bf68cafed",
        "0x1.0000000000000p+0"),
    SeriesSpec("taylor", 21): (
        "c5f2c906a7e7f362de123d5aeabf5cf1a3511a94ea69d16545f9971f9b640c20",
        "0x1.0000000000000p+0"),
    SeriesSpec("taylor", 52): (
        "fed0f08d9795d03ea14f91317f1e10ec69b1b0116f0235b85abde3f7d0058389",
        "0x1.0000000000000p+0"),
    SeriesSpec("taylor", 152): (
        "e5da741b4036e70209155f065b90f66177e04d8665dac9653f1672225fa708ca",
        "0x1.0000000000000p+0"),
    SeriesSpec("taylor", TAYLOR_K_MAX): (
        "fb01248f99d1c5bd59db85bda49ae1f58cdc4075d73040fc10f9de667714f699",
        "0x1.0000000000000p+0"),
    SeriesSpec("chebyshev", 20, gamma_scale=10.0, axis="imaginary"): (
        "08ef9100bc8365a78d8eff4b5b06a4cc1e6fb3d5d21df710298d46c1684350c4",
        "0x1.ffffcecf41564p-1"),
    SeriesSpec("chebyshev", 16, gamma_scale=2.5, axis="real"): (
        "953596db7efc6919493931786ec6d3edbcd95fc46c0821520810546fc2f91fa7",
        "0x1.0000000000054p+0"),
    SeriesSpec("chebyshev", 100, gamma_scale=80.0, axis="imaginary"): (
        "22f300781213b1f0aff6944ea6a576598a2d7779098598f8bd3224a1b12c6c50",
        "0x1.ffffa2bb1c333p-1"),
    SeriesSpec("chebyshev", 51, gamma_scale=27.27, axis="imaginary"): (
        "c538ef5edfa1d117171c7c9b3ad01d7e0447521c292ec12dc6b8e177fb7ee94e",
        "0x1.ffffffff637cep-1"),
    SeriesSpec("chebyshev", 40, gamma_scale=0.21304262029217305, axis="imaginary"): (
        "56b4e72465b32a670e202aefb72d746337d79bc61f7a3ab59016e5b25e9c3506",
        "0x1.0000000000000p+0"),
}


@pytest.mark.parametrize("spec", list(PINNED_ZEROS), ids=str)
def test_cold_zeros_match_the_pinned_digest(tmp_path, monkeypatch, spec):
    # A cold solve gives the pinned zeros and scale bit for bit, and the
    # file it writes, read back, serves them again and stays as it is.
    digest, scale = PINNED_ZEROS[spec]
    monkeypatch.setattr(polyexp, "_memo", {})
    fact = factorize(spec, cache_dir=str(tmp_path))
    text = " ".join(f"{z.real.hex()},{z.imag.hex()}" for z in fact.zeros)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert fact.overall_scale.hex() == scale
    (path,) = tmp_path.iterdir()
    written = path.read_text()
    assert json.loads(written) == dict(
        _file_header(spec.family, spec.k, spec.gamma_scale, spec.axis),
        zeros=_as_written(fact.zeros))
    monkeypatch.setattr(polyexp, "_memo", {})
    assert factorize(spec, cache_dir=str(tmp_path)).zeros == fact.zeros
    assert path.read_text() == written


@pytest.mark.parametrize("spec", [s for s in PINNED_ZEROS if s.family == "chebyshev"], ids=str)
def test_colleague_guesses_need_no_refinement(monkeypatch, spec):
    # the real colleague matrix's eigenvalues certify directly on every
    # pinned Chebyshev spec, the over-resolved (40, 0.213) one too
    def refine(*args):
        raise AssertionError("refinement stage reached")

    monkeypatch.setattr(polyexp, "_refined_guesses", refine)
    zs, worst, _ = polyexp._zeros_mp(spec)
    assert len(zs) == spec.k and worst < 1e-25 * spec.k


# ---------------------------------------------------------------------------
# factorization structure


def test_factorize_taylor_scale_is_one(zeros_cache):
    fact = factorize(SeriesSpec("taylor", 25), cache_dir=zeros_cache)
    assert fact.overall_scale == 1.0
    assert len(fact.zeros) == 25
    assert sum(len(g.coeffs) for g in fact.groups) == 25


def test_factorize_chebyshev_scale_matches_p0(zeros_cache):
    # The product form is scale * prod(1 - z/z_i); at z = 0 that is scale,
    # so scale must equal P(0) = a_0 + sum_i a_i t_i(0).
    spec = SeriesSpec("chebyshev", 1, gamma_scale=2.0, axis="imaginary", h=1.0)
    fact = factorize(spec, cache_dir=zeros_cache)
    with mp.workdps(40):
        assert fact.overall_scale == pytest.approx(float(mp.besselj(0, 2.0)), rel=1e-13)
    # and for an admissible k it approximates exp(0) = 1
    gh = 20.0
    k = chebyshev_admissible_k(gh, "imaginary", 1e-12)
    spec2 = SeriesSpec("chebyshev", k, gamma_scale=gh, axis="imaginary", h=1.0)
    fact2 = factorize(spec2, cache_dir=zeros_cache)
    assert abs(fact2.overall_scale - 1.0) < 1e-9


def test_chebyshev_k1_zero_matches_coefficients(zeros_cache):
    spec = SeriesSpec("chebyshev", 1, gamma_scale=2.0, axis="imaginary", h=1.0)
    fact = factorize(spec, cache_dir=zeros_cache)
    a = polyexp._chebyshev_plane(spec)
    # a_0 + a_1 w vanishes at w = -a_0 / a_1, z = w * Gamma*h
    assert fact.zeros[0] == pytest.approx(-a[0] / a[1] * 2.0, rel=1e-13)


def hand_built(axis, zero):
    """A k = 20 Chebyshev spec on the segment Gamma h = 2, the given zero as
    its only one, and its dropped coefficient a_21; on the real axis the
    truncation tail leaves the whole segment [-2, 2] checked."""
    spec = SeriesSpec("chebyshev", 20, gamma_scale=2.0, axis=axis, h=1.0)
    return spec, (zero,), polyexp._chebyshev_plane(spec)[-1]


@pytest.mark.parametrize("axis, zero", [
    ("real", -1.5 + 0j), ("real", 0.5 + 0j), ("real", 2.0 + 0j), ("imaginary", 1.5j),
])
def test_zero_on_the_segment_is_refused(axis, zero):
    with pytest.raises(StructuralError, match="approximation segment"):
        polyexp._check_zero_clearance(*hand_built(axis, zero))


@pytest.mark.parametrize("axis, zero", [
    ("real", 0.5 + 1e-12j),  # just off the axis
    ("real", 2.5 + 0j),  # on the axis past Gamma h
    ("real", -2.0 - 5e-324j),  # the least step off the axis at the segment's end
    ("imaginary", 1.5 + 0j),
])
def test_zero_off_the_segment_passes(axis, zero):
    polyexp._check_zero_clearance(*hand_built(axis, zero))


def test_r_valid_formula(zeros_cache):
    fact = factorize(SeriesSpec("taylor", 52), cache_dir=zeros_cache)
    expect = (1e-13 * math.exp(math.lgamma(54))) ** (1.0 / 53.0)
    assert r_valid(fact) == pytest.approx(expect, rel=1e-12)
    assert 11.0 < r_valid(fact) < 12.5
    assert r_valid(fact) < min(abs(z) for z in fact.zeros)


def test_r_valid_of_a_chebyshev_factorization_is_its_half_width(zeros_cache):
    fact = factorize(SeriesSpec("chebyshev", 12, gamma_scale=4.0, axis="imaginary", h=0.5),
                     cache_dir=zeros_cache)
    assert r_valid(fact) == 2.0


def gamma_for(zeros, k):
    """The factor coefficients gamma_i = -k / z_i in the zeros' order: the
    reference `_plan` replaced, kept here as it stood."""
    return [-k / z for z in zeros]


def order_factors(gammas):
    """The greedy plan over the groups of gammas, as it stood before
    `_plan`: the reference `test_plan_is_the_order_factors_plan_bit_for_bit`
    compares against, with its refusal of a gamma without its exact
    conjugate next to it."""
    gam = list(gammas)
    groups, ties = [], []
    i = 0
    while i < len(gam):
        g = gam[i]
        if g.imag == 0:
            groups.append(polyexp.Group("lin", (g.real,)))
        elif i + 1 < len(gam) and gam[i + 1] == g.conjugate():
            groups.append(polyexp.Group("quad", (2 * g.real, abs(g) ** 2)))
        else:
            raise StructuralError(f"gammas not conjugate-closed: no partner for index {i}")
        ties.append((abs(g.imag), i))
        i += len(groups[-1].coeffs)
    total = sum(g.coeffs[0] for g in groups)
    remaining = list(range(len(groups)))
    plan, cum, consumed = [], 0.0, 0
    while remaining:
        best = min(remaining, key=lambda j: (
            abs((cum + groups[j].coeffs[0]) - total * (consumed + len(groups[j].coeffs)) / len(gam)),
            *ties[j]))
        remaining.remove(best)
        g = groups[best]
        plan.append(g)
        cum += g.coeffs[0]
        consumed += len(g.coeffs)
    return tuple(plan)


def plan_bits(groups):
    return [(g.kind, tuple(c.hex() for c in g.coeffs)) for g in groups]


# the Chebyshev specs of scripts/zero_grid.py's quick grid that factorize:
# certified at the base digits, refined, raised, and refined and raised
QUICK_CHEBYSHEV = [
    (6, 2.0, "real"), (16, 2.5, "real"), (20, 10.0, "imaginary"), (40, 20.0, "real"),
    (40, 20.0, "imaginary"), (40, 0.21304262029217305, "imaginary"), (100, 80.0, "imaginary"),
    (152, 100.0, "imaginary"), (52, 100.0, "imaginary"),
    (60, 20.0, "real"), (100, 5.0, "real"), (100, 80.0, "real"), (152, 172.0, "real"),
    (64, 1.0, "imaginary"), (80, 10.0, "imaginary"),
    (24, 100.0, "imaginary"), (48, 70.0, "imaginary"), (80, 150.0, "imaginary"),
    (80, 172.0, "imaginary"), (72, 80.0, "imaginary"), (128, 172.0, "imaginary"),
    (172, 7.5, "imaginary"),
]


@pytest.mark.parametrize("spec", [SeriesSpec("taylor", k) for k in (*range(1, 61), 152, 304, 400)]
                         + [SeriesSpec("chebyshev", k, gamma_scale=gh, axis=axis)
                            for k, gh, axis in QUICK_CHEBYSHEV], ids=repr)
def test_plan_is_the_order_factors_plan_bit_for_bit(spec, zeros_cache):
    fact = factorize(spec, cache_dir=zeros_cache)
    assert plan_bits(fact.groups) == plan_bits(order_factors(gamma_for(fact.zeros, spec.k)))


def test_plan_golden():
    # zeros -3, -4, -6, -12 at k = 12: gammas 4, 3, 2, 1, exactly
    groups = polyexp._plan([-3.0 + 0j, -4.0 + 0j, -6.0 + 0j, -12.0 + 0j], 12)
    assert [g.kind for g in groups] == ["lin", "lin", "lin", "lin"]
    assert [g.coeffs for g in groups] == [(3.0,), (2.0,), (4.0,), (1.0,)]


def test_plan_groups_conjugate_pairs():
    # zeros -1 and -2 +- i at k = 5: gammas 5 and 2 -+ i, exactly
    groups = polyexp._plan([-1.0 + 0j, -2.0 + 1.0j, -2.0 - 1.0j], 5)
    kinds = sorted(g.kind for g in groups)
    assert kinds == ["lin", "quad"]
    quad = next(g for g in groups if g.kind == "quad")
    assert quad.coeffs == pytest.approx((4.0, 5.0), rel=1e-15)  # (2 Re g, |g|^2)
    assert quad.coeffs[0] == 4.0


NONZERO = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False).filter(lambda x: abs(x) >= 1e-3)


@given(st.lists(NONZERO, max_size=12), st.lists(st.tuples(NONZERO, NONZERO), max_size=6))
def test_property_plan_partitions_input(reals, pairs):
    # reals ascending, then each upper-half zero followed by its conjugate
    uppers = [complex(x, abs(y)) for x, y in pairs]
    zeros = [complex(x, 0.0) for x in sorted(reals)] + [w for z in uppers for w in (z, z.conjugate())]
    k = len(zeros)
    groups = polyexp._plan(zeros, k)
    lins = sorted(c for g in groups if g.kind == "lin" for c in g.coeffs)
    quads = sorted(g.coeffs for g in groups if g.kind == "quad")
    assert lins == sorted((-k / z).real for z in zeros[:len(reals)])
    assert quads == sorted((2 * (-k / z).real, abs(-k / z) ** 2) for z in uppers)


def closed_in_adjacent_pairs(xs):
    """True when xs is its real entries, then each entry above the real
    axis followed at once by its exact conjugate."""
    n_real = sum(x.imag == 0 for x in xs)
    pairs = xs[n_real:]
    return (all(x.imag == 0 for x in xs[:n_real])
            and all(x.imag > 0 for x in pairs[::2])
            and pairs[1::2] == [x.conjugate() for x in pairs[::2]])


# the specs the benchmark's workloads factorize (sweep: chebyshev:40 on the
# L = 8 chain's h grid; state-L10: taylor:52 and chebyshev:51 at Gamma =
# 27.27; cold-start), and a small grid of both families on both axes
SWEEP_GAMMA = 13.63472769869908
CONJUGATE_SPECS = (
    [SeriesSpec("taylor", k) for k in (30, 52, 152, *range(1, 13))]
    + [SeriesSpec("chebyshev", 40, gamma_scale=SWEEP_GAMMA, axis="imaginary", h=2.0**-j)
       for j in range(7)]
    + [SeriesSpec("chebyshev", 51, gamma_scale=27.27, axis="imaginary"),
       SeriesSpec("chebyshev", 100, gamma_scale=80.0, axis="imaginary")]
    + [SeriesSpec("chebyshev", k, gamma_scale=gh, axis=axis)
       for k in (5, 16) for gh in (0.5, 10.0) for axis in ("imaginary", "real")]
)


@pytest.mark.parametrize("spec", CONJUGATE_SPECS, ids=repr)
def test_factorized_zeros_and_gammas_are_conjugate_closed_in_adjacent_pairs(spec, zeros_cache):
    fact = factorize(spec, cache_dir=zeros_cache)
    assert closed_in_adjacent_pairs(list(fact.zeros))
    assert closed_in_adjacent_pairs(gamma_for(fact.zeros, fact.k))


# ---------------------------------------------------------------------------
# evaluation


def test_eval_small_k_scalar_exactness(zeros_cache):
    spec = SeriesSpec("taylor", 5)
    z = 1.7
    want = math.fsum(z**i / math.factorial(i) for i in range(6))
    h_op = np.array([[z]], dtype=complex)
    target = np.eye(1, dtype=complex)
    got_sum = eval_summed(h_op, target, spec)[0, 0]
    got_prod = eval_factorized(h_op, target, factorize(spec, cache_dir=zeros_cache))[0, 0]
    assert got_sum == pytest.approx(want, rel=1e-14)
    assert got_prod == pytest.approx(want, rel=1e-13)


def test_eval_matrix_diagonal_case(zeros_cache):
    spec = SeriesSpec("taylor", 12)
    fact = factorize(spec, cache_dir=zeros_cache)
    zs = np.array([0.3, -1.2, 2.5])
    h_op = np.diag(zs).astype(complex)
    got = eval_factorized(h_op, np.eye(3, dtype=complex), fact)
    for i, z in enumerate(zs):
        want = complex(mp_exp_poly(12, z, dps=40))
        assert got[i, i] == pytest.approx(want, rel=1e-13)
    off = got - np.diag(np.diag(got))
    assert np.linalg.norm(off) < 1e-14


def test_chebyshev_t2_recurrence_path():
    # a_0 T_0 + a_1 T_1(x) + a_2 T_2(x) at x = 0.5: T_2(0.5) = -0.5.
    spec = SeriesSpec("chebyshev", 2, gamma_scale=1.0, axis="real", h=1.0)
    a = polyexp._chebyshev_plane(spec)
    got = eval_summed(np.array([[0.5]], dtype=complex), np.eye(1, dtype=complex), spec)[0, 0]
    want = a[0] + a[1] * 0.5 + a[2] * (-0.5)
    assert got == pytest.approx(want, rel=1e-14)


def mu_basis_summed(h_op, target, spec):
    """The Chebyshev branch of `eval_summed` as it was in the phased basis:
    mu_i = a_i on the real axis and i^i a_i on the imaginary one, summed
    over T_i(x) for x = M / (Gamma*h) or M / (i Gamma*h)."""
    a = polyexp._chebyshev_plane(spec)[:-1]
    if spec.axis == "real":
        mu = list(a)
    else:
        # i^i cycles exactly through (1, i, -1, -i); a complex power would not
        mu = [(1 + 0j, 1j, -1 + 0j, -1j)[i % 4] * m for i, m in enumerate(a)]
    m, t = polyexp._operands(h_op, target)
    denom = (1j * spec.gamma_h) if spec.axis == "imaginary" else spec.gamma_h
    apply_x = polyexp._applier(m, spec.h / denom, t)
    t_prev, t_cur = t, apply_x(t)
    acc = mu[0] * t_prev + mu[1] * t_cur
    for i in range(2, spec.k + 1):
        t_prev, t_cur = t_cur, 2 * apply_x(t_cur) - t_prev
        acc = acc + mu[i] * t_cur
    return acc


@pytest.mark.parametrize("k", [1, 2, 40, 100])
@pytest.mark.parametrize("axis", ["real", "imaginary"])
def test_summed_chebyshev_is_the_mu_basis_sum_bit_for_bit(k, axis):
    # the working-plane recurrence t_{i+1} = 2 w t_i - sign t_{i-1} gives
    # t_i(w) = i^i T_i(x) exactly, so every byte agrees, signed zeros too
    h_total = build_xxz(XxzConfig(L=8)).total
    gamma = suggest_gamma(h_total)
    gen = -1j * h_total if axis == "imaginary" else -h_total
    states = chain_states(8)
    block = np.random.default_rng(47).normal(size=(256, 3)) + 0j
    for h in (0.1, 1.0):
        spec = SeriesSpec("chebyshev", k, gamma_scale=gamma, axis=axis, h=h)
        reach = 0.9 * spec.gamma_h / h
        scalars = [(z, 1.0 + 0j) for z in (0j, 0.3j * reach, -1j * reach, -reach + 0j, 0.6 * reach + 0j)]
        cases = scalars + [(gen, states["neel"]), (gen, states["random"]), (gen, block)]
        for h_op, target in cases:
            got = np.asarray(eval_summed(h_op, target, spec))
            want = np.asarray(mu_basis_summed(h_op, target, spec))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (h, np.shape(target), h_op if np.isscalar(h_op) else "H")


def test_chebyshev_eval_matches_exp_on_imaginary_axis(zeros_cache):
    gh = 20.0
    k = chebyshev_admissible_k(gh, "imaginary", 1e-12)
    spec = SeriesSpec("chebyshev", k, gamma_scale=gh, axis="imaginary", h=1.0)
    fact = factorize(spec, cache_dir=zeros_cache)
    for y in np.linspace(-gh, gh, 21):
        h_op = np.array([[1j * y]], dtype=complex)
        got_prod = eval_factorized(h_op, np.eye(1, dtype=complex), fact)[0, 0]
        got_sum = eval_summed(h_op, np.eye(1, dtype=complex), spec)[0, 0]
        want = cmath.exp(1j * y)
        assert abs(got_prod - want) < 1e-11
        assert abs(got_sum - want) < 1e-11


def test_summed_instability_versus_factorized(zeros_cache):
    # Catastrophic cancellation in plain summation for k > 17: at k = 52 the
    # worst of it sits near z = -15 (terms reach e^15 while the true value
    # is ~e^-15); the factorized product stays at rounding level there.
    k, z = 52, -15.0
    spec = SeriesSpec("taylor", k)
    fact = factorize(spec, cache_dir=zeros_cache)
    h_op = np.array([[z]], dtype=complex)
    got_sum = eval_summed(h_op, np.eye(1, dtype=complex), spec)[0, 0]
    got_prod = eval_factorized(h_op, np.eye(1, dtype=complex), fact)[0, 0]
    with mp.workdps(80):
        want = mp_exp_poly(k, z)
        err_sum = float(abs(got_sum - want) / abs(want))
        err_prod = float(abs(got_prod - want) / abs(want))
    assert err_sum > 1e-6
    assert err_prod < 1e-12


def test_factorized_non_unitarity_bound(zeros_cache):
    # One full-dimension real-time step: k from the cutoff rule at 1e-12.
    split = build_xxz(XxzConfig(L=8))
    lam = float(np.max(np.abs(np.linalg.eigvalsh(split.total))))
    h = 0.25
    k = taylor_cutoff(lam, h, 1e-12)
    fact = factorize(SeriesSpec("taylor", k, h=h), cache_dir=zeros_cache)
    u = eval_factorized(-1j * split.total, np.eye(split.dim, dtype=complex), fact)
    assert np.linalg.norm(u.conj().T @ u - np.eye(split.dim)) < 1e-10


@given(
    k=st.sampled_from([5, 12, 17]),
    radius=st.floats(min_value=0.0, max_value=1.0),
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_property_sum_and_product_agree_inside_validity(zeros_cache, k, radius, angle):
    # For k <= 17 plain summation is still stable, so both evaluations must
    # agree to rounding for |z| <= k/e.
    z = (k / math.e) * math.sqrt(radius) * cmath.exp(1j * angle)
    spec = SeriesSpec("taylor", k)
    fact = factorize(spec, cache_dir=zeros_cache)
    h_op = np.array([[z]], dtype=complex)
    got_sum = eval_summed(h_op, np.eye(1, dtype=complex), spec)[0, 0]
    got_prod = eval_factorized(h_op, np.eye(1, dtype=complex), fact)[0, 0]
    assert abs(got_sum - got_prod) <= 1e-12 * max(abs(got_sum), 1.0)


@given(
    radius=st.floats(min_value=0.0, max_value=1.0),
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_property_pair_modes_agree(zeros_cache, radius, angle):
    # The merged real quadratic factors against the complex linear factors
    # (1 + gamma z / k) they stand for.
    z = 4.0 * math.sqrt(radius) * cmath.exp(1j * angle)
    fact = factorize(SeriesSpec("taylor", 12), cache_dir=zeros_cache)
    quad = eval_factorized(np.array([[z]], dtype=complex), np.eye(1, dtype=complex), fact)[0, 0]
    lin = fact.overall_scale
    for g in (-12 / zi for zi in fact.zeros):
        lin = lin + (g / 12) * z * lin
    assert abs(quad - lin) <= 1e-13 * max(abs(quad), 1.0)


# ---------------------------------------------------------------------------
# applying H to a state through its entries

# bounds the spectrum of every chain below: at most 10 bonds of norm 2 + delta <= 3
GAMMA_ALL = 31.0
ENTRY_CHAINS = [
    (L, b, d) for L in (4, 6, 8, 10) for b in ("open", "periodic") for d in (0.0, 0.3, 1.0)
]


def spy_entry_applier(monkeypatch):
    """Record each entry table (rows, cols, vals, n) that `_applier` builds."""
    seen = []
    real = polyexp._entry_applier

    def spy(rows, cols, vals, n):
        seen.append((rows, cols, vals, n))
        return real(rows, cols, vals, n)

    monkeypatch.setattr(polyexp, "_entry_applier", spy)
    return seen


def record_scans(monkeypatch):
    """Record (function name, shape) of each nonzero count or index."""
    scans = []
    for name in ("count_nonzero", "flatnonzero"):
        real = getattr(np, name)

        def recording(a, *args, _name=name, _real=real, **kwargs):
            scans.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np, name, recording)
    return scans


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def dense_factorized(h_op, target, fact):
    """eval_factorized with every H-apply the dense (H * h) @ v."""
    m = h_op * fact.spec.h
    k = fact.spec.k
    acc = target
    for g in fact.groups:
        if g.kind == "quad":
            c1, c2 = g.coeffs
            mv = m @ acc
            acc = acc + (c1 / k) * mv + (c2 / k**2) * (m @ mv)
        else:
            (c1,) = g.coeffs
            acc = acc + (c1 / k) * (m @ acc)
    if fact.overall_scale != 1.0:
        acc = fact.overall_scale * acc
    return acc


@pytest.mark.parametrize("L, boundary, delta", ENTRY_CHAINS)
def test_entry_path_matches_dense_product(zeros_cache, monkeypatch, L, boundary, delta):
    # the one-column block takes the dense path; the state takes the
    # entries whenever H is sparse enough (every chain here but some L = 4)
    gen = -1j * build_xxz(XxzConfig(L=L, boundary=boundary, delta=delta)).total
    psi = random_state(gen.shape[0], L)
    h = 0.1
    k = chebyshev_admissible_k(GAMMA_ALL * h, "imaginary", 1e-13)
    specs = (SeriesSpec("taylor", 20, h=h),
             SeriesSpec("chebyshev", k, gamma_scale=GAMMA_ALL, axis="imaginary", h=h))
    seen = spy_entry_applier(monkeypatch)
    for spec in specs:
        fact = factorize(spec, cache_dir=zeros_cache)
        for evaluate, arg in ((eval_factorized, fact), (eval_summed, spec)):
            got = evaluate(gen, psi, arg)
            want = evaluate(gen, psi[:, None], arg)[:, 0]
            assert got.shape == psi.shape
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    sparse = np.count_nonzero(gen) <= polyexp.ENTRY_APPLY_MAX_FILL * gen.size
    assert len(seen) == (4 if sparse else 0)
    assert sparse or L == 4


def test_empty_rows_and_the_zero_operator(zeros_cache, monkeypatch):
    # the XX chain has no entry in its first and last rows (|0...0>, |1...1>)
    gen = -1j * build_xxz(XxzConfig(L=6, delta=0.0)).total
    empty = np.flatnonzero(~gen.any(axis=1))
    assert list(empty) == [0, 63]
    psi = np.zeros(64, dtype=complex)
    psi[[0, 5, 63]] = [0.6, 0.1j, 0.8]
    seen = spy_entry_applier(monkeypatch)
    fact = factorize(SeriesSpec("taylor", 20, h=0.1), cache_dir=zeros_cache)
    got = eval_factorized(gen, psi, fact)
    assert np.linalg.norm(got - dense_factorized(gen, psi, fact)) <= 1e-15
    assert got[0] == 0.6 and got[63] == 0.8
    spec = SeriesSpec("chebyshev", 30, gamma_scale=20.0, axis="imaginary")
    fact = factorize(spec, cache_dir=zeros_cache)
    zero = np.zeros((64, 64))
    assert np.array_equal(eval_factorized(zero, psi, fact), fact.overall_scale * psi)
    assert len(seen) == 2


def test_dense_operator_on_a_state_stays_dense(zeros_cache, monkeypatch):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    gen = -1j * (a + a.conj().T) / 16
    psi = random_state(64, 7)
    seen = spy_entry_applier(monkeypatch)
    fact = factorize(SeriesSpec("taylor", 20, h=0.1), cache_dir=zeros_cache)
    scans = record_scans(monkeypatch)
    assert np.array_equal(eval_factorized(gen, psi, fact), dense_factorized(gen, psi, fact))
    eval_summed(gen, psi, fact.spec)
    assert seen == []
    # counted once per call, never indexed
    assert scans == [("count_nonzero", (64, 64))] * 2


def test_operator_and_target_shapes_are_checked(zeros_cache):
    fact = factorize(SeriesSpec("taylor", 5), cache_dir=zeros_cache)
    with pytest.raises(DimensionError, match="square"):
        eval_factorized(np.zeros((3, 4)), np.zeros(3), fact)
    for target in (np.zeros(4), np.zeros((4, 2)), np.array(1.0)):
        with pytest.raises(DimensionError, match="does not match"):
            eval_summed(np.zeros((3, 3)), target, fact.spec)
    for evaluate, arg in ((eval_factorized, fact), (eval_summed, fact.spec)):
        with pytest.raises(DimensionError, match="target must be a state or a block"):
            evaluate(np.eye(3), np.ones((3, 2, 2)), arg)


def test_block_target_never_scans_for_nonzeros(zeros_cache, monkeypatch):
    gen = -1j * build_xxz(XxzConfig(L=6)).total
    spec = SeriesSpec("taylor", 20, h=0.1)
    fact = factorize(spec, cache_dir=zeros_cache)
    scans = record_scans(monkeypatch)
    block = np.eye(64, dtype=complex)[:, :3]
    assert np.array_equal(eval_factorized(gen, block, fact), dense_factorized(gen, block, fact))
    eval_summed(gen, block, spec)
    assert scans == []
    eval_factorized(gen, block[:, 0], fact)
    # a state: the operator is counted and indexed once, then its rows
    assert scans[:2] == [("count_nonzero", (64, 64)), ("flatnonzero", (64, 64))]
    assert all(shape != (64, 64) for _, shape in scans[2:])


# ---------------------------------------------------------------------------
# a state runs on the indices its polynomial can reach


def whole_range_applier(m, factor, t):
    """`_applier` for a matrix without the reach: a state is multiplied
    through all of m's nonzero entries (when they fill at most
    ENTRY_APPLY_MAX_FILL of it) or by the dense gemv, on every index."""
    n = m.shape[0]
    flat = np.flatnonzero(m != 0)
    if t.ndim == 1 and len(flat) <= polyexp.ENTRY_APPLY_MAX_FILL * m.size:
        rows, cols = np.divmod(flat, n)
        vals = m.reshape(-1)[flat] * factor
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        hit = rows[starts]

        def apply(v):
            out = np.zeros(n, np.result_type(vals, v))
            out[hit] = np.add.reduceat(vals * v[cols], starts)
            return out

        return apply
    dense = m * factor
    return lambda v: dense @ v


def whole_range(monkeypatch, evaluate, h_op, target, arg):
    with monkeypatch.context() as patch:
        patch.setattr(polyexp, "_applier", whole_range_applier)
        return evaluate(h_op, target, arg)


def basis_state(dim, index):
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def chain_states(L):
    """The Neel state |1010...>, the domain wall |11..100..0>, one basis
    state and a random state, as vectors over the 2^L basis."""
    dim = 2**L
    return {"neel": basis_state(dim, int("10" * (L // 2), 2)),
            "wall": basis_state(dim, (2**(L // 2) - 1) << (L - L // 2)),
            "basis": basis_state(dim, 5),
            "random": random_state(dim, L)}


@pytest.mark.parametrize("L, boundary, delta", ENTRY_CHAINS)
def test_reach_is_bit_identical_to_the_whole_range(zeros_cache, monkeypatch, L, boundary, delta):
    gen = -1j * build_xxz(XxzConfig(L=L, boundary=boundary, delta=delta)).total
    h = 0.1
    k = chebyshev_admissible_k(GAMMA_ALL * h, "imaginary", 1e-13)
    specs = (SeriesSpec("taylor", 20, h=h),
             SeriesSpec("chebyshev", k, gamma_scale=GAMMA_ALL, axis="imaginary", h=h))
    for spec in specs:
        fact = factorize(spec, cache_dir=zeros_cache)
        for name, psi in chain_states(L).items():
            for evaluate, arg in ((eval_factorized, fact), (eval_summed, spec)):
                got = evaluate(gen, psi, arg)
                want = whole_range(monkeypatch, evaluate, gen, psi, arg)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (name, spec.family, evaluate.__name__)


def test_reach_keeps_every_term_of_a_row(zeros_cache, monkeypatch):
    # row 4 reads columns 0-3 and column 0 is never reached; were its term
    # dropped, np.add.reduceat would sum 1e16 + (1 + 1) where the whole
    # row sums 0 + ((1e16 + 1) + 1)
    m = np.zeros((64, 64))
    m[4, :4] = [1.0, 1e16, 1.0, 1.0]
    t = np.zeros(64)
    t[1:4] = 1.0
    seen = spy_entry_applier(monkeypatch)
    polyexp._applier(m, 1.0, t)
    ((rows, cols, _, n),) = seen
    # row 4 is the one row of the reach with entries, and it keeps all four
    assert list(rows) == [4] * 4 and list(cols) == [0, 1, 2, 3] and n == 64
    spec = SeriesSpec("taylor", 1)
    fact = factorize(spec, cache_dir=zeros_cache)
    for evaluate, arg in ((eval_factorized, fact), (eval_summed, spec)):
        got = evaluate(m, t, arg)
        assert np.array_equal(got, whole_range(monkeypatch, evaluate, m, t, arg))
        assert got[4] == 1e16


def test_reach_on_a_shift(zeros_cache, monkeypatch):
    # the shift e_i -> e_(i+1): k applies to e_0 reach e_0 ... e_k, and the
    # table holds the shift's whole closure from e_0
    shift = np.eye(64, k=-1)
    e0 = basis_state(64, 0)
    seen = spy_entry_applier(monkeypatch)
    polyexp._applier(shift, 1.0, e0)
    ((rows, cols, _, n),) = seen
    # the reach is {0, ..., 63}, of whose rows all but row 0 hold an entry
    assert list(rows) == list(range(1, 64)) and list(cols) == list(range(63)) and n == 64
    fact = factorize(SeriesSpec("taylor", 5), cache_dir=zeros_cache)
    got = eval_factorized(shift, e0, fact)
    assert np.all(got[:6] != 0) and not got[6:].any()
    assert np.array_equal(got, dense_factorized(shift, e0, fact))


@pytest.mark.parametrize("L", (4, 6, 8, 10))
@pytest.mark.parametrize("boundary, delta", [("open", 0.0), ("periodic", 0.3), ("open", 1.0)])
def test_reach_fixed_point_is_a_sector(L, boundary, delta):
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=delta))
    rows, cols = np.nonzero(split.total)
    dim = split.dim
    for sector in split.sectors:
        for i in sector:
            start = np.zeros(dim, dtype=bool)
            start[i] = True
            assert np.array_equal(np.flatnonzero(polyexp._reach(rows, cols, start)), sector)


def test_neel_state_table_holds_its_sector(zeros_cache, monkeypatch):
    split = build_xxz(XxzConfig(L=10))
    psi = chain_states(10)["neel"]
    sector = next(s for s in split.sectors if psi[s].any())
    assert len(sector) == 252
    gen = -1j * split.total
    seen = spy_entry_applier(monkeypatch)
    polyexp._applier(gen, 0.5, psi)
    ((rows, cols, _, n),) = seen
    # the table's rows are exactly the sector, applied to full-length vectors
    assert n == 1024 and np.array_equal(np.unique(rows), sector)
    assert np.isin(cols, sector).all()
    # every entry outside the sector is exactly zero
    outside = np.setdiff1d(np.arange(1024), sector)
    fact = factorize(SeriesSpec("taylor", 52, h=0.5), cache_dir=zeros_cache)
    for got in (eval_factorized(gen, psi, fact), eval_summed(gen, psi, fact.spec)):
        assert got.shape == (1024,) and not got[outside].any()


def test_non_finite_operator_is_refused_on_every_path(zeros_cache):
    gen = -1j * build_xxz(XxzConfig(L=6)).total
    psi = chain_states(6)["neel"]
    # an entry of the all-up sector, which the Neel state never reaches
    assert not polyexp._reach(*np.nonzero(gen), psi != 0)[63]
    spec = SeriesSpec("taylor", 20, h=0.1)
    fact = factorize(spec, cache_dir=zeros_cache)
    dense = np.full((64, 64), 0.01 + 0j)
    for bad in (math.nan, math.inf):
        cases = []
        for op in (gen, dense):
            op = op.copy()
            op[63, 63] = bad
            # a state (through the entries, or dense), a thin and a wide block
            cases += [(op, psi), (op, psi[:, None]), (op, np.eye(64, dtype=complex))]
        cases.append((complex(bad), 1.0 + 0j))
        for op, target in cases:
            for evaluate, arg in ((eval_factorized, fact), (eval_summed, spec)):
                with pytest.raises(StructuralError, match="h_op has a non-finite entry"):
                    evaluate(op, target, arg)


# ---------------------------------------------------------------------------
# the block form: H^2 formed once, one product per group

BLOCK_CHAINS = [
    (L, b, d) for L in (4, 6, 8) for b in ("open", "periodic") for d in (0.0, 0.3, 1.0)
]


def record_products(monkeypatch):
    """Record the operand shapes of each np.matmul call."""
    shapes = []
    real = np.matmul

    def recording(a, b, *args, **kwargs):
        shapes.append((np.shape(a), np.shape(b)))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return shapes


def block_specs(h):
    """Taylor with even and odd k (odd k has a lin group) and imaginary
    Chebyshev, all at step h."""
    k = chebyshev_admissible_k(GAMMA_ALL * h, "imaginary", 1e-13)
    return (SeriesSpec("taylor", 20, h=h), SeriesSpec("taylor", 21, h=h),
            SeriesSpec("chebyshev", k, gamma_scale=GAMMA_ALL, axis="imaginary", h=h))


@pytest.mark.parametrize("L, boundary, delta", BLOCK_CHAINS)
def test_block_form_matches_the_per_apply_loop(zeros_cache, monkeypatch, L, boundary, delta):
    gen = -1j * build_xxz(XxzConfig(L=L, boundary=boundary, delta=delta)).total
    n = gen.shape[0]
    rng = np.random.default_rng(L)
    wide = rng.normal(size=(n, n // 2 + 3)) + 1j * rng.normal(size=(n, n // 2 + 3))
    kinds = set()
    products = record_products(monkeypatch)
    for spec in block_specs(0.1):
        fact = factorize(spec, cache_dir=zeros_cache)
        kinds.update(g.kind for g in fact.groups)
        for block in (np.eye(n, dtype=complex), wide):
            del products[:]
            got = eval_factorized(gen, block, fact)
            # the grouped form ran: H^2, then one product per group
            assert len(products) == 1 + len(fact.groups)
            want = dense_factorized(gen, block, fact)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert kinds == {"quad", "lin"}


def test_block_form_keeps_the_rounding_floor(zeros_cache, monkeypatch):
    # the sweep's polynomial cells at h <= 1/4, where rounding over many
    # steps is a visible share of the error
    plan = BenchPlan(model=XxzConfig(L=8), t_total=10.0,
                     methods=("taylor:30", "chebyshev:40"),
                     h_grid=tuple(1.0 / 2**j for j in range(2, 7)))
    grouped = run_benchmark(plan, cache_dir=zeros_cache)
    monkeypatch.setattr(bench, "eval_factorized", dense_factorized)
    loop = run_benchmark(plan, cache_dir=zeros_cache)
    assert len(grouped) == len(loop) == 10
    for g, d in zip(grouped, loop):
        assert (g.method, g.h) == (d.method, d.h)
        assert g.error <= 1.5 * d.error, (g.method, g.h, g.error, d.error)


def test_block_form_product_counts(zeros_cache, monkeypatch):
    gen = -1j * build_xxz(XxzConfig(L=6)).total
    column = random_state(64, 3)[:, None]
    one = np.array([[-0.7j]])
    # dense_factorized multiplies with @, which the recorder does not see
    products = record_products(monkeypatch)
    for spec in block_specs(0.1):
        fact = factorize(spec, cache_dir=zeros_cache)
        del products[:]
        eval_factorized(gen, np.eye(64, dtype=complex), fact)
        assert products == [((64, 64), (64, 64))] * (1 + len(fact.groups))
        # a one-column block and a 1x1 input keep the loop: k products
        for op, target in ((gen, column), (one, np.eye(1, dtype=complex))):
            del products[:]
            got = eval_factorized(op, target, fact)
            assert len(products) == spec.k
            assert np.array_equal(got, dense_factorized(op, target, fact))


def test_block_form_rule_at_its_boundary(zeros_cache, monkeypatch):
    # n = 16 and Taylor k = 8, four quadratic groups: q (m - 1) > n first
    # holds at m = 6 columns, where H^2 and one product per group replace
    # two products per group
    gen = -1j * build_xxz(XxzConfig(L=4)).total
    fact = factorize(SeriesSpec("taylor", 8, h=0.1), cache_dir=zeros_cache)
    assert [g.kind for g in fact.groups] == ["quad"] * 4
    products = record_products(monkeypatch)
    for m, count in ((5, 8), (6, 1 + 4)):
        del products[:]
        eval_factorized(gen, np.eye(16, m, dtype=complex), fact)
        assert len(products) == count, m


def test_block_form_leaves_the_target_alone(zeros_cache):
    gen = -1j * build_xxz(XxzConfig(L=6)).total
    fact = factorize(SeriesSpec("taylor", 21, h=0.1), cache_dir=zeros_cache)
    rng = np.random.default_rng(11)
    for block in (np.eye(64, dtype=complex), rng.normal(size=(64, 40)) + 0j):
        before = block.copy()
        got = eval_factorized(gen, block, fact)
        assert np.array_equal(block, before)
        assert not np.shares_memory(got, block)
