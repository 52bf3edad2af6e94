"""Bessel oracle, cutoff rules, polynomial zeros, and factorized evaluation."""

import cmath
import json
import math
import os

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from trotterkit import bench, polyexp
from trotterkit.bench import BenchPlan, run_benchmark
from trotterkit.errors import ConvergenceError, DimensionError, RangeError, StructuralError
from trotterkit.polyexp import (
    SeriesSpec,
    bessel,
    chebyshev_admissible_k,
    chebyshev_coefficients,
    chebyshev_zeros,
    eval_factorized,
    eval_summed,
    factorize,
    gamma_for,
    order_factors,
    r_valid,
    suggest_gamma,
    taylor_cutoff,
    taylor_zeros,
)
from trotterkit.spinmodel import XxzConfig, build_xxz

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
# Bessel functions


def test_bessel_known_values():
    assert bessel("I", 0, 0.0) == 1.0
    assert bessel("J", 0, 0.0) == 1.0
    assert bessel("I", 1, 1.0) == pytest.approx(0.565159103992485, rel=1e-12)
    assert abs(bessel("J", 0, 2.404825557695773)) < 1e-10  # first J0 zero


@pytest.mark.parametrize("kind", ["I", "J"])
def test_bessel_against_mpmath_grid(kind):
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
        got = bessel(kind, order, x)
        with mp.workdps(40):
            want = float(ref(order, x))
        if want == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("kind", ["I", "J"])
def test_bessel_against_scipy_grid(kind):
    # scipy's iv/jv drift to ~1e-10 themselves at large order/argument, so
    # this is a loose independence check next to the tight mpmath one.
    fn = scipy.special.iv if kind == "I" else scipy.special.jv
    for order, x in [(0, 1.0), (3, 7.5), (20, 30.0), (80, 90.0), (146, 100.0)]:
        want = float(fn(order, x))
        assert bessel(kind, order, x) == pytest.approx(want, rel=5e-10)


def test_bessel_range_errors():
    with pytest.raises(RangeError):
        bessel("I", 0, -1.0)
    with pytest.raises(RangeError):
        bessel("J", 0, 500.5)
    with pytest.raises(RangeError):
        bessel("I", 601, 200.0)  # order > 2x + 200
    with pytest.raises(RangeError):
        bessel("J", -1, 1.0)


@given(
    st.sampled_from(["I", "J"]),
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=0.01, max_value=120.0, allow_nan=False),
)
def test_property_bessel_matches_mpmath(kind, order, x):
    got = bessel(kind, order, x)
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
    for axis in ("Real", "imag", None):
        with pytest.raises(StructuralError):
            chebyshev_admissible_k(10.0, axis, 1e-8)


def test_admissible_tail_is_suppressed():
    for gh, axis, eps in [(20.0, "imaginary", 1e-12), (35.0, "real", 1e-10)]:
        k = chebyshev_admissible_k(gh, axis, eps)
        kind = "J" if axis == "imaginary" else "I"
        assert 2.0 * abs(bessel(kind, k + 1, gh)) < eps
        assert 2.0 * abs(bessel(kind, k, gh)) >= eps


def test_taylor_to_chebyshev_k_ratio():
    # matched reach Gamma*h = 100 at epsilon = 1e-14
    ratio = taylor_cutoff(100.0, 1.0, 1e-14) / chebyshev_admissible_k(100.0, "imaginary", 1e-14)
    assert 2.0 <= ratio <= 2.8


def test_suggest_gamma():
    diag = np.diag([3.0, -1.0, 0.5]).astype(complex)
    assert suggest_gamma(diag) == pytest.approx(1.01 * 3.0, rel=1e-15)
    assert suggest_gamma(None, eigvals=[-4.0, 2.0]) == pytest.approx(1.01 * 4.0, rel=1e-15)


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
    spec = SeriesSpec("chebyshev", 10, gamma_scale=4.0, axis="real", h=0.5)
    assert spec.gamma_h == 2.0


def test_chebyshev_helpers_reject_taylor_spec():
    t = SeriesSpec("taylor", 5)
    with pytest.raises(StructuralError):
        chebyshev_coefficients(t)
    with pytest.raises(StructuralError):
        chebyshev_zeros(t)


@pytest.mark.parametrize("k, gh, axis", [(302, 100.0, "imaginary"), (304, 20.0, "real")])
def test_chebyshev_coefficients_correctly_rounded(k, gh, axis):
    mu = chebyshev_coefficients(SeriesSpec("chebyshev", k, gamma_scale=gh, axis=axis))
    with mp.workdps(50):
        for i, got in enumerate(mu):
            if axis == "imaginary":
                want = mp.mpc(0, 1) ** i * mp.besselj(i, gh)
            else:
                want = mp.besseli(i, gh)
            want = want if i == 0 else 2 * want
            if abs(want) > 1e-290:
                assert abs(mp.mpc(got) - want) <= 2e-16 * abs(want), i


def test_chebyshev_coefficients_exact_quarter_turn_phase():
    mu = chebyshev_coefficients(SeriesSpec("chebyshev", 152, gamma_scale=100.0, axis="imaginary"))
    assert all(m.imag == 0.0 for m in mu[0::2])
    assert all(m.real == 0.0 for m in mu[1::2])


def test_chebyshev_coefficients_high_order_tiny_argument():
    # mu_i underflows to zero from i = 80 on; nothing overflows on the way.
    mu = chebyshev_coefficients(SeriesSpec("chebyshev", 200, gamma_scale=0.005, axis="real"))
    assert len(mu) == 201
    assert all(math.isfinite(m) for m in mu)
    assert mu[0] == pytest.approx(1.0, rel=1e-5)


def test_chebyshev_coefficients_range_gate():
    spec = SeriesSpec("chebyshev", 10, gamma_scale=501.0, axis="real", h=1.0)
    with pytest.raises(RangeError):
        chebyshev_coefficients(spec)


# ---------------------------------------------------------------------------
# zeros


def test_taylor_k1_zero_is_minus_one():
    (z,) = taylor_zeros(1)
    assert abs(z + 1.0) < 1e-14


def test_taylor_zeros_range_errors():
    with pytest.raises(RangeError):
        taylor_zeros(0)
    with pytest.raises(RangeError):
        taylor_zeros(401)


@pytest.mark.parametrize("k", [25, 52])
def test_taylor_zeros_conjugate_closed(k, zeros_cache):
    zs = taylor_zeros(k, cache_dir=zeros_cache)
    assert len(zs) == k
    as_pairs = sorted((z.real, z.imag) for z in zs)
    conjugated = sorted((z.real, -z.imag) for z in zs)
    assert as_pairs == conjugated  # exact, not approximate
    n_real = sum(1 for z in zs if z.imag == 0.0)
    assert n_real == (1 if k % 2 else 0)


@pytest.mark.parametrize("k", [25, 52])
def test_taylor_zeros_are_accurate(k, zeros_cache):
    # Newton correction at each double-rounded zero is at rounding level.
    zs = taylor_zeros(k, cache_dir=zeros_cache)
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
    # With a zero residual contract no solve can pass: both solvers must
    # give up after their precision boost and report the residual reached.
    monkeypatch.setattr(polyexp, "ZERO_RESIDUAL_PER_K", 0.0)
    monkeypatch.setattr(polyexp, "_memo", {})
    with pytest.raises(ConvergenceError) as exc:
        polyexp._taylor_zeros_mp(5)
    assert math.isfinite(exc.value.worst_residual)
    spec = SeriesSpec("chebyshev", 6, gamma_scale=2.0, axis="imaginary")
    with pytest.raises(ConvergenceError) as exc:
        polyexp._chebyshev_zeros_mp(spec)
    assert math.isfinite(exc.value.worst_residual)


def _to_mp(a, bits):
    return mp.mpc(mp.mpf((a[0], -bits)), mp.mpf((a[1], -bits)))


@pytest.mark.parametrize("k", [5, 52, 152])
def test_fixed_horner_matches_mpmath(k):
    # P(u) = p(k u) and P'(u) = k p'(k u) against the mpmath evaluator
    # (Horner in z, p' = p - z^k/k!) at 90 digits, within the fixed-point
    # resolution times the size of the terms.
    bits = polyexp._fraction_bits(60)
    c = [(k**i << bits) // math.factorial(i) for i in range(k + 1)]
    rng = np.random.default_rng(k)
    with mp.workdps(90):
        fac = [1 / mp.factorial(i) for i in range(k + 1)]
        for r, t in zip(rng.uniform(0, 1, 20), rng.uniform(-math.pi, math.pi, 20)):
            u = complex(r * math.cos(t), r * math.sin(t))
            w = (polyexp._fixed(u.real, bits), polyexp._fixed(u.imag, bits))
            p, dp = polyexp._fixed_horner(c, w, bits)
            z = k * mp.mpc(u)
            want = mp.mpc(fac[k])
            for i in range(k - 1, -1, -1):
                want = want * z + fac[i]
            want_d = k * (want - z**k * fac[k])
            scale = math.exp(k * abs(u))  # bounds the sum of |terms|
            assert abs(_to_mp(p, bits) - want) < 1e-55 * scale
            assert abs(_to_mp(dp, bits) - want_d) < 1e-55 * k * scale


@pytest.mark.parametrize("k, gh, axis", [(6, 2.0, "real"), (40, 20.0, "real"), (40, 0.5, "real"),
                                         (40, 20.0, "imaginary"), (40, 0.5, "imaginary"),
                                         (100, 80.0, "imaginary")])
def test_fixed_clenshaw_matches_mpmath(k, gh, axis):
    # value and derivative against the two mpmath Clenshaw passes at 90
    # digits, within the fixed-point resolution times the size of the terms
    spec = SeriesSpec("chebyshev", k, gamma_scale=gh, axis=axis)
    rng = np.random.default_rng(k)
    with mp.workdps(90):
        mu = polyexp._chebyshev_mu(spec, 90)
        dmu = polyexp._cheb_deriv_coeffs(mu)
        reach = 1.5 * max(1.0, k / gh)
        for re, im in zip(rng.uniform(-reach, reach, 20), rng.uniform(-reach, reach, 20)):
            x = complex(re, im)
            bits = polyexp._fraction_bits(60) + polyexp._clenshaw_guard_bits(mu, [x])
            fmu = [(polyexp._fixed(m.real, bits), polyexp._fixed(m.imag, bits)) for m in mu]
            w = (polyexp._fixed(re, bits), polyexp._fixed(im, bits))
            p, dp = polyexp._fixed_clenshaw(fmu, w, bits)
            xm = mp.mpc(x)
            rho = max(abs(x + cmath.sqrt(x * x - 1)), abs(x - cmath.sqrt(x * x - 1)))
            scale = sum(abs(complex(m)) * rho**i for i, m in enumerate(mu))
            assert abs(_to_mp(p, bits) - polyexp._clenshaw(mu, xm)) < 1e-55 * scale
            assert abs(_to_mp(dp, bits) - polyexp._clenshaw(dmu, xm)) < 1e-55 * k * k * scale


@pytest.mark.parametrize("k", [3, 10, 21])
def test_taylor_zeros_match_polyroots(k):
    # mpmath's polyroots (Durand-Kerner) is an independent solver
    zs, _ = polyexp._taylor_zeros_mp(k)
    with mp.workdps(50):
        coeffs = [1 / mp.factorial(i) for i in range(k, -1, -1)]
        ref = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
    key = lambda z: (round(z.real, 6), round(z.imag, 6))
    for got, want in zip(sorted(zs, key=key), sorted((complex(r) for r in ref), key=key)):
        assert abs(got - want) <= 4e-16 * abs(want)


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
        polyexp._taylor_zeros_mp(5)
    assert exc.value.worst_residual < 1e-25 * 5


def test_refined_guesses_repair_duplicate_convergence(monkeypatch):
    want = polyexp._sort_conjugate_closed(polyexp._taylor_zeros_mp(5)[0])
    _duplicate_guesses(monkeypatch)
    assert polyexp._sort_conjugate_closed(polyexp._taylor_zeros_mp(5)[0]) == want


def test_overresolved_chebyshev_is_solved_from_refined_guesses(monkeypatch):
    # k = 60 at Gamma*h = 20 on the real axis: the colleague guesses put
    # two zero pairs on the real axis (there are no real zeros), so the
    # first Newton pass fails its certificate and the refinement stage runs
    calls = []
    refine = polyexp._refined_guesses
    monkeypatch.setattr(polyexp, "_refined_guesses", lambda *a: calls.append(1) or refine(*a))
    spec = SeriesSpec("chebyshev", 60, gamma_scale=20.0, axis="real")
    zs, worst = polyexp._chebyshev_zeros_mp(spec)
    assert calls == [1] and worst < 1e-25 * 60
    assert len(polyexp._sort_conjugate_closed(zs)) == 60
    with mp.workdps(120):
        mu = polyexp._chebyshev_mu(spec, 120)
        dmu = polyexp._cheb_deriv_coeffs(mu)
        for z in zs:
            x = mp.mpc(z) / 20
            # Newton correction at each double-rounded zero is at rounding level
            assert abs(polyexp._clenshaw(mu, x) / polyexp._clenshaw(dmu, x)) * 20 < 1e-14 * abs(z)


@pytest.mark.parametrize("contract, calls, certified", [(1e-25, 3, True), (0.0, 1, False)])
def test_newton_pass_stops_at_first_unconverged_representative(monkeypatch, contract, calls,
                                                                certified):
    # Taylor k = 5 has three representatives (one real zero, two upper);
    # a zero contract means a zero stop step, which no Newton run meets, so
    # the pass gives up at the first representative with its own residual
    monkeypatch.setattr(polyexp, "ZERO_RESIDUAL_PER_K", contract)
    k = 5
    bits = polyexp._fraction_bits(60)
    c = [(k**i << bits) // math.factorial(i) for i in range(k + 1)]
    guesses = [z / k for z in polyexp._szego_guesses(k)]
    seen = []

    def residual(w):
        seen.append(w)
        return mp.mpf(len(seen)) * 1e-40

    zs, worst, ok = polyexp._newton_certified(
        k, guesses, k, bits, lambda w: polyexp._fixed_horner(c, w, bits), residual
    )
    assert len(seen) == calls and ok is certified
    assert worst == mp.mpf(calls) * 1e-40


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
    for zs, _ in [polyexp._taylor_zeros_mp(21)] + [polyexp._chebyshev_zeros_mp(s) for s in cheb]:
        assert sum(1 for z in zs if z.imag == 0.0) % 2 == 1
        assert polyexp._sort_conjugate_closed(zs)


def test_szego_curve_convergence(zeros_cache):
    # Scaled zeros approach |w e^{1 - w}| = 1; the two zeros nearest w = 1
    # converge slowest and are excluded, as the remainder term there decays
    # only like k^{-1/2}.
    devs = []
    for k in (25, 50, 100, 200):
        zs = taylor_zeros(k, cache_dir=zeros_cache)
        ws = sorted((z / k for z in zs), key=lambda w: abs(w - 1.0))[2:]
        devs.append(max(abs(abs(w * cmath.exp(1.0 - w)) - 1.0) for w in ws))
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] < 0.05


def test_zero_modulus_floor(zeros_cache):
    # min |z| / k decreases toward W(1/e) = 0.27846... (the Szego curve's
    # crossing of the negative real axis), so that is the honest floor.
    floor = 0.27846
    for k in (25, 50, 100, 200):
        zs = taylor_zeros(k, cache_dir=zeros_cache)
        assert min(abs(z) for z in zs) > floor * k


def test_gamma_for_inverts_zeros(zeros_cache):
    zs = taylor_zeros(25, cache_dir=zeros_cache)
    gs = gamma_for(zs, 25)
    for z, g in zip(zs, gs):
        assert g == pytest.approx(-25.0 / z, rel=1e-15)


# ---------------------------------------------------------------------------
# zero cache files


def _cache_header(family, k, gh=None, axis=None):
    return {
        "family": family,
        "k": k,
        "gamma_h": None if gh is None else float(gh).hex(),
        "axis": axis,
        "solver": polyexp._SOLVER,
    }


def test_cache_file_is_read_back(tmp_path):
    # Pre-seed a well-formed (deliberately off-true) entry for k=2 and check
    # the loader trusts the file over recomputation.
    seeded = [[-1.5, 0.8], [-1.5, -0.8]]
    payload = dict(_cache_header("taylor", 2), residual=1e-30,
                   zeros=[[str(a), str(b)] for a, b in seeded])
    (tmp_path / "taylor_2.json").write_text(json.dumps(payload))
    zs = taylor_zeros(2, cache_dir=str(tmp_path))
    assert sorted((z.real, z.imag) for z in zs) == sorted((a, b) for a, b in seeded)


def test_corrupt_cache_file_recomputed(tmp_path):
    path = tmp_path / "taylor_3.json"
    path.write_text("{ not json !")
    zs = taylor_zeros(3, cache_dir=str(tmp_path))
    # 1 + z + z^2/2 + z^3/6 has one real root and a conjugate pair
    assert len(zs) == 3
    assert sum(1 for z in zs if z.imag == 0.0) == 1
    data = json.loads(path.read_text())  # rewritten with a valid payload
    assert {f: data[f] for f in _cache_header("taylor", 3)} == _cache_header("taylor", 3)
    assert 0 <= data["residual"] < 1e-25 * 3
    assert len(data["zeros"]) == 3
    assert all(isinstance(re, str) and isinstance(im, str) for re, im in data["zeros"])
    reloaded = [complex(float(re), float(im)) for re, im in data["zeros"]]
    assert sorted((z.real, z.imag) for z in reloaded) == sorted((z.real, z.imag) for z in zs)


def _recomputed(path, payload, solve, monkeypatch):
    """Write payload to path, solve with an empty memo, and return the zeros
    and the file read back."""
    monkeypatch.setattr(polyexp, "_memo", {})
    path.write_text(json.dumps(payload))
    zs = solve()
    return zs, json.loads(path.read_text())


def test_legacy_cache_file_recomputed(tmp_path, monkeypatch):
    # a bare list of the right length (the format before provenance headers)
    # is not trusted, even though it parses and pairs up
    legacy = [["-1.5", "0.8"], ["-1.5", "-0.8"], ["-2.0", "0.0"], ["-7.0", "0.0"], ["-9.0", "0.0"]]
    zs, data = _recomputed(tmp_path / "taylor_5.json", legacy,
                           lambda: taylor_zeros(5, cache_dir=str(tmp_path)), monkeypatch)
    assert all(abs(mp_exp_poly(5, z)) < 1e-12 for z in zs)
    assert isinstance(data, dict) and data["solver"] == polyexp._SOLVER


@pytest.mark.parametrize("corruption", ["not_closed", "overlapping", "residual", "solver", "k"])
def test_corrupted_cache_file_recomputed(tmp_path, monkeypatch, corruption):
    good = polyexp._sort_conjugate_closed(polyexp._taylor_zeros_mp(5)[0])
    zeros = [[repr(z.real), repr(z.imag)] for z in good]
    payload = dict(_cache_header("taylor", 5), residual=1e-40, zeros=zeros)
    if corruption == "not_closed":
        zeros[1][1] = repr(float(zeros[1][1]) * (1 + 1e-15))
    elif corruption == "overlapping":
        # conjugate-closed, but one real zero twice
        zeros[:3] = [["-1.0", "0.0"], ["-1.0", "0.0"], ["-3.0", "0.0"]]
    elif corruption == "residual":
        payload["residual"] = 1.0  # above the contract 1e-25 * k
    elif corruption == "solver":
        payload["solver"] = "aberth"
    else:
        payload["k"] = 4
    zs, data = _recomputed(tmp_path / "taylor_5.json", payload,
                           lambda: taylor_zeros(5, cache_dir=str(tmp_path)), monkeypatch)
    assert zs == good
    assert data == dict(_cache_header("taylor", 5), residual=data["residual"],
                        zeros=[[f"{z.real:.35g}", f"{z.imag:.35g}"] for z in good])


def test_gamma_h_mismatched_cache_file_recomputed(tmp_path, monkeypatch):
    # Gamma*h = 1.25 and 1.2500001 share a file name; the header tells them apart
    near = SeriesSpec("chebyshev", 6, gamma_scale=1.2500001, axis="real")
    want = chebyshev_zeros(near, cache_dir=str(tmp_path / "ref"))
    path = tmp_path / "chebyshev_6_1.250000_real.json"
    payload = dict(_cache_header("chebyshev", 6, 1.25, "real"), residual=1e-40,
                   zeros=[[repr(z.real), repr(z.imag)] for z in want])
    payload["gamma_h"] = (1.25).hex()
    zs, data = _recomputed(path, payload,
                           lambda: chebyshev_zeros(near, cache_dir=str(tmp_path)), monkeypatch)
    assert zs == want
    assert data["gamma_h"] == (1.2500001).hex()


def test_nearby_gamma_h_get_their_own_zeros(tmp_path):
    # keyed on the exact Gamma*h: a rounded key returned the zeros of 10.0
    # for 10.0000004, off by ~2.6e-7
    a = chebyshev_zeros(SeriesSpec("chebyshev", 20, gamma_scale=10.0, axis="imaginary"),
                        cache_dir=str(tmp_path))
    b = chebyshev_zeros(SeriesSpec("chebyshev", 20, gamma_scale=10.0000004, axis="imaginary"),
                        cache_dir=str(tmp_path))
    moved = max(abs(x - y) for x, y in zip(a, b))
    assert 1e-8 < moved < 1e-5


def test_wrong_length_cache_file_recomputed(tmp_path):
    (tmp_path / "taylor_4.json").write_text(json.dumps([["-1.0", "0.0"], ["-2.0", "0.0"]]))
    zs = taylor_zeros(4, cache_dir=str(tmp_path))
    assert len(zs) == 4
    with mp.workdps(40):
        for z in zs:
            val = mp_exp_poly(4, z, dps=40)
            assert abs(val) < 1e-12


def test_chebyshev_cache_filename(tmp_path):
    spec = SeriesSpec("chebyshev", 2, gamma_scale=1.25, axis="imaginary", h=1.0)
    zs = chebyshev_zeros(spec, cache_dir=str(tmp_path))
    assert len(zs) == 2
    assert (tmp_path / "chebyshev_2_1.250000_imaginary.json").exists()


# ---------------------------------------------------------------------------
# factorization structure


def test_factorize_taylor_scale_is_one(zeros_cache):
    fact = factorize(SeriesSpec("taylor", 25), cache_dir=zeros_cache)
    assert fact.overall_scale == 1.0
    assert len(fact.zeros) == 25
    assert len(fact.gammas) == 25
    assert sum(g.n_factors for g in fact.groups) == 25


def test_factorize_chebyshev_scale_matches_p0(zeros_cache):
    # The product form is scale * prod(1 - z/z_i); at z = 0 that is scale,
    # so scale must equal P(0) = mu_0 + sum_i mu_i T_i(0).
    spec = SeriesSpec("chebyshev", 1, gamma_scale=2.0, axis="imaginary", h=1.0)
    fact = factorize(spec, cache_dir=zeros_cache)
    assert fact.overall_scale == pytest.approx(bessel("J", 0, 2.0), rel=1e-13)
    # and for an admissible k it approximates exp(0) = 1
    gh = 20.0
    k = chebyshev_admissible_k(gh, "imaginary", 1e-12)
    spec2 = SeriesSpec("chebyshev", k, gamma_scale=gh, axis="imaginary", h=1.0)
    fact2 = factorize(spec2, cache_dir=zeros_cache)
    assert abs(fact2.overall_scale - 1.0) < 1e-9


def test_chebyshev_k1_zero_matches_coefficients(zeros_cache):
    spec = SeriesSpec("chebyshev", 1, gamma_scale=2.0, axis="imaginary", h=1.0)
    fact = factorize(spec, cache_dir=zeros_cache)
    mu = chebyshev_coefficients(spec)
    assert fact.zeros[0] == pytest.approx(-mu[0] / mu[1] * (1j * 2.0), rel=1e-13)


def hand_built(axis, zero):
    """A k = 20 Chebyshev factorization on the segment Gamma h = 2 whose one
    zero is given; on the real axis the truncation tail leaves the whole
    segment [-2, 2] checked."""
    spec = SeriesSpec("chebyshev", 20, gamma_scale=2.0, axis=axis, h=1.0)
    return polyexp.FactorizedPolynomial(spec, (zero,), (), (), 1.0)


@pytest.mark.parametrize("axis, zero", [
    ("real", -1.5 + 0j), ("real", 0.5 + 0j), ("real", 2.0 + 0j), ("imaginary", 1.5j),
])
def test_zero_on_the_segment_is_refused(axis, zero):
    with pytest.raises(StructuralError, match="approximation segment"):
        polyexp._check_zero_clearance(hand_built(axis, zero))


@pytest.mark.parametrize("axis, zero", [
    ("real", 0.5 + 1e-12j),  # just off the axis
    ("real", 2.5 + 0j),  # on the axis past Gamma h
    ("real", -2.0 - 5e-324j),  # the least step off the axis at the segment's end
    ("imaginary", 1.5 + 0j),
])
def test_zero_off_the_segment_passes(axis, zero):
    polyexp._check_zero_clearance(hand_built(axis, zero))


def test_r_valid_formula(zeros_cache):
    fact = factorize(SeriesSpec("taylor", 52), cache_dir=zeros_cache)
    expect = (1e-13 * math.exp(math.lgamma(54))) ** (1.0 / 53.0)
    assert r_valid(fact) == pytest.approx(expect, rel=1e-12)
    assert 11.0 < r_valid(fact) < 12.5
    assert r_valid(fact) < min(abs(z) for z in fact.zeros)


def test_order_factors_golden():
    groups = order_factors([4.0 + 0j, 3.0 + 0j, 2.0 + 0j, 1.0 + 0j])
    assert [g.kind for g in groups] == ["lin", "lin", "lin", "lin"]
    assert [g.sum_re for g in groups] == [3.0, 2.0, 4.0, 1.0]
    assert [g.index for g in groups] == [1, 2, 0, 3]


def test_order_factors_groups_conjugate_pairs():
    groups = order_factors([2.0 + 1.0j, 2.0 - 1.0j, 5.0 + 0j])
    kinds = sorted(g.kind for g in groups)
    assert kinds == ["lin", "quad"]
    quad = next(g for g in groups if g.kind == "quad")
    assert quad.gammas == (2.0 + 1.0j, 2.0 - 1.0j)
    assert quad.coeffs == pytest.approx((4.0, 5.0), rel=1e-15)  # (2 Re g, |g|^2)
    assert quad.sum_re == 4.0


@given(st.lists(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False), min_size=1, max_size=12))
def test_property_order_factors_partitions_input(reals):
    gammas = [complex(r, 0.0) for r in reals]
    groups = order_factors(gammas)
    flat = [g for grp in groups for g in grp.gammas]
    assert sorted((g.real, g.imag) for g in flat) == sorted((g.real, g.imag) for g in gammas)


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
    # mu_0 T_0 + mu_1 T_1(x) + mu_2 T_2(x) at x = 0.5: T_2(0.5) = -0.5.
    spec = SeriesSpec("chebyshev", 2, gamma_scale=1.0, axis="real", h=1.0)
    mu = chebyshev_coefficients(spec)
    got = eval_summed(np.array([[0.5]], dtype=complex), np.eye(1, dtype=complex), spec)[0, 0]
    want = mu[0] + mu[1] * 0.5 + mu[2] * (-0.5)
    assert got == pytest.approx(want, rel=1e-14)


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
    for g in fact.gammas:
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
    """Record each matrix that `_applier` sends through its entries."""
    seen = []
    real = polyexp._entry_applier

    def spy(m, flat, factor):
        seen.append(m)
        return real(m, flat, factor)

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


def test_block_form_leaves_the_target_alone(zeros_cache):
    gen = -1j * build_xxz(XxzConfig(L=6)).total
    fact = factorize(SeriesSpec("taylor", 21, h=0.1), cache_dir=zeros_cache)
    rng = np.random.default_rng(11)
    for block in (np.eye(64, dtype=complex), rng.normal(size=(64, 40)) + 0j):
        before = block.copy()
        got = eval_factorized(gen, block, fact)
        assert np.array_equal(block, before)
        assert not np.shares_memory(got, block)
