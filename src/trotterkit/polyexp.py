"""Truncated Taylor/Chebyshev exponentials in zero-factorized form.

A truncation P(z) of e^z (Taylor partial sum, or a Chebyshev series on a
real or imaginary segment) is rewritten over its complex zeros z_i as

    P(z) = scale * prod_i (1 + gamma_i z / k),    gamma_i = -k / z_i,

and evaluated as a product of degree-<=2 real-coefficient factors
(conjugate pairs merged).  The product form stays accurate where the
direct sum suffers catastrophic cancellation (large negative or large
imaginary arguments with k > 17).

Zeros are computed once in extended precision by certified Newton: from
asymptotic (Taylor) or colleague-matrix (Chebyshev) guesses, one zero of
each conjugate pair is solved by Newton in fixed-point integer arithmetic
and the other mirrored exactly.  Each zero is checked against a per-root
residual contract, and disjoint inclusion disks certify that all k were
found.  The zeros are cached on disk with their provenance, and rounded to
doubles for evaluation.  The Chebyshev coefficients are Bessel values from
mpmath J/I seeds plus downward recurrence.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import numpy as np

from .errors import ConvergenceError, DimensionError, RangeError, StructuralError
from .tolerances import (
    BESSEL_X_MAX,
    ENTRY_APPLY_MAX_FILL,
    GAMMA_MARGIN,
    NEWTON_MAX_STEPS,
    TAYLOR_K_MAX,
    VALIDITY_TRUNCATION,
    ZERO_RESIDUAL_PER_K,
)

__all__ = [
    "SeriesSpec",
    "Group",
    "FactorizedPolynomial",
    "bessel",
    "taylor_cutoff",
    "chebyshev_coefficients",
    "chebyshev_admissible_k",
    "taylor_zeros",
    "chebyshev_zeros",
    "gamma_for",
    "order_factors",
    "factorize",
    "eval_factorized",
    "eval_summed",
    "r_valid",
    "suggest_gamma",
    "default_cache_dir",
]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SeriesSpec:
    """Which truncation: family, order k, and (Chebyshev) scale and axis."""

    family: str
    k: int
    gamma_scale: Optional[float] = None
    axis: Optional[str] = None
    h: float = 1.0

    def __post_init__(self):
        if self.family not in ("taylor", "chebyshev"):
            raise StructuralError(f"family must be 'taylor' or 'chebyshev', got {self.family!r}")
        if self.k < 1:
            raise StructuralError(f"k must be >= 1, got {self.k}")
        if self.family == "chebyshev":
            if self.gamma_scale is None or not self.gamma_scale > 0:
                raise StructuralError("chebyshev spec needs gamma_scale > 0")
            if self.axis not in ("real", "imaginary"):
                raise StructuralError(
                    f"axis must be 'real' or 'imaginary', got {self.axis!r}"
                )

    @property
    def gamma_h(self):
        """The interval half-width Gamma*h."""
        return self.gamma_scale * self.h


@dataclass(frozen=True)
class Group:
    """One evaluation factor: a conjugate pair (quad) or a real zero (lin).

    coeffs is (2*Re(gamma), |gamma|^2) for quad and (gamma,) for lin;
    sum_re is the real-part sum the ordering heuristic balances on;
    index is the original position used for deterministic tie-breaks.
    """

    kind: str
    sum_re: float
    coeffs: tuple
    gammas: tuple
    index: int

    @property
    def n_factors(self):
        return 2 if self.kind == "quad" else 1


@dataclass(frozen=True)
class FactorizedPolynomial:
    spec: SeriesSpec
    zeros: tuple
    gammas: tuple
    groups: tuple
    overall_scale: float

    @property
    def k(self):
        return self.spec.k


# ---------------------------------------------------------------------------
# Bessel functions (mpmath J/I, and sequences by downward recurrence)


def _bessel_function(kind):
    """mpmath's I or J."""
    if kind not in ("I", "J"):
        raise StructuralError(f"kind must be 'I' or 'J', got {kind!r}")
    return mp.besseli if kind == "I" else mp.besselj


def _bessel_sequence(kind, n_max, x, *, dps=None):
    """[f_0(x), ..., f_n_max(x)] for f = J or I.

    mpmath gives f_{n_max+1} and f_{n_max}; the downward recurrence
    f_{n-1} = (2n/x) f_n -/+ f_{n+1} (stable for both J and I) gives the
    rest, at 10 guard digits above the requested precision.  Returns
    mpmath numbers at dps when it is set (the zero solver needs
    extended-precision coefficients), doubles otherwise.
    """
    f = _bessel_function(kind)
    num = float if dps is None else mp.mpf
    if x == 0:
        return [num(1)] + [num(0)] * n_max
    sign = 1 if kind == "I" else -1
    with mp.workdps((dps or 16) + 10):
        x_ = mp.mpf(x)
        nxt, cur = f(n_max + 1, x_), f(n_max, x_)
        out = [cur]
        for n in range(n_max, 0, -1):
            nxt, cur = cur, (2 * n / x_) * cur + sign * nxt
            out.append(cur)
    with mp.workdps(dps or 16):
        return [num(v) for v in reversed(out)]


def bessel(kind, order, x):
    """J_order(x) or I_order(x) for x in [0, 500], relative error < 1e-13."""
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise RangeError(f"order must be a non-negative integer, got {order!r}")
    x = float(x)
    if x < 0:
        raise RangeError(f"x must be >= 0, got {x}")
    if x > BESSEL_X_MAX:
        raise RangeError(f"x = {x} beyond supported range (<= {BESSEL_X_MAX:g})")
    if order > 2 * x + 200:
        raise RangeError(f"order {order} beyond supported range (<= 2x + 200 = {2 * x + 200:g})")
    f = _bessel_function(kind)
    with mp.workdps(26):
        return float(f(int(order), x))


# ---------------------------------------------------------------------------
# cutoff rules and coefficients


def taylor_cutoff(lambda_max, h, epsilon):
    """Smallest k with (lambda_max*h)^k / (k+1)! < epsilon."""
    if lambda_max < 0 or h <= 0 or not (0 < epsilon < 1):
        raise RangeError("need lambda_max >= 0, h > 0, 0 < epsilon < 1")
    lh = lambda_max * h
    if lh == 0:
        return 1
    log_lh = math.log(lh)
    log_eps = math.log(epsilon)
    k = 1
    while k * log_lh - math.lgamma(k + 2) >= log_eps:
        k += 1
    return k


def _chebyshev_mu(spec, dps=None):
    """mu_0..mu_k: Bessel-I on the real axis, phased Bessel-J on the
    imaginary axis (I_i(i*Gh) = i^i J_i(Gh)), from mpmath J/I seeds plus
    downward recurrence.

    In double precision by default; with dps set, as mpmath numbers at that
    working precision (call it inside mp.workdps(dps)).
    """
    imaginary = spec.axis == "imaginary"
    num = mp.mpc if dps is not None else complex if imaginary else float
    seq = _bessel_sequence("J" if imaginary else "I", spec.k, spec.gamma_h, dps=dps)
    # i^i cycles exactly through (1, i, -1, -i); a complex power would not
    phase = [num(p) for p in ((1, 1j, -1, -1j) if imaginary else (1, 1, 1, 1))]
    return [num(seq[0])] + [2 * phase[i % 4] * seq[i] for i in range(1, spec.k + 1)]


def chebyshev_coefficients(spec):
    """mu_0..mu_k of a Chebyshev spec in double precision."""
    if spec.family != "chebyshev":
        raise StructuralError("chebyshev_coefficients needs a chebyshev spec")
    gh = spec.gamma_h
    if gh > BESSEL_X_MAX:
        raise RangeError(f"Gamma*h = {gh} beyond supported range (<= {BESSEL_X_MAX:g})")
    return _chebyshev_mu(spec)


def chebyshev_admissible_k(gamma_h, axis, epsilon):
    """Smallest k with |mu_{k+1}| < epsilon (series tail suppressed)."""
    if gamma_h < 0 or not (0 < epsilon < 1):
        raise RangeError("need gamma_h >= 0, 0 < epsilon < 1")
    if axis not in ("real", "imaginary"):
        raise StructuralError(f"axis must be 'real' or 'imaginary', got {axis!r}")
    if gamma_h == 0:
        return 1
    kind = "I" if axis == "real" else "J"
    n_hi = int(2 * gamma_h) + 200
    seq = _bessel_sequence(kind, n_hi, gamma_h)
    for k in range(1, n_hi):
        if 2.0 * abs(seq[k + 1]) < epsilon:
            return k
    raise RangeError(f"no admissible k below {n_hi} for Gamma*h = {gamma_h}")


def suggest_gamma(h_matrix, eigvals=None):
    """Gamma = margin * spectral-radius bound (Gershgorin, or exact when
    an eigenvalue list is already available)."""
    if eigvals is not None:
        bound = float(np.max(np.abs(eigvals)))
    else:
        m = np.asarray(h_matrix)
        bound = float(np.max(np.sum(np.abs(m), axis=1)))
    return GAMMA_MARGIN * bound


# ---------------------------------------------------------------------------
# zero computation (extended precision)


def _szego_guesses(k):
    """Double-precision zero guesses on the k-scaled Szego curve.

    Solves k(ln w + 1 - w) - ln(sqrt(2 pi k)(1-w)/w) = 2 pi i m by Newton
    continuation from the leftmost crossing; odd k adds the real root.
    """
    if k <= 20:
        # monomial companion roots are reliable at small k and dodge the
        # asymptotic formula's weak regime
        coeffs = [1.0 / math.factorial(i) for i in range(k, -1, -1)]
        return [complex(z) for z in np.roots(coeffs)]
    r0 = 0.2784645427610738  # -W(1/e): curve crossing of the negative real axis
    out = []
    w = complex(-r0, 0.3 / max(k, 2))
    for m in range(k // 2, 0, -1):
        tgt = 2j * math.pi * m
        for _ in range(60):
            corr = np.log(math.sqrt(2 * math.pi * k) * (1 - w) / w)
            f = k * (np.log(w) + 1 - w) - corr - tgt
            df = k * (1 / w - 1) + 1 / (1 - w) + 1 / w
            step = f / df
            w = w - step
            if abs(step) < 1e-12:
                break
        out.append(w)
    if k % 2 == 1:
        xr = -r0
        for _ in range(60):
            f = k * (math.log(-xr) + 1 - xr) - math.log(
                math.sqrt(2 * math.pi * k) * (1 - xr) / (-xr)
            )
            df = k * (1 / xr - 1) + 1 / (1 - xr) + 1 / xr
            xr -= f / df
        out.append(complex(xr, 0.0))
    upper = [z for z in out if z.imag > 0]
    rest = [z for z in out if z.imag <= 0]
    return [z * k for z in rest + upper + [z.conjugate() for z in upper]]


def _representatives(guesses):
    """One working-plane guess per conjugate pair (Im w > 0) plus the guesses
    on the real axis, snapped onto it so that Newton keeps them exactly real;
    None if the guesses are not symmetric.

    Every solved polynomial is real on the real axis of its working plane,
    so the roots below it are the exact conjugates of the ones above.
    """
    line, upper, n_lower = [], [], 0
    for w in guesses:
        # double-precision guesses of real roots carry rounding-level imaginary parts
        if abs(w.imag) <= 1e-8 * max(1.0, abs(w)):
            line.append(complex(w.real, 0.0))
        elif w.imag > 0:
            upper.append(complex(w))
        else:
            n_lower += 1
    return line + upper if n_lower == len(upper) else None


def _fraction_bits(dps):
    """Fixed-point fraction bits for a working precision of dps digits."""
    return math.ceil(dps * math.log2(10)) + 16


def _fixed(x, bits):
    """Real number (float or mpf) as an int scaled by 2^bits."""
    return int(mp.ldexp(mp.mpf(x), bits))


def _newton_fixed(p_and_dp, w, bits, stop):
    """Newton steps in complex fixed point (a pair of ints scaled by 2^bits)
    from w until a step is shorter than stop (fixed point too), then one more
    step.  Returns (w, whether that stop rule was met)."""
    done = False
    for _ in range(NEWTON_MAX_STEPS):
        (pr, pi), (dr, di) = p_and_dp(w)
        den = dr * dr + di * di
        if den == 0:
            break
        step = (((pr * dr + pi * di) << bits) // den, ((pi * dr - pr * di) << bits) // den)
        w = (w[0] - step[0], w[1] - step[1])
        if done:
            return w, True
        done = step[0] ** 2 + step[1] ** 2 < stop**2
    return w, False


def _disks_disjoint(zs, radius):
    """True when the disks of the given radius around the double roots zs,
    widened by their rounding, are pairwise disjoint."""
    z = np.asarray(zs, dtype=complex)
    rad = radius + 2.0**-50 * np.abs(z)
    gap = np.abs(z[:, None] - z[None, :]) - (rad[:, None] + rad[None, :])
    np.fill_diagonal(gap, np.inf)
    return bool(np.all(gap > 0))


def _newton_certified(k, guesses, scale, bits, fixed_p_and_dp, residual):
    """Solve one representative per symmetric pair of guesses by fixed-point
    Newton, mirror it, and certify the result as the complete root set.

    The working plane is w = z / scale (scale > 0 real).  residual(w) is the
    z-plane |p/p'| from the mpmath evaluator; a mirrored root inherits it.
    Some root lies within k*|p/p'| of any point (|p'/p| = |sum 1/(z - z_j)|),
    so k pairwise disjoint disks of radius k * worst prove all k roots found.
    Returns (z-plane roots as doubles, worst residual, certified); a
    representative whose Newton run misses the stop rule ends the pass as
    uncertified, with its own residual.
    """
    reps = _representatives(guesses)
    if reps is None:
        return [], mp.inf, False
    tol = ZERO_RESIDUAL_PER_K * k
    stop = _fixed(tol * 1e-2 / scale, bits)
    num, den = float(scale).as_integer_ratio()
    den <<= bits
    zs, worst = [], mp.mpf(0)
    for g in reps:
        w, converged = _newton_fixed(
            fixed_p_and_dp, (_fixed(g.real, bits), _fixed(g.imag, bits)), bits, stop
        )
        res = residual(mp.mpc(mp.mpf((w[0], -bits)), mp.mpf((w[1], -bits))))
        if not converged:
            return zs, res, False
        worst = max(worst, res)
        # z = scale * w rounded once, so the mirror is the exact conjugate
        z = complex(w[0] * num / den, w[1] * num / den)
        zs += [z] if w[1] == 0 else [z, z.conjugate()]
    certified = len(zs) == k and _disks_disjoint(zs, k * float(worst)) and worst < tol
    return zs, worst, certified


def _refined_guesses(fixed_p_and_dp, guesses, bits):
    """All guesses moved together by Aberth-Ehrlich corrections: the Newton
    step p/p' from the fixed-point kernel, the pair sums in double precision,
    until every step is below 1e-13 of the largest guess.

    Independent Newton needs guesses inside each root's basin; where the
    double-precision guesses cannot resolve the roots (clusters that only
    extended precision separates), the pair sums keep the guesses apart.
    """
    ws = np.array(guesses, dtype=complex)
    for _ in range(NEWTON_MAX_STEPS):
        largest = 0.0
        for i, w in enumerate(ws):
            (pr, pi), (dr, di) = fixed_p_and_dp((_fixed(w.real, bits), _fixed(w.imag, bits)))
            den = dr * dr + di * di
            if den == 0:
                continue
            nwt = complex((pr * dr + pi * di) / den, (pi * dr - pr * di) / den)
            gaps = w - np.delete(ws, i)
            step = nwt / (1 - nwt * np.sum(1 / gaps[gaps != 0]))
            ws[i] = w - step
            largest = max(largest, abs(step))
        if largest < 1e-13 * np.max(np.abs(ws)):
            break
    return list(ws)


def _solve_certified(k, guesses, scale, bits, fixed_p_and_dp, residual):
    """Certified Newton from the working-plane guesses, and again from
    refined guesses if that fails; returns as _newton_certified."""
    out = _newton_certified(k, guesses, scale, bits, fixed_p_and_dp, residual)
    if not out[2]:
        guesses = _refined_guesses(fixed_p_and_dp, guesses, bits)
        out = _newton_certified(k, guesses, scale, bits, fixed_p_and_dp, residual)
    return out


def _solve_failed(what, tol, worst):
    """The error of a solve that failed its contract or its certificate."""
    reason = "residual above contract" if worst >= tol else "root disks not disjoint"
    return ConvergenceError(
        f"{what}: {reason}: residual {float(worst):.3e}, contract {tol:.3e}",
        worst_residual=float(worst),
    )


def _fixed_horner(c, w, bits):
    """Sum c_i w^i and its derivative in one fixed-point Horner pass; the
    complex products are inlined."""
    wr, wi = w
    pr, pi, dr, di = c[-1], 0, 0, 0
    for ci in c[-2::-1]:
        dr, di = ((dr * wr - di * wi) >> bits) + pr, ((dr * wi + di * wr) >> bits) + pi
        pr, pi = ((pr * wr - pi * wi) >> bits) + ci, (pr * wi + pi * wr) >> bits
    return (pr, pi), (dr, di)


def _taylor_zeros_mp(k):
    """All k zeros of the Taylor partial sum, meeting the residual contract,
    with their worst residual.

    Newton runs in u = z/k, where the coefficients k^i/i! are all >= 1 and
    every zero has |u| <= 1.
    """
    tol = ZERO_RESIDUAL_PER_K * k
    base_dps = 41 + int(0.25 * k)
    guesses = [z / k for z in _szego_guesses(k)]
    for boost in (1.0, 1.5):
        dps = int(base_dps * boost)
        bits = _fraction_bits(dps)
        c = [(k**i << bits) // math.factorial(i) for i in range(k + 1)]
        with mp.workdps(dps):
            fac = [1 / mp.factorial(i) for i in range(k + 1)]
            inv_kfac = fac[k]

            def p_and_dp(z):
                s = mp.mpc(fac[k])
                for i in range(k - 1, -1, -1):
                    s = s * z + fac[i]
                return s, s - z**k * inv_kfac

            def residual(w):
                p, dp = p_and_dp(k * w)
                return abs(p / dp)

            zs, worst, certified = _solve_certified(
                k, guesses, k, bits, lambda w: _fixed_horner(c, w, bits), residual
            )
            if certified:
                return zs, float(worst)
    raise _solve_failed(f"taylor zeros k={k}", tol, worst)


def _clenshaw(coeffs, x):
    """Sum c_i T_i(x) by Clenshaw recurrence (any coefficient count >= 1)."""
    b1 = mp.mpc(0)
    b2 = mp.mpc(0)
    for c in coeffs[:0:-1]:
        b1, b2 = 2 * x * b1 - b2 + c, b1
    return x * b1 - b2 + coeffs[0]


def _cheb_deriv_coeffs(mu):
    """T-basis coefficients of d/dx sum mu_i T_i: d_{n-1} = d_{n+1} + 2n mu_n."""
    k = len(mu) - 1
    d = [mp.mpc(0)] * (k + 1)
    for n in range(k, 0, -1):
        d[n - 1] = (d[n + 1] if n + 1 <= k else mp.mpc(0)) + 2 * n * mu[n]
    d[0] = d[0] / 2
    return d[:k]


def _fixed_clenshaw(mu, x, bits):
    """Sum mu_i T_i(x) and its x-derivative in one fixed-point Clenshaw pass:
    b_j = 2x b_{j+1} - b_{j+2} + mu_j, b'_j = 2 b_{j+1} + 2x b'_{j+1} - b'_{j+2}.
    The complex products are inlined; 2x b is x b shifted by one bit less."""
    xr, xi = x
    br = bi = b2r = b2i = dr = di = d2r = d2i = 0
    for cr, ci in mu[:0:-1]:
        tr, ti = (xr * br - xi * bi) >> (bits - 1), (xr * bi + xi * br) >> (bits - 1)
        ur, ui = (xr * dr - xi * di) >> (bits - 1), (xr * di + xi * dr) >> (bits - 1)
        br, bi, b2r, b2i, dr, di, d2r, d2i = (
            tr - b2r + cr, ti - b2i + ci, br, bi, 2 * br + ur - d2r, 2 * bi + ui - d2i, dr, di
        )
    tr, ti = (xr * br - xi * bi) >> bits, (xr * bi + xi * br) >> bits
    ur, ui = (xr * dr - xi * di) >> bits, (xr * di + xi * dr) >> bits
    return (tr - b2r + mu[0][0], ti - b2i + mu[0][1]), (br + ur - d2r, bi + ui - d2i)


def _clenshaw_guard_bits(mu, xs):
    """Extra fraction bits so that a fixed-point Clenshaw pass keeps the
    accuracy of a floating one at the points xs: rounding errors at x grow
    like rho^k, rho = |x + sqrt(x^2 - 1)| >= 1, while the terms of the sum
    are only as large as max_i |mu_i| rho^i (Taylor-like zeros far off the
    segment have rho ~ 2|x| and tiny high-order mu).  The shortfall grows
    with rho, so the outermost point decides."""
    k = len(mu) - 1
    roots = [(x, cmath.sqrt(x * x - 1)) for x in xs]
    log_rho = max(math.log2(max(abs(x + r), abs(x - r))) for x, r in roots)
    terms = max(mp.mag(m) + i * log_rho for i, m in enumerate(mu) if m != 0)
    return max(0, math.ceil(k * log_rho + math.log2(k + 1) - terms))


def _cheb_guesses(mu_d, k):
    """Colleague-matrix roots in double precision as initial guesses (in the
    unit-interval variable x)."""
    arr = np.asarray(mu_d, dtype=complex)
    # rescale to keep the companion matrix in floating range; roots unchanged
    arr = arr / np.max(np.abs(arr))
    # The colleague matrix holds mu_n / mu_k: a mu_k that underflows against
    # the largest mu (a truncation far above the admissible k for its Gamma*h)
    # leaves no finite matrix and no usable guesses.
    if abs(arr[-1]) < np.finfo(float).tiny:
        raise ConvergenceError(
            f"colleague guess stage: |mu_k / max mu| = {abs(arr[-1]):.3e} underflows "
            f"in double precision at k={k}; the truncation is far over-resolved",
            worst_residual=math.inf,
        )
    roots = np.polynomial.chebyshev.chebroots(arr)
    if len(roots) != k:
        raise ConvergenceError(
            f"colleague guess stage produced {len(roots)} roots, expected {k}",
            worst_residual=math.inf,
        )
    return roots


def _real_axis_guard_digits(gh):
    """Real-axis Chebyshev sums cancel from I_0(Gh) ~ e^Gh down to O(1);
    budget log10(e^Gh) extra digits for that."""
    return int(0.44 * gh) + 10


def _chebyshev_zeros_mp(spec):
    """All k zeros (z-plane) of the Chebyshev truncation for spec, with their
    worst residual.

    Newton runs in w = z / (Gamma*h): w = x on the real axis and w = i x on
    the imaginary one, where conj(p(-conj(x))) = p(x) because the phase i^i
    of mu is exact.  Either way the roots are symmetric about Im w = 0.
    """
    k, gh, axis = spec.k, spec.gamma_h, spec.axis
    imaginary = axis == "imaginary"
    tol = ZERO_RESIDUAL_PER_K * k
    base_dps = 65 + int(0.25 * k)
    if axis == "real":
        base_dps += _real_axis_guard_digits(gh)
    for boost in (1.0, 1.5):
        dps = int(base_dps * boost)
        with mp.workdps(dps):
            mu = _chebyshev_mu(spec, dps)
            dmu = _cheb_deriv_coeffs(mu)
            xs = _cheb_guesses([complex(m) for m in mu], k)
            bits = _fraction_bits(dps) + _clenshaw_guard_bits(mu, xs)
            fixed_mu = [(_fixed(m.real, bits), _fixed(m.imag, bits)) for m in mu]

            def fixed_p_and_dp(w):
                if not imaginary:
                    return _fixed_clenshaw(fixed_mu, w, bits)
                # x = -i w and dp/dw = -i dp/dx
                p, dp = _fixed_clenshaw(fixed_mu, (w[1], -w[0]), bits)
                return p, (dp[1], -dp[0])

            def residual(w):
                x = mp.mpc(w.imag, -w.real) if imaginary else w
                # |dz/dx| = Gamma*h
                return abs(_clenshaw(mu, x) / _clenshaw(dmu, x)) * gh

            guesses = [1j * x if imaginary else x for x in xs]
            zs, worst, certified = _solve_certified(k, guesses, gh, bits, fixed_p_and_dp, residual)
            if certified:
                return zs, float(worst)
    raise _solve_failed(f"chebyshev zeros k={k} Gamma*h={gh} {axis}", tol, worst)


def _sort_conjugate_closed(zs):
    """Deterministic order: real zeros first (ascending), then each
    upper-half zero immediately followed by its conjugate.  Raises
    ConvergenceError unless the set is exactly closed under conjugation."""
    reals = sorted(z.real for z in zs if z.imag == 0)
    upper = sorted((z for z in zs if z.imag > 0), key=lambda z: (z.imag, z.real))
    lower = sorted((z.conjugate() for z in zs if z.imag < 0), key=lambda z: (z.imag, z.real))
    if upper != lower or len(reals) + 2 * len(upper) != len(zs):
        raise ConvergenceError(
            f"zero set not conjugate-closed: {len(zs)} roots, "
            f"{len(reals)} real, {len(upper)} above and {len(lower)} below the real axis",
            worst_residual=math.inf,
        )
    return [complex(x, 0.0) for x in reals] + [w for z in upper for w in (z, z.conjugate())]


# ---------------------------------------------------------------------------
# disk cache

# written into every cache file; a file from another solver version is recomputed
_SOLVER = "certified-newton-1"


def default_cache_dir():
    env = os.environ.get("TROTTERKIT_ZEROS_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "trotterkit", "zeros")


def _cache_name(family, k, gh=None, axis=None):
    if family == "taylor":
        return f"taylor_{k}.json"
    return f"chebyshev_{k}_{gh:.6f}_{axis}.json"


def _load_zeros(path, header, k):
    """The zeros of a cache file, or None unless its header matches and its
    zeros are k, exactly conjugate-closed and certified by disjoint disks of
    radius k * residual (a legacy bare-list file fails)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or any(data.get(f) != v for f, v in header.items()):
            return None
        residual = float(data["residual"])
        zs = _sort_conjugate_closed([complex(float(re), float(im)) for re, im in data["zeros"]])
    except (OSError, ValueError, KeyError, TypeError, ConvergenceError):
        return None
    if len(zs) != k or not 0 <= residual < ZERO_RESIDUAL_PER_K * k:
        return None
    return zs if _disks_disjoint(zs, k * residual) else None


_memo = {}


def _zeros_cached(family, k, gh, axis, compute, cache_dir):
    key = (family, k, gh, axis)
    got = _memo.get(key)
    if got is not None:
        return list(got)
    cdir = cache_dir if cache_dir is not None else default_cache_dir()
    path = os.path.join(cdir, _cache_name(family, k, gh, axis))
    header = {
        "family": family,
        "k": k,
        "gamma_h": None if gh is None else float(gh).hex(),
        "axis": axis,
        "solver": _SOLVER,
    }
    zs = _load_zeros(path, header, k)
    if zs is None:
        zs, residual = compute()
        zs = _sort_conjugate_closed(zs)
        try:
            os.makedirs(cdir, exist_ok=True)
            payload = dict(header, residual=residual,
                           zeros=[[f"{z.real:.35g}", f"{z.imag:.35g}"] for z in zs])
            fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except OSError:
            pass  # cache is an optimization; never fail the computation
    _memo[key] = tuple(zs)
    return zs


def taylor_zeros(k, *, cache_dir=None):
    """All k zeros of sum_{i<=k} z^i/i!, conjugate-closed, as doubles."""
    if not 1 <= k <= TAYLOR_K_MAX:
        raise RangeError(f"k must be in [1, {TAYLOR_K_MAX}], got {k}")
    return _zeros_cached("taylor", k, None, None, lambda: _taylor_zeros_mp(k), cache_dir)


def chebyshev_zeros(spec, *, cache_dir=None):
    """All k z-plane zeros of the Chebyshev truncation, conjugate-closed."""
    if spec.family != "chebyshev":
        raise StructuralError("chebyshev_zeros needs a chebyshev spec")
    if not 1 <= spec.k <= TAYLOR_K_MAX:
        raise RangeError(f"k must be in [1, {TAYLOR_K_MAX}], got {spec.k}")
    return _zeros_cached(
        "chebyshev",
        spec.k,
        spec.gamma_h,
        spec.axis,
        lambda: _chebyshev_zeros_mp(spec),
        cache_dir,
    )


# ---------------------------------------------------------------------------
# factor ordering and assembly


def gamma_for(zeros, k):
    """Factor coefficients gamma_i = -k / z_i."""
    return [-k / z for z in zeros]


def order_factors(gammas):
    """Deterministic greedy evaluation plan over conjugate-merged groups.

    Groups are picked so the running sum of real parts tracks the ideal
    linear progress line total * (factors consumed / total factors); ties
    break on smaller |Im gamma|, then original index.
    """
    gam = list(gammas)
    used = [False] * len(gam)
    groups = []
    for i, g in enumerate(gam):
        if used[i]:
            continue
        if abs(g.imag) <= 1e-12 * abs(g):
            used[i] = True
            groups.append(Group("lin", g.real, (g.real,), (complex(g.real, 0.0),), i))
        else:
            best, best_d = -1, None
            for j in range(i + 1, len(gam)):
                if used[j]:
                    continue
                d = abs(gam[j] - g.conjugate())
                if best_d is None or d < best_d:
                    best_d, best = d, j
            if best < 0 or best_d > 1e-8 * abs(g):
                raise StructuralError(
                    f"gammas not conjugate-closed: no partner for index {i} ({g!r})"
                )
            used[i] = used[best] = True
            groups.append(
                Group("quad", 2 * g.real, (2 * g.real, abs(g) ** 2), (g, g.conjugate()), i)
            )

    total = sum(g.sum_re for g in groups)
    n_factors = sum(g.n_factors for g in groups)
    remaining = list(range(len(groups)))
    plan = []
    cum = 0.0
    consumed = 0
    while remaining:
        best_idx, best_key = None, None
        for idx in remaining:
            g = groups[idx]
            miss = abs((cum + g.sum_re) - total * (consumed + g.n_factors) / n_factors)
            key = (miss, abs(g.gammas[0].imag), g.index)
            if best_key is None or key < best_key:
                best_key, best_idx = key, idx
        remaining.remove(best_idx)
        g = groups[best_idx]
        plan.append(g)
        cum += g.sum_re
        consumed += g.n_factors
    return tuple(plan)


def r_valid(fact):
    """Validity region size: Taylor disk radius (truncation-limited and
    bounded away from the zeros), or the Chebyshev segment half-width."""
    spec = fact.spec
    if spec.family == "chebyshev":
        return spec.gamma_h
    k = spec.k
    r_trunc = math.exp((math.log(VALIDITY_TRUNCATION) + math.lgamma(k + 2)) / (k + 1))
    r_zero = 0.95 * min(abs(z) for z in fact.zeros)
    return min(r_trunc, r_zero)


def factorize(spec, *, cache_dir=None):
    """Assemble the zero factorization for a series spec."""
    if spec.family == "taylor":
        zeros = taylor_zeros(spec.k, cache_dir=cache_dir)
        scale = 1.0
    else:
        zeros = chebyshev_zeros(spec, cache_dir=cache_dir)
        dps0 = 40
        if spec.axis == "real":
            dps0 += _real_axis_guard_digits(spec.gamma_h)
        with mp.workdps(dps0):
            p0 = _clenshaw(_chebyshev_mu(spec, dps0), mp.mpf(0))
        scale = float(p0.real)
    gammas = gamma_for(zeros, spec.k)
    groups = order_factors(gammas)
    fact = FactorizedPolynomial(
        spec=spec,
        zeros=tuple(zeros),
        gammas=tuple(gammas),
        groups=groups,
        overall_scale=scale,
    )
    _check_zero_clearance(fact)
    return fact


def _check_zero_clearance(fact):
    """No zero may sit on the Chebyshev approximation segment.  (The Taylor
    disk, of radius r_valid <= 0.95 min|z|, holds no zero by construction.)"""
    spec = fact.spec
    if spec.family == "chebyshev":
        gh = spec.gamma_h
        lo = -gh
        if spec.axis == "real":
            # On the real axis, e^x drops below the truncation tail for
            # sufficiently negative x; there the series legitimately
            # oscillates through zero, so clearance is only meaningful on
            # the sub-segment where the approximation resolves e^x at all.
            tail = 2.0 * abs(float(mp.besseli(spec.k + 1, gh)))
            if tail > 0:
                lo = max(lo, math.log(tail) + 1.0)
        if lo >= gh:
            return
        for z in fact.zeros:
            along, across = (z.imag, z.real) if spec.axis == "imaginary" else (z.real, z.imag)
            if across == 0.0 and lo <= along <= gh:
                raise StructuralError(f"zero at {z!r} lies on the approximation segment")


# ---------------------------------------------------------------------------
# evaluation


def _checked(h_op, target):
    """h_op and target as arrays, checked to be a square matrix and a
    target whose leading axis matches it."""
    m = np.asarray(h_op)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"operator must be square, got shape {m.shape}")
    t = np.asarray(target)
    if t.ndim == 0 or t.shape[0] != m.shape[0]:
        raise DimensionError(
            f"target of shape {t.shape} does not match operator dim {m.shape[0]}"
        )
    return m, t


def _applier(h_op, factor, target):
    """The target as an array, and a closure applying (h_op * factor) to
    arrays of its shape.

    A scalar multiplies.  A matrix applied to a 1-D target (a state) whose
    nonzeros fill at most ENTRY_APPLY_MAX_FILL of it is applied through
    its entries: one gather, multiply and row sum over the nonzeros.  Any
    other matrix, and every matrix on a 2-D target (a block, which BLAS-3
    GEMM serves better), is applied as the dense (h_op * factor) @ v.  A
    block wide enough for `eval_factorized`'s one product per factor group
    never comes here (see `_advancer`).
    """
    if np.isscalar(h_op):
        val = h_op * factor
        return target, lambda v: val * v
    m, t = _checked(h_op, target)
    if t.ndim == 1:
        # count before indexing, so a dense operator never holds an index
        # array; scanning m != 0 is 2.6x faster than complex m itself
        nonzero = m != 0
        if np.count_nonzero(nonzero) <= ENTRY_APPLY_MAX_FILL * m.size:
            return t, _entry_applier(m, np.flatnonzero(nonzero), factor)
        del nonzero
    m = m * factor
    return t, lambda v: np.matmul(m, v)


def _entry_applier(m, flat, factor):
    """Closure applying (m * factor) to a vector through the nonzeros of m
    at the C-order flat indices flat.  Rows without an entry give zero."""
    n = m.shape[0]
    rows, cols = np.divmod(flat, n)
    vals = m.reshape(-1)[flat] * factor
    # reduceat sums from each start to the next, so only the first entry of
    # each nonempty row may start a sum; the sums land in their rows
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    hit = rows[starts]

    def apply(v):
        out = np.zeros(n, np.result_type(vals, v))
        out[hit] = np.add.reduceat(vals * v[cols], starts)
        return out

    return apply


def _advancer(h_op, target, fact):
    """The target as an array, and a closure taking an accumulator through
    one group's factor (1 + c1 M/k + c2 (M/k)^2 or 1 + c1 M/k, M = H h).

    A 2-D target of m columns and dim n, with q quadratic groups, takes the
    block form (`_block_advancer`) when q (m - 1) > n: exactly where
    forming H^2 once and one product per group, n^3 + q n^2 (m + 1)
    multiply-adds, beat two products per quadratic group, 2 q n^2 m.
    States, thin blocks, 1x1 inputs and scalars apply H once per factor
    through `_applier`.
    """
    spec = fact.spec
    if not np.isscalar(h_op):
        m, t = _checked(h_op, target)
        quads = sum(g.kind == "quad" for g in fact.groups)
        if t.ndim == 2 and quads * (t.shape[1] - 1) > t.shape[0]:
            return _block_advancer(m, t, spec)
    k = spec.k
    acc, apply_h = _applier(h_op, spec.h, target)

    def advance(acc, g):
        if g.kind == "quad":
            c1, c2 = g.coeffs
            mv = apply_h(acc)
            return acc + (c1 / k) * mv + (c2 / k**2) * apply_h(mv)
        (c1,) = g.coeffs
        return acc + (c1 / k) * apply_h(acc)

    return acc, advance


def _block_advancer(m, t, spec):
    """A private copy of the block t, and a closure applying one group's
    factor to it in place.  H^2 is formed once, unscaled, with h folded
    into the coefficients; each group fills one reused work matrix with
    D = (c1 h/k) H + (c2 h^2/k^2) H^2 (a lin group: D = (c1 h/k) H) and
    adds D @ acc, one product per group.

    The identity stays out of the product: multiplying by I + D would round
    acc itself through every product, which raises the error floor of the
    bench's small-h cells at L = 8 by up to 2.5x, while acc + D @ acc
    stays at or below the per-apply loop's floor.
    """
    h, k = spec.h, spec.k
    acc = np.array(t, dtype=np.result_type(m, t, 1.0))
    m2 = np.matmul(m, m)
    d = np.empty(m.shape, np.result_type(m, 1.0))
    work = np.empty_like(d)
    prod = np.empty_like(acc)

    def advance(acc, g):
        np.multiply(m, g.coeffs[0] * h / k, out=d)
        if g.kind == "quad":
            np.multiply(m2, g.coeffs[1] * h**2 / k**2, out=work)
            np.add(d, work, out=d)
        np.matmul(d, acc, out=prod)
        acc += prod
        return acc

    return acc, advance


def eval_factorized(h_op, target, fact):
    """scale * prod over groups of (1 + c1 M/k + c2 (M/k)^2) applied to target,
    with M = H * spec.h.  The target itself is never modified.

    h_op is a scalar or a square matrix.  A state, a thin block, a 1x1
    input or a scalar gets H applied once per factor, twice per quadratic
    group: through its entries on a 1-D target when they fill at most
    ENTRY_APPLY_MAX_FILL of it, otherwise as a dense product.  A block of
    m columns, dim n and q quadratic groups with q (m - 1) > n, such as
    the identity, takes one product per group from H^2 formed once:
    acc + D @ acc, with the identity kept out of D (see `_advancer` and
    `_block_advancer`)."""
    acc, advance = _advancer(h_op, target, fact)
    for g in fact.groups:
        acc = advance(acc, g)
    if fact.overall_scale != 1.0:
        acc = fact.overall_scale * acc
    return acc


def eval_summed(h_op, target, spec):
    """Direct accumulation: Taylor running-term sum, or the Chebyshev
    three-term recurrence.  Reference path; unstable for Taylor k > 17 at
    large |lambda h|.  H is applied once per term, on every target as
    `eval_factorized` applies it to a state or a thin block: through its
    entries on a 1-D target when they fill at most ENTRY_APPLY_MAX_FILL
    of it, otherwise as a dense product."""
    k = spec.k
    if spec.family == "taylor":
        term, apply_h = _applier(h_op, spec.h, target)
        acc = term
        for i in range(1, k + 1):
            term = apply_h(term) / i
            acc = acc + term
        return acc
    mu = chebyshev_coefficients(spec)
    gh = spec.gamma_h
    denom = (1j * gh) if spec.axis == "imaginary" else gh
    target, apply_x = _applier(h_op, spec.h / denom, target)
    t_prev = target
    t_cur = apply_x(target)
    acc = mu[0] * t_prev + mu[1] * t_cur
    for i in range(2, k + 1):
        t_prev, t_cur = t_cur, 2 * apply_x(t_cur) - t_prev
        acc = acc + mu[i] * t_cur
    return acc
