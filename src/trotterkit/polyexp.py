"""Truncated Taylor/Chebyshev exponentials in zero-factorized form.

A truncation P(z) of e^z (Taylor partial sum, or a Chebyshev series on a
real or imaginary segment) is rewritten over its complex zeros z_i as

    P(z) = scale * prod_i (1 + gamma_i z / k),    gamma_i = -k / z_i,

and evaluated as a product of degree-<=2 real-coefficient factors
(conjugate pairs merged).  The product form stays accurate where the
direct sum suffers catastrophic cancellation (large negative or large
imaginary arguments with k > 17).  One `SeriesSpec` names the truncation,
`truncation_zeros` is the one door to its zeros, and `factorize` builds
its plan from them by position alone.

Zeros are computed once in extended precision by certified Newton: from
asymptotic guesses polished in double precision (Taylor) or colleague-matrix
guesses (Chebyshev), one zero of each conjugate pair is solved by Newton in
fixed-point integer arithmetic and the other mirrored exactly.  Each zero's
residual |p/p'| comes from the kernel's own last evaluation, |p| widened by
its evaluation allowance, and must meet a per-root contract; disjoint
inclusion disks certify that all k were found.  The zeros are kept in an
in-process memo and, given a directory, in a file there, which is only a
start: Newton from the stored zeros takes the place of the guesses, and
what it certifies is served.  They are rounded to doubles for evaluation.
Every Chebyshev path works on one basis, the real working-plane coefficients
(`_chebyshev_plane`): Bessel values from mpmath J/I seeds plus recurrence.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import numpy as np

from .errors import ConvergenceError, DimensionError, RangeError, StructuralError, real_field
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
    "taylor_cutoff",
    "chebyshev_admissible_k",
    "truncation_zeros",
    "factorize",
    "eval_factorized",
    "eval_summed",
    "r_valid",
    "suggest_gamma",
]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SeriesSpec:
    """Which truncation: family, order k (an int), and for Chebyshev alone
    the scale and axis; h and gamma_scale are numbers, stored as floats."""

    family: str
    k: int
    gamma_scale: Optional[float] = None
    axis: Optional[str] = None
    h: float = 1.0

    def __post_init__(self):
        if self.family not in ("taylor", "chebyshev"):
            raise StructuralError(f"family must be 'taylor' or 'chebyshev', got {self.family!r}")
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
            raise StructuralError(f"k must be an integer >= 1, got {self.k!r}")
        object.__setattr__(self, "h", real_field(self.h, "h"))
        if self.gamma_scale is not None:
            object.__setattr__(self, "gamma_scale", real_field(self.gamma_scale, "gamma_scale"))
        if self.family == "taylor":
            if (self.gamma_scale, self.axis) != (None, None):
                raise StructuralError("a taylor spec takes no gamma_scale or axis")
        else:
            if self.gamma_scale is None or not self.gamma_scale > 0:
                raise StructuralError("chebyshev spec needs gamma_scale > 0")
            if not 0 < self.gamma_h < math.inf:
                raise StructuralError(f"Gamma*h must be finite and > 0, got {self.gamma_h!r}")
            if self.axis not in ("real", "imaginary"):
                raise StructuralError(f"axis must be 'real' or 'imaginary', got {self.axis!r}")

    @property
    def gamma_h(self):
        """The interval half-width Gamma*h."""
        return self.gamma_scale * self.h


@dataclass(frozen=True)
class Group:
    """One evaluation factor: a conjugate pair (quad) or a real zero (lin).

    coeffs is (2*Re(gamma), |gamma|^2) for quad and (gamma,) for lin, one
    per zero covered; coeffs[0] is the real-part sum the plan balances on.
    """

    kind: str
    coeffs: tuple


@dataclass(frozen=True)
class FactorizedPolynomial:
    """A spec's zeros (`_sort_conjugate_closed` order) and groups (plan order)."""

    spec: SeriesSpec
    zeros: tuple
    groups: tuple
    overall_scale: float

    @property
    def k(self):
        return self.spec.k


# ---------------------------------------------------------------------------
# Bessel sequences (mpmath J/I seeds, downward recurrence)


def _bessel_sequence(kind, n_max, x, *, dps=None):
    """[f_0(x), ..., f_n_max(x), f_{n_max+1}(x)] for f = J or I.

    mpmath gives the seeds f_{n_max+1} and f_{n_max}; the downward
    recurrence f_{n-1} = (2n/x) f_n -/+ f_{n+1} (stable for both J and I)
    gives the rest, at 10 guard digits above the requested precision.
    Returns mpmath numbers at dps when it is set (the zero solver needs
    extended-precision coefficients), doubles otherwise.
    """
    f = mp.besseli if kind == "I" else mp.besselj
    num = float if dps is None else mp.mpf
    if x == 0:
        return [num(1)] + [num(0)] * (n_max + 1)
    sign = 1 if kind == "I" else -1
    with mp.workdps((dps or 16) + 10):
        x_ = mp.mpf(x)
        nxt, cur = f(n_max + 1, x_), f(n_max, x_)
        out = [nxt, cur]
        for n in range(n_max, 0, -1):
            nxt, cur = cur, (2 * n / x_) * cur + sign * nxt
            out.append(cur)
    with mp.workdps(dps or 16):
        return [num(v) for v in reversed(out)]


# ---------------------------------------------------------------------------
# cutoff rules and coefficients


def taylor_cutoff(lambda_max, h, epsilon):
    """Smallest k with (lambda_max*h)^k / (k+1)! < epsilon; lambda_max,
    h and their product finite.

    f(k) = k log(lambda_max*h) - lgamma(k + 2) is concave in k, so the k
    with f(k) >= log epsilon form one run from 1: a doubling search past its
    end and a bisection find the first k after it in O(log k) steps."""
    if not (0 <= lambda_max < math.inf and 0 < h < math.inf and 0 < epsilon < 1):
        raise RangeError("need finite lambda_max >= 0 and h > 0, 0 < epsilon < 1")
    lh = lambda_max * h
    if lh == math.inf:
        raise RangeError(f"lambda_max * h overflows: {lambda_max!r} * {h!r}")
    if lh == 0:
        return 1
    log_lh = math.log(lh)
    log_eps = math.log(epsilon)

    def above(k):
        try:
            return k * log_lh - math.lgamma(k + 2) >= log_eps
        except OverflowError:
            raise RangeError(f"the cutoff for lambda_max * h = {lh!r} overflows") from None

    lo, hi = 0, 1  # every k <= lo is above; once the doubling stops, hi is not
    while above(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


@functools.lru_cache(maxsize=64)
def _chebyshev_plane(spec, dps=None):
    """a_0..a_{k+1}, the real coefficients of the truncation sum_i a_i t_i(w)
    in the working plane w = z / (Gamma*h) (t_i as in `eval_summed`): 2
    I_i(Gamma*h) on the real axis, 2 J_i(Gamma*h) on the imaginary one (a_0
    undoubled).  a_{k+1} is the first coefficient the truncation drops.

    In double precision by default; with dps set, as mpmath numbers at that
    working precision (call it inside mp.workdps(dps)).  A tuple, built once
    per (spec, dps): the solve and `factorize` share it.
    Every Chebyshev path reads it, so a Gamma*h past BESSEL_X_MAX is refused
    here.
    """
    if spec.gamma_h > BESSEL_X_MAX:
        raise RangeError(f"Gamma*h = {spec.gamma_h} beyond supported range (<= {BESSEL_X_MAX:g})")
    kind = "J" if spec.axis == "imaginary" else "I"
    seq = _bessel_sequence(kind, spec.k, spec.gamma_h, dps=dps)
    return (seq[0], *(2 * f for f in seq[1:]))


def chebyshev_admissible_k(gamma_h, axis, epsilon):
    """Smallest k with |a_{k+1}| < epsilon (series tail suppressed), for
    gamma_h in [0, BESSEL_X_MAX] (1 at gamma_h = 0): a_{k+1} is the
    dropped coefficient of `_chebyshev_plane`'s builder, run once up to
    order 2 gamma_h + 200 outside the solve's plane cache."""
    if not (0 <= gamma_h <= BESSEL_X_MAX and 0 < epsilon < 1):
        raise RangeError(f"need 0 <= gamma_h <= {BESSEL_X_MAX:g}, 0 < epsilon < 1")
    if axis not in ("real", "imaginary"):
        raise StructuralError(f"axis must be 'real' or 'imaginary', got {axis!r}")
    if gamma_h == 0:
        return 1
    n_hi = int(2 * gamma_h) + 200
    a = _chebyshev_plane.__wrapped__(SeriesSpec("chebyshev", n_hi, gamma_scale=gamma_h, axis=axis))
    for k in range(1, n_hi):
        if abs(a[k + 1]) < epsilon:
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
    """The zeros of the Taylor truncation s_k in double precision: the real
    one (odd k), each upper-half zero, then their conjugates.

    Guesses in w = z / k come from the Szego curve with the first-order
    correction of Carpenter, Varga & Waldvogel: the solutions of k(ln w + 1
    - w) - ln(sqrt(2 pi k)(1-w)/w) = 2 pi i m by Newton continuation from the
    leftmost crossing, and for odd k one Newton step of that equation on the
    real axis from the crossing.  They are only 1e-3 (k = 400) to 0.6 (k =
    1) accurate at their worst root.  `_polished` takes them to within 8e-16
    of the zeros (relative, k = 1..400), from which fixed-point Newton
    certifies each zero in two kernel evaluations, one step and the one that
    meets its stop rule; from the guesses themselves it takes up to 8.  If
    the polish fails, the guesses stand.
    """
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
        # the curve equation vanishes at -r0 but for its correction term
        corr = math.log(math.sqrt(2 * math.pi * k) * (1 + r0) / r0)
        out.append(complex(-r0 - corr / (k * (1 / r0 + 1) + 1 / r0 - 1 / (1 + r0))))
    ws = list(_polished(np.array(out, dtype=complex), k) * k)
    upper = ws[:k // 2]
    return ws[k // 2:] + upper + [z.conjugate() for z in upper]


def _polished(ws, k):
    """The w-plane zeros of s_k(k w) from the guesses ws (the upper-half
    ones in falling argument, then the real one for odd k), by Newton in
    double precision on all of them at once; or ws itself if a run misses
    the stop test, a result is not finite, or the results leave the upper
    half plane or their order, as two that coincide do.

    e^-z s_k(z) = Q(k+1, z), the regularized upper incomplete gamma
    function, so the zeros are where P(k+1, k w) = e^L(w) is 1, with

        L(w) = (k+1) ln(k w) - k w - ln Gamma(k+2) + ln M(w)
             = (k+1) ln w + k (1 - w) + const + ln M(w),
        M(w) = sum_n w^n prod_{m<=n} k / (k+1+m),   L'(w) = (k+1) / (w M(w)),

    M cut where its terms fall below 1e-22 at the largest |w|.  Newton on
    e^L - 1 steps by (1 - e^-L) / L', with no branch of the logarithm to
    pick, and stops after a step below 1e-10 |w|, which leaves rounding
    error alone (4 sweeps for most k, 6 at k = 1, 3 and 5).  const = (k+1)
    ln k - ln Gamma(k+2) - k comes from mpmath: rounded in double precision
    it moves the zeros near w = 1, where |L'| is smallest, so far that some
    of them need a third kernel evaluation (4 at k = 304, 1 at k = 350).
    The real root's rounding-level imaginary part is dropped."""
    c = [1.0]
    reach = float(np.max(np.abs(ws)))
    while c[-1] * reach ** (len(c) - 1) >= 1e-22:
        c.append(c[-1] * k / (k + 1 + len(c)))
    with mp.workdps(30):
        const = float((k + 1) * mp.log(k) - mp.loggamma(k + 2) - k)
    w = ws
    with np.errstate(all="ignore"):  # a diverging run fails the checks below
        for _ in range(12):
            m = np.full_like(w, c[-1])
            for cn in c[-2::-1]:
                m *= w
                m += cn
            ell = (k + 1) * np.log(w) + k * (1 - w) + const + np.log(m)
            step = (1 - np.exp(-ell)) * w * m / (k + 1)
            w = w - step
            if np.all(np.abs(step) <= 1e-10 * np.abs(w)):
                break
        else:
            return ws
        upper = w[:k // 2]
        w[k // 2:] = w[k // 2:].real
        ordered = np.all(upper.imag > 0) and np.all(np.diff(np.angle(upper)) < -1e-8)
    return w if ordered and np.all(np.isfinite(w)) else ws


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


def _residual(value, slack, scale):
    """The z-plane |p/p'| of one kernel evaluation value = (p, p'): (|p| +
    slack) / |p'| in the working plane, its square roots rounded to widen
    it, times scale.  slack, the kernel's evaluation allowance in units of
    2^-bits, makes it bound the exact |p/p'| where the fixed-point |p|
    truncates to 0."""
    (pr, pi), (dr, di) = value
    den = math.isqrt(dr * dr + di * di)
    return scale * ((math.isqrt(pr * pr + pi * pi) + 1 + slack) / den) if den else math.inf


def _newton_fixed(p_and_dp, w, bits, stop, slack, scale):
    """Newton steps in complex fixed point (a pair of ints scaled by 2^bits)
    from w, at most NEWTON_MAX_STEPS kernel evaluations.  The run ends at the
    first evaluation whose requested step is shorter than stop (fixed point
    too), without taking that step: it returns (the point of that evaluation,
    its `_residual`, True).  The step it declines is |p/p'| there, so the
    residual is below stop plus the allowance.  A run that misses the rule
    returns (the last point evaluated, its residual, False)."""
    for n in range(1, NEWTON_MAX_STEPS + 1):
        (pr, pi), (dr, di) = value = p_and_dp(w)
        den = dr * dr + di * di
        if den == 0:
            break
        step = (((pr * dr + pi * di) << bits) // den, ((pi * dr - pr * di) << bits) // den)
        if step[0] ** 2 + step[1] ** 2 < stop**2:
            return w, _residual(value, slack, scale), True
        if n == NEWTON_MAX_STEPS:
            break
        w = (w[0] - step[0], w[1] - step[1])
    return w, _residual(value, slack, scale), False


def _disks_disjoint(zs, radius):
    """True when the disks of the given radius around the double roots zs,
    widened by their rounding allowance 2^-50 |z|, are pairwise disjoint."""
    z = np.asarray(zs, dtype=complex)
    rad = radius + 2.0**-50 * np.abs(z)
    gap = np.abs(z[:, None] - z[None, :]) - (rad[:, None] + rad[None, :])
    np.fill_diagonal(gap, np.inf)
    return bool(np.all(gap > 0))


def _newton_certified(k, guesses, scale, bits, fixed_p_and_dp, slack):
    """Solve one representative per symmetric pair of guesses by fixed-point
    Newton, mirror it, and certify the result as the complete root set.

    The working plane is w = z / scale (scale > 0 real).  Each residual is
    the z-plane |p/p'| `_newton_fixed` returns, with the kernel's allowance
    slack; a mirrored root inherits it.  Some root lies within k*|p/p'| of
    any point (|p'/p| = |sum 1/(z - z_j)|), so k pairwise disjoint disks of
    radius k * worst prove all k roots found.  Returns (z-plane roots as
    doubles, worst residual, None), with the failed check named in place of
    None; a Newton run that misses the stop rule ends the pass there.
    """
    reps = _representatives(guesses)
    if reps is None:
        return [], math.inf, "guesses not conjugate-symmetric"
    tol = ZERO_RESIDUAL_PER_K * k
    stop = _fixed(tol * 1e-2 / scale, bits)
    num, den = float(scale).as_integer_ratio()
    den <<= bits
    zs, worst = [], 0.0
    for g in reps:
        w0 = (_fixed(g.real, bits), _fixed(g.imag, bits))
        w, res, converged = _newton_fixed(fixed_p_and_dp, w0, bits, stop, slack, scale)
        if not converged:
            return zs, res, "Newton missed its stop rule"
        worst = max(worst, res)
        # z = scale * w rounded once, so the mirror is the exact conjugate
        z = complex(w[0] * num / den, w[1] * num / den)
        zs += [z] if w[1] == 0 else [z, z.conjugate()]
    if worst >= tol:
        return zs, worst, "residual above contract"
    if len(zs) != k or not _disks_disjoint(zs, k * worst):
        return zs, worst, "root disks not disjoint"
    return zs, worst, None


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


def _fixed_power(w, k, bits):
    """u^k for the fixed-point u = w 2^-bits by binary powering, as (ints
    scaled by 2^s, s).  With m the bit length of w's larger part, |u| >=
    2^(m - 1 - bits), so g = k (bits + 1 - m) guard bits keep min(1, |u|^k)
    2^s, and so every partial power u^j (j <= k) at that scale, at least
    2^bits: each truncation errs by at most about 2^-bits of it relatively.
    The bit length of k and 2 bits more cover the up to 2k-fold growth of
    these errors through the squarings, leaving u^k within about 2^-bits."""
    g = max(0, k * (bits + 1 - max(abs(w[0]), abs(w[1])).bit_length())) + k.bit_length() + 2
    s = bits + g
    br, bi = w[0] << g, w[1] << g
    rr, ri = 1 << s, 0
    while True:
        if k & 1:
            rr, ri = (rr * br - ri * bi) >> s, (rr * bi + ri * br) >> s
        k >>= 1
        if not k:
            return (rr, ri), s
        br, bi = (br * br - bi * bi) >> s, (2 * br * bi) >> s


def _fixed_horner(c, w, bits):
    """The Taylor kernel: p(u) = sum c_i u^i, and p'(u) = k (p(u) - c_k u^k),
    exact for c_i = k^i / i! since i c_i = k c_{i-1}.

    p is Horner's rule on the real quadratic x^2 - t x + s that has u as a
    root (Goertzel), two real products per coefficient: b_j = c_j + t b_{j+1}
    - s b_{j+2}, p = c_0 + u b_1 - s b_2, with t = 2 Re u and s = |u|^2 exact
    (s at 2*bits fraction bits).  A truncation error e_j (|e_j| < 1 unit) of
    b_j spreads to b_i (i < j) as e_j U_{j-i}, with U_0 = 1, U_1 = t and U_n
    = t U_{n-1} - s U_{n-2}, and reaches p as e_j u^j, since u U_n - s
    U_{n-1} = u^(n+1); so where |u| <= 1 the truncations cost under k + 1
    units and the floored coefficients as much again.  u^k comes from
    `_fixed_power`, whose guard bits keep its relative precision where |u|^k
    is far below 2^-bits (at |u| = 0.278, k = 152: 2^-281), so p' keeps its
    relative precision at the zeros, where it is -k c_k u^k."""
    wr, wi = w
    t, s, bits2 = 2 * wr, wr * wr + wi * wi, 2 * bits
    b1, b2 = c[-1], 0
    for ci in c[-2:0:-1]:
        b1, b2 = ci + ((t * b1) >> bits) - ((s * b2) >> bits2), b1
    pr, pi = c[0] + ((wr * b1) >> bits) - ((s * b2) >> bits2), (wi * b1) >> bits
    k = len(c) - 1
    (ur, ui), shift = _fixed_power(w, k, bits)
    return (pr, pi), (k * (pr - ((c[-1] * ur) >> shift)), k * (pi - ((c[-1] * ui) >> shift)))


def _taylor_setup(spec, dps, zeros=None):
    """The Taylor solve at dps digits (inside mp.workdps(dps)): guesses,
    scale, fraction bits, the fixed-point kernel for p and p', and the
    allowance for the error of p, as _newton_certified takes them; given
    z-plane zeros (a start), they stand in for the guesses.
    Newton runs in u = z/k, where the coefficients k^i/i! are all >= 1 and
    every zero has |u| <= 1, so no error grows: the kernel's p is within
    2(k + 1) units of 2^-bits (`_fixed_horner`), and 3(k + 1) bound it.  The
    kernel's p' comes from p, so the allowance is p's alone."""
    k = spec.k
    bits = _fraction_bits(dps)
    c = [(k**i << bits) // math.factorial(i) for i in range(k + 1)]
    guesses = [z / k for z in (_szego_guesses(k) if zeros is None else zeros)]
    return guesses, k, bits, lambda w: _fixed_horner(c, w, bits), 3 * (k + 1)


def _fixed_chebyshev_u(w, k, bits, sign):
    """(u_k, u_{k-1}) at the fixed-point w, for u_0 = 1, u_1 = 2w and u_{i+1}
    = 2w u_i - sign u_{i-1} (U_i on the real axis, sign 1; i^i U_i(-i w) on
    the imaginary one, sign -1), by doubling on the bits of k: u_{2n} = u_n^2
    - sign u_{n-1}^2 and u_{2n-1} = 2 u_{n-1} (u_n - w u_{n-1}), then one
    recurrence step where the bit is set.  As (ints scaled by 2^s, s).

    With rho as in `_clenshaw_log_rho`, |u_i| <= (i + 1) rho^i and |w| <=
    rho; so an error of (u_n, u_{n-1}) grows through one doubling by at most
    10 (n + 1) rho^n, and so relatively to (2n + 1) rho^(2n) by at most 5
    (n + 2), and through one recurrence step by at most 3, plus a few units
    of truncation.  g = L (bit length of (k + 2) + 5) guard bits over the L
    = bit length of k levels cover that, leaving u_k and u_{k-1} within
    (k + 1) rho^k units of 2^-bits."""
    levels = k.bit_length()
    g = levels * ((k + 2).bit_length() + 5)
    s = bits + g
    wr, wi = w[0] << g, w[1] << g
    ar, ai, br, bi = 2 * wr, 2 * wi, 1 << s, 0  # (u_1, u_0)
    for bit in bin(k)[3:]:
        cr, ci = ar - ((wr * br - wi * bi) >> s), ai - ((wr * bi + wi * br) >> s)
        ar, ai, br, bi = (
            ((ar + ai) * (ar - ai) - sign * (br + bi) * (br - bi)) >> s,
            (ar * ai - sign * br * bi) >> (s - 1),
            (br * cr - bi * ci) >> (s - 1),
            (br * ci + bi * cr) >> (s - 1),
        )
        if bit == "1":
            ar, ai, br, bi = (((wr * ar - wi * ai) >> (s - 1)) - sign * br,
                              ((wr * ai + wi * ar) >> (s - 1)) - sign * bi, ar, ai)
    return (ar, ai), (br, bi), s


def _fixed_chebyshev(a, w, bits, sign, gh_ratio):
    """The Chebyshev kernel in the working plane w, for the real coefficients
    a_0..a_{k+1} (`_chebyshev_plane`, in fixed point): p(w) = sum_{i<=k} a_i
    t_i(w) over t_0 = 1, t_1 = w, t_{i+1} = 2w t_i - sign t_{i-1}, and

        p'(w) = Gamma*h (p(w) - (a_k u_k(w) + sign a_{k+1} u_{k-1}(w)) / 2),

    with u_i from `_fixed_chebyshev_u` and gh_ratio = Gamma*h as
    (numerator, shift).  For the Bessel coefficients of e^(Gamma*h w) the sum over all i
    has p' = Gamma*h p, and the Bessel recurrence leaves, of the truncation,
    exactly the bracket's last term.

    p is Clenshaw's recurrence b_j = a_j + 2w b_{j+1} - sign b_{j+2}, p =
    a_0 + w b_1 - sign b_2, run in R[X]/(X^2 - t X + s), which has w as a
    root, with t = 2 Re w and s = |w|^2 exact (s at 2*bits fraction bits),
    as Goertzel's device in `_fixed_horner`: b_j = al_j + be_j X and 2X b_j
    = -2 be_j s + 2(al_j + be_j t) X cost two real products per coefficient.
    Evaluation at w is a ring map, so a truncation of al_j or be_j (under a
    unit each) reaches p as an error e + e' w of a_j would, times t_j(w);
    with the floored a_j and |t_j(w)| <= rho^j (`_clenshaw_log_rho`), p is
    within (k + 1)(2 + |w|) rho^k + 3 units of 2^-bits.  p' enters the
    residual only as its divisor and needs only relative accuracy: the
    floored a_i make the identity hold up to sum_i r_i (t_i' - Gamma*h t_i)
    (|r_i| < 1 unit), and u_k, u_{k-1} carry (k + 1) rho^k units each,
    far below |p'| wherever the guard bits keep the sum's terms above the
    fraction bits (`_clenshaw_guard_bits`)."""
    wr, wi = w
    t, s, bits2 = 2 * wr, wr * wr + wi * wi, 2 * bits
    al = be = al2 = be2 = 0
    for aj in a[-2:0:-1]:
        al, be, al2, be2 = (aj - ((be * s) >> (bits2 - 1)) - sign * al2,
                            2 * al + ((be * t) >> (bits - 1)) - sign * be2, al, be)
    # p = a_0 + X b_1 - sign b_2 = c0 + c1 X, then X = w
    c0 = a[0] - ((be * s) >> bits2) - sign * al2
    c1 = al + ((be * t) >> bits) - sign * be2
    pr, pi = c0 + ((c1 * wr) >> bits), (c1 * wi) >> bits
    (ukr, uki), (u1r, u1i), shift = _fixed_chebyshev_u(w, len(a) - 2, bits, sign)
    ak, ak1 = a[-2], sign * a[-1]
    num, e = gh_ratio
    return (pr, pi), ((num * (pr - ((ak * ukr + ak1 * u1r) >> (shift + 1)))) >> e,
                      (num * (pi - ((ak * uki + ak1 * u1i) >> (shift + 1)))) >> e)


def _clenshaw_log_rho(xs):
    """log2 of the largest rho = |x + sqrt(x^2 - 1)| >= 1 (the larger branch)
    over the points xs of the segment's variable x (x = w on the real axis,
    x = -i w on the imaginary one): |T_i(x)| <= rho^i and |U_i(x)| <= (i + 1)
    rho^i, so the rounding errors of a Clenshaw pass at x grow like rho^k."""
    roots = [(x, cmath.sqrt(x * x - 1)) for x in xs]
    return max(math.log2(max(abs(x + r), abs(x - r))) for x, r in roots)


def _clenshaw_guard_bits(a, xs):
    """Extra fraction bits so that the fixed-point kernel keeps the accuracy
    of a floating one at the points xs: rounding errors at x grow like rho^k
    (`_clenshaw_log_rho`), while the terms a_i t_i of the sum are only as
    large as max_i |a_i| rho^i (Taylor-like zeros far off the segment have
    rho ~ 2|x| and tiny high-order a_i).  The shortfall grows with rho, so
    the outermost point decides.  a_0..a_k are the working-plane
    coefficients (`_chebyshev_plane`)."""
    k = len(a) - 1
    log_rho = _clenshaw_log_rho(xs)
    terms = max(mp.mag(m) + i * log_rho for i, m in enumerate(a) if m != 0)
    return max(0, math.ceil(k * log_rho + math.log2(k + 1) - terms))


def _colleague_guesses(a, sign):
    """Roots of sum_{i<=k} a_i t_i(w) (`_fixed_chebyshev`'s basis) in double
    precision, as the eigenvalues of the real colleague matrix: w t_0 = t_1
    and w t_i = (t_{i+1} + sign t_{i-1}) / 2, with t_k replaced by -sum_{i<k}
    a_i t_i / a_k.  A real matrix gives its complex eigenvalues in exact
    conjugate pairs."""
    k = len(a) - 1
    arr = np.array([float(m) for m in a])
    # rescale to keep the colleague matrix in floating range; roots unchanged
    arr = arr / np.max(np.abs(arr))
    # The matrix holds a_n / a_k: an a_k that underflows against the largest
    # a (a truncation far above the admissible k for its Gamma*h) leaves no
    # finite matrix and no usable guesses.
    if abs(arr[-1]) < np.finfo(float).tiny:
        raise ConvergenceError(
            f"colleague guess stage: |mu_k / max mu| = {abs(arr[-1]):.3e} underflows "
            f"in double precision at k={k}; the truncation is far over-resolved",
            worst_residual=math.inf,
        )
    m = np.zeros((k, k))
    i = np.arange(1, k)
    m[i - 1, i] = 0.5
    m[i, i - 1] = 0.5 * sign
    m[0, 1:2] = 1.0
    m[-1] -= arr[:k] / arr[k] * (0.5 if k > 1 else 1.0)
    # the similarity diag(sqrt 2, 1, ..., 1) makes the tridiagonal part
    # symmetric up to sign, as numpy's chebcompanion does: +-sqrt(1/2)
    # beside t_0 and +-1/2 elsewhere
    d = np.ones(k)
    d[0] = math.sqrt(2.0)
    return list(np.linalg.eigvals(m * d[None, :] / d[:, None]).astype(complex))


def _chebyshev_setup(spec, dps, zeros=None):
    """The Chebyshev solve at dps digits, as _taylor_setup.  Newton runs in
    w = z / (Gamma*h) = x on the real axis and i x on the imaginary one,
    where the truncation is sum a_i t_i(w) with real a_i
    (`_chebyshev_plane`), so its roots are symmetric about Im w = 0.  The
    guesses are `_colleague_guesses`, or the given zeros (a start), which
    then take their place and spare the colleague matrix.  The fraction bits
    take `_clenshaw_guard_bits` over those points, and the allowance is
    `_fixed_chebyshev`'s bound for p over them, (k + 1)(3 + max |w|) units
    of 2^-bits times 2^ceil(k log2 rho) >= rho^k, with a factor 4 for Newton
    iterates whose rho^k exceeds the points' (rho up to 4^(1/k) larger)."""
    k, gh = spec.k, spec.gamma_h
    sign = -1 if spec.axis == "imaginary" else 1
    a = _chebyshev_plane(spec, dps)
    ws = _colleague_guesses(a[:-1], sign) if zeros is None else [z / gh for z in zeros]
    xs = [complex(w.imag, -w.real) if sign < 0 else w for w in ws]
    bits = _fraction_bits(dps) + _clenshaw_guard_bits(a[:-1], xs)
    fixed_a = [_fixed(m, bits) for m in a]
    reach = 3 + math.ceil(max(abs(w) for w in ws))
    slack = 4 * (k + 1) * reach << math.ceil(k * _clenshaw_log_rho(xs))
    num, den = float(gh).as_integer_ratio()
    gh_ratio = (num, den.bit_length() - 1)
    return ws, gh, bits, lambda w: _fixed_chebyshev(fixed_a, w, bits, sign, gh_ratio), slack


_SETUPS = {"taylor": _taylor_setup, "chebyshev": _chebyshev_setup}


def _working_dps(spec):
    """Digits a zero solve first sets up at, and those of `factorize`'s
    p(0): 41 + k/4 for Taylor; 65 + k/4 for Chebyshev, plus log10(e^Gh) +
    10 on the real axis, whose sums cancel from I_0(Gh) ~ e^Gh down to
    O(1).  Where they fall short, on the imaginary axis far below or far
    above the admissible k, `_zeros_mp` raises them by what its failed pass
    measures."""
    if spec.family == "taylor":
        return 41 + int(0.25 * spec.k)
    dps = 65 + int(0.25 * spec.k)
    return dps + int(0.44 * spec.gamma_h) + 10 if spec.axis == "real" else dps


def _zeros_mp(spec, start=None):
    """All k zeros (z-plane) of the truncation for spec, meeting the residual
    contract, with their worst residual and the digits they were certified
    at: certified Newton at `_working_dps` from start (z-plane zeros, such
    as a zero file's) or else the family's guesses.  A pass's residual
    floor, scale (|p| + 1 + slack) / |p'| with slack a fixed count of
    2^-bits units, scales as 10^-dps (`_fraction_bits`), so a pass that
    fails with a finite worst residual at or above the contract measures
    the digits it lacks: one more set-up, at dps + ceil(log10(worst / tol))
    + 2, starts from that pass's guesses and is not raised again.  Before
    that, a first pass from the family's guesses whose Newton runs missed
    their stop rule or collided is run again from refined guesses; one
    whose roots all converged but missed the contract raises straight from
    its own, and a start or a raised set-up refines nothing.
    ConvergenceError names the check the last pass failed."""
    k, tol = spec.k, ZERO_RESIDUAL_PER_K * spec.k
    dps, zeros, raised = _working_dps(spec), start, False
    while True:
        with mp.workdps(dps):
            guesses, scale, bits, kernel, slack = _SETUPS[spec.family](spec, dps, zeros)
            zs, worst, failed = _newton_certified(k, guesses, scale, bits, kernel, slack)
            if failed not in (None, "residual above contract") and zeros is None:
                guesses = _refined_guesses(kernel, guesses, bits)
                zs, worst, failed = _newton_certified(k, guesses, scale, bits, kernel, slack)
        if not failed:
            return zs, worst, dps
        if raised or not 0 < tol <= worst < math.inf:
            break
        dps += math.ceil(math.log10(worst / tol)) + 2
        zeros, raised = [w * scale for w in guesses], True
    what = f"{spec.family} zeros k={k}"
    what += f" Gamma*h={spec.gamma_h} {spec.axis}" if spec.family == "chebyshev" else ""
    raise ConvergenceError(
        f"{what}: {failed}: residual {worst:.3e}, contract {tol:.3e}", worst_residual=worst
    )


def _sort_conjugate_closed(zs):
    """Deterministic order of a certified zero set, which holds the exact
    conjugate of each non-real zero (`_newton_certified`): real zeros first
    (ascending), then each upper-half zero followed by its conjugate."""
    reals = sorted(z.real for z in zs if z.imag == 0)
    upper = sorted((z for z in zs if z.imag > 0), key=lambda z: (z.imag, z.real))
    return [complex(x, 0.0) for x in reals] + [w for z in upper for w in (z, z.conjugate())]


# ---------------------------------------------------------------------------
# zero files


def _stored_zeros(path, header):
    """The zeros of the zero file at path, a start for the solve, or None
    unless it parses and holds the spec's fields of header (any other
    field is ignored)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and all(data.get(f) == v for f, v in header.items()):
            return [complex(float(re), float(im)) for re, im in data["zeros"]]
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return None


_memo = {}


def truncation_zeros(spec, *, cache_dir=None):
    """All k z-plane zeros of spec's truncation as doubles, in
    `_sort_conjugate_closed` order, for 1 <= k <= TAYLOR_K_MAX, from the
    in-process memo or `_zeros_mp`.  With a cache_dir, the spec's zero file
    there is a start for the solve: what that solve certifies is served, a
    start it cannot certify from is dropped for the family's guesses, and
    the file is rewritten only when the served zeros differ from it."""
    if spec.k > TAYLOR_K_MAX:
        raise RangeError(f"k must be in [1, {TAYLOR_K_MAX}], got {spec.k}")
    # the file's record of its spec names the file; Taylor specs of any h share one
    cheb = spec.family == "chebyshev"
    header = {"family": spec.family, "k": spec.k,
              "gamma_h": float(spec.gamma_h).hex() if cheb else None,
              "axis": spec.axis if cheb else None}
    name = f"chebyshev_{spec.k}_{header['gamma_h']}_{spec.axis}" if cheb else f"taylor_{spec.k}"
    path = None if cache_dir is None else os.path.join(cache_dir, name + ".json")
    # the memo key: a zero set met in one directory is still written to the next
    key = (path, *header.values())
    got = _memo.get(key)
    if got is not None:
        return list(got)
    stored = None if path is None else _stored_zeros(path, header)
    zs = None
    if stored is not None:
        try:
            zs = _zeros_mp(spec, stored)[0]
        except (ConvergenceError, ArithmeticError, ValueError):
            pass  # NaN, inf or far-off points also fail the set-up's floats
    zs = _sort_conjugate_closed(_zeros_mp(spec)[0] if zs is None else zs)
    if path is not None and zs != stored:
        try:
            os.makedirs(cache_dir, exist_ok=True)
            payload = dict(header, zeros=[[f"{z.real:.35g}", f"{z.imag:.35g}"] for z in zs])
            fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except OSError:
            pass  # a zero file is an optimization; never fail the computation
    _memo[key] = tuple(zs)
    return zs


# ---------------------------------------------------------------------------
# factor ordering and assembly


def _plan(zeros, k):
    """Deterministic greedy evaluation plan over conjugate-merged groups.

    The zeros are in `_sort_conjugate_closed` order and each factor is
    gamma = -k / z: a real zero is a lin group, and a non-real one and the
    exact conjugate after it a quad group.  Groups are picked so the
    running sum of real parts tracks the ideal linear progress line total *
    (factors consumed / total factors); ties break on smaller |Im gamma|,
    then position.
    """
    groups, ties = [], []  # ties[j]: group j's (|Im gamma|, position)
    i = 0
    while i < len(zeros):
        g = -k / zeros[i]
        if zeros[i].imag == 0:
            groups.append(Group("lin", (g.real,)))
        else:
            groups.append(Group("quad", (2 * g.real, abs(g) ** 2)))
        ties.append((abs(g.imag), i))
        i += len(groups[-1].coeffs)

    total = sum(g.coeffs[0] for g in groups)
    remaining = list(range(len(groups)))
    plan, cum, consumed = [], 0.0, 0
    while remaining:
        best = min(remaining, key=lambda j: (
            abs((cum + groups[j].coeffs[0]) - total * (consumed + len(groups[j].coeffs)) / len(zeros)),
            *ties[j]))
        remaining.remove(best)
        g = groups[best]
        plan.append(g)
        cum += g.coeffs[0]
        consumed += len(g.coeffs)
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
    """The zeros (`truncation_zeros`), their groups in plan order (`_plan`)
    and the scale: 1 for Taylor, and for Chebyshev p(0), read with the zero
    clearance check's a_{k+1} at the solve's first precision `_working_dps`."""
    zeros = truncation_zeros(spec, cache_dir=cache_dir)
    scale = 1.0
    if spec.family == "chebyshev":
        dps = _working_dps(spec)
        sign = -1 if spec.axis == "imaginary" else 1
        with mp.workdps(dps):
            plane = _chebyshev_plane(spec, dps)
            # p(0) = a_0 - sign a_2 + a_4 - ..., as t_2m(0) = (-sign)^m (the
            # basis of `_fixed_chebyshev`), from the top as Clenshaw sums it
            p0 = mp.mpf(0)
            for a in reversed(plane[:-1:2]):
                p0 = a - sign * p0
        scale = float(p0)
        _check_zero_clearance(spec, zeros, plane[-1])
    return FactorizedPolynomial(spec, tuple(zeros), _plan(zeros, spec.k), scale)


def _check_zero_clearance(spec, zeros, dropped):
    """No zero of a Chebyshev truncation may sit on its approximation
    segment; dropped is a_{k+1}, the first coefficient the truncation drops
    (`_chebyshev_plane`).  (The Taylor disk, of radius r_valid <= 0.95
    min|z|, holds no zero by construction.)"""
    gh = spec.gamma_h
    lo = -gh
    if spec.axis == "real":
        # On the real axis, e^x drops below the truncation tail for
        # sufficiently negative x; there the series legitimately
        # oscillates through zero, so clearance is only meaningful on
        # the sub-segment where the approximation resolves e^x at all.
        tail = abs(float(dropped))
        if tail > 0:
            lo = max(lo, math.log(tail) + 1.0)
    if lo >= gh:
        return
    for z in zeros:
        along, across = (z.imag, z.real) if spec.axis == "imaginary" else (z.real, z.imag)
        if across == 0.0 and lo <= along <= gh:
            raise StructuralError(f"zero at {z!r} lies on the approximation segment")


# ---------------------------------------------------------------------------
# evaluation


def _operands(h_op, target):
    """The operator and the target an evaluation runs on: a scalar h_op
    with the target as given, or else both as arrays, checked to be a
    square matrix and a target whose leading axis matches it."""
    if np.isscalar(h_op):
        return h_op, target
    m = np.asarray(h_op)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"operator must be square, got shape {m.shape}")
    t = np.asarray(target)
    if t.ndim == 0 or t.shape[0] != m.shape[0]:
        raise DimensionError(
            f"target of shape {t.shape} does not match operator dim {m.shape[0]}"
        )
    return m, t


def _finite(m):
    """m, refused with StructuralError if any entry is not finite."""
    if not np.isfinite(m).all():
        raise StructuralError("h_op has a non-finite entry")
    return m


def _applier(m, factor, t, k):
    """A callable that multiplies (m * factor) into arrays of t's shape,
    for m and t from `_operands`.

    A scalar multiplies.  A matrix on a 1-D target (a state) whose nonzeros
    fill at most ENTRY_APPLY_MAX_FILL of it is applied through its entry
    table, cut to the rows of R_k: t's support (t != 0), grown by at most
    k rounds in which row i joins when m[i, j] != 0 for some j already in
    the set, stopping early once a round adds nothing.  k applies of m
    leave every entry outside R_k exactly zero, so those rows need no sum,
    and each kept row sums all its entries in the whole matrix's order and
    rounding.  For a Hermitian m, R_k lies in the blocks of m's nonzero
    pattern that meet the support, and is their union once the rounds
    reach a fixed point.  For the XXZ chain's H these blocks are the
    split's `OperatorSplit.sectors`, which for any split are unions of H's
    blocks.

    Any other matrix, and every matrix on a 2-D target (a block, which
    BLAS-3 GEMM serves better), is applied as the dense (m * factor) @ v.
    A block wide enough for `eval_factorized`'s one product per factor
    group never comes here (see `_block_product`).  A non-finite entry of
    m is refused on every path.
    """
    if np.isscalar(m):
        val = _finite(m) * factor
        return lambda v: val * v
    if t.ndim == 1:
        m = np.ascontiguousarray(m)
        nonzero = _nonzero(m)
        # count before indexing, so a dense operator never holds an index array
        if np.count_nonzero(nonzero) <= ENTRY_APPLY_MAX_FILL * m.size:
            rows, cols = np.divmod(np.flatnonzero(nonzero), len(m))
            del nonzero
            vals = _finite(m[rows, cols])
            keep = _reach(rows, cols, t != 0, k)[rows]
            return _entry_applier(rows[keep], cols[keep], vals[keep] * factor, len(m))
        del nonzero
    m = _finite(m) * factor
    return lambda v: np.matmul(m, v)


def _nonzero(m):
    """m != 0 for a C-contiguous m.  A complex m is compared as its real
    and imaginary parts and each pair of flags read as one uint16, the same
    (n, n) flags about 2.5x faster than comparing the complex entries."""
    if np.iscomplexobj(m):
        return (m.view(m.real.dtype) != 0).view(np.uint16) != 0
    return m != 0


def _reach(rows, cols, mark, k):
    """The boolean mask of R_k: the set marked in mark, grown by at most k
    rounds over the entry table (rows, cols), each round adding every row
    with an entry in a marked column; a round that adds nothing ends it."""
    for _ in range(k):
        grown = mark.copy()
        grown[rows[mark[cols]]] = True
        if np.array_equal(grown, mark):
            break
        mark = grown
    return mark


def _entry_applier(rows, cols, vals, n):
    """Closure applying the length-n operator with entries vals at (rows,
    cols), sorted by row, to a vector.  Rows without an entry give zero."""
    # reduceat sums from each start to the next, so only the first entry of
    # each nonempty row may start a sum; the sums land in their rows
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    hit = rows[starts]

    def apply(v):
        out = np.zeros(n, np.result_type(vals, v))
        out[hit] = np.add.reduceat(vals * v[cols], starts)
        return out

    return apply


def _block_product(m, t, fact):
    """The product of fact's group factors applied to a private copy of the
    block t.  H^2 is formed once, unscaled, with h folded into the
    coefficients; each group fills one reused work matrix with
    D = (c1 h/k) H + (c2 h^2/k^2) H^2 (a lin group: D = (c1 h/k) H) and
    adds D @ acc, one product per group.

    The identity stays out of the product: multiplying by I + D would round
    acc itself through every product, which raises the error floor of the
    bench's small-h cells at L = 8 by up to 2.5x, while acc + D @ acc
    stays at or below the per-apply loop's floor.
    """
    h, k = fact.spec.h, fact.spec.k
    acc = np.array(t, dtype=np.result_type(m, t, 1.0))
    m2 = np.matmul(m, m)
    d = np.empty(m.shape, np.result_type(m, 1.0))
    work = np.empty_like(d)
    prod = np.empty_like(acc)
    for g in fact.groups:
        np.multiply(m, g.coeffs[0] * h / k, out=d)
        if g.kind == "quad":
            np.multiply(m2, g.coeffs[1] * h**2 / k**2, out=work)
            np.add(d, work, out=d)
        np.matmul(d, acc, out=prod)
        acc += prod
    return acc


def eval_factorized(h_op, target, fact):
    """scale * prod over groups of (1 + c1 M/k + c2 (M/k)^2) applied to target,
    with M = H * spec.h.  The target itself is never modified.

    h_op is a scalar or a square matrix with finite entries.  A state, a
    thin block, a 1x1 input or a scalar gets H applied once per factor,
    twice per quadratic group, k times in all, by `_applier`: on a state,
    when H's nonzeros fill at most ENTRY_APPLY_MAX_FILL of it, through the
    entries of its rows in R_k, the indices k applies of H can reach from
    the state's support (bit for bit the whole-range result up to the sign
    of a zero), otherwise as a dense product.  A block of m columns, dim n
    and q quadratic groups with q (m - 1) > n, such as the identity, takes
    one product per group from H^2 formed once: acc + D @ acc, with the
    identity kept out of D (`_block_product`).  There H^2 and the q
    products cost n^3 + q n^2 (m + 1) multiply-adds against 2 q n^2 m for
    two products per quadratic group."""
    m, t = _operands(h_op, target)
    quads = sum(g.kind == "quad" for g in fact.groups)
    if not np.isscalar(m) and t.ndim == 2 and quads * (t.shape[1] - 1) > t.shape[0]:
        acc = _block_product(_finite(m), t, fact)
    else:
        k = fact.spec.k
        apply_h = _applier(m, fact.spec.h, t, k)
        acc = t
        for g in fact.groups:
            if g.kind == "quad":
                c1, c2 = g.coeffs
                mv = apply_h(acc)
                acc = acc + (c1 / k) * mv + (c2 / k**2) * apply_h(mv)
            else:
                (c1,) = g.coeffs
                acc = acc + (c1 / k) * apply_h(acc)
    if fact.overall_scale != 1.0:
        acc = fact.overall_scale * acc
    return acc


def eval_summed(h_op, target, spec):
    """Direct accumulation: Taylor running-term sum, or the Chebyshev
    three-term recurrence.  Reference path; unstable for Taylor k > 17 at
    large |lambda h|.  H is applied once per term, k times in all, by
    `_applier`, as in `eval_factorized`.  The Chebyshev sum is sum_i a_i
    t_i(M / (Gamma*h)), a_i from `_chebyshev_plane`, t_{i+1} = 2 w t_i - sign
    t_{i-1}: sign -1 on the imaginary axis (t_i(w) = i^i T_i(w / i)), else 1."""
    k = spec.k
    m, t = _operands(h_op, target)
    if spec.family == "taylor":
        apply_h = _applier(m, spec.h, t, k)
        acc = term = t
        for i in range(1, k + 1):
            term = apply_h(term) / i
            acc = acc + term
        return acc
    a = _chebyshev_plane(spec)
    sign = -1 if spec.axis == "imaginary" else 1
    apply_w = _applier(m, spec.h / spec.gamma_h, t, k)
    t_prev, t_cur = t, apply_w(t)
    acc = a[0] * t_prev + a[1] * t_cur
    for i in range(2, k + 1):
        t_prev, t_cur = t_cur, 2 * apply_w(t_cur) - sign * t_prev
        acc = acc + a[i] * t_cur
    return acc
