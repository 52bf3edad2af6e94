"""Truncated Taylor/Chebyshev exponentials in zero-factorized form.

A truncation P(z) of e^z (Taylor partial sum, or a Chebyshev series on a
real or imaginary segment) is rewritten over its complex zeros z_i as

    P(z) = scale * prod_i (1 + gamma_i z / k),    gamma_i = -k / z_i,

and evaluated as a product of degree-<=2 real-coefficient factors
(conjugate pairs merged).  The product form stays accurate where the
direct sum suffers catastrophic cancellation (large negative or large
imaginary arguments with k > 17).

Zeros are computed once in extended precision by Aberth-Ehrlich iteration
from asymptotic initial guesses, verified against a per-root residual
contract, cached on disk, and rounded to doubles for evaluation.
"""

from __future__ import annotations

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
    ABERTH_MAX_SWEEPS,
    BESSEL_X_MAX,
    GAMMA_MARGIN,
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
# Bessel functions (Miller downward recurrence)


def _bessel_series_small_x(kind, n_max, x, mpf, digits):
    """Power series for tiny x: converges in a handful of terms."""
    out = []
    half = x / 2
    eps = mpf(10) ** (-digits - 4)
    for n in range(n_max + 1):
        term = half**n / mpf(math.factorial(n))
        acc = term
        for m in range(1, 80):
            fac = (half * half) / (m * (n + m))
            term = term * (fac if kind == "I" else -fac)
            acc += term
            if abs(term) <= abs(acc) * eps:
                break
        out.append(acc)
    return out


def _bessel_sequence(kind, n_max, x, *, dps=None):
    """[f_0(x), ..., f_n_max(x)] for f = J or I, by normalized downward
    recurrence; a power-series path handles small x.

    With dps set, runs in mpmath at that precision (the zero solver needs
    extended-precision coefficients); otherwise pure double arithmetic.
    """
    if kind not in ("I", "J"):
        raise StructuralError(f"kind must be 'I' or 'J', got {kind!r}")
    if dps is not None:
        with mp.workdps(dps):
            return _bessel_sequence_ctx(kind, n_max, x, mp.mpf, dps)
    return _bessel_sequence_ctx(kind, n_max, x, float, 16)


def _bessel_sequence_ctx(kind, n_max, x, mpf, digits):
    use_mp = mpf is not float

    if x == 0:
        return [mpf(1)] + [mpf(0)] * n_max
    if x < 1e-2:
        return _bessel_series_small_x(kind, n_max, mpf(x), mpf, digits)

    def run(n_top):
        x_ = mpf(x)
        fp = mpf(0)                      # f_{n+1}
        fc = mpf(10) ** (-digits - 10)   # f_n (arbitrary tiny seed)
        out = [mpf(0)] * (n_max + 1)
        norm = mpf(0)                    # accumulates the normalization sum
        big = mpf(10) ** 250
        for n in range(n_top, 0, -1):
            fm = (2 * n / x_) * fc + (fp if kind == "I" else -fp)
            fp, fc = fc, fm
            nn = n - 1
            if nn <= n_max:
                out[nn] = fc
            if nn >= 1 and (kind == "I" or nn % 2 == 0):
                norm += 2 * fc
            if not use_mp and abs(fc) > big:
                fp, fc = fp / big, fc / big
                norm = norm / big
                for idx in range(min(nn, n_max), n_max + 1):
                    out[idx] = out[idx] / big
        norm += fc  # n reached 0: fc holds f_0
        target = (mp.exp(mpf(x)) if use_mp else math.exp(x)) if kind == "I" else mpf(1)
        factor = target / norm
        return [v * factor for v in out]

    # start above the requested order by the usual Miller safety margin,
    # then verify by re-running higher until the sequence stops moving
    base = n_max + int(math.ceil(math.sqrt(2.3 * digits * max(n_max, x)))) + 10
    prev = run(base)
    cur = prev
    for _ in range(6):
        base = int(base * 1.25) + 16
        cur = run(base)
        ref = max(abs(v) for v in cur)
        dev = max(abs(a - b) for a, b in zip(prev, cur))
        if dev <= ref * mpf(10) ** (-(digits - 2)):
            return cur
        prev = cur
    return cur


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
    return float(_bessel_sequence(kind, int(order), x)[int(order)])


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
    imaginary axis (I_i(i*Gh) = i^i J_i(Gh)).

    In double precision by default; with dps set, as mpmath numbers at that
    working precision (call it inside mp.workdps(dps)).
    """
    imaginary = spec.axis == "imaginary"
    num = mp.mpc if dps is not None else complex if imaginary else float
    seq = _bessel_sequence("J" if imaginary else "I", spec.k, spec.gamma_h, dps=dps)
    phase = num(1j if imaginary else 1)
    return [num(seq[0])] + [2 * phase**i * seq[i] for i in range(1, spec.k + 1)]


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


def _aberth_polish(p_and_dp, guesses, tol_z, step_scale):
    """Aberth-Ehrlich sweeps + one Newton polish in the ambient precision.

    step_scale converts steps/residuals from the working plane to the
    z-plane (Gamma*h for Chebyshev solved in the unit interval variable).
    Returns (roots, worst z-plane residual |p/p'| * step_scale).
    """
    zs = list(guesses)
    n = len(zs)
    stop = tol_z * mp.mpf("1e-2")
    for _ in range(ABERTH_MAX_SWEEPS):
        maxstep = mp.mpf(0)
        new = list(zs)
        for i in range(n):
            p, dp = p_and_dp(zs[i])
            if p == 0:
                continue
            nwt = p / dp
            s = mp.mpc(0)
            for j in range(n):
                if j != i:
                    s += 1 / (zs[i] - zs[j])
            w = nwt / (1 - nwt * s)
            new[i] = zs[i] - w
            if abs(w) > maxstep:
                maxstep = abs(w)
        zs = new
        if maxstep * step_scale < stop:
            break
    worst = mp.mpf(0)
    for i in range(n):
        p, dp = p_and_dp(zs[i])
        zs[i] = zs[i] - p / dp
        p, dp = p_and_dp(zs[i])
        r = abs(p / dp) * step_scale
        if r > worst:
            worst = r
    return zs, worst


def _taylor_zeros_mp(k):
    """All k zeros of the Taylor partial sum, meeting the residual contract."""
    tol = ZERO_RESIDUAL_PER_K * k
    base_dps = 41 + int(0.25 * k)
    worst = None
    for boost in (1.0, 1.5):
        dps = int(base_dps * boost)
        with mp.workdps(dps):
            fac = [1 / mp.factorial(i) for i in range(k + 1)]
            inv_kfac = fac[k]

            def p_and_dp(z):
                s = mp.mpc(fac[k])
                for i in range(k - 1, -1, -1):
                    s = s * z + fac[i]
                return s, s - z**k * inv_kfac

            guesses = [mp.mpc(z) for z in _szego_guesses(k)]
            roots, worst = _aberth_polish(p_and_dp, guesses, mp.mpf(tol), mp.mpf(1))
            if worst < tol:
                return [complex(z) for z in roots]
    raise ConvergenceError(
        f"taylor zeros k={k}: residual {float(worst):.3e} above contract {tol:.3e}",
        worst_residual=float(worst),
    )


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


def _cheb_guesses(mu_d, k):
    """Colleague-matrix roots in double precision as initial guesses (in the
    unit-interval variable x)."""
    arr = np.asarray(mu_d, dtype=complex)
    # rescale to keep the companion matrix in floating range; roots unchanged
    arr = arr / np.max(np.abs(arr))
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
    """All k zeros (z-plane) of the Chebyshev truncation for spec."""
    k, gh, axis = spec.k, spec.gamma_h, spec.axis
    tol = ZERO_RESIDUAL_PER_K * k
    base_dps = 65 + int(0.25 * k)
    if axis == "real":
        base_dps += _real_axis_guard_digits(gh)
    worst = None
    for boost in (1.0, 1.5):
        dps = int(base_dps * boost)
        with mp.workdps(dps):
            mu = _chebyshev_mu(spec, dps)
            dmu = _cheb_deriv_coeffs(mu)

            def p_and_dp(x):
                return _clenshaw(mu, x), _clenshaw(dmu, x)

            guesses = [mp.mpc(x) for x in _cheb_guesses([complex(m) for m in mu], k)]
            # steps and residuals map to the z-plane with |dz/dx| = Gamma*h
            roots, worst = _aberth_polish(p_and_dp, guesses, mp.mpf(tol), mp.mpf(gh))
            if worst < tol:
                rot = mp.mpc(0, gh) if axis == "imaginary" else mp.mpf(gh)
                return [complex(rot * x) for x in roots]
    raise ConvergenceError(
        f"chebyshev zeros k={k} Gamma*h={gh} {axis}: residual {float(worst):.3e} "
        f"above contract {tol:.3e}",
        worst_residual=float(worst),
    )


def _sort_conjugate_closed(zs):
    """Deterministic order with exact conjugate closure: real zeros first
    (ascending), then each upper-half zero immediately followed by its
    exact conjugate."""
    reals = []
    upper = []
    for z in zs:
        if abs(z.imag) <= 1e-9 * max(1.0, abs(z)):
            reals.append(complex(z.real, 0.0))
        elif z.imag > 0:
            upper.append(z)
    reals.sort(key=lambda z: z.real)
    upper.sort(key=lambda z: (abs(z.imag), z.real))
    out = reals + [w for z in upper for w in (z, z.conjugate())]
    if len(out) != len(zs):
        raise ConvergenceError(
            f"zero set not conjugate-closed: {len(zs)} roots, "
            f"{len(reals)} real + {2 * len(upper)} paired",
            worst_residual=math.inf,
        )
    return out


# ---------------------------------------------------------------------------
# disk cache


def default_cache_dir():
    env = os.environ.get("TROTTERKIT_ZEROS_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "trotterkit", "zeros")


def _cache_name(family, k, gh=None, axis=None):
    if family == "taylor":
        return f"taylor_{k}.json"
    return f"chebyshev_{k}_{gh:.6f}_{axis}.json"


_memo = {}


def _zeros_cached(family, k, gh, axis, compute, cache_dir):
    key = (family, k, None if gh is None else f"{gh:.6f}", axis)
    got = _memo.get(key)
    if got is not None:
        return list(got)
    cdir = cache_dir if cache_dir is not None else default_cache_dir()
    path = os.path.join(cdir, _cache_name(family, k, gh, axis))
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            zs = [complex(float(re), float(im)) for re, im in data]
            if len(zs) == k:
                zs = _sort_conjugate_closed(zs)
                _memo[key] = tuple(zs)
                return zs
        except (ValueError, OSError, ConvergenceError):
            pass  # unreadable or stale cache entry: recompute below
    zs = _sort_conjugate_closed(compute())
    try:
        os.makedirs(cdir, exist_ok=True)
        payload = [[f"{z.real:.35g}", f"{z.imag:.35g}"] for z in zs]
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
    """No zero may sit inside the designated validity region."""
    spec = fact.spec
    if spec.family == "taylor":
        r = r_valid(fact)
        closest = min(abs(z) for z in fact.zeros)
        if closest <= r:
            raise StructuralError(
                f"zero at |z| = {closest:.6g} inside the validity disk r = {r:.6g}"
            )
    else:
        gh = spec.gamma_h
        lo = -gh
        if spec.axis == "real":
            # On the real axis, e^x drops below the truncation tail for
            # sufficiently negative x; there the series legitimately
            # oscillates through zero, so clearance is only meaningful on
            # the sub-segment where the approximation resolves e^x at all.
            seq = _bessel_sequence("I", spec.k + 1, gh)
            tail = 2.0 * abs(seq[spec.k + 1])
            if tail > 0:
                lo = max(lo, math.log(tail) + 1.0)
        if lo >= gh:
            return
        for z in fact.zeros:
            along, across = (z.imag, z.real) if spec.axis == "imaginary" else (z.real, z.imag)
            if lo <= along <= gh:
                d = abs(across)
            else:
                d = math.hypot(across, min(abs(along - lo), abs(along - gh)))
            if d == 0.0:
                raise StructuralError(f"zero at {z!r} lies on the approximation segment")


# ---------------------------------------------------------------------------
# evaluation


def _scaled_applier(h_op, factor):
    """Closure applying (h_op * factor) to a scalar, vector, or matrix."""
    if np.isscalar(h_op):
        val = h_op * factor
        return lambda v: val * v
    m = np.asarray(h_op)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"operator must be square, got shape {m.shape}")
    m = m * factor
    return lambda v: m @ v


def _check_target(h_op, target):
    if np.isscalar(h_op):
        return target
    m_dim = np.asarray(h_op).shape[0]
    t = np.asarray(target)
    if t.shape[0] != m_dim:
        raise DimensionError(
            f"target leading dimension {t.shape[0]} does not match operator dim {m_dim}"
        )
    return t


def eval_factorized(h_op, target, fact, *, pair_mode="quadratic"):
    """scale * prod over groups of (1 + c1 M/k + c2 (M/k)^2) applied to target,
    with M = H * spec.h; H is applied twice for quadratic groups rather
    than squared.  pair_mode='linear' evaluates conjugate pairs as two
    complex linear factors (testing fallback)."""
    spec = fact.spec
    k = spec.k
    target = _check_target(h_op, target)
    apply_h = _scaled_applier(h_op, spec.h)
    acc = target
    if pair_mode == "quadratic":
        for g in fact.groups:
            if g.kind == "quad":
                c1, c2 = g.coeffs
                mv = apply_h(acc)
                acc = acc + (c1 / k) * mv + (c2 / k**2) * apply_h(mv)
            else:
                (c1,) = g.coeffs
                acc = acc + (c1 / k) * apply_h(acc)
    elif pair_mode == "linear":
        for g in fact.groups:
            for gam in g.gammas:
                acc = acc + (gam / k) * apply_h(acc)
    else:
        raise StructuralError(f"pair_mode must be 'quadratic' or 'linear', got {pair_mode!r}")
    if fact.overall_scale != 1.0:
        acc = fact.overall_scale * acc
    return acc


def eval_summed(h_op, target, spec):
    """Direct accumulation: Taylor running-term sum, or the Chebyshev
    three-term recurrence.  Reference path; unstable for Taylor k > 17 at
    large |lambda h|."""
    target = _check_target(h_op, target)
    k = spec.k
    if spec.family == "taylor":
        apply_h = _scaled_applier(h_op, spec.h)
        term = target
        acc = target
        for i in range(1, k + 1):
            term = apply_h(term) / i
            acc = acc + term
        return acc
    mu = chebyshev_coefficients(spec)
    gh = spec.gamma_h
    denom = (1j * gh) if spec.axis == "imaginary" else gh
    apply_x = _scaled_applier(h_op, spec.h / denom)
    t_prev = target
    t_cur = apply_x(target)
    acc = mu[0] * t_prev + mu[1] * t_cur
    for i in range(2, k + 1):
        t_prev, t_cur = t_cur, 2 * apply_x(t_cur) - t_prev
        acc = acc + mu[i] * t_cur
    return acc
