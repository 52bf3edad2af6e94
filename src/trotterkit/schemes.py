"""Two-stage Suzuki-Trotter scheme catalog, validation and error analysis.

A two-stage scheme approximates e^{(A+B)h} by

    S(h) = e^{A a_1 h} e^{B b_1 h} e^{A a_2 h} ... e^{B b_q h} e^{A a_{q+1} h}

with len(a) = len(b) + 1 = q + 1.  Consistency (sum(a) = sum(b) = 1) makes
the first-order error vanish; symmetry of the coefficient lists guarantees
even order.  Leading error coefficients are estimated numerically by
projecting the matrix-log defect onto a graded commutator basis in
extended precision, because closed forms for alpha/beta/gamma of a general
scheme are unwieldy and easy to get wrong.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from importlib import resources

import mpmath as mp
import numpy as np

from .compose import OperatorSplit, evolve_sequence, merge_factors
from .errors import (
    ConsistencyError,
    DegenerateDrawError,
    GridUnusableError,
    NotFoundError,
    StructuralError,
)
from .tolerances import (
    CATALOG_ORDER_SLOPE_TOL,
    CONSISTENCY_TOL,
    DEFAULT_SEED,
    PLATEAU_ERROR,
    PROJECTION_RESIDUAL_FRACTION,
    SYMMETRY_TOL,
)

__all__ = [
    "TwoStageScheme",
    "ValidationReport",
    "ErrorCoefficients",
    "EfficiencyScore",
    "validate_consistency",
    "estimate_error_coefficients",
    "efficiency",
    "empirical_order",
    "fit_loglog_slope",
    "load_catalog",
    "get_scheme",
    "random_hermitian",
]


@dataclass(frozen=True)
class TwoStageScheme:
    """An (a, b) coefficient pair with its claimed order."""

    name: str
    order_n: int
    a: tuple
    b: tuple
    symmetric: bool
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(complex(x) for x in self.a))
        object.__setattr__(self, "b", tuple(complex(x) for x in self.b))
        if len(self.a) != len(self.b) + 1 or len(self.b) < 1:
            raise StructuralError(
                f"scheme {self.name!r}: need len(a) = len(b) + 1 >= 2, "
                f"got len(a)={len(self.a)}, len(b)={len(self.b)}"
            )
        if self.order_n < 1:
            raise StructuralError(f"scheme {self.name!r}: order_n must be >= 1")

    @property
    def q(self):
        """Cycle count (number of force calculations)."""
        return len(self.b)

    def reversed(self):
        """The adjoint scheme: both coefficient lists reversed."""
        return TwoStageScheme(
            name=self.name + "-reversed",
            order_n=self.order_n,
            a=self.a[::-1],
            b=self.b[::-1],
            symmetric=self.symmetric,
            source=self.source,
        )

    def factor_sequence(self):
        """Merged (part, coefficient) sequence of S(h) on parts (A, B)."""
        pairs = [(0, self.a[0])]
        for bi, ai in zip(self.b, self.a[1:]):
            pairs += [(1, bi), (0, ai)]
        return merge_factors(pairs)

    def is_real(self):
        return all(abs(x.imag) == 0.0 for x in self.a + self.b)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    a_residual: float
    b_residual: float
    symmetric_claimed: bool
    symmetry_ok: bool
    symmetry_residual: float


@dataclass(frozen=True)
class ErrorCoefficients:
    """Estimated leading-error coefficients with an across-draw spread.

    gamma holds the six fifth-order commutator coefficients in the basis

        [A,[A,[A,[A,B]]]], [A,[A,[B,[A,B]]]], [B,[A,[A,[A,B]]]],
        [B,[B,[B,[A,B]]]], [B,[B,[A,[A,B]]]], [A,[B,[B,[A,B]]]]

    and is empty when the estimate was requested at max_order = 3.
    """

    nu_minus_1: complex
    sigma_minus_1: complex
    alpha: complex
    beta: complex
    gamma: tuple
    spread: float
    projection_residual: float


@dataclass(frozen=True)
class EfficiencyScore:
    order_n: int
    q: int
    eff: float


def validate_consistency(scheme):
    """Check sum(a) = sum(b) = 1 and (if claimed) coefficient symmetry.

    Malformed coefficient lists raise StructuralError from the scheme
    constructor before this is ever reached; here the lists are well-formed
    and only the numeric conditions are examined.
    """
    a_res = abs(sum(scheme.a) - 1.0)
    b_res = abs(sum(scheme.b) - 1.0)
    sym_res = 0.0
    if scheme.symmetric:
        sym_res = max(
            max(abs(x - y) for x, y in zip(scheme.a, scheme.a[::-1])),
            max(abs(x - y) for x, y in zip(scheme.b, scheme.b[::-1])),
        )
    return ValidationReport(
        ok=(a_res < CONSISTENCY_TOL and b_res < CONSISTENCY_TOL),
        a_residual=a_res,
        b_residual=b_res,
        symmetric_claimed=scheme.symmetric,
        symmetry_ok=(sym_res < SYMMETRY_TOL),
        symmetry_residual=sym_res,
    )


# ---------------------------------------------------------------------------
# random test operators


def random_hermitian(rng, dim):
    """Random Hermitian matrix with spectral norm rescaled to 1."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = (m + m.conj().T) / 2.0
    w = np.linalg.eigvalsh(m)
    return m / max(abs(w[0]), abs(w[-1]))


# ---------------------------------------------------------------------------
# extended-precision machinery for the coefficient estimator

# graded commutator basis: grades of the 14 elements, in order
_BASIS_GRADES = (1, 1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5, 5)


def _mpmatrix(m):
    out = mp.matrix(m.shape[0], m.shape[1])
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            out[i, j] = mp.mpc(m[i, j].real, m[i, j].imag)
    return out


def _comm(x, y):
    return x * y - y * x


def _commutator_basis(a, b):
    """The 14 graded basis elements, grades 1..5 (see ErrorCoefficients)."""
    ab = _comm(a, b)
    aab = _comm(a, ab)
    bab = _comm(b, ab)
    return [
        a,                      # grade 1: (nu - 1)
        b,                      # grade 1: (sigma - 1)
        ab,                     # grade 2
        aab,                    # grade 3: alpha
        bab,                    # grade 3: beta
        _comm(a, aab),          # grade 4
        _comm(a, bab),          # grade 4 (= [B,[A,[A,B]]] by Jacobi)
        _comm(b, bab),          # grade 4
        _comm(a, _comm(a, aab)),  # grade 5: gamma_1
        _comm(a, _comm(a, bab)),  # gamma_2
        _comm(b, _comm(a, aab)),  # gamma_3
        _comm(b, _comm(b, bab)),  # gamma_4
        _comm(b, _comm(b, aab)),  # gamma_5
        _comm(a, _comm(b, bab)),  # gamma_6
    ]


def _herm_eig_mp(m):
    e, q = mp.eighe(m)
    return [e[i] for i in range(m.rows)], q


def _expm_from_eig(evals, q, tau):
    d = mp.diag([mp.exp(tau * w) for w in evals])
    return q * d * q.H


def _logm_series(s):
    """Principal log of a matrix close to the identity.

    Uses log(S) = 2 atanh(Y) with Y = (S-1)(S+1)^{-1}; the series in Y
    converges fast here because ||Y|| = O(h).
    """
    n = s.rows
    eye = mp.eye(n)
    y = (s - eye) * mp.inverse(s + eye)
    y2 = y * y
    term = y
    total = mp.zeros(n, n)
    tol = mp.mpf(10) ** (-mp.mp.dps + 2)
    for j in range(1, 200, 2):
        total += term / j
        if mp.mnorm(term, "F") < tol:
            break
        term = term * y2
    return 2 * total


def _frob_mp(m):
    return mp.mnorm(m, "F")


def _project_onto_basis(e_mat, basis, gram_lu):
    """Least-squares coefficients of e_mat in the basis, plus the residual."""
    k = len(basis)
    rhs = mp.matrix(k, 1)
    for i in range(k):
        acc = mp.mpc(0)
        bi = basis[i]
        for r in range(bi.rows):
            for c in range(bi.cols):
                acc += mp.conj(bi[r, c]) * e_mat[r, c]
        rhs[i] = acc
    coeffs = mp.lu_solve(gram_lu, rhs)
    recon = mp.zeros(e_mat.rows, e_mat.cols)
    for i in range(k):
        recon += coeffs[i] * basis[i]
    e_norm = _frob_mp(e_mat)
    resid = _frob_mp(e_mat - recon) / e_norm if e_norm > 0 else mp.mpf(0)
    return [coeffs[i] for i in range(k)], resid


def _scheme_defect(a_eig, b_eig, a_mat, b_mat, scheme, h):
    """E(h) = logm(S(h)) - (A+B) h in the current working precision."""
    (ea, qa), (eb, qb) = a_eig, b_eig
    hh = mp.mpf(h)
    s = _expm_from_eig(ea, qa, mp.mpc(scheme.a[0]) * hh)
    for i in range(scheme.q):
        s = s * _expm_from_eig(eb, qb, mp.mpc(scheme.b[i]) * hh)
        s = s * _expm_from_eig(ea, qa, mp.mpc(scheme.a[i + 1]) * hh)
    return _logm_series(s) - (a_mat + b_mat) * hh


def _richardson_schedule(grade, symmetric):
    """Exponents of the two next contaminating orders beyond the basis."""
    if symmetric:
        return (grade, 7, 9)
    return (grade, 6, 7)


def _solve_power_model(values, levels, exponents):
    """Fit c1 h^{e1} + c2 h^{e2} + c3 h^{e3} through three (h, value) pairs."""
    m = mp.matrix(3, 3)
    rhs = mp.matrix(3, 1)
    for i, h in enumerate(levels):
        for j, e in enumerate(exponents):
            m[i, j] = mp.mpf(h) ** e
        rhs[i] = values[i]
    sol = mp.lu_solve(m, rhs)
    return sol[0]


def estimate_error_coefficients(
    scheme,
    max_order=3,
    *,
    seed=DEFAULT_SEED,
    draws=5,
    dim=8,
    h0=0.01,
    operators=None,
    dps=40,
):
    """Estimate (nu-1, sigma-1, alpha, beta[, gamma]) for a scheme.

    The defect E(h) = logm(S(h)) - (A+B)h is computed in extended precision
    at three step sizes (h0, h0/2, h0/4), projected onto the graded
    commutator basis, and the per-element power law c h^g is separated from
    the two next contaminating orders.  Results are averaged over the draws
    in a fixed order; ``spread`` is the largest across-draw deviation.

    ``operators`` may supply explicit (A, B) pairs (mainly for tests); the
    default draws seeded random Hermitian pairs and redraws on a degenerate
    (numerically commuting) pair.
    """
    if max_order not in (3, 5):
        raise StructuralError("max_order must be 3 or 5")
    report = validate_consistency(scheme)
    if not report.ok:
        raise ConsistencyError(
            f"scheme {scheme.name!r} is inconsistent: "
            f"a-residual {report.a_residual:.3e}, b-residual {report.b_residual:.3e}"
        )

    rng = np.random.default_rng(seed)
    explicit = operators is not None
    budget = draws if explicit else 3 * draws
    pending = list(operators) if explicit else []

    levels = (h0, h0 / 2.0, h0 / 4.0)
    per_draw = []
    worst_resid = 0.0
    attempts = 0
    with mp.workdps(dps):
        while len(per_draw) < (len(pending) if explicit else draws):
            if explicit:
                a_np, b_np = pending[len(per_draw)]
            else:
                a_np, b_np = (random_hermitian(rng, dim), random_hermitian(rng, dim))
            attempts += 1
            try:
                coeffs = _single_draw(a_np, b_np, scheme, levels)
            except DegenerateDrawError:
                if explicit or attempts >= budget:
                    raise
                continue
            per_draw.append(coeffs[0])
            worst_resid = max(worst_resid, coeffs[1])

    n = len(per_draw)
    mean = [sum(d[j] for d in per_draw) / n for j in range(len(_BASIS_GRADES))]
    spread = 0.0
    for j in range(len(_BASIS_GRADES)):
        for d in per_draw:
            spread = max(spread, abs(d[j] - mean[j]))

    gamma = tuple(mean[8:14]) if max_order == 5 else ()
    return ErrorCoefficients(
        nu_minus_1=mean[0],
        sigma_minus_1=mean[1],
        alpha=mean[3],
        beta=mean[4],
        gamma=gamma,
        spread=spread,
        projection_residual=worst_resid,
    )


def _single_draw(a_np, b_np, scheme, levels):
    """Per-draw estimate: project E(h) at each level, then Richardson-solve."""
    a_mat = _mpmatrix(a_np)
    b_mat = _mpmatrix(b_np)
    basis = _commutator_basis(a_mat, b_mat)
    k = len(basis)

    # Gram matrix of the basis under the Frobenius inner product
    gram = mp.matrix(k, k)
    for i in range(k):
        for j in range(i, k):
            acc = mp.mpc(0)
            bi, bj = basis[i], basis[j]
            for r in range(bi.rows):
                for c in range(bi.cols):
                    acc += mp.conj(bi[r, c]) * bj[r, c]
            gram[i, j] = acc
            gram[j, i] = mp.conj(acc)
    comm_norm = mp.sqrt(abs(gram[2, 2]))
    if comm_norm < mp.mpf("1e-8"):
        raise DegenerateDrawError(
            "test operators numerically commute; redraw with different operators"
        )

    a_eig = _herm_eig_mp(a_mat)
    b_eig = _herm_eig_mp(b_mat)

    by_level = []
    worst = 0.0
    for h in levels:
        e_mat = _scheme_defect(a_eig, b_eig, a_mat, b_mat, scheme, h)
        try:
            coeffs, resid = _project_onto_basis(e_mat, basis, gram)
        except ZeroDivisionError as exc:
            raise DegenerateDrawError(f"singular commutator basis: {exc}") from exc
        if resid > PROJECTION_RESIDUAL_FRACTION:
            raise DegenerateDrawError(
                f"projection residual {float(resid):.2%} of |E| exceeds "
                f"{PROJECTION_RESIDUAL_FRACTION:.0%}; redraw"
            )
        worst = max(worst, float(resid))
        by_level.append(coeffs)

    out = []
    for j, grade in enumerate(_BASIS_GRADES):
        exps = _richardson_schedule(grade, scheme.symmetric)
        vals = [by_level[i][j] for i in range(len(levels))]
        c = _solve_power_model(vals, levels, exps)
        out.append(complex(c.real, c.imag))
    return out, worst


def efficiency(scheme, *, coeffs=None, seed=DEFAULT_SEED):
    """Efficiency score 1/(q^n * leading-error norm), higher is better.

    Order-2 schemes score with sqrt(|alpha|^2+|beta|^2), order-4 schemes
    with the norm of the six fifth-order coefficients.  A numerically zero
    leading error means the claimed order understates the scheme; that is
    signalled with a warning and an infinite score, not a failure.
    """
    n = scheme.order_n
    if n not in (2, 4):
        raise StructuralError(f"efficiency defined for order 2 and 4, got {n}")
    if coeffs is None:
        coeffs = estimate_error_coefficients(
            scheme, max_order=5 if n == 4 else 3, seed=seed
        )
    if n == 2:
        norm = math.hypot(abs(coeffs.alpha), abs(coeffs.beta))
    else:
        if not coeffs.gamma:
            raise StructuralError("order-4 efficiency needs gamma; estimate at max_order=5")
        norm = math.sqrt(sum(abs(g) ** 2 for g in coeffs.gamma))
    if norm < 1e3 * max(coeffs.spread, 1e-18):
        warnings.warn(
            f"scheme {scheme.name!r}: leading error at order {n} is numerically zero; "
            "order underclaimed",
            stacklevel=2,
        )
        return EfficiencyScore(order_n=n, q=scheme.q, eff=math.inf)
    return EfficiencyScore(order_n=n, q=scheme.q, eff=1.0 / (scheme.q**n * norm))


# ---------------------------------------------------------------------------
# empirical order fit (double precision)


def fit_loglog_slope(h_values, errors, plateau=PLATEAU_ERROR):
    """Least-squares slope of log(error) vs log(h), plateau points excluded."""
    hs, es = [], []
    for h, e in zip(h_values, errors):
        if e > plateau:
            hs.append(h)
            es.append(e)
    if len(hs) < 3:
        raise GridUnusableError(
            f"only {len(hs)} usable points above the round-off plateau; need >= 3"
        )
    return float(np.polyfit(np.log(np.asarray(hs)), np.log(np.asarray(es)), 1)[0])


def empirical_order(
    scheme,
    dim=8,
    h_grid=None,
    *,
    seed=DEFAULT_SEED,
    t_total=1.0,
):
    """Fitted log-log order of a scheme on a random Hermitian pair.

    Fixed total time; error is the Frobenius distance between the composed
    scheme over t/h steps and the exact exponential.  Points below the
    round-off plateau are excluded from the fit.
    """
    if h_grid is None:
        h_grid = [2.0 ** (-j) for j in range(2, 7)]
    if len(h_grid) < 4:
        raise GridUnusableError("h_grid needs at least 4 points")
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, dim)
    b = random_hermitian(rng, dim)
    split = OperatorSplit((a, b))
    sequence = scheme.factor_sequence()
    h_w, h_v = np.linalg.eigh(a + b)
    errors = []
    for h in h_grid:
        steps = max(1, round(t_total / h))
        u_exact = (h_v * np.exp(-1j * steps * h * h_w)) @ h_v.conj().T
        u = evolve_sequence(split, sequence, h, steps)
        errors.append(float(np.linalg.norm(u - u_exact)))
    return fit_loglog_slope(h_grid, errors)


# ---------------------------------------------------------------------------
# catalog


_catalog_cache = {}


def _scheme_from_record(rec):
    try:
        a = tuple(complex(re, im) for re, im in rec["a"])
        b = tuple(complex(re, im) for re, im in rec["b"])
        return TwoStageScheme(
            name=rec["name"],
            order_n=int(rec["order"]),
            a=a,
            b=b,
            symmetric=bool(rec["symmetric"]),
            source=rec.get("source", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed scheme record: {exc}") from exc


def load_catalog(path=None, *, validate=True):
    """Load the scheme catalog, gate-keeping every entry.

    Each entry must pass validate_consistency (including the symmetry
    claim) and an empirical-order fit within +-0.5 of its declared order,
    so transcription mistakes in the data file are caught at load time.
    """
    if path is None:
        key = ("<bundled>", validate)
        if key in _catalog_cache:
            return _catalog_cache[key]
        text = resources.files("trotterkit").joinpath("data/schemes.json").read_text()
    else:
        try:
            stat = os.stat(path)
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise NotFoundError(f"catalog file not readable: {exc}") from exc
        # fingerprint the file so an edited catalog is never served stale
        key = (str(path), stat.st_mtime_ns, stat.st_size, validate)
        if key in _catalog_cache:
            return _catalog_cache[key]
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"catalog is not valid JSON: {exc}") from exc

    catalog = {}
    for rec in records:
        scheme = _scheme_from_record(rec)
        if validate:
            report = validate_consistency(scheme)
            if not report.ok or (scheme.symmetric and not report.symmetry_ok):
                raise ConsistencyError(
                    f"catalog entry {scheme.name!r} failed validation: "
                    f"a-res {report.a_residual:.2e}, b-res {report.b_residual:.2e}, "
                    f"symmetry-res {report.symmetry_residual:.2e}"
                )
            slope = empirical_order(scheme)
            if abs(slope - scheme.order_n) > CATALOG_ORDER_SLOPE_TOL:
                raise ConsistencyError(
                    f"catalog entry {scheme.name!r} claims order {scheme.order_n} "
                    f"but fits slope {slope:.3f}"
                )
        catalog[scheme.name] = scheme
    _catalog_cache[key] = catalog
    return catalog


def get_scheme(name, path=None):
    catalog = load_catalog(path)
    try:
        return catalog[name]
    except KeyError:
        known = ", ".join(sorted(catalog))
        raise NotFoundError(f"unknown scheme {name!r}; catalog has: {known}") from None
