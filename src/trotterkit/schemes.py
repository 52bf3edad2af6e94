"""Two-stage Suzuki-Trotter scheme catalog, validation and error analysis.

A two-stage scheme approximates e^{(A+B)h} by

    S(h) = e^{A a_1 h} e^{B b_1 h} e^{A a_2 h} ... e^{B b_q h} e^{A a_{q+1} h}

with len(a) = len(b) + 1 = q + 1.  Consistency (sum(a) = sum(b) = 1) makes
the first-order error vanish; symmetry of the coefficient lists guarantees
even order.  Leading error coefficients are exact: log S(h) is expanded in
the free algebra on {A, B} (the BCH route of Omelyan, Mryglod & Folk,
Comput. Phys. Commun. 146 (2002) 188) and projected onto a graded
commutator basis, all in double precision.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .compose import OperatorSplit, evolve_sequence, merge_factors
from .errors import (
    ConsistencyError,
    GridUnusableError,
    NotFoundError,
    StructuralError,
)
from .spinmodel import exact_evolution
from .tolerances import (
    CATALOG_ORDER_SLOPE_TOL,
    CONSISTENCY_TOL,
    DEFAULT_SEED,
    LEADING_ERROR_ZERO_TOL,
    PLATEAU_ERROR,
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
    """Exact leading-error coefficients in the graded commutator basis.

    gamma holds the six fifth-order commutator coefficients in the basis

        [A,[A,[A,[A,B]]]], [A,[A,[B,[A,B]]]], [B,[A,[A,[A,B]]]],
        [B,[B,[B,[A,B]]]], [B,[B,[A,[A,B]]]], [A,[B,[B,[A,B]]]]

    and is empty when the coefficients were requested at max_order = 3.
    They are computed in double precision; extended precision is left to
    the zero solve in polyexp.
    """

    nu_minus_1: complex
    sigma_minus_1: complex
    alpha: complex
    beta: complex
    gamma: tuple


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


def _require_consistent(scheme):
    """validate_consistency's report, or ConsistencyError when sum(a) or
    sum(b) misses 1: no error expansion or transform is defined then."""
    report = validate_consistency(scheme)
    if not report.ok:
        raise ConsistencyError(
            f"scheme {scheme.name!r} is inconsistent: "
            f"a-residual {report.a_residual:.3e}, b-residual {report.b_residual:.3e}"
        )
    return report


# ---------------------------------------------------------------------------
# random test operators


def random_hermitian(rng, dim):
    """Random Hermitian matrix with spectral norm rescaled to 1."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = (m + m.conj().T) / 2.0
    w = np.linalg.eigvalsh(m)
    return m / max(abs(w[0]), abs(w[-1]))


# ---------------------------------------------------------------------------
# exact error coefficients in the truncated free algebra on {A, B}
#
# An element is one flat vector over all words in A and B of degree 0..n:
# the 2**d words of degree d sit at offset 2**d - 1, indexed by their letters
# read as binary digits (A = 0, B = 1), so that concatenating two words is
# an outer product of their blocks.  The degree of a word counts its powers
# of h, so products of e^{c A} and e^{c B} expand S(h) at h = 1.

# graded commutator basis: grades of the 14 elements, in order
_BASIS_GRADES = (1, 1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5, 5)


def _degree(x, d):
    """View of the degree-d block of x."""
    return x[2**d - 1 : 2 ** (d + 1) - 1]


def _mul(x, y):
    """x y, truncated at the top degree of x and y."""
    n = (len(x) + 1).bit_length() - 2
    out = np.zeros_like(x)
    for p in range(n + 1):
        for q in range(n + 1 - p):
            _degree(out, p + q)[:] += np.outer(_degree(x, p), _degree(y, q)).ravel()
    return out


def _comm(x, y):
    return _mul(x, y) - _mul(y, x)


def _unit(word, n):
    """The element 1 (word 0), A (word 1) or B (word 2), truncated at degree n."""
    x = np.zeros(2 ** (n + 1) - 1, dtype=complex)
    x[word] = 1.0
    return x


def _exp_letter(letter, coef, n):
    """e^{coef X} for X = A (letter 0) or B (letter 1): degree d holds the
    single word X^d with coefficient coef^d / d!."""
    x = np.zeros(2 ** (n + 1) - 1, dtype=complex)
    for d in range(n + 1):
        _degree(x, d)[letter * (2**d - 1)] = coef**d / math.factorial(d)
    return x


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


def _bch_coefficients(scheme, n):
    """Coefficients of log S - (A + B) on the basis elements of grade <= n.

    S is the product of e^{c A} and e^{c B} over the scheme's merged factor
    sequence, expanded to degree n; the coefficient of a grade-g element
    multiplies h^g in log S(h) - (A + B) h.  The basis spans the free Lie
    algebra up to degree 5, so the projection of this Lie element is exact.
    """
    s = _unit(0, n)
    for letter, coef in scheme.factor_sequence():
        s = _mul(s, _exp_letter(letter, coef, n))
    # log(1 + y) = sum_m (-1)^(m+1) y^m / m; y^m starts at degree m
    y = s - _unit(0, n)
    log_s = np.zeros_like(y)
    power = y
    for m in range(1, n + 1):
        log_s += (-1) ** (m + 1) / m * power
        power = _mul(power, y)
    a, b = _unit(1, n), _unit(2, n)
    basis = [v for v, g in zip(_commutator_basis(a, b), _BASIS_GRADES) if g <= n]
    return np.linalg.lstsq(np.stack(basis, axis=1), log_s - a - b, rcond=None)[0]


def estimate_error_coefficients(scheme, max_order=3):
    """Exact (nu-1, sigma-1, alpha, beta[, gamma]) of a scheme.

    log S(h) is expanded in the free associative algebra on {A, B},
    truncated at degree max_order, and projected onto the graded
    commutator basis (see ErrorCoefficients).
    """
    if max_order not in (3, 5):
        raise StructuralError("max_order must be 3 or 5")
    _require_consistent(scheme)
    c = [complex(v) for v in _bch_coefficients(scheme, max_order)]
    return ErrorCoefficients(
        nu_minus_1=c[0],
        sigma_minus_1=c[1],
        alpha=c[3],
        beta=c[4],
        gamma=tuple(c[8:14]),
    )


def efficiency(scheme, *, coeffs=None):
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
        coeffs = estimate_error_coefficients(scheme, max_order=5 if n == 4 else 3)
    if n == 2:
        norm = math.hypot(abs(coeffs.alpha), abs(coeffs.beta))
    else:
        if not coeffs.gamma:
            raise StructuralError("order-4 efficiency needs gamma; compute it at max_order=5")
        norm = math.sqrt(sum(abs(g) ** 2 for g in coeffs.gamma))
    if norm < LEADING_ERROR_ZERO_TOL:
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


def _fit_order(split, sequence, h_grid=None, t_total=1.0, direction="forward",
               alternate_reversal=False):
    """Log-log slope of the Frobenius distance between `sequence` composed
    over t/h steps and the exact oracle of the summed operator
    (`spinmodel.exact_evolution`), computed once per distinct steps * h."""
    if h_grid is None:
        h_grid = [2.0 ** (-j) for j in range(2, 7)]
    oracles = {}
    errors = []
    for h in h_grid:
        steps = max(1, round(t_total / h))
        t_eff = steps * h
        if t_eff not in oracles:
            oracles[t_eff] = exact_evolution(split.total, t_eff, direction)
        u = evolve_sequence(split, sequence, h, steps, direction, alternate_reversal)
        errors.append(float(np.linalg.norm(u - oracles[t_eff])))
    return fit_loglog_slope(h_grid, errors)


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
    if h_grid is not None and len(h_grid) < 4:
        raise GridUnusableError("h_grid needs at least 4 points")
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, dim)
    b = random_hermitian(rng, dim)
    return _fit_order(OperatorSplit((a, b)), scheme.factor_sequence(), h_grid, t_total)


# ---------------------------------------------------------------------------
# catalog


def _scheme_gate(scheme, *, seed=DEFAULT_SEED):
    """(report, slope, ok) of the catalog gate: consistency, the symmetry
    claim, then an `empirical_order` slope within CATALOG_ORDER_SLOPE_TOL of
    the declared order (slope nan, and no fit run, if the first two fail)."""
    report = validate_consistency(scheme)
    ok = report.ok and (not scheme.symmetric or report.symmetry_ok)
    slope = float("nan")
    if ok:
        slope = empirical_order(scheme, seed=seed)
        ok = abs(slope - scheme.order_n) <= CATALOG_ORDER_SLOPE_TOL
    return report, slope, ok


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

    Each entry must pass `_scheme_gate` (consistency, the symmetry claim,
    and an empirical-order fit within +-0.5 of its declared order), so
    transcription mistakes in the data file are caught at load time.
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
            report, slope, ok = _scheme_gate(scheme)
            if math.isnan(slope):
                raise ConsistencyError(
                    f"catalog entry {scheme.name!r} failed validation: "
                    f"a-res {report.a_residual:.2e}, b-res {report.b_residual:.2e}, "
                    f"symmetry-res {report.symmetry_residual:.2e}"
                )
            if not ok:
                raise ConsistencyError(
                    f"catalog entry {scheme.name!r} claims order {scheme.order_n} "
                    f"but fits slope {slope:.3f}"
                )
        catalog[scheme.name] = scheme
    _catalog_cache[key] = catalog
    return catalog


def get_scheme(name, path=None):
    return _lookup(load_catalog(path), name)


def _lookup(catalog, name):
    try:
        return catalog[name]
    except KeyError:
        known = ", ".join(sorted(catalog))
        raise NotFoundError(f"unknown scheme {name!r}; catalog has: {known}") from None
