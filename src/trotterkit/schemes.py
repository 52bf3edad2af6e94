"""Two-stage Suzuki-Trotter scheme catalog, validation and error analysis.

A two-stage scheme approximates e^{(A+B)h} by

    S(h) = e^{A a_1 h} e^{B b_1 h} e^{A a_2 h} ... e^{B b_q h} e^{A a_{q+1} h}

with len(a) = len(b) + 1 = q + 1.  Consistency (sum(a) = sum(b) = 1) makes
the first-order error vanish; symmetry of the coefficient lists guarantees
even order.  Leading error coefficients are exact: log S(h) of any factor
sequence on Lambda letters is expanded in the truncated free algebra as one
block of words per degree (the BCH route of Omelyan, Mryglod & Folk,
Comput. Phys. Commun. 146 (2002) 188), all in double precision.  A two-stage
scheme's expansion, on Lambda = 2 letters {A, B}, holds each graded
commutator coefficient on one pivot word.  The same expansion gives a
factor sequence's exact order, the last degree through which its words of
degree >= 2 vanish (`_exact_order`): the catalog gate checks each entry's
declared order by it, and `adapt --check` reads the order of the
Lambda-stage sweep (`multistage`) by it.
"""

from __future__ import annotations

import functools
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
    complex_list,
    integer_field,
    real_field,
)
from .spinmodel import _sector_oracle, frobenius_error
from .tolerances import (
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
    """A named (a, b) coefficient pair with its claimed order, an int >= 1
    (2.0 is stored as 2), and whether it claims symmetry, a bool."""

    name: str
    order_n: int
    a: tuple
    b: tuple
    symmetric: bool
    source: str = ""

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise StructuralError(f"'name' must be a string, got {self.name!r}")
        object.__setattr__(self, "a", complex_list(self.a, "a"))
        object.__setattr__(self, "b", complex_list(self.b, "b"))
        if len(self.a) != len(self.b) + 1 or len(self.b) < 1:
            raise StructuralError(
                f"scheme {self.name!r}: need len(a) = len(b) + 1 >= 2, "
                f"got len(a)={len(self.a)}, len(b)={len(self.b)}"
            )
        object.__setattr__(self, "order_n", integer_field(self.order_n, "order_n"))
        if self.order_n < 1:
            raise StructuralError(f"scheme {self.name!r}: order_n must be >= 1")
        if not isinstance(self.symmetric, bool):
            raise StructuralError(f"'symmetric' must be a bool, got {self.symmetric!r}")

    @property
    def q(self):
        """Cycle count (number of force calculations)."""
        return len(self.b)

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
    symmetry_ok: bool
    symmetry_residual: float


@dataclass(frozen=True)
class ErrorCoefficients:
    """Exact leading-error coefficients in the graded commutator basis.

    gamma holds the six fifth-order commutator coefficients in the basis

        [A,[A,[A,[A,B]]]], [A,[A,[B,[A,B]]]], [B,[A,[A,[A,B]]]],
        [B,[B,[B,[A,B]]]], [B,[B,[A,[A,B]]]], [A,[B,[B,[A,B]]]]

    and is empty when the coefficients were requested at max_order = 3.
    Each is read off one word of log S (`_PIVOTS`), in double precision;
    extended precision is left to the zero solve in polyexp.
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


def random_split(n_parts, dim, *, seed=DEFAULT_SEED):
    """Seeded random Hermitian split for order checks and tests: n_parts
    `random_hermitian` draws of size dim, both integers >= 1, from one
    generator.  seed is an integer >= 0."""
    n_parts = integer_field(n_parts, "n_parts")
    dim = integer_field(dim, "dim")
    if dim < 1:
        raise StructuralError(f"'dim' must be >= 1, got {dim}")
    seed = integer_field(seed, "seed")
    if seed < 0:
        raise StructuralError(f"'seed' must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return OperatorSplit(tuple(random_hermitian(rng, dim) for _ in range(n_parts)))


# ---------------------------------------------------------------------------
# exact error coefficients in the truncated free algebra on Lambda letters
#
# An element of degree <= n is one flat complex vector of degree blocks
# 0..n: block d holds the Lambda**d words of degree d in A_1 .. A_Lambda,
# indexed by their letters as base-Lambda digits, so word i of degree p then
# word j of degree q is word i * Lambda**q + j of degree p + q.  A word's
# degree counts its powers of h: products of e^{c A_k} expand S(h) at h = 1.
# A product adds the pairs of one cached table (`_product_table`) into each
# word from +0.0, prefix degree p ascending: the additions, in order, of a
# sum over p of the outer products of degree-p and degree-(d - p) blocks.

# graded commutator basis (see ErrorCoefficients): the word x_1 x_2 .. a b
# is the right-nested [x_1, [x_2, .. [a, b]]], its length its grade.  Each
# element has a pivot word of its grade that no other element of that grade
# contains (_PIVOTS: the word and the element's integer coefficient on it),
# so a Lie element's coordinate is read off that one word, as Casas & Murua
# (J. Math. Phys. 50 (2009) 033513) read BCH coordinates; no element is formed.
_BASIS_WORDS = ("a", "b", "ab", "aab", "bab", "aaab", "abab", "bbab",
                "aaaab", "aabab", "baaab", "bbbab", "bbaab", "abbab")
_BASIS_GRADES = tuple(len(w) for w in _BASIS_WORDS)
_PIVOTS = (("a", 1), ("b", 1), ("ab", 1), ("aab", 1), ("abb", -1),
           ("aaab", 1), ("aabb", -1), ("abbb", 1),
           ("aaaab", 1), ("aabba", 1), ("baaab", 2), ("abbbb", -1), ("baabb", -1),
           ("abbba", -2))
# _PIVOTS as arrays: each pivot word's index in a flat element on {A, B},
# whose degree-d block starts at 2^d - 1, and the element's coefficient
# there, complex like the entries it divides
_PIVOT_AT = np.array([2 ** len(w) - 1 + int(w.replace("a", "0").replace("b", "1"), 2)
                      for w, _ in _PIVOTS])
_PIVOT_COEF = np.array([k for _, k in _PIVOTS], dtype=complex)


@functools.lru_cache(maxsize=None)
def _starts(n_letters, n):
    """Where the degree blocks 0..n start, then the element's length."""
    return tuple(np.cumsum([0] + [n_letters**d for d in range(n + 1)]).tolist())


def _zero(n_letters, n):
    return np.zeros(_starts(n_letters, n)[-1], dtype=complex)


@functools.lru_cache(maxsize=None)
def _product_table(n_letters, n):
    """Read-only (prefix, suffix, product) word indices of every pair of
    words of total degree <= n, the prefix ascending (so its degree too)."""
    start = np.array(_starts(n_letters, n))
    deg = np.repeat(np.arange(n + 1), np.diff(start))
    at = np.arange(len(deg)) - start[deg]  # each word's index in its block
    count = start[n + 1 - deg]  # a prefix's suffixes: the words of degree <= n - deg
    i = np.repeat(np.arange(len(deg)), count)
    j = np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
    table = np.stack([i, j, start[deg[i] + deg[j]] + at[i] * n_letters ** deg[j] + at[j]])
    table.setflags(write=False)
    return table


def _mul(x, y, n_letters, n):
    """x y, truncated at degree n: each word sums its table pairs' x_u y_v in
    table order from +0.0, by one `np.bincount` per real and imaginary part."""
    i, j, k = _product_table(n_letters, n)
    t = x[i] * y[j]
    out = np.empty(len(x), dtype=complex)
    out.real, out.imag = (np.bincount(k, part, len(x)) for part in (t.real, t.imag))
    return out


def _exp_letter(letter, coef, n_letters, n):
    """e^{coef A_letter}: degree d holds the word A_letter^d, at coef^d / d!;
    its index in block d, letter * (1 + .. + Lambda^(d-1)), is letter * start."""
    x = _zero(n_letters, n)
    for d, start in enumerate(_starts(n_letters, n)[:-1]):
        x[(letter + 1) * start] = coef**d / math.factorial(d)
    return x


def _log_series(sequence, n_letters, n):
    """log S as a tuple of read-only views of its degree blocks 0..n (block
    d: the words of h^d), S the product of e^{c A_k} over a (k, c) factor
    sequence on n_letters.  Expanded once per process (`_expanded_log`), so
    the catalog gate, scoring and `_exact_order` share one expansion."""
    return _expanded_log(tuple(sequence), n_letters, n)[1]


@functools.lru_cache(maxsize=64)
def _expanded_log(sequence, n_letters, n):
    """log S of a factor sequence given as a tuple, as the read-only flat
    element and the tuple of its degree blocks' views (`_log_series`), the
    64 latest (sequence, Lambda, n) kept: a Lambda = 4, degree-5 element is
    22 KB, so about 1.4 MB at that size.  Keys equal as tuples of complex
    coefficients give the same blocks bit for bit: each word is a sum from
    +0.0, in which a coefficient's signed zero is lost."""
    s = _zero(n_letters, n)
    s[0] = 1.0
    for letter, coef in sequence:
        s = _mul(s, _exp_letter(letter, coef, n_letters, n), n_letters, n)
    # log(1 + y) = sum_m (-1)^(m+1) y^m / m, y = S - 1; y^m starts at degree m
    y = s
    y[0] -= 1
    log_s, power = _zero(n_letters, n), y
    for m in range(1, n + 1):
        log_s = log_s + (-1) ** (m + 1) / m * power
        if m < n:
            power = _mul(power, y, n_letters, n)
    log_s.setflags(write=False)
    return log_s, tuple(np.split(log_s, _starts(n_letters, n)[1:-1]))


def _exact_order(sequence, n_letters, n_max):
    """Order of S, the product of e^{c A_k} over a consistent (k, c) factor
    sequence on n_letters, read through degree n_max: the largest p <= n_max
    whose words of degree 2..p in log S all read as zero within
    CONSISTENCY_TOL.  log S is expanded through degree 2, 4, 8, .. (n_max at
    most), and the read stops at the first degree with a nonzero word, so an
    order claimed far above the sequence's own is never expanded that far."""
    n = 1
    while n < n_max:
        n = min(2 * n, n_max)
        for d, block in enumerate(_log_series(sequence, n_letters, n)[2:], start=2):
            if np.max(np.abs(block)) >= CONSISTENCY_TOL:
                return d - 1
    return n_max


def _bch_coefficients(scheme, n):
    """Coefficients of log S - (A + B) on the basis elements of grade <= n.

    log S is the scheme's factor sequence on {A, B} expanded once per
    process (`_expanded_log`); a grade-g coefficient multiplies h^g.  It is
    its pivot word's entry in log S - (A + B), read from the cached flat
    element, divided exactly by +-1 or +-2 (`_PIVOTS`).
    """
    log_s = _expanded_log(tuple(scheme.factor_sequence()), 2, n)[0]
    m = sum(g <= n for g in _BASIS_GRADES)
    defect = log_s[_PIVOT_AT[:m]]
    defect[:2] -= 1  # words A and B
    # + 0.0: a zero over -1 or -2 reads +0.0, not -0.0
    return defect / _PIVOT_COEF[:m] + 0.0


def estimate_error_coefficients(scheme, max_order=3):
    """Exact (nu-1, sigma-1, alpha, beta[, gamma]) of a scheme.

    log S(h) is expanded in the free associative algebra on {A, B},
    truncated at degree max_order, and each graded commutator basis
    coefficient (see ErrorCoefficients) is read off its pivot word.
    """
    if max_order not in (3, 5):
        raise StructuralError("max_order must be 3 or 5")
    _require_consistent(scheme)
    c = _bch_coefficients(scheme, max_order).tolist()
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


def fit_loglog_slope(h_values, errors):
    """Least-squares slope of log(error) vs log(h), points <= PLATEAU_ERROR excluded."""
    hs, es = [], []
    for h, e in zip(h_values, errors):
        if e > PLATEAU_ERROR:
            hs.append(h)
            es.append(e)
    if len(hs) < 3:
        raise GridUnusableError(
            f"only {len(hs)} usable points above the round-off plateau; need >= 3"
        )
    return float(np.polyfit(np.log(np.asarray(hs)), np.log(np.asarray(es)), 1)[0])


_FIT_H_GRID = tuple(2.0 ** (-j) for j in range(2, 7))


def _fit_order(split, sequence, alternate_reversal=False):
    """Log-log slope over h = 2^-2 .. 2^-6 (_FIT_H_GRID) of the error of
    `sequence` composed over 1/h steps against e^{-i H}, H the summed
    operator.  As in the bench, both stay blocks over `split.sectors`:
    `evolve_sequence` against the exact oracle on H's sector blocks
    (`_sector_oracle` on `split.blocks`, whose one exponential serves every
    h), by `frobenius_error`."""
    oracle = _sector_oracle(split.blocks)  # refused past the cap before the sectors are searched
    errors = []
    for h in _FIT_H_GRID:
        steps = round(1.0 / h)
        u = evolve_sequence(split, sequence, h, steps, alternate_reversal=alternate_reversal)
        errors.append(frobenius_error(u, oracle(-1j * steps * h)).value)
    return fit_loglog_slope(_FIT_H_GRID, errors)


def empirical_order(scheme, *, seed=DEFAULT_SEED):
    """Fitted log-log order of a scheme on `random_split(2, 8, seed=seed)`.

    Total time 1; the error is the Frobenius distance between the scheme
    composed over 1/h steps and the exact exponential (`_fit_order`).
    Points below the round-off plateau are excluded from the fit.
    """
    return _fit_order(random_split(2, 8, seed=seed), scheme.factor_sequence())


# ---------------------------------------------------------------------------
# catalog


def _scheme_gate(scheme):
    """(report, order, ok) of the catalog gate: consistency, the symmetry
    claim, then the `_exact_order` of the scheme's factor sequence, read
    through degree order_n + 1, equal to the declared order (order None, and
    nothing expanded, if the first two fail).  Over- and under-claimed
    orders are both refused."""
    report = validate_consistency(scheme)
    ok = report.ok and (not scheme.symmetric or report.symmetry_ok)
    order = None
    if ok:
        order = _exact_order(scheme.factor_sequence(), 2, scheme.order_n + 1)
        ok = order == scheme.order_n
    return report, order, ok


_catalog_cache = {}


def _scheme_from_record(rec):
    """A catalog record's TwoStageScheme, its [re, im] number pairs made complex."""
    try:
        return TwoStageScheme(
            name=rec["name"],
            order_n=rec["order"],
            a=[complex(real_field(re, "a"), real_field(im, "a")) for re, im in rec["a"]],
            b=[complex(real_field(re, "b"), real_field(im, "b")) for re, im in rec["b"]],
            symmetric=rec["symmetric"],
            source=rec.get("source", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed scheme record: {exc}") from exc


def load_catalog(path=None, *, validate=True):
    """Load the scheme catalog, a JSON list of records with distinct names,
    gate-keeping every entry.

    Each entry must pass `_scheme_gate` (consistency, the symmetry claim,
    and an exact order, from its order conditions in the free algebra, equal
    to its declared order), so transcription mistakes in the data file are
    caught at load time.  No random operator is drawn and no order is fitted.
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
    if not isinstance(records, list):
        raise StructuralError(f"catalog must be a JSON list, got {type(records).__name__}")

    catalog = {}
    for rec in records:
        scheme = _scheme_from_record(rec)
        if scheme.name in catalog:
            raise StructuralError(f"catalog names scheme {scheme.name!r} twice")
        if validate:
            report, order, ok = _scheme_gate(scheme)
            if order is None:
                raise ConsistencyError(
                    f"catalog entry {scheme.name!r} failed validation: "
                    f"a-res {report.a_residual:.2e}, b-res {report.b_residual:.2e}, "
                    f"symmetry-res {report.symmetry_residual:.2e}"
                )
            if not ok:
                found = f"at least {order}" if order > scheme.order_n else order
                raise ConsistencyError(
                    f"catalog entry {scheme.name!r} claims order {scheme.order_n} "
                    f"but its exact order is {found}"
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
