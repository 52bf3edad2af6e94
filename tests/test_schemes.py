"""Catalog validation, error-coefficient estimation, and efficiency scores."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, strategies as st

from trotterkit import schemes
from trotterkit.errors import GridUnusableError, NotFoundError, StructuralError
from trotterkit.schemes import (
    _BASIS_GRADES,
    TwoStageScheme,
    _bch_coefficients,
    efficiency,
    empirical_order,
    estimate_error_coefficients,
    fit_loglog_slope,
    get_scheme,
    load_catalog,
    random_hermitian,
    validate_consistency,
)

# A first-order asymmetric scheme and the plain Lie splitting e^{Ah} e^{Bh}.
ASYM = TwoStageScheme(name="asym", order_n=1, a=(0.2, 0.8, 0.0), b=(0.6, 0.4), symmetric=False)
LIE = TwoStageScheme(name="lie", order_n=1, a=(1.0, 0.0), b=(1.0,), symmetric=False)


# ---------------------------------------------------------------------------
# construction and validation


def test_strang_validates_exactly():
    rep = validate_consistency(get_scheme("strang"))
    assert rep.ok
    assert rep.a_residual == 0.0
    assert rep.b_residual == 0.0
    assert rep.symmetric_claimed and rep.symmetry_ok
    assert rep.symmetry_residual == 0.0


def test_broken_sum_reports_residual():
    s = TwoStageScheme(name="broken", order_n=1, a=(0.5, 0.5), b=(0.9,), symmetric=False)
    rep = validate_consistency(s)
    assert not rep.ok
    assert rep.b_residual == pytest.approx(0.1, rel=1e-12)
    assert rep.a_residual == 0.0


def test_symmetry_claim_checked():
    # Sums are fine (ok covers only those); the palindrome claim is not.
    s = TwoStageScheme(name="lying", order_n=2, a=(0.3, 0.4, 0.3), b=(0.7, 0.3), symmetric=True)
    rep = validate_consistency(s)
    assert rep.ok
    assert rep.symmetric_claimed and not rep.symmetry_ok
    assert rep.symmetry_residual >= 0.4 - 1e-15


@pytest.mark.parametrize(
    "a, b",
    [
        ((0.5, 0.5), (1.0, 0.0)),  # len(a) must be len(b) + 1
        ((1.0,), ()),  # b may not be empty
        ((), ()),
    ],
)
def test_malformed_lengths_rejected(a, b):
    with pytest.raises(StructuralError):
        TwoStageScheme(name="bad", order_n=1, a=a, b=b, symmetric=False)


def test_catalog_loads_and_validates():
    cat = load_catalog()
    assert len(cat) == 6
    for name, scheme in cat.items():
        assert scheme.name == name
        assert validate_consistency(scheme).ok


def test_get_scheme_unknown_name():
    with pytest.raises(NotFoundError):
        get_scheme("bogus-name")


def test_reversed_swaps_coefficients():
    r = ASYM.reversed()
    assert r.a == tuple(reversed(ASYM.a))
    assert r.b == tuple(reversed(ASYM.b))


# ---------------------------------------------------------------------------
# exact error coefficients


def test_strang_leading_coefficients_analytic():
    # Symmetric BCH for e^{Ah/2} e^{Bh} e^{Ah/2}: alpha = -1/24, beta = -1/12.
    c = estimate_error_coefficients(get_scheme("strang"))
    assert abs(c.nu_minus_1) < 1e-15
    assert abs(c.sigma_minus_1) < 1e-15
    assert c.alpha == pytest.approx(-1 / 24, abs=1e-15)
    assert c.beta == pytest.approx(-1 / 12, abs=1e-15)
    assert c.gamma == ()


def test_lie_leading_coefficients_analytic():
    # Plain BCH for e^{Ah} e^{Bh}: alpha = +1/12, beta = -1/12.
    c = estimate_error_coefficients(LIE)
    assert c.alpha == pytest.approx(1 / 12, abs=1e-15)
    assert c.beta == pytest.approx(-1 / 12, abs=1e-15)


@pytest.mark.parametrize("name", ["forest-ruth", "suzuki4", "blanes-moan4", "triple-jump-complex"])
def test_order4_annihilates_third_order(name):
    c = estimate_error_coefficients(get_scheme(name))
    assert abs(c.alpha) < 1e-14
    assert abs(c.beta) < 1e-14


def test_duplicated_strang_quarters_the_coefficients():
    # Two half-length Strang steps written as one q=2 scheme: the h^3
    # error per unit step drops by 4, exactly offsetting q^2 in the score.
    dup = TwoStageScheme(
        name="dup-strang", order_n=2, a=(0.25, 0.5, 0.25), b=(0.5, 0.5), symmetric=True
    )
    c_s = estimate_error_coefficients(get_scheme("strang"))
    c_d = estimate_error_coefficients(dup)
    assert c_d.alpha == pytest.approx(c_s.alpha / 4, rel=1e-14)
    assert c_d.beta == pytest.approx(c_s.beta / 4, rel=1e-14)
    e_s = efficiency(get_scheme("strang"), coeffs=c_s)
    e_d = efficiency(dup, coeffs=c_d)
    assert e_d.eff == pytest.approx(e_s.eff, rel=1e-14)


def test_reversal_preserves_coefficient_magnitudes():
    cf = estimate_error_coefficients(ASYM)
    cr = estimate_error_coefficients(ASYM.reversed())
    assert abs(cr.alpha) == pytest.approx(abs(cf.alpha), rel=1e-14)
    assert abs(cr.beta) == pytest.approx(abs(cf.beta), rel=1e-14)


def test_max_order_five_fills_gamma():
    c = estimate_error_coefficients(get_scheme("blanes-moan4"), 5)
    assert len(c.gamma) == 6
    assert max(abs(g) for g in c.gamma) > 1e-6


def test_suzuki4_gamma_pinned():
    # Reference values from an independent 40-digit matrix-log estimate,
    # Richardson-extrapolated over random Hermitian pairs.
    want = (
        -0.0002595309050065978, -0.0006623802222130388, -0.00037574339781335257,
        -0.00044158681480869263, -0.0011272301934400577, -0.00013168683399067998,
    )
    c = estimate_error_coefficients(get_scheme("suzuki4"), 5)
    assert np.max(np.abs(np.array(c.gamma) - want)) < 1e-15
    eff = efficiency(get_scheme("suzuki4"), coeffs=c).eff
    assert eff == pytest.approx(1.096231121301969, rel=1e-12)


def test_max_order_must_be_three_or_five():
    with pytest.raises(StructuralError):
        estimate_error_coefficients(get_scheme("strang"), 4)


def _matrix_basis(a, b):
    """The 14 graded commutators of ErrorCoefficients, as matrices."""

    def comm(x, y):
        return x @ y - y @ x

    ab = comm(a, b)
    aab, bab = comm(a, ab), comm(b, ab)
    return [
        a, b, ab, aab, bab,
        comm(a, aab), comm(a, bab), comm(b, bab),
        comm(a, comm(a, aab)), comm(a, comm(a, bab)), comm(b, comm(a, aab)),
        comm(b, comm(b, bab)), comm(b, comm(b, aab)), comm(a, comm(b, bab)),
    ]


@pytest.mark.parametrize("scheme", [*load_catalog().values(), ASYM, LIE], ids=lambda s: s.name)
def test_coefficients_match_logm_defect(scheme):
    # Slow path: logm of an unmerged expm product on a random 6x6 pair.  The
    # degree-5 reconstruction leaves an O(h^6) (asymmetric) or O(h^7)
    # (symmetric) residual, so it must fall by 2^6 or 2^7 per halving of h.
    rng = np.random.default_rng(2024)
    a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
    basis = _matrix_basis(a, b)
    coeffs = _bch_coefficients(scheme, 5)
    residuals = []
    for h in (1 / 5, 1 / 10, 1 / 20):
        s = scipy.linalg.expm(scheme.a[0] * h * a)
        for bi, ai in zip(scheme.b, scheme.a[1:]):
            s = s @ scipy.linalg.expm(bi * h * b) @ scipy.linalg.expm(ai * h * a)
        recon = sum(c * h**g * m for c, g, m in zip(coeffs, _BASIS_GRADES, basis))
        residuals.append(np.linalg.norm(scipy.linalg.logm(s) - h * (a + b) - recon))
    assert residuals[0] / residuals[1] > 40
    assert residuals[1] / residuals[2] > 40


# ---------------------------------------------------------------------------
# efficiency scores


def test_strang_efficiency_value():
    # Eff_2 = 1/(q^2 sqrt(alpha^2 + beta^2)) = 24/sqrt(5) for Strang.
    e = efficiency(get_scheme("strang"))
    assert e.order_n == 2 and e.q == 1
    assert e.eff == pytest.approx(24 / math.sqrt(5), rel=1e-14)


def test_order4_efficiency_hierarchy():
    scores = {}
    for name in ("forest-ruth", "suzuki4", "blanes-moan4"):
        s = get_scheme(name)
        scores[name] = efficiency(s).eff
    assert scores["forest-ruth"] < scores["suzuki4"] < scores["blanes-moan4"]


def test_underclaimed_order_warns_and_scores_inf():
    bm = get_scheme("blanes-moan4")
    under = TwoStageScheme(name="bm-as-2", order_n=2, a=bm.a, b=bm.b, symmetric=True)
    c = estimate_error_coefficients(under)
    with pytest.warns(UserWarning, match="order underclaimed"):
        e = efficiency(under, coeffs=c)
    assert e.eff == math.inf


def test_efficiency_rejects_unsupported_orders():
    with pytest.raises(StructuralError):
        efficiency(LIE, coeffs=estimate_error_coefficients(LIE))


def test_order4_efficiency_needs_fifth_order_coeffs():
    bm = get_scheme("blanes-moan4")
    with pytest.raises(StructuralError):
        efficiency(bm, coeffs=estimate_error_coefficients(bm))  # max_order=3: gamma missing


# ---------------------------------------------------------------------------
# slope fitting and empirical order


def test_fit_loglog_slope_exact_power_law():
    h = np.array([0.5, 0.25, 0.125, 0.0625])
    errs = 0.3 * h**2.5
    assert fit_loglog_slope(h, errs) == pytest.approx(2.5, abs=1e-12)


def test_fit_loglog_slope_drops_plateau_points():
    h = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
    errs = np.concatenate([0.3 * h[:4] ** 2, [1e-15]])
    assert fit_loglog_slope(h, errs) == pytest.approx(2.0, abs=1e-10)


def test_fit_loglog_slope_needs_three_points():
    with pytest.raises(GridUnusableError):
        fit_loglog_slope([0.5, 0.25], [1e-2, 1e-3])
    with pytest.raises(GridUnusableError):
        fit_loglog_slope([0.5, 0.25, 0.125], [1e-14, 1e-15, 1e-16])


def test_empirical_orders_of_catalog_entries():
    assert empirical_order(get_scheme("strang")) == pytest.approx(2.0, abs=0.2)
    assert empirical_order(get_scheme("blanes-moan4")) == pytest.approx(4.0, abs=0.3)


def test_order_fit_runs_the_oracle_once_per_time(monkeypatch):
    times = []
    oracle = schemes.exact_evolution

    def recording(h_matrix, t, direction="forward"):
        times.append(t)
        return oracle(h_matrix, t, direction)

    monkeypatch.setattr(schemes, "exact_evolution", recording)
    empirical_order(get_scheme("strang"))  # h = 2^-j: steps * h = 1 every time
    assert times == [1.0]
    times.clear()
    grid = [0.3, 0.2, 0.15, 0.1]  # steps * h: 0.3 * 3, 1, 0.15 * 7, 1
    empirical_order(get_scheme("strang"), h_grid=grid)
    assert times == [0.3 * 3, 1.0, 0.15 * 7]


def test_inconsistent_scheme_has_no_order():
    s = TwoStageScheme(name="broken", order_n=2, a=(0.5, 0.5, 0.0), b=(0.45, 0.45), symmetric=False)
    assert empirical_order(s) < 0.5


# ---------------------------------------------------------------------------
# randomized properties


@st.composite
def consistent_schemes(draw):
    q = draw(st.integers(min_value=1, max_value=3))
    coeff = st.floats(min_value=-1.2, max_value=1.2, allow_nan=False, allow_infinity=False)
    head_a = [draw(coeff) for _ in range(q)]
    head_b = [draw(coeff) for _ in range(q - 1)]
    a = tuple(head_a) + (1.0 - math.fsum(head_a),)
    b = tuple(head_b) + (1.0 - math.fsum(head_b),)
    return TwoStageScheme(name="rand", order_n=1, a=a, b=b, symmetric=False)


@given(consistent_schemes())
def test_property_closed_sums_validate(scheme):
    assert validate_consistency(scheme).ok


@given(consistent_schemes(), st.integers(0, 10), st.floats(1e-6, 1e-2))
def test_property_single_coefficient_corruption_detected(scheme, where, delta):
    a, b = list(scheme.a), list(scheme.b)
    if where % 2 == 0:
        a[where % len(a)] += delta
    else:
        b[where % len(b)] += delta
    bad = TwoStageScheme(name="rand", order_n=1, a=tuple(a), b=tuple(b), symmetric=False)
    assert not validate_consistency(bad).ok


@given(
    st.integers(min_value=2, max_value=3),
    st.floats(min_value=0.05, max_value=0.45, allow_nan=False),
    st.floats(min_value=0.05, max_value=0.45, allow_nan=False),
)
def test_property_symmetric_schemes_have_even_order(q, x, y):
    # Palindromic consistent families; symmetry suppresses every odd order,
    # so the fitted slope sits at 2 (or higher even order), never at 1.
    if q == 2:
        scheme = TwoStageScheme(
            name="pal", order_n=2, a=(x, 1 - 2 * x, x), b=(0.5, 0.5), symmetric=True
        )
    else:
        scheme = TwoStageScheme(
            name="pal",
            order_n=2,
            a=(x, 0.5 - x, 0.5 - x, x),
            b=(y, 1 - 2 * y, y),
            symmetric=True,
        )
    assert validate_consistency(scheme).ok
    assert empirical_order(scheme, dim=6) > 1.7


@given(
    st.floats(min_value=0.5, max_value=6.0, allow_nan=False),
    st.floats(min_value=-4.0, max_value=2.0, allow_nan=False),
)
def test_property_slope_fit_recovers_power_laws(p, log_c):
    h = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
    errs = 10.0**log_c * h**p
    assume(float(errs.min()) > 1e-11)  # keep clear of the plateau cut
    assert fit_loglog_slope(h, errs) == pytest.approx(p, rel=1e-9)


@given(st.integers(min_value=2, max_value=64))
def test_property_random_hermitian_is_hermitian(dim):
    rng = np.random.default_rng(dim)
    m = random_hermitian(rng, dim)
    assert m.shape == (dim, dim)
    assert np.array_equal(m, m.conj().T)
