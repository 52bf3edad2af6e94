"""Catalog validation, error-coefficient estimation, and efficiency scores."""

import itertools
import json
import math
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, strategies as st

from trotterkit import schemes, spinmodel
from trotterkit.errors import (
    ConsistencyError,
    GridUnusableError,
    NotFoundError,
    StructuralError,
)
from trotterkit.multistage import to_multistage
from trotterkit.schemes import (
    _BASIS_GRADES,
    _PIVOTS,
    TwoStageScheme,
    _bch_coefficients,
    _exact_order,
    _log_series,
    _scheme_gate,
    efficiency,
    empirical_order,
    estimate_error_coefficients,
    fit_loglog_slope,
    get_scheme,
    load_catalog,
    random_hermitian,
    random_split,
    validate_consistency,
)

# A first-order asymmetric scheme and the plain Lie splitting e^{Ah} e^{Bh}.
ASYM = TwoStageScheme(name="asym", order_n=1, a=(0.2, 0.8, 0.0), b=(0.6, 0.4), symmetric=False)
LIE = TwoStageScheme(name="lie", order_n=1, a=(1.0, 0.0), b=(1.0,), symmetric=False)


# ---------------------------------------------------------------------------
# construction and validation


def test_strang_validates_exactly():
    strang = get_scheme("strang")
    rep = validate_consistency(strang)
    assert rep.ok
    assert rep.a_residual == 0.0
    assert rep.b_residual == 0.0
    assert strang.symmetric and rep.symmetry_ok
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
    assert s.symmetric and not rep.symmetry_ok
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


@pytest.mark.parametrize("field, value", [
    ("order_n", 2.7), ("order_n", "2"), ("order_n", True), ("order_n", None),
    ("symmetric", "false"), ("symmetric", 0), ("symmetric", None), ("name", 5),
])
def test_scheme_refuses_a_field_of_the_wrong_type(field, value):
    fields = dict(name="strang", order_n=2, a=(0.5, 0.5), b=(1.0,), symmetric=True)
    with pytest.raises(StructuralError, match=f"'{field}'"):
        TwoStageScheme(**dict(fields, **{field: value}))


@pytest.mark.parametrize("field", ["a", "b"])
@pytest.mark.parametrize("value", [True, "1", None, math.nan, complex(0.5, math.inf), 10**400],
                         ids=["bool", "str", "none", "nan", "inf-imag", "huge-int"])
def test_scheme_refuses_a_coefficient_that_is_not_a_finite_number(field, value):
    fields = dict(name="x", order_n=1, a=[0.5, 0.5], b=[1.0], symmetric=False)
    fields[field] = [value, *fields[field][1:]]
    with pytest.raises(StructuralError, match=f"'{field}' must be"):
        TwoStageScheme(**fields)


@pytest.mark.parametrize("field", ["a", "b"])
@pytest.mark.parametrize("value", [5, None, 0.5], ids=["int", "none", "float"])
def test_scheme_refuses_a_coefficient_list_that_is_not_a_list(field, value):
    fields = dict(name="x", order_n=1, a=[0.5, 0.5], b=[1.0], symmetric=False)
    with pytest.raises(StructuralError, match=f"'{field}' must be a list"):
        TwoStageScheme(**dict(fields, **{field: value}))


def test_scheme_stores_its_coefficients_as_complex():
    scheme = TwoStageScheme(name="x", order_n=1, a=[np.float64(0.25), 0.75], b=[1],
                            symmetric=False)
    assert scheme.a == (0.25 + 0j, 0.75 + 0j) and scheme.b == (1 + 0j,)
    assert all(type(x) is complex for x in scheme.a + scheme.b)


def test_bundled_catalog_coefficients_are_the_json_pairs():
    records = json.loads(
        resources.files("trotterkit").joinpath("data/schemes.json").read_text())
    catalog = load_catalog()
    for rec in records:
        scheme = catalog[rec["name"]]
        for field in ("a", "b"):
            assert [repr(x) for x in getattr(scheme, field)] == [
                repr(complex(re, im)) for re, im in rec[field]]


def test_scheme_stores_an_integral_order_as_an_int():
    scheme = TwoStageScheme(name="strang", order_n=2.0, a=(0.5, 0.5), b=(1.0,), symmetric=True)
    assert scheme.order_n == 2 and type(scheme.order_n) is int


def test_catalog_loads_and_validates():
    cat = load_catalog()
    assert len(cat) == 6
    for name, scheme in cat.items():
        assert scheme.name == name
        assert validate_consistency(scheme).ok


def _strang_record(**changes):
    """The bundled catalog's strang record, with changes."""
    rec = {"name": "strang", "order": 2, "a": [[0.5, 0.0], [0.5, 0.0]], "b": [[1.0, 0.0]],
           "symmetric": True, "source": "Strang, SIAM J. Numer. Anal. 5, 506 (1968)"}
    return dict(rec, **changes)


def _write_catalog(path, *records):
    path.write_text(json.dumps(list(records)))
    return str(path)


def test_catalog_refuses_an_entry_whose_order_does_not_fit(tmp_path):
    path = _write_catalog(tmp_path / "cat.json", _strang_record(order=4))
    with pytest.raises(ConsistencyError, match="claims order 4 but its exact order is 2$"):
        load_catalog(path)


def _record(scheme, **changes):
    """A catalog record of a scheme, with changes."""
    rec = {"name": scheme.name, "order": scheme.order_n, "symmetric": scheme.symmetric,
           "a": [[x.real, x.imag] for x in scheme.a], "b": [[x.real, x.imag] for x in scheme.b]}
    return dict(rec, **changes)


def _moved_blanes_moan4():
    """blanes-moan4 with its outer a's moved by +1e-8 and its middle a by
    -2e-8: still consistent and symmetric, but of exact order 2."""
    bm = get_scheme("blanes-moan4")
    a = list(bm.a)
    a[0] += 1e-8
    a[-1] += 1e-8
    a[3] -= 2e-8
    return TwoStageScheme(name="bm-moved", order_n=4, a=a, b=bm.b, symmetric=True)


@pytest.mark.parametrize("scheme", load_catalog().values(), ids=lambda s: s.name)
def test_exact_order_of_each_catalog_entry_is_its_declared_order(scheme):
    assert _exact_order(scheme.factor_sequence(), 2, scheme.order_n + 1) == scheme.order_n
    report, order, ok = _scheme_gate(scheme)
    assert (order, ok) == (scheme.order_n, True)


def test_catalog_refuses_an_underclaimed_order(tmp_path):
    path = _write_catalog(tmp_path / "cat.json", _record(get_scheme("suzuki4"), order=2))
    with pytest.raises(ConsistencyError, match="claims order 2 but its exact order is at least 3"):
        load_catalog(path)


def test_catalog_refuses_moved_coefficients_that_the_fit_accepts(tmp_path):
    moved = _moved_blanes_moan4()
    report = validate_consistency(moved)
    assert report.ok and report.symmetry_ok
    # a slope fit cannot tell the moved scheme from blanes-moan4
    assert abs(empirical_order(moved) - 4) < 0.5
    assert _scheme_gate(moved)[1:] == (2, False)
    path = _write_catalog(tmp_path / "cat.json", _record(moved))
    with pytest.raises(ConsistencyError, match="'bm-moved' claims order 4 but its exact order is 2"):
        load_catalog(path)


def test_complex_entry_passes_the_gate():
    scheme = get_scheme("triple-jump-complex")
    assert any(x.imag for x in scheme.a) and _scheme_gate(scheme)[1:] == (4, True)


@pytest.mark.parametrize("scheme, order", [(LIE, 1), (ASYM, 1), (get_scheme("strang"), 2)])
def test_exact_order_stops_at_the_first_nonzero_degree(monkeypatch, scheme, order):
    # read through degree 40, but expanded only through degree 4: the windows
    # 2 and 4 already hold a nonzero word
    degrees = []
    series = schemes._log_series

    def recording(sequence, n_letters, n):
        degrees.append(n)
        return series(sequence, n_letters, n)

    monkeypatch.setattr(schemes, "_log_series", recording)
    assert _exact_order(scheme.factor_sequence(), 2, 40) == order
    assert degrees == ([2] if order == 1 else [2, 4])


@pytest.mark.parametrize("scheme", [*load_catalog().values(), _moved_blanes_moan4()],
                         ids=lambda s: s.name)
def test_sweep_order_on_more_letters_than_its_degree_is_read_on_fewer(scheme):
    # the words of degree <= n use at most n letters, and dropping a part
    # from a sweep leaves the sweep on the others
    ms = to_multistage(scheme)
    n = scheme.order_n + 1
    wide = _exact_order(ms.factor_sequence(n + 1), n + 1, n)
    assert wide == _exact_order(ms.factor_sequence(n), n, n)
    assert wide == (2 if scheme.name == "bm-moved" else scheme.order_n)


def test_catalog_load_fits_no_order_and_draws_no_operator(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("the load ran an order fit")

    monkeypatch.setattr(schemes, "_fit_order", forbidden)
    monkeypatch.setattr(schemes, "random_split", forbidden)
    bundled = resources.files("trotterkit").joinpath("data/schemes.json").read_text()
    path = tmp_path / "cat.json"
    path.write_text(bundled)
    assert list(load_catalog(str(path))) == list(load_catalog())


def test_import_and_catalog_load_leave_numpy_random_unimported():
    # a fresh process, which imports the same trotterkit as this one
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(schemes.__file__)))
    pythonpath = os.pathsep.join(p for p in (src_root, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, trotterkit; trotterkit.load_catalog(); "
            "print('numpy.random' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert res.stdout == "False\n"


def test_catalog_refuses_an_inconsistent_entry(tmp_path):
    path = _write_catalog(tmp_path / "cat.json", _strang_record(a=[[0.5, 0.0], [0.6, 0.0]]))
    with pytest.raises(ConsistencyError, match="'strang' failed validation"):
        load_catalog(path)


@pytest.mark.parametrize("changes, field", [
    ({"order": 2.7}, "'order_n'"),
    ({"symmetric": "false"}, "'symmetric'"),
    ({"name": 5}, "'name'"),
    ({"b": [[True, 0.0]]}, "'b'"),
    ({"a": [[0.5, 0.0], [0.5, None]]}, "'a'"),
])
def test_catalog_refuses_a_record_field_of_the_wrong_type(tmp_path, changes, field):
    path = _write_catalog(tmp_path / "cat.json", _strang_record(**changes))
    with pytest.raises(StructuralError, match=field):
        load_catalog(path)


def test_catalog_file_missing_or_not_json(tmp_path):
    with pytest.raises(NotFoundError):
        load_catalog(str(tmp_path / "absent.json"))
    path = tmp_path / "cat.json"
    path.write_text("[{")
    with pytest.raises(StructuralError, match="not valid JSON"):
        load_catalog(str(path))


@pytest.mark.parametrize("text, kind", [("5", "int"), ("null", "NoneType"), ("{}", "dict")])
def test_catalog_that_is_not_a_list_is_refused(tmp_path, text, kind):
    path = tmp_path / "cat.json"
    path.write_text(text)
    with pytest.raises(StructuralError, match=f"must be a JSON list, got {kind}"):
        load_catalog(str(path))


def test_catalog_naming_a_scheme_twice_is_refused(tmp_path):
    path = _write_catalog(tmp_path / "cat.json", _strang_record(),
                          _strang_record(source="a second strang"))
    with pytest.raises(StructuralError, match="'strang' twice"):
        load_catalog(path)


def test_catalog_is_cached_until_its_file_changes(tmp_path):
    path = _write_catalog(tmp_path / "cat.json", _strang_record())
    first = load_catalog(path)
    assert load_catalog(path) is first
    _write_catalog(tmp_path / "cat.json", _strang_record(source="rewritten"))
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
    second = load_catalog(path)
    assert second is not first and second["strang"].source == "rewritten"
    assert load_catalog(path) is second


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


def _graded_basis(a, b, comm):
    """The 14 graded commutators of ErrorCoefficients, formed by comm."""
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
    basis = _graded_basis(a, b, lambda x, y: x @ y - y @ x)
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


# the words on {a, b} of each degree 0..5, in `_log_series` block order
_WORDS = [["".join(w) for w in itertools.product("ab", repeat=d)] for d in range(6)]


def _flat_basis(n):
    """The 14 graded commutators of ErrorCoefficients as flat free-algebra
    elements of degree n on {A, B}, each commutator from two `_mul`s."""
    def comm(x, y):
        return schemes._mul(x, y, 2, n) - schemes._mul(y, x, 2, n)

    a, b = np.eye(schemes._starts(2, n)[-1], dtype=complex)[1:3]
    return _graded_basis(a, b, comm)


def _projected_coefficients(scheme, n):
    """Reference: the least-squares projection of log S - (A + B) onto the
    flat basis elements of grade <= n."""
    defect = np.concatenate(_log_series(scheme.factor_sequence(), 2, n))
    defect[1:3] -= 1
    basis = [e for e, g in zip(_flat_basis(n), _BASIS_GRADES) if g <= n]
    return np.linalg.lstsq(np.stack(basis, axis=1), defect, rcond=None)[0]


def test_each_pivot_word_sits_in_its_basis_element_alone():
    basis = _flat_basis(5)
    starts = schemes._starts(2, 5)
    for i, (word, coef) in enumerate(_PIVOTS):
        grade = _BASIS_GRADES[i]
        assert len(word) == grade
        at = starts[grade] + _WORDS[grade].index(word)
        for j, (element, g) in enumerate(zip(basis, _BASIS_GRADES)):
            if g == grade:
                assert element[at] == (coef if j == i else 0)


def _random_scheme(seed):
    """A seeded two-stage scheme with random complex coefficients, q = 1..4,
    not consistent: log S - (A + B) is a Lie element all the same."""
    rng = np.random.default_rng(seed)
    q = 1 + seed % 4
    a, b = (rng.standard_normal((m, 2)) @ [1, 1j] / (q + 1) for m in (q + 1, q))
    return TwoStageScheme(name=f"random-{seed}", order_n=1, a=a.tolist(), b=b.tolist(),
                          symmetric=False)


@pytest.mark.parametrize("scheme", [*load_catalog().values(), ASYM, LIE,
                                    *map(_random_scheme, range(20))], ids=lambda s: s.name)
def test_pivot_reads_are_the_least_squares_projection(scheme):
    for n in range(1, 6):
        c = _bch_coefficients(scheme, n)
        assert c.shape == (sum(g <= n for g in _BASIS_GRADES),)
        np.testing.assert_allclose(c, _projected_coefficients(scheme, n), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# the 2 -> Lambda transform in the free algebra on Lambda letters


def _sweep_series(scheme, n_letters):
    """log S of the scheme's Lambda-stage sweep on n_letters, to its order."""
    sequence = to_multistage(scheme).factor_sequence(n_letters)
    return _log_series(sequence, n_letters, scheme.order_n)


@pytest.mark.parametrize("n_letters", [2, 3, 4])
@pytest.mark.parametrize("scheme", load_catalog().values(), ids=lambda s: s.name)
def test_sweep_keeps_the_order_on_lambda_letters(scheme, n_letters):
    # the paper's claim in the algebra, not by a slope fit:
    # log S = (A_1 + ... + A_Lambda) h + O(h^(n+1))
    log_s = _sweep_series(scheme, n_letters)
    np.testing.assert_allclose(log_s[1], np.ones(n_letters), rtol=0, atol=1e-15)
    assert max(np.max(np.abs(block)) for block in log_s[2:]) <= 1e-14


@pytest.mark.parametrize("n_letters", [2, 3, 4])
def test_perturbed_scheme_loses_the_order_on_lambda_letters(n_letters):
    # still consistent, so the transform is defined; its degree-2 block reads 1.4e-7
    bm = get_scheme("blanes-moan4")
    a = list(bm.a)
    a[1] += 1e-6
    a[2] -= 1e-6
    bad = TwoStageScheme(name="bm-perturbed", order_n=4, a=a, b=bm.b, symmetric=False)
    log_s = _sweep_series(bad, n_letters)
    assert max(np.max(np.abs(block)) for block in log_s[2:]) > 1e-8


def _word_matrices(parts, n):
    """Each degree's words in the parts, in `_log_series` order, degrees 0..n."""
    words = [[np.eye(len(parts[0]))]]
    for _ in range(n):
        words.append([w @ x for w in words[-1] for x in parts])
    return words


@pytest.mark.parametrize("scheme", [*load_catalog().values(), ASYM, LIE], ids=lambda s: s.name)
def test_three_letter_series_matches_logm(scheme):
    # Slow path: logm of the sweep's unmerged expm product on three random
    # 6x6 parts.  The word polynomial to degree 5 leaves an O(h^6)
    # (asymmetric) or O(h^7) (symmetric) residual.
    rng = np.random.default_rng(2024)
    parts = [random_hermitian(rng, 6) for _ in range(3)]
    ms = to_multistage(scheme)
    log_s = _log_series(ms.factor_sequence(3), 3, 5)
    words = _word_matrices(parts, 5)
    residuals = []
    for h in (1 / 5, 1 / 10, 1 / 20):
        s = np.eye(6)
        for ci, di in zip(ms.c, ms.d):
            for k, coef in zip((0, 1, 2, 2, 1, 0), (ci, ci, ci, di, di, di)):
                s = s @ scipy.linalg.expm(coef * h * parts[k])
        recon = sum(h**d * np.tensordot(block, w, axes=1)
                    for d, (block, w) in enumerate(zip(log_s, words)))
        residuals.append(np.linalg.norm(scipy.linalg.logm(s) - recon))
    assert residuals[0] / residuals[1] > 40
    assert residuals[1] / residuals[2] > 40


# ---------------------------------------------------------------------------
# the flat free-algebra product against the block-list product it replaced


def _block_mul(x, y):
    """Reference product on lists of degree blocks: degree d sums the outer
    products of x's degree-p and y's degree-(d - p) blocks, p ascending."""
    return [sum(np.outer(x[p], y[d - p]).ravel() for p in range(d + 1))
            for d in range(len(x))]


def _block_zero(n_letters, n):
    return [np.zeros(n_letters**d, dtype=complex) for d in range(n + 1)]


def _block_log_series(sequence, n_letters, n):
    """log S as degree blocks, every product a `_block_mul`."""
    s = _block_zero(n_letters, n)
    s[0][0] = 1.0
    for letter, coef in sequence:
        e = _block_zero(n_letters, n)
        for d, block in enumerate(e):
            block.reshape((n_letters,) * d)[(letter,) * d] = coef**d / math.factorial(d)
        s = _block_mul(s, e)
    y = [s[0] - 1, *s[1:]]
    log_s = _block_zero(n_letters, n)
    power = y
    for m in range(1, n + 1):
        log_s = [acc + (-1) ** (m + 1) / m * p for acc, p in zip(log_s, power)]
        power = _block_mul(power, y)
    return log_s


def _block_bch_coefficients(scheme, n):
    """`_bch_coefficients` on degree blocks, every product a `_block_mul`."""
    log_s = _block_log_series(scheme.factor_sequence(), 2, n)
    c = np.array([log_s[len(w)][_WORDS[len(w)].index(w)] / k for w, k in _PIVOTS if len(w) <= n])
    c[:2] -= 1
    return c + 0.0


def _assert_same_blocks(blocks, reference):
    assert len(blocks) == len(reference)
    for block, ref in zip(blocks, reference):
        assert block.dtype == ref.dtype and block.shape == ref.shape
        assert block.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n_letters", [2, 3, 4])
@pytest.mark.parametrize("scheme", [*load_catalog().values(), ASYM, LIE], ids=lambda s: s.name)
def test_log_series_is_the_block_products_bit_for_bit(scheme, n_letters):
    sequence = to_multistage(scheme).factor_sequence(n_letters)
    for n in range(1, 6):
        _assert_same_blocks(_log_series(sequence, n_letters, n),
                            _block_log_series(sequence, n_letters, n))


@pytest.mark.parametrize("scheme", [*load_catalog().values(), ASYM, LIE], ids=lambda s: s.name)
def test_bch_coefficients_are_the_block_products_bit_for_bit(scheme):
    for n in range(1, 6):
        _assert_same_blocks([_bch_coefficients(scheme, n)], [_block_bch_coefficients(scheme, n)])


@pytest.mark.parametrize("seed", range(20))
def test_random_complex_sequences_match_the_block_products_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n_letters, n = 2 + seed % 3, 1 + seed % 5
    sequence = [(int(rng.integers(n_letters)), complex(*rng.standard_normal(2)))
                for _ in range(int(rng.integers(1, 13)))]
    _assert_same_blocks(_log_series(sequence, n_letters, n),
                        _block_log_series(sequence, n_letters, n))


@pytest.mark.parametrize("n_letters, n", [(1, 4), (2, 3), (2, 5), (3, 4), (4, 3)])
def test_product_table_lists_each_word_pair_once(n_letters, n):
    table = schemes._product_table(n_letters, n)
    # every word of degree <= n, in flat order: degree, then base-Lambda digits
    words = [w for d in range(n + 1) for w in itertools.product(range(n_letters), repeat=d)]
    prefix, suffix, product = (index.tolist() for index in table)
    pairs = list(zip(prefix, suffix))
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == {(u, v) for u, x in enumerate(words) for v, y in enumerate(words)
                          if len(x) + len(y) <= n}
    assert all(words[w] == words[u] + words[v] for u, v, w in zip(prefix, suffix, product))
    degrees = [len(words[u]) for u in prefix]
    assert degrees == sorted(degrees)
    assert not table.flags.writeable and not any(index.flags.writeable for index in table)
    assert schemes._product_table(n_letters, n) is table


@pytest.mark.parametrize("n_letters, n", [(2, 1), (2, 5), (3, 4), (4, 3)])
def test_log_series_forms_no_power_it_does_not_add(monkeypatch, n_letters, n):
    # one product per factor, then y^2..y^n; y^(n + 1) is never added
    calls = []
    mul = schemes._mul
    monkeypatch.setattr(schemes, "_mul", lambda *args: calls.append(args) or mul(*args))
    sequence = to_multistage(get_scheme("blanes-moan4")).factor_sequence(n_letters)
    _log_series(sequence, n_letters, n)
    assert len(calls) == len(sequence) + n - 1


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
    # the composer's check, on the default-seed random pair: every entry's
    # fitted slope lands within 0.5 of its declared order
    for scheme in load_catalog().values():
        assert abs(empirical_order(scheme) - scheme.order_n) <= 0.5, scheme.name


def _recording_eig_expm(monkeypatch):
    """The z of every `_eig_expm` the oracle runs, in call order."""
    zs = []
    expm = spinmodel._eig_expm

    def recording(w, v, z):
        zs.append(z)
        return expm(w, v, z)

    monkeypatch.setattr(spinmodel, "_eig_expm", recording)
    return zs


def test_order_fit_runs_the_oracle_once_per_time(monkeypatch):
    # a random split is one sector, so the oracle exponentiates one block,
    # once: h = 2^-j, so steps * h = 1 every time
    zs = _recording_eig_expm(monkeypatch)
    empirical_order(get_scheme("strang"))
    assert zs == [-1j * 1.0]


def test_sector_oracle_exponentiates_once_per_distinct_time(monkeypatch):
    zs = _recording_eig_expm(monkeypatch)
    h = random_hermitian(np.random.default_rng(3), 6)
    oracle = spinmodel._sector_oracle([np.arange(6)], [h])
    ts = [0.3 * 3, 1.0, 0.15 * 7, 1.0]  # steps * h on the grid 0.3, 0.2, 0.15, 0.1
    blocks = [oracle(-1j * t) for t in ts]
    assert zs == [-1j * t for t in (0.3 * 3, 1.0, 0.15 * 7)]
    assert blocks[3] is blocks[1]


def test_negative_or_boolean_seed_is_refused():
    with pytest.raises(StructuralError, match="'seed' must be >= 0, got -1"):
        random_split(2, 8, seed=-1)
    with pytest.raises(StructuralError, match="'seed' must be an integer"):
        empirical_order(get_scheme("strang"), seed=True)


@pytest.mark.parametrize("n_parts, dim, match", [
    (2, 0, "'dim' must be >= 1, got 0"), (2, -1, "'dim' must be >= 1, got -1"),
    (2, 2.5, "'dim' must be an integer"), (2, True, "'dim' must be an integer"),
    (0, 4, "at least one part"), (2.5, 4, "'n_parts' must be an integer"),
    (True, 4, "'n_parts' must be an integer"),
])
def test_random_split_refuses_a_size_below_one_or_not_an_integer(n_parts, dim, match):
    with pytest.raises(StructuralError, match=match):
        random_split(n_parts, dim)


def test_random_split_takes_an_integral_float_dimension():
    assert random_split(2, 3.0).dim == 3


def test_empirical_order_fits_on_the_seeded_random_pair(monkeypatch):
    splits = []
    fit = schemes._fit_order

    def recording(split, *args, **kwargs):
        splits.append(split)
        return fit(split, *args, **kwargs)

    monkeypatch.setattr(schemes, "_fit_order", recording)
    empirical_order(get_scheme("strang"), seed=11)
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 8)
    b = random_hermitian(rng, 8)
    assert len(splits[0].parts) == 2
    assert all(np.array_equal(p, q) for p, q in zip(splits[0].parts, (a, b)))


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
    assert empirical_order(scheme) > 1.7


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
