"""Two-stage to multistage transform and evolution operators."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from trotterkit import schemes
from trotterkit.compose import evolve_sequence, merge_factors
from trotterkit.errors import ConsistencyError, DimensionError, StructuralError
from trotterkit.multistage import (
    MultiStageScheme,
    OperatorSplit,
    apply_multistage,
    apply_two_stage,
    direction_prefactor,
    evolve,
    multistage_order,
    to_multistage,
)
from trotterkit.schemes import (
    TwoStageScheme,
    get_scheme,
    load_catalog,
    random_hermitian,
    random_split,
)
from trotterkit.spinmodel import XxzConfig, build_xxz, exact_evolution

THETA = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))

LIE = TwoStageScheme(name="lie", order_n=1, a=(1.0, 0.0), b=(1.0,), symmetric=False)


def seeded_pair(dim=8, seed=12345):
    rng = np.random.default_rng(seed)
    return random_hermitian(rng, dim), random_hermitian(rng, dim)


# ---------------------------------------------------------------------------
# the coefficient transform


def test_forest_ruth_transform_values():
    # Closing a1 + a2 + a3 = 1 with b = (theta, 1 - 2 theta, theta) yields
    # the classic triple-jump stage pattern, halved into (c, d) pairs.
    ms = to_multistage(get_scheme("forest-ruth"))
    expect_c = (THETA / 2, (1 - 2 * THETA) / 2, THETA / 2)
    assert ms.c == pytest.approx(expect_c, rel=1e-15)
    assert ms.d == tuple(reversed(ms.c))


def test_transform_is_palindromic_for_symmetric_schemes():
    for scheme in load_catalog().values():
        if not scheme.symmetric:
            continue
        ms = to_multistage(scheme)
        assert ms.d == tuple(reversed(ms.c))


def test_transform_sums_to_one():
    for scheme in load_catalog().values():
        ms = to_multistage(scheme)
        total = sum(ms.c) + sum(ms.d)
        assert abs(total - 1.0) <= 1e-12


def assert_same_sequence(got, want, atol):
    """Two merged factor sequences agree within atol: with each factor whose
    coefficient is within atol of zero dropped and its neighbours merged,
    the same parts in the same order, each coefficient within atol.  (A
    factor of 1e-126 between two of 0.5 is absorbed by the transform's
    sums, which then merge its neighbours.)"""
    def kept(seq):
        return merge_factors([(k, c) for k, c in seq if abs(c) > atol])

    got, want = kept(got), kept(want)
    assert [k for k, _ in got] == [k for k, _ in want]
    assert np.allclose([c for _, c in got], [c for _, c in want], rtol=0, atol=atol)


def test_round_trip_reconstruction():
    # the merged Lambda = 2 sequence is the transform's inverse
    for scheme in load_catalog().values():
        merged = to_multistage(scheme).factor_sequence(2)
        assert_same_sequence(merged, scheme.factor_sequence(), 1e-14)


def test_transform_rejects_inconsistent_scheme():
    bad = TwoStageScheme(name="bad", order_n=2, a=(0.5, 0.6), b=(1.0,), symmetric=False)
    with pytest.raises(ConsistencyError):
        to_multistage(bad)


def test_multistage_constructor_validates():
    with pytest.raises(StructuralError):
        MultiStageScheme(name="bad", order_n=2, c=(0.5, 0.5), d=(0.5,))
    with pytest.raises(StructuralError):
        MultiStageScheme(name="bad", order_n=2, c=(), d=())
    with pytest.raises(ConsistencyError):
        MultiStageScheme(name="bad", order_n=2, c=(0.5,), d=(0.9,))
    with pytest.raises(StructuralError, match="'name'"):
        MultiStageScheme(name=5, order_n=2, c=(0.5,), d=(0.5,))
    for order_n in ("2", 2.5, 0, True):
        with pytest.raises(StructuralError, match="order_n"):
            MultiStageScheme(name="bad", order_n=order_n, c=(0.5,), d=(0.5,))
    assert MultiStageScheme(name="ok", order_n=2.0, c=(0.5,), d=(0.5,)).order_n == 2


@pytest.mark.parametrize("field", ["c", "d"])
@pytest.mark.parametrize("value", [True, "0.5", None, math.nan, math.inf],
                         ids=["bool", "str", "none", "nan", "inf"])
def test_multistage_constructor_refuses_a_coefficient_that_is_not_a_finite_number(
        field, value):
    # a nan would pass the consistency check: abs(nan - 1) > tol is False
    fields = dict(name="m", order_n=1, c=[0.5], d=[0.5])
    fields[field] = [value]
    with pytest.raises(StructuralError, match=f"'{field}' must be"):
        MultiStageScheme(**fields)


@pytest.mark.parametrize("field", ["c", "d"])
@pytest.mark.parametrize("value", [5, None, 0.5], ids=["int", "none", "float"])
def test_multistage_constructor_refuses_a_coefficient_list_that_is_not_a_list(field, value):
    fields = dict(name="m", order_n=1, c=[0.5], d=[0.5])
    with pytest.raises(StructuralError, match=f"'{field}' must be a list"):
        MultiStageScheme(**dict(fields, **{field: value}))


# ---------------------------------------------------------------------------
# merging identity: lambda = 2 equals the two-stage product


@pytest.mark.parametrize("h", [0.5, 0.1])
def test_lambda2_matches_two_stage(h):
    a, b = seeded_pair()
    split = OperatorSplit((a, b))
    for scheme in load_catalog().values():
        u_ms = np.asarray(apply_multistage(split, to_multistage(scheme), h))
        u_two = np.asarray(apply_two_stage(a, b, scheme, h))
        assert np.linalg.norm(u_ms - u_two) < 1e-12


def test_single_part_split_is_exact():
    a, _ = seeded_pair(dim=6)
    split = OperatorSplit((a,))
    w, v = np.linalg.eigh(a)
    for scheme in load_catalog().values():
        u = apply_multistage(split, to_multistage(scheme), 0.3)
        exact = (v * np.exp(-1j * 0.3 * w)) @ v.conj().T
        assert np.linalg.norm(u - exact) < 1e-12


def test_commuting_parts_are_exact_for_any_scheme():
    rng = np.random.default_rng(3)
    parts = tuple(np.diag(rng.normal(size=8)).astype(complex) for _ in range(3))
    split = OperatorSplit(parts)
    total = sum(parts)
    w = np.diag(total).real
    exact = np.diag(np.exp(-1j * 0.4 * w))
    for scheme in load_catalog().values():
        u = apply_multistage(split, to_multistage(scheme), 0.4)
        assert np.linalg.norm(u - exact) < 1e-12


# ---------------------------------------------------------------------------
# order preservation and elevation


@pytest.mark.parametrize("n_parts", [2, 3])
def test_order_preserved_across_stage_counts(n_parts):
    split = random_split(n_parts, 8)
    for scheme in load_catalog().values():
        two_stage_slope = scheme.order_n if scheme.order_n % 2 == 0 else scheme.order_n + 1
        slope = multistage_order(split, to_multistage(scheme))
        assert abs(slope - two_stage_slope) <= 0.3


def test_alternate_reversal_elevates_lie_to_order_two():
    split = random_split(2, 8, seed=7)
    ms = to_multistage(LIE)
    plain = multistage_order(split, ms)
    elevated = multistage_order(split, ms, alternate_reversal=True)
    assert plain == pytest.approx(1.0, abs=0.3)
    assert elevated == pytest.approx(2.0, abs=0.3)


def _fit_errors(monkeypatch, split, ms, alternate_reversal):
    """The errors `multistage_order` passes to the slope fit."""
    captured = []
    fit = schemes.fit_loglog_slope

    def capturing(h_values, errors):
        captured.append(list(errors))
        return fit(h_values, errors)

    monkeypatch.setattr(schemes, "fit_loglog_slope", capturing)
    multistage_order(split, ms, alternate_reversal=alternate_reversal)
    return captured[0]


def _dense_errors(split, ms, alternate_reversal):
    """The slow path: each fit point scattered into a dense matrix and
    measured against the dense oracle by one whole-matrix norm."""
    sequence = ms.factor_sequence(split.n_parts)
    errors = []
    for h in (2.0 ** -j for j in range(2, 7)):
        steps = max(1, round(1.0 / h))
        u = evolve_sequence(split, sequence, h, steps, alternate_reversal=alternate_reversal)
        exact = exact_evolution(split.total, steps * h)
        errors.append(float(np.linalg.norm(np.asarray(u) - np.asarray(exact))))
    return errors


@pytest.mark.parametrize("n_parts", [2, 3])
@pytest.mark.parametrize("alternate_reversal", [False, True])
def test_order_fit_errors_equal_the_dense_errors_on_random_splits(
        monkeypatch, n_parts, alternate_reversal):
    # one sector: the gathered block is the whole matrix, bit for bit
    split = random_split(n_parts, 8, seed=7)
    for scheme in [LIE, *load_catalog().values()]:
        ms = to_multistage(scheme)
        assert (_fit_errors(monkeypatch, split, ms, alternate_reversal)
                == _dense_errors(split, ms, alternate_reversal))


@pytest.mark.parametrize("cfg", [
    XxzConfig(L=6),
    XxzConfig(L=6, delta=0.3, J=0.7),
    XxzConfig(L=7, boundary="periodic", delta=0.3, J=0.7),
], ids=["l6", "l6-delta0.3", "l7-periodic"])
def test_order_fit_errors_match_the_dense_errors_on_the_chain(monkeypatch, cfg):
    # per-sector norms summed in quadrature differ from one dense norm
    # only in rounding
    split = build_xxz(cfg)
    for scheme in [LIE, *load_catalog().values()]:
        ms = to_multistage(scheme)
        for alternate_reversal in (False, True):
            got = _fit_errors(monkeypatch, split, ms, alternate_reversal)
            want = _dense_errors(split, ms, alternate_reversal)
            assert got == pytest.approx(want, rel=1e-13, abs=0)


def test_reversal_is_identity_for_symmetric_schemes():
    split = random_split(2, 8)
    ms = to_multistage(get_scheme("strang"))
    u_off = evolve(split, ms, 0.125, 8)
    u_on = evolve(split, ms, 0.125, 8, alternate_reversal=True)
    assert np.array_equal(u_off, u_on)


def test_single_step_evolve_equals_apply():
    split = random_split(3, 8)
    ms = to_multistage(get_scheme("suzuki4"))
    assert np.array_equal(evolve(split, ms, 0.2, 1), apply_multistage(split, ms, 0.2))


# ---------------------------------------------------------------------------
# unitarity and directions


def test_unitarity_over_hundred_steps():
    split = build_xxz(XxzConfig(L=8))
    eye = np.eye(split.dim)
    for name in ("strang", "omelyan2", "forest-ruth", "suzuki4", "blanes-moan4"):
        u = np.asarray(evolve(split, to_multistage(get_scheme(name)), 0.1, 100))
        assert np.linalg.norm(u.conj().T @ u - eye) < 1e-11


def test_direction_prefactors():
    assert direction_prefactor("forward") == -1j
    assert direction_prefactor("imaginary") == -1.0
    with pytest.raises(StructuralError):
        direction_prefactor("sideways")


def test_imaginary_direction_decays():
    a, b = seeded_pair(dim=6)
    split = OperatorSplit((a, b))
    h = 0.01
    w, v = np.linalg.eigh(a + b)
    exact = (v * np.exp(-h * w)) @ v.conj().T
    u = apply_multistage(split, to_multistage(get_scheme("strang")), h, direction="imaginary")
    assert np.linalg.norm(u - exact) < 1e-5
    assert np.linalg.norm(u - exact) > 0.0  # not the unitary branch


# ---------------------------------------------------------------------------
# the composer against the explicit factor products it replaces


def random_real_symmetric(rng, dim):
    m = rng.standard_normal((dim, dim))
    m = (m + m.T) / 2.0
    w = np.linalg.eigvalsh(m)
    return m / max(abs(w[0]), abs(w[-1]))


def block_pairs(ms, n_parts):
    """Unmerged (part, coefficient) pairs of the ascending/descending blocks."""
    pairs = []
    for ci, di in zip(ms.c, ms.d):
        pairs += [(k, ci) for k in range(n_parts)]
        pairs += [(k, di) for k in reversed(range(n_parts))]
    return pairs


def expm_product(parts, pairs, h, direction):
    pref = direction_prefactor(direction)
    u = np.eye(parts[0].shape[0], dtype=complex)
    for k, coef in pairs:
        u = u @ scipy.linalg.expm(pref * coef * h * parts[k])
    return u


@pytest.mark.parametrize("n_parts", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(load_catalog()))
def test_composer_matches_unmerged_expm_product(name, n_parts):
    scheme = get_scheme(name)
    ms = to_multistage(scheme)
    rng = np.random.default_rng(100 + n_parts)
    dim = 4 * n_parts + 4
    h = 0.3
    two_stage_pairs = [(0, scheme.a[0])]
    for bi, ai in zip(scheme.b, scheme.a[1:]):
        two_stage_pairs += [(1, bi), (0, ai)]
    for kind in ("real", "complex", "mixed"):
        split = OperatorSplit(tuple(
            random_real_symmetric(rng, dim)
            if kind == "real" or (kind == "mixed" and k % 2 == 0)
            else random_hermitian(rng, dim)
            for k in range(n_parts)
        ))
        for direction in ("forward", "imaginary"):
            want = expm_product(split.parts, block_pairs(ms, n_parts), h, direction)
            got = apply_multistage(split, ms, h, direction)
            assert np.linalg.norm(got - want) <= 1e-12
            if n_parts == 2:
                want = expm_product(split.parts, two_stage_pairs, h, direction)
                got = apply_two_stage(*split.parts, scheme, h, direction)
                assert np.linalg.norm(got - want) <= 1e-12


def test_composer_matches_dense_factor_path_on_xxz_chain():
    split = build_xxz(XxzConfig(L=8))
    eigs = []
    for part in split.parts:
        w, v = np.linalg.eigh(part)
        eigs.append((w, v @ (1.5 * np.eye(split.dim) - 0.5 * (v.conj().T @ v))))
    h = 0.1
    for scheme in load_catalog().values():
        ms = to_multistage(scheme)
        u = np.eye(split.dim, dtype=complex)
        for k, coef in block_pairs(ms, split.n_parts):
            w, v = eigs[k]
            u = u @ ((v * np.exp(-1j * coef * h * w)) @ v.conj().T)
        assert np.linalg.norm(apply_multistage(split, ms, h) - u) <= 1e-12


def test_adjacent_factors_merge():
    ms = to_multistage(get_scheme("blanes-moan4"))
    assert len(block_pairs(ms, 3)) == 36
    assert len(ms.factor_sequence(3)) == 25
    scheme = get_scheme("suzuki4")
    assert len(to_multistage(scheme).factor_sequence(2)) == len(scheme.a) + len(scheme.b)


# ---------------------------------------------------------------------------
# input validation


def test_operator_split_rejects_non_hermitian():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(StructuralError):
        OperatorSplit((m,))


def test_operator_split_rejects_mixed_dims():
    a, _ = seeded_pair(dim=4)
    b, _ = seeded_pair(dim=6)
    with pytest.raises(DimensionError):
        OperatorSplit((a, b))


def test_operator_split_rejects_empty():
    with pytest.raises(StructuralError):
        OperatorSplit(())


def test_apply_two_stage_shape_check():
    a, _ = seeded_pair(dim=4)
    with pytest.raises(DimensionError):
        apply_two_stage(a, np.eye(6, dtype=complex), get_scheme("strang"), 0.1)


@pytest.mark.parametrize("steps, match", [
    (0, "steps must be >= 1"), (2.5, "'steps' must be an integer"),
    (True, "'steps' must be an integer"), ("2", "'steps' must be an integer"),
])
def test_evolve_requires_a_positive_integer_step_count(steps, match):
    split = random_split(2, 4)
    with pytest.raises(StructuralError, match=match):
        evolve(split, to_multistage(get_scheme("strang")), 0.1, steps)


def test_evolve_takes_an_integral_float_step_count():
    split = random_split(2, 4)
    ms = to_multistage(get_scheme("strang"))
    assert np.array_equal(evolve(split, ms, 0.1, 3.0), evolve(split, ms, 0.1, 3))


# ---------------------------------------------------------------------------
# randomized properties


@st.composite
def consistent_two_stage(draw):
    q = draw(st.integers(min_value=1, max_value=4))
    coeff = st.floats(min_value=-1.2, max_value=1.2, allow_nan=False, allow_infinity=False)
    head_a = [draw(coeff) for _ in range(q)]
    head_b = [draw(coeff) for _ in range(q - 1)]
    a = tuple(head_a) + (1.0 - math.fsum(head_a),)
    b = tuple(head_b) + (1.0 - math.fsum(head_b),)
    return TwoStageScheme(name="rand", order_n=1, a=a, b=b, symmetric=False)


@given(consistent_two_stage())
def test_property_transform_round_trips(scheme):
    ms = to_multistage(scheme)
    assert abs(sum(ms.c) + sum(ms.d) - 1.0) <= 1e-12
    assert_same_sequence(ms.factor_sequence(2), scheme.factor_sequence(), 1e-12)


@given(st.sampled_from(sorted(load_catalog())), st.floats(min_value=0.01, max_value=0.5))
def test_property_merging_identity(name, h):
    scheme = get_scheme(name)
    a, b = seeded_pair(dim=6, seed=99)
    u_ms = np.asarray(apply_multistage(OperatorSplit((a, b)), to_multistage(scheme), h))
    u_two = np.asarray(apply_two_stage(a, b, scheme, h))
    assert np.linalg.norm(u_ms - u_two) < 1e-12
