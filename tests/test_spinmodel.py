"""XXZ chain construction, colorings, exact evolution, and error metric."""

import math
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trotterkit import compose
from trotterkit.compose import SectorBlocks, _eig_expm
from trotterkit.errors import CapacityError, DimensionError, StructuralError
from trotterkit.multistage import apply_multistage, evolve, to_multistage
from trotterkit.schemes import get_scheme
from trotterkit.spinmodel import (
    XxzConfig,
    _sector_oracle,
    bond_coloring,
    build_xxz,
    exact_evolution,
    frobenius_error,
    xxz_spectrum,
)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(StructuralError):
        XxzConfig(L=1)
    with pytest.raises(StructuralError):
        XxzConfig(L=2, boundary="periodic")  # wrap bond would duplicate (0,1)
    with pytest.raises(StructuralError):
        XxzConfig(L=4, boundary="moebius")
    assert XxzConfig(L=4).dim == 16
    assert XxzConfig(L=62).dim == 2**62  # the largest power of two an int64 holds
    # a chain past the dense cap is split; its first dense access is refused
    for _, dense in dense_accesses(build_xxz(XxzConfig(L=13))):
        with pytest.raises(CapacityError):
            dense()


@pytest.mark.parametrize("field, value", [
    ("L", 3.9), ("L", "8"), ("L", True), ("L", None), ("L", float("inf")), ("L", float("nan")),
    ("L", 63), ("L", 100000),
    ("delta", "x"), ("delta", True), ("delta", None), ("J", "1"), ("J", False),
])
def test_config_refuses_a_field_of_the_wrong_type(field, value):
    with pytest.raises(StructuralError, match=f"'{field}'"):
        XxzConfig(**dict({"L": 4}, **{field: value}))


@pytest.mark.parametrize("field", ["delta", "J"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_refuses_a_non_finite_field(field, value):
    with pytest.raises(StructuralError, match=f"'{field}' must be finite"):
        XxzConfig(**{"L": 3, field: value})


def test_bond_term_that_overflows_is_refused_without_a_warning():
    # 1e308 * 1e308 overflows inside the bond term; the split refuses it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError, match=r"term \(0, 1\) of part 0 has a non-finite entry"):
            build_xxz(XxzConfig(L=3, J=1e308, delta=1e308))


def test_config_stores_an_integral_length_as_an_int():
    cfg = XxzConfig(L=8.0, delta=1, J=np.float32(0.5))
    assert cfg == XxzConfig(L=8, delta=1.0, J=0.5)
    assert type(cfg.L) is int and type(cfg.delta) is float and type(cfg.J) is float


def dense_accesses(split):
    """Each access that needs a dense matrix of the split, by name."""
    ms = to_multistage(get_scheme("strang"))
    return [
        ("parts", lambda: split.parts),
        ("total", lambda: split.total),
        ("apply_multistage", lambda: apply_multistage(split, ms, 0.1)),
        ("evolve", lambda: evolve(split, ms, 0.1, 2)),
    ]


@pytest.mark.parametrize("L", [13, 16])
def test_chain_past_the_dense_cap_allocates_no_dense_matrix(L):
    # 2^16 x 2^16 float64 would be 32 GiB: the split is its terms, and each
    # dense access is refused before anything is allocated.
    get_scheme("strang")  # load and validate the catalog outside the trace
    tracemalloc.start()
    try:
        split = build_xxz(XxzConfig(L=L, boundary="periodic"))
        assert tracemalloc.get_traced_memory()[1] < 2**20
        for name, dense in dense_accesses(split):
            tracemalloc.reset_peak()
            with pytest.raises(CapacityError):
                dense()
            assert tracemalloc.get_traced_memory()[1] < 2**20, name
    finally:
        tracemalloc.stop()


def test_sectors_past_the_dense_cap_are_built_from_the_terms():
    # the sectors follow the terms' edges: at L = 16 the smallest dense
    # array, a 2^16 x 2^16 boolean pattern, would be 4 GiB
    L = 16
    split = build_xxz(XxzConfig(L=L, boundary="periodic"))
    tracemalloc.start()
    try:
        sectors = split.sectors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**27
    assert [len(s) for s in sectors] == [comb(L, m) for m in range(L + 1)]
    ups = np.array([bin(i).count("1") for i in range(split.dim)])
    assert all(np.array_equal(s, np.flatnonzero(ups == m)) for m, s in enumerate(sectors))


# ---------------------------------------------------------------------------
# colorings


@pytest.mark.parametrize(
    "L, boundary",
    [
        (4, "open"),
        (6, "open"),
        (9, "open"),
        (6, "periodic"),
        (9, "periodic"),
        (8, "periodic"),
        (7, "periodic"),
        (5, "periodic"),
    ],
)
def test_coloring_is_proper_and_complete(L, boundary):
    cfg = XxzConfig(L=L, boundary=boundary)
    colored = bond_coloring(cfg)
    expect_bonds = L - 1 if boundary == "open" else L
    assert len(colored) == expect_bonds
    assert {(i, j) for i, j, _ in colored} == {
        (i, (i + 1) % L) for i in range(expect_bonds)
    }
    for color in range(3):
        sites = [s for i, j, c in colored if c == color for s in (i, j)]
        assert len(sites) == len(set(sites))  # proper: no site repeats


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def bond_entries(op4, i, j, L):
    """Independent two-site embedding via bit arithmetic (site 0 = MSB):
    rows x, columns y and values, each place once, of every pair of states
    that agree off sites i and j."""
    idx = np.arange(2**L)
    bi = (idx >> (L - 1 - i)) & 1
    bj = (idx >> (L - 1 - j)) & 1
    rest = idx & ~((1 << (L - 1 - i)) | (1 << (L - 1 - j)))
    groups = np.argsort(rest, kind="stable").reshape(-1, 4)
    x = np.repeat(groups, 4, axis=1).ravel()
    y = np.tile(groups, (1, 4)).ravel()
    t = np.asarray(op4).reshape(2, 2, 2, 2)
    return x, y, t[bi[x], bj[x], bi[y], bj[y]]


def lift_bond(op4, i, j, L):
    """The dense (2^L x 2^L) embedding of `bond_entries`."""
    m = np.zeros((2**L, 2**L), dtype=complex)
    x, y, vals = bond_entries(op4, i, j, L)
    m[x, y] = vals
    return m


@pytest.mark.parametrize(
    "cfg", [XxzConfig(L=8), XxzConfig(L=9, boundary="periodic"), XxzConfig(L=6, delta=0.3)]
)
def test_within_color_bonds_commute_and_rebuild_parts(cfg):
    split = build_xxz(cfg)
    bond4 = cfg.J * (np.kron(_SX, _SX) + np.kron(_SY, _SY) + cfg.delta * np.kron(_SZ, _SZ))
    by_color = {}
    for i, j, c in bond_coloring(cfg):
        by_color.setdefault(c, []).append(lift_bond(bond4, i, j, cfg.L))
    for c, ops in sorted(by_color.items()):
        for p in range(len(ops)):
            for q in range(p + 1, len(ops)):
                comm = ops[p] @ ops[q] - ops[q] @ ops[p]
                assert np.linalg.norm(comm) < 1e-13
        assert np.linalg.norm(sum(ops) - split.parts[c]) < 1e-12


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_parts_from_terms_equal_lifted_bonds_exactly(boundary):
    for L in range(2 if boundary == "open" else 3, 9):
        cfg = XxzConfig(L=L, boundary=boundary, delta=0.3)
        split = build_xxz(cfg)
        bond4 = cfg.J * (np.kron(_SX, _SX) + np.kron(_SY, _SY) + cfg.delta * np.kron(_SZ, _SZ))
        parts = [np.zeros((cfg.dim, cfg.dim), dtype=complex) for _ in range(3)]
        for i, j, c in bond_coloring(cfg):
            parts[c] = parts[c] + lift_bond(bond4, i, j, L)
        assert [[(i, j) for i, j, _ in terms] for terms in split.terms] == [
            [(i, j) for i, j, c in bond_coloring(cfg) if c == color] for color in range(3)
        ]
        for want, got in zip(parts, split.parts):
            assert np.array_equal(want, got), (L, boundary)


# ---------------------------------------------------------------------------
# Hamiltonian assembly


def test_parts_sum_to_total():
    for cfg in (XxzConfig(L=6), XxzConfig(L=6, boundary="periodic"), XxzConfig(L=5)):
        split = build_xxz(cfg)
        total = sum(split.parts)
        assert np.linalg.norm(total - split.total) < 1e-13
        for part in split.parts:
            assert np.linalg.norm(part - part.conj().T) == 0.0


def test_l2_spectrum_analytic():
    # Single bond: XX+YY gives {0, 0, +-2}; Delta z z gives {+Delta, -Delta}
    # on the triplet/singlet split: spectrum {Delta, Delta, 2-Delta, -2-Delta}.
    for delta in (0.5, 1.0, 2.0):
        w = xxz_spectrum(XxzConfig(L=2, delta=delta))
        want = np.sort(np.array([delta, delta, 2.0 - delta, -2.0 - delta]))
        assert np.allclose(np.sort(w), want, rtol=0, atol=1e-13)


SPECTRUM_CHAINS = [XxzConfig(L=L, boundary=b, delta=d)
                   for L in range(2, 11) for b in ("open", "periodic") for d in (0.0, 0.3, 1.0)
                   if b == "open" or L >= 3]


@pytest.mark.parametrize("cfg", SPECTRUM_CHAINS, ids=str)
def test_spectrum_is_the_sector_eigenvalues_sorted(cfg):
    # the whole-matrix eigvalsh is only the reference here: the spectrum
    # agrees with it to rounding, not bit for bit
    split = build_xxz(cfg)
    w = xxz_spectrum(cfg)
    assert np.all(np.diff(w) >= 0) and len(w) == 2**cfg.L
    assert np.max(np.abs(w - np.linalg.eigvalsh(split.total))) < 1e-12


def test_spectrum_diagonalizes_each_sector_block_once(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    monkeypatch.setattr(np.linalg, "eigh", None)
    xxz_spectrum(XxzConfig(L=6))
    assert shapes == [(comb(6, m), comb(6, m)) for m in range(7)]


def test_j_scaling():
    w1 = xxz_spectrum(XxzConfig(L=4, J=1.0))
    w3 = xxz_spectrum(XxzConfig(L=4, J=3.0))
    assert np.allclose(np.sort(w3), 3.0 * np.sort(w1), rtol=0, atol=1e-12)


def test_delta_zero_open_spectrum_symmetric():
    # XX chain spectrum is symmetric about zero (particle-hole symmetry).
    w = np.sort(xxz_spectrum(XxzConfig(L=6, delta=0.0)))
    assert np.allclose(w, -w[::-1], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# exact evolution and the error metric


def test_exact_evolution_is_unitary_group():
    split = build_xxz(XxzConfig(L=8))
    u1 = np.asarray(exact_evolution(split.total, 0.7))
    u2 = np.asarray(exact_evolution(split.total, 1.6))
    u12 = np.asarray(exact_evolution(split.total, 2.3))
    eye = np.eye(split.dim)
    assert np.linalg.norm(u1.conj().T @ u1 - eye) < 1e-12
    assert np.linalg.norm(u1 @ u2 - u12) < 1e-11


@pytest.mark.parametrize("L, boundary", [(6, "open"), (7, "periodic"), (8, "open")])
def test_real_oracle_matches_complex_oracle(L, boundary):
    # a float64 H is diagonalized and exponentiated in real arithmetic; the
    # reference is the complex eigh and product of its complex128 copy
    h = build_xxz(XxzConfig(L=L, boundary=boundary, delta=0.6)).total
    assert h.dtype == np.float64
    hc = h.astype(complex)
    w, v = np.linalg.eigh(hc)
    eye = np.eye(len(h))
    for direction, z in (("forward", -0.9j), ("imaginary", -0.9)):
        got = np.asarray(exact_evolution(h, 0.9, direction))
        assert np.array_equal(exact_evolution(hc, 0.9, direction), got)
        want = (v * np.exp(z * w)) @ v.conj().T
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
    u = np.asarray(exact_evolution(h, 0.9))
    assert np.linalg.norm(u.conj().T @ u - eye) <= 1e-12


def test_exact_evolution_requires_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(StructuralError):
        exact_evolution(m, 1.0)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_exact_evolution_refuses_a_non_finite_time(t):
    h = build_xxz(XxzConfig(L=3)).total
    with pytest.raises(StructuralError, match="t must be finite"):
        exact_evolution(h, t)


def test_exact_evolution_imaginary_direction():
    h = np.diag([1.0, -2.0]).astype(complex)
    u = exact_evolution(h, 0.5, direction="imaginary")
    assert np.allclose(np.diag(u), np.exp(-0.5 * np.diag(h).real), rtol=1e-14)


def full_eigh_oracle(h, z):
    """The oracle as one eigh of the whole matrix."""
    return _eig_expm(*np.linalg.eigh(h), z)


def off_blocks(blocks, dim):
    """Mask of the entries outside the diagonal blocks."""
    label = np.empty(dim, dtype=int)
    for n, s in enumerate(blocks):
        label[s] = n
    return label[:, None] != label[None, :]


ORACLE_CHAINS = [
    (L, b, d)
    for L in range(2, 11)
    for b in ("open", "periodic")
    if b == "open" or L >= 3
    for d in (0.0, 0.3, 1.0)
]


@pytest.mark.parametrize("L, boundary, delta", ORACLE_CHAINS)
def test_sector_oracle_matches_full_diagonalization(L, boundary, delta):
    # H conserves the magnetization, so the oracle works on the sectors;
    # at delta = 0 the all-up and all-down rows of H are zero, singletons
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=delta))
    h = split.total
    w, v = np.linalg.eigh(h)
    off = off_blocks(split.sectors, split.dim)
    for direction, z in (("forward", -0.9j), ("imaginary", -0.9)):
        got = np.asarray(exact_evolution(h, 0.9, direction))
        want = _eig_expm(w, v, z)
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
        assert not got[off].any()


H_BLOCK_CHAINS = [
    (L, b, d, J)
    for L in range(2, 13)
    for b in ("open", "periodic")
    if b == "open" or L >= 3
    for d, J in ((0.0, 1.0), (0.3, 0.7), (1.0, 1.0))
]


def sector_blocks_from_bonds(split, L):
    """H's blocks over split.sectors from `bond_entries`, with no dense
    matrix: each part's terms added in term order to zero blocks, and the
    parts in order to zero blocks, as a dense sum of lifted bonds rounds."""
    dtype = np.result_type(float, *(op for t in split.terms for _, _, op in t))
    entries = [[bond_entries(op, i, j, L) for i, j, op in t] for t in split.terms]
    blocks = []
    for s in split.sectors:
        place = np.full(split.dim, -1)
        place[s] = np.arange(len(s))
        total = np.zeros((len(s), len(s)), dtype)
        for part_entries in entries:
            part = np.zeros_like(total)
            for x, y, vals in part_entries:
                # a zero adds nothing to a sum started at +0.0
                keep = (place[x] >= 0) & (vals != 0)
                assert (place[y[keep]] >= 0).all()  # no entry leaves the sector
                part[place[x[keep]], place[y[keep]]] += vals[keep]
            total += part
        blocks.append(total)
    return blocks


@pytest.mark.parametrize("L, boundary, delta, J", H_BLOCK_CHAINS)
def test_h_blocks_are_the_totals_sector_blocks_bit_for_bit(L, boundary, delta, J):
    # placed from the terms, each block sums its entries in the order a
    # dense sum of the lifted bonds does, and no dense H is built for them
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=delta, J=J))
    blocks = split.blocks.blocks
    assert "total" not in vars(split) and "parts" not in vars(split)
    assert len(blocks) == len(split.sectors)
    for b, want in zip(blocks, sector_blocks_from_bonds(split, L)):
        assert (b.dtype, b.shape) == (want.dtype, want.shape) and b.tobytes() == want.tobytes()
        assert not b.flags.writeable
    for b, s in zip(blocks, split.sectors):
        assert b.tobytes() == split.total[np.ix_(s, s)].tobytes()


def test_h_blocks_at_the_dense_cap_hold_less_than_one_dense_h():
    # at L = 12 the blocks hold sum_m C(12, m)^2 entries (21.6 MB), and the
    # dense total alone would take 128 MiB
    split = build_xxz(XxzConfig(L=12, boundary="periodic", delta=0.3, J=0.7))
    tracemalloc.start()
    try:
        blocks = split.blocks.blocks
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(b) for b in blocks] == [comb(12, m) for m in range(13)]
    assert peak < 2**12 * 2**12 * 8
    assert "total" not in vars(split)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def test_permuted_block_oracle_matches_full_diagonalization():
    rng = np.random.default_rng(14)
    sizes = [3, 1, 5, 2, 4, 1]
    dim = sum(sizes)
    blocked = np.zeros((dim, dim), dtype=complex)
    start = 0
    for n in sizes:
        blocked[start:start + n, start:start + n] = random_hermitian(rng, n)
        start += n
    perm = rng.permutation(dim)
    h = blocked[np.ix_(perm, perm)]
    # the components of h are the preimages of the blocks, not contiguous
    place = np.argsort(perm)
    blocks = np.split(place, np.cumsum(sizes)[:-1])
    off = off_blocks(blocks, dim)
    assert any(np.any(np.diff(np.sort(b)) > 1) for b in blocks)
    for direction, z in (("forward", -0.7j), ("imaginary", -0.7)):
        got = np.asarray(exact_evolution(h, 0.7, direction))
        want = full_eigh_oracle(h, z)
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
        assert not got[off].any()


def test_one_component_oracle_is_one_full_eigh_bit_for_bit():
    rng = np.random.default_rng(3)
    for h in (random_hermitian(rng, 12), random_hermitian(rng, 9).real):
        for direction, z in (("forward", -1.3j), ("imaginary", -1.3)):
            assert np.array_equal(exact_evolution(h, 1.3, direction), full_eigh_oracle(h, z))


def test_diagonal_oracle_is_the_exponential_of_the_diagonal():
    d = np.array([1.5, -2.0, 0.0, 0.25, 3.0])
    for direction, z in (("forward", -0.4j), ("imaginary", -0.4)):
        assert np.array_equal(exact_evolution(np.diag(d), 0.4, direction), np.diag(np.exp(z * d)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0)])
def test_exact_evolution_refuses_non_finite_entries(bad):
    h = build_xxz(XxzConfig(L=3)).total.astype(complex)
    h[2, 2] = bad
    with pytest.raises(StructuralError, match="H has a non-finite entry"):
        exact_evolution(h, 1.0)


def whole_matrix_oracle(h):
    """(sectors, oracle) as taken from the whole of h: one `_hermitian`
    copy, checked and narrowed whole, and its blocks on the components of
    its nonzero pattern."""
    whole = compose._hermitian(h, "H")
    sectors = compose._components(len(whole), *np.nonzero(whole))
    return sectors, _sector_oracle(SectorBlocks(sectors, [whole[np.ix_(s, s)] for s in sectors]))


def assert_same_blocks_bit_for_bit(u, want):
    """u holds want's blocks on want's sectors, bit for bit."""
    assert u.dtype == np.complex128 and len(u.sectors) == len(want.sectors)
    for s, b, ws, wb in zip(u.sectors, u.blocks, want.sectors, want.blocks):
        assert np.array_equal(s, ws)
        assert b.dtype == np.complex128 and b.tobytes() == wb.tobytes()


@pytest.mark.parametrize("L, boundary", [(L, b) for L in range(4, 13)
                                         for b in ("open", "periodic")])
def test_exact_evolution_checked_by_blocks_is_the_whole_matrix_path_bit_for_bit(L, boundary):
    h = build_xxz(XxzConfig(L=L, boundary=boundary, delta=0.3, J=0.7)).total
    _, oracle = whole_matrix_oracle(h)
    for direction, z in (("forward", -0.9j), ("imaginary", -0.9)):
        assert_same_blocks_bit_for_bit(exact_evolution(h, 0.9, direction), oracle(z))


def test_complex_h_keeps_its_real_blocks_complex():
    # one nonzero imaginary entry makes H complex, so its real blocks are
    # diagonalized in complex arithmetic, as a whole-matrix narrowing does
    rng = np.random.default_rng(21)
    sizes, real = [3, 1, 4, 2, 5], [True, True, False, True, False]
    dim = sum(sizes)
    blocked = np.zeros((dim, dim), dtype=complex)
    start = 0
    for n, r in zip(sizes, real):
        b = random_hermitian(rng, n)
        blocked[start:start + n, start:start + n] = b.real if r else b
        start += n
    perm = rng.permutation(dim)
    h = blocked[np.ix_(perm, perm)]
    sectors, oracle = whole_matrix_oracle(h)
    assert len(sectors) == len(sizes)
    assert any(not h[np.ix_(s, s)].imag.any() for s in sectors)
    for direction, z in (("forward", -0.7j), ("imaginary", -0.7)):
        assert_same_blocks_bit_for_bit(exact_evolution(h, 0.7, direction), oracle(z))


def _refusal(call):
    with pytest.raises((DimensionError, StructuralError)) as info:
        call()
    return type(info.value), str(info.value)


def _two_off_blocks():
    """A 5 x 5 H of blocks {0, 1, 2} and {3, 4}, each off Hermitian: by 0.5
    in the first and by 2.0 in the second."""
    h = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
    h[0, 2], h[2, 0] = 1.0, 1.5
    h[3, 4], h[4, 3] = 1j, 1j
    return h


@pytest.mark.parametrize("h, t, want", [
    (np.zeros((2, 3)), 1.0, (DimensionError, "H must be square, got shape (2, 3)")),
    (np.full((2, 2, 2), np.nan), np.nan, (DimensionError, "H must be square, got shape (2, 2, 2)")),
    (np.array([[np.nan, 1.0], [0.0, 0.0]]), np.nan, (StructuralError, "H has a non-finite entry")),
    (_two_off_blocks(), np.inf,
     (StructuralError, "H is not Hermitian (max deviation 2.000e+00)")),
    (np.eye(3), np.nan, (StructuralError, "t must be finite, got nan")),
], ids=["non-square", "non-square-first", "non-finite-first", "non-hermitian-first", "non-finite-t"])
def test_exact_evolution_refuses_in_the_whole_matrix_order(h, t, want):
    # non-square, then non-finite, then non-Hermitian, then a non-finite t;
    # the message is the whole-matrix check's
    assert _refusal(lambda: exact_evolution(h, t)) == want
    if want[1] != "t must be finite, got nan":
        assert _refusal(lambda: compose._hermitian(h, "H")) == want


def test_frobenius_error_examples():
    u = exact_evolution(np.diag([1.0, 2.0]).astype(complex), 0.3)
    assert frobenius_error(u, u).value == 0.0
    eps = 1e-7
    e = frobenius_error(np.diag([1.0, 1.0 + eps]), np.eye(2))
    assert e.value == pytest.approx(eps, rel=1e-12)
    with pytest.raises(DimensionError):
        frobenius_error(np.eye(2), np.eye(3))


def sector_distance(u, e):
    """The blockwise error as the bench and the order fit computed it
    before `frobenius_error` read blocks: sqrt(sum_s |u_s - e_s|_F^2)."""
    return math.hypot(*(np.linalg.norm(a - b) for a, b in zip(u, e)))


@pytest.mark.parametrize("L, boundary", [(5, "open"), (8, "periodic")])
def test_frobenius_error_reads_equal_sectors_by_their_blocks(L, boundary):
    # on equal sectors, held or not by the same arrays, the error is the
    # blockwise sum bit for bit; otherwise it is the dense norm
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=0.3))
    ms = to_multistage(get_scheme("suzuki4"))
    exact = exact_evolution(split.total, 1.0)  # its sectors are H's components
    assert exact.sectors is not split.sectors
    for u in (evolve(split, ms, 0.1, 10), evolve(split, ms, 0.25, 4, alternate_reversal=True)):
        got = frobenius_error(u, exact).value
        assert got == sector_distance(u.blocks, exact.blocks)
        dense = float(np.linalg.norm(np.asarray(u) - np.asarray(exact)))
        assert got == pytest.approx(dense, rel=1e-13, abs=0)
        whole = SectorBlocks([np.arange(split.dim)], [np.asarray(exact)])
        for other in (np.asarray(exact), whole):
            assert frobenius_error(u, other).value == dense
            assert frobenius_error(other, u).value == dense
    with pytest.raises(DimensionError):
        frobenius_error(exact, np.eye(split.dim + 1))


def test_strang_error_halves_as_h_squared():
    cfg = XxzConfig(L=6)
    split = build_xxz(cfg)
    ms = to_multistage(get_scheme("strang"))
    exact = exact_evolution(split.total, 1.0)
    errs = []
    for h, steps in ((0.1, 10), (0.05, 20)):
        u = evolve(split, ms, h, steps)
        errs.append(frobenius_error(u, exact).value)
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_property_spectrum_shifts_with_delta(delta):
    # Sum of eigenvalues equals the trace: zero for every XXZ chain, since
    # every bond term is traceless.
    w = xxz_spectrum(XxzConfig(L=4, delta=delta))
    assert abs(float(np.sum(w))) < 1e-12


@given(st.integers(min_value=2, max_value=9), st.sampled_from(["open", "periodic"]))
def test_property_total_is_hermitian_and_traceless(L, boundary):
    if boundary == "periodic" and L < 3:
        with pytest.raises(StructuralError):
            XxzConfig(L=L, boundary=boundary)
        return
    split = build_xxz(XxzConfig(L=L, boundary=boundary))
    assert np.linalg.norm(split.total - split.total.conj().T) == 0.0
    assert abs(np.trace(split.total)) < 1e-12
