"""The composer's term-gate kernel, on local and on dense splits."""

from functools import partial
from math import comb
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from trotterkit import compose as compose_module, spinmodel
from trotterkit.bench import BenchPlan, run_benchmark
from trotterkit.compose import (
    OperatorSplit,
    SectorBlocks,
    _apply_term,
    _components,
    _eig_expm,
    _hermitian_blocks,
    _narrowed,
    compose,
    direction_prefactor,
    evolve_sequence,
    power_step,
)
from trotterkit.errors import CapacityError, DimensionError, StructuralError
from trotterkit.multistage import (
    apply_multistage,
    apply_two_stage,
    evolve,
    multistage_order,
    to_multistage,
)
from trotterkit.schemes import TwoStageScheme, get_scheme, load_catalog, random_split
from trotterkit.spinmodel import XxzConfig, build_xxz, exact_evolution

CHAINS = [(L, b) for L in range(3, 9) for b in ("open", "periodic")]


def block_pairs(ms, n_parts):
    """Unmerged (part, coefficient) pairs of the ascending/descending blocks."""
    pairs = []
    for ci, di in zip(ms.c, ms.d):
        pairs += [(k, ci) for k in range(n_parts)]
        pairs += [(k, di) for k in reversed(range(n_parts))]
    return pairs


def scatter(sectors, blocks):
    """The reference for `SectorBlocks.__array__`: each block on the rows
    and columns of its sector, zero elsewhere."""
    dim = sum(map(len, sectors))
    out = np.zeros((dim, dim), complex)
    for s, b in zip(sectors, blocks):
        out[np.ix_(s, s)] = b
    return out


def real_matmul(m, x):
    """m @ x for a real m; a complex x is multiplied as its interleaved real
    view (x is C-ordered)."""
    if np.isrealobj(x):
        return m @ x
    return (m @ x.view(np.float64)).view(np.complex128)


def eigh_product(eigs, pairs, h, direction):
    """Unmerged product of the factors v diag(e^{z w}) v^T of real parts,
    each applied on the left, last factor first."""
    pref = direction_prefactor(direction)
    x = np.eye(len(eigs[0][0]))
    for k, coef in reversed(pairs):
        w, v = eigs[k]
        x = real_matmul(v, np.exp(pref * coef * h * w)[:, None] * real_matmul(v.T, x))
    return x


@pytest.mark.parametrize("L, boundary", CHAINS + [(10, "periodic")])
def test_gate_backend_matches_eigenbasis_composer(L, boundary):
    # the reference exponentiates each dense part from its own eigh and
    # never merges factors or touches the split's terms
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=0.7))
    assert not any(part.imag.any() for part in split.parts)
    eigs = [np.linalg.eigh(part.real) for part in split.parts]
    schemes = load_catalog().values() if L <= 8 else [get_scheme("strang")]
    directions = ("forward", "imaginary") if L <= 8 else ("forward",)
    for scheme in schemes:
        ms = to_multistage(scheme)
        seq = ms.factor_sequence(split.n_parts)
        for direction in directions:
            got = compose(split, seq, 0.1, direction)
            want = eigh_product(eigs, block_pairs(ms, split.n_parts), 0.1, direction)
            assert np.linalg.norm(got - want) <= 1e-12, (scheme.name, direction)


def apply_gates(split, sequence, h, block, direction="forward"):
    """The split's gates for the factor sequence applied to a (dim x m)
    block, as one pass with no column blocks."""
    x = np.asarray(block, dtype=complex)
    for g, i, j in compose_module._resolve_gates(split, sequence, h, direction):
        x = _apply_term(g, i, j, x)
    return x


@pytest.mark.parametrize("L, boundary", [(3, "periodic"), (5, "open"), (7, "periodic"), (8, "open")])
def test_sequence_on_a_block_matches_dense_step(L, boundary):
    split = build_xxz(XxzConfig(L=L, boundary=boundary))
    rng = np.random.default_rng(L)
    block = rng.normal(size=(split.dim, 3)) + 1j * rng.normal(size=(split.dim, 3))
    for name in ("blanes-moan4", "triple-jump-complex"):
        seq = to_multistage(get_scheme(name)).factor_sequence(split.n_parts)
        for direction in ("forward", "imaginary"):
            got = apply_gates(split, seq, 0.1, block, direction)
            want = compose(split, seq, 0.1, direction) @ block
            assert got.shape == block.shape
            assert np.linalg.norm(got - want) <= 1e-12


def test_gate_path_diagonalizes_only_bond_terms(monkeypatch):
    split = build_xxz(XxzConfig(L=6, boundary="periodic"))
    eigh = np.linalg.eigh
    shapes = []

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for name in ("strang", "suzuki4"):
        seq = to_multistage(get_scheme(name)).factor_sequence(split.n_parts)
        evolve_sequence(split, seq, 0.1, 3, alternate_reversal=True)
    assert shapes == [(4, 4)]


def test_alternate_reversal_powering_matches_sequential_product():
    split = build_xxz(XxzConfig(L=5))
    seq = ((0, 0.3), (1, 0.5), (2, 0.2))  # not a palindrome
    step = np.asarray(compose(split, seq, 0.2))
    step_rev = np.asarray(compose(split, seq[::-1], 0.2))
    for steps in (1, 2, 5):
        u = step
        for i in range(1, steps):
            u = u @ (step_rev if i % 2 else step)
        got = np.asarray(evolve_sequence(split, seq, 0.2, steps, alternate_reversal=True))
        assert np.linalg.norm(got - u) <= 1e-13


def test_from_terms_validates_terms():
    bond = np.diag([1.0, -1.0, -1.0, 1.0])
    with pytest.raises(StructuralError):
        OperatorSplit.from_terms(4, [[(0, 2, bond)]])  # not neighbours
    with pytest.raises(StructuralError):
        OperatorSplit.from_terms(4, [[(3, 4, bond)]])  # past the last site
    with pytest.raises(StructuralError):
        OperatorSplit.from_terms(4, [[(0, 1, bond), (1, 2, bond)]])  # shared site
    with pytest.raises(StructuralError):
        OperatorSplit.from_terms(4, [[(0, 1, np.triu(np.ones((4, 4))))]])
    with pytest.raises(DimensionError):
        OperatorSplit.from_terms(4, [[(0, 1, np.eye(2))]])
    split = OperatorSplit.from_terms(3, [[(0, 1, bond)], [(2, 0, bond)], []])
    assert split.dim == 8 and split.n_parts == 3
    assert not split.parts[2].any()


@pytest.mark.parametrize("n_sites", [-3, 2.5, True, 63, 100000, "4"])
def test_from_terms_refuses_site_counts_past_the_index_width(n_sites):
    # refused before any term is read: this term has the wrong shape
    with pytest.raises(StructuralError, match="'n_sites'"):
        OperatorSplit.from_terms(n_sites, [[(0, 1, np.eye(2))]])


def test_from_terms_accepts_two_to_62_sites():
    bond = np.diag([1.0, -1.0, -1.0, 1.0])
    assert OperatorSplit.from_terms(2, [[(0, 1, bond)]]).dim == 4
    assert OperatorSplit.from_terms(4.0, [[(3, 0, bond)]]).dim == 16
    wide = OperatorSplit.from_terms(62, [[(0, 1, bond)], [(61, 0, bond)]])
    assert wide.dim == 2**62 and wide.n_parts == 2


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_parts_and_terms_are_refused(bad):
    # on and off the diagonal, mirrored as a Hermitian entry would be: the
    # deviation max|a - a^H| is then NaN, which no tolerance comparison fails
    for where in ((0, 0), (0, 1)):
        m = np.eye(4, dtype=complex)
        m[where] = bad
        m[where[::-1]] = np.conj(bad)
        with pytest.raises(StructuralError, match="part 0 has a non-finite entry"):
            OperatorSplit([m, np.eye(4)])
        with pytest.raises(StructuralError, match="part 1 has a non-finite entry"):
            OperatorSplit([np.eye(4), m])
        with pytest.raises(StructuralError,
                           match=r"term \(1, 2\) of part 1 has a non-finite entry"):
            OperatorSplit.from_terms(3, [[(0, 1, np.eye(4))], [(1, 2, m)]])


def test_dense_split_has_one_whole_space_term_per_part(monkeypatch):
    split = random_split(3, 6)
    assert len(split.terms) == 3
    for part, terms in zip(split.parts, split.terms):
        ((i, j, op),) = terms
        assert i is None and j is None and op is part
    eigh = np.linalg.eigh
    calls = []

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    seq = to_multistage(get_scheme("suzuki4")).factor_sequence(3)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    first = compose(split, seq, 0.1)
    assert np.array_equal(compose(split, seq, 0.1), first)
    assert calls == [(6, 6)] * 3


def test_dense_split_rounding_against_extended_precision():
    # 64 steps of the merged blanes-moan4 sequence on a random dim-8 pair,
    # against the same product of exponentials in 30-digit arithmetic.
    split = random_split(2, 8, seed=12345)
    seq = to_multistage(get_scheme("blanes-moan4")).factor_sequence(2)
    h, steps = 1 / 64, 64
    got = evolve_sequence(split, seq, h, steps)
    with mp.workdps(30):
        eigs = [mp.eigh(mp.matrix(part.tolist())) for part in split.parts]
        step = mp.eye(split.dim)
        for k, coef in seq:
            w, v = eigs[k]
            z = -1j * mp.mpc(coef) * mp.mpf(h)
            step = step * v * mp.diag([mp.exp(z * x) for x in w]) * v.H
        want = np.array((step**steps).tolist(), dtype=complex)
    assert np.linalg.norm(got - want) <= 2e-13


# ---------------------------------------------------------------------------
# real storage and real arithmetic for real Hamiltonians


@pytest.mark.parametrize("dim", [2, 3, 8, 17, 64])
def test_real_eigenvector_expm_matches_complex_product(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh(a + a.T)
    vc = v.astype(complex)
    for z in (-0.7j, -0.3 - 0.2j, -0.4, 0.25):  # forward, complex, imaginary time
        got = _eig_expm(w, v, z)
        want = (vc * np.exp(z * w)) @ vc.conj().T
        assert got.dtype == np.complex128
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), z


def test_narrowed_copies_and_keeps_only_nonzero_imaginary_parts():
    a = np.array([[2.0, 1.0], [1.0, -1.0]])
    for m in (a, a.astype(complex), a.astype(int)):
        got = _narrowed(m)
        assert got.dtype == np.float64 and np.array_equal(got, a)
        assert not np.shares_memory(got, m)
    h = a + 1j * np.array([[0.0, 0.5], [-0.5, 0.0]])
    got = _narrowed(h)
    assert got.dtype == np.complex128 and np.array_equal(got, h)
    assert not np.shares_memory(got, h)


def test_split_inputs_stay_writeable():
    # a split stores read-only copies; the caller's arrays are left alone
    rng = np.random.default_rng(7)
    real = rng.normal(size=(4, 4))
    real = real + real.T
    cplx = real + 1j * (np.triu(real, 1) - np.triu(real, 1).T)
    split = OperatorSplit((real, cplx))
    assert [p.dtype for p in split.parts] == [np.float64, np.complex128]
    assert not any(p.flags.writeable for p in split.parts)
    apply_two_stage(real, cplx, get_scheme("strang"), 0.1)
    OperatorSplit.from_terms(3, [[(0, 1, real)], [(1, 2, cplx)]])
    for m in (real, cplx):
        assert m.flags.writeable
        m[0, 0] += 1.0


@pytest.mark.parametrize("L, boundary", [(3, "periodic"), (6, "open"), (8, "periodic")])
def test_xxz_parts_are_real_and_equal_the_complex_build(L, boundary):
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=0.3))
    eye = np.eye(split.dim, dtype=complex)
    total = np.zeros_like(eye)
    for part, terms in zip(split.parts, split.terms):
        want = np.zeros_like(eye)
        for i, j, op4 in terms:
            assert op4.dtype == np.float64
            want += _apply_term(op4.astype(complex), i, j, eye)
        assert part.dtype == np.float64 and np.array_equal(part, want)
        total = total + want
    assert split.total.dtype == np.float64 and np.array_equal(split.total, total)


def test_complex_splits_stay_complex():
    split = random_split(3, 6)
    assert all(p.dtype == np.complex128 for p in split.parts)
    assert split.total.dtype == np.complex128
    mixed = OperatorSplit((split.parts[0], np.diag([1.0, 2, 3, 4, 5, 6]).astype(complex)))
    assert [p.dtype for p in mixed.parts] == [np.complex128, np.float64]
    assert mixed.total.dtype == np.complex128
    y = np.array([[0, -1j], [1j, 0]])
    chain = OperatorSplit.from_terms(3, [[(0, 1, np.kron(y, np.eye(2)))], [(1, 2, np.eye(4))]])
    assert [p.dtype for p in chain.parts] == [np.complex128, np.float64]


# ---------------------------------------------------------------------------
# invariant sectors: the magnetization sectors of the XXZ chain

SECTOR_CHAINS = [
    (L, b, d)
    for L in range(2, 11)
    for b in ("open", "periodic")
    if b == "open" or L >= 3
    for d in (0.0, 0.3, 1.0)
]


def magnetization(dim):
    """Number of up spins (set bits) of each basis index."""
    return np.array([bin(i).count("1") for i in range(dim)])


def off_sector(split):
    """Mask of the entries outside the diagonal sector blocks."""
    label = np.empty(split.dim, dtype=int)
    for n, s in enumerate(split.sectors):
        label[s] = n
    return label[:, None] != label[None, :]


@pytest.mark.parametrize("L, boundary, delta", SECTOR_CHAINS)
def test_xxz_sectors_partition_the_basis_by_magnetization(L, boundary, delta):
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=delta))
    sectors = split.sectors
    assert split.sectors is sectors  # computed once and kept
    assert [len(s) for s in sectors] == [comb(L, m) for m in range(L + 1)]
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(split.dim))
    ups = magnetization(split.dim)
    for m, s in enumerate(sectors):
        assert np.array_equal(s, np.flatnonzero(ups == m))
        assert not s.flags.writeable
    assert "parts" not in vars(split) and "total" not in vars(split)  # the terms alone


def components_by_search(pattern):
    """Reference components: a breadth-first search from each unvisited
    index in turn, edges taken both ways, each component sorted."""
    edges = pattern | pattern.T
    seen = np.zeros(len(pattern), dtype=bool)
    out = []
    for first in range(len(pattern)):
        if seen[first]:
            continue
        seen[first] = True
        found, frontier = [first], [first]
        while frontier:
            nxt = np.flatnonzero(edges[frontier].any(axis=0) & ~seen)
            seen[nxt] = True
            found += nxt.tolist()
            frontier = nxt.tolist()
        out.append(np.array(sorted(found)))
    return out


SECTOR_SPLITS = [
    *(partial(build_xxz, XxzConfig(L=L, boundary=b, delta=d)) for L, b, d in SECTOR_CHAINS),
    partial(random_split, 3, 6),
    partial(random_split, 2, 17, seed=3),
]


@pytest.mark.parametrize("make", SECTOR_SPLITS)
def test_sectors_are_the_components_of_the_parts_pattern(make):
    split = make()
    pattern = np.zeros((split.dim, split.dim), dtype=bool)
    for p in split.parts:
        pattern |= p != 0
    want = components_by_search(pattern)
    got = split.sectors
    assert len(got) == len(want)
    assert all(same_bits(g, w) and not g.flags.writeable for g, w in zip(got, want))


@pytest.mark.parametrize("make", SECTOR_SPLITS)
def test_sectors_are_the_oracle_blocks_of_the_total(make):
    # the sectors come from the terms, the oracle's blocks from H's entries
    # (`_components` of total != 0); no term of these splits cancels
    # another's entry, so the two are the same arrays
    split = make()
    sectors = exact_evolution(split.total, 0.5).sectors
    assert len(sectors) == len(split.sectors)
    assert all(map(same_bits, sectors, split.sectors))


@pytest.mark.parametrize("L, boundary, delta", [(L, b, d) for L in range(3, 11)
                                                for b in ("open", "periodic") for d in (0.3, 1.0)])
def test_split_blocks_are_the_total_bit_for_bit(L, boundary, delta):
    # H's sector blocks, placed from the terms, are one value, kept: its
    # dense form is the total bit for bit, real like it
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=delta))
    h = split.blocks
    assert isinstance(h, SectorBlocks) and split.blocks is h
    assert len(h.sectors) == len(split.sectors)
    assert all(map(same_bits, h.sectors, split.sectors))
    dense = np.asarray(h)
    assert h.dtype == np.float64 and same_bits(dense, split.total)
    x = np.random.default_rng(L).normal(size=split.dim)
    want = split.total @ x
    assert (h @ x).dtype == np.float64
    assert np.linalg.norm(h @ x - want) <= 1e-14 * np.linalg.norm(want)


def complex_xy_chain(L):
    """An L-site chain of complex hopping bonds, which keep the
    magnetization: complex blocks on the magnetization sectors."""
    hop = np.zeros((4, 4), complex)
    hop[1, 2], hop[2, 1] = np.exp(0.7j), np.exp(-0.7j)
    bond = hop + 0.3 * np.diag([1.0, -1.0, -1.0, 1.0])
    return OperatorSplit.from_terms(L, [[(i, i + 1, bond) for i in range(c, L - 1, 2)]
                                        for c in (0, 1)])


@pytest.mark.parametrize("make", [partial(random_split, 3, 6), partial(complex_xy_chain, 6)],
                         ids=["random", "complex-chain"])
def test_complex_split_blocks_are_complex(make):
    split = make()
    h = split.blocks
    assert h.dtype == np.complex128 and same_bits(np.asarray(h), split.total)
    assert all(b.dtype == np.complex128 for b in h.blocks)


def test_split_blocks_past_the_dense_cap_are_refused_before_the_sectors_are_searched():
    split = build_xxz(XxzConfig(L=13))
    with pytest.raises(CapacityError):
        split.blocks
    assert "sectors" not in split.__dict__ and "blocks" not in split.__dict__


@pytest.mark.parametrize("L, boundary", [(4, "open"), (7, "periodic"), (8, "open")])
def test_power_step_is_the_per_block_matrix_power_bit_for_bit(L, boundary):
    # a step, a step in imaginary time and H itself, each powered on its
    # own sectors: the blocks of the list-in, list-out power it replaced
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=0.3))
    seq = to_multistage(get_scheme("blanes-moan4")).factor_sequence(split.n_parts)
    for u in (compose(split, seq, 0.05), compose(split, seq, 0.05, "imaginary"), split.blocks):
        for steps in (1, 2, 7, 60):
            got = power_step(u, steps)
            want = [np.linalg.matrix_power(b, steps) for b in u.blocks]
            assert isinstance(got, SectorBlocks) and len(got.sectors) == len(u.sectors)
            assert all(map(same_bits, got.sectors, u.sectors))
            assert all(map(same_bits, got.blocks, want)) and len(got.blocks) == len(want)


@pytest.mark.parametrize("pattern", [
    np.ones((5, 5), dtype=bool),
    np.eye(1, dtype=bool),
    np.zeros((1, 1), dtype=bool),
    np.add.outer(np.arange(6) == 3, np.arange(6) == 3),  # a star on index 3
    np.tril(np.ones((6, 6), dtype=bool)),  # index 5 joins all, one way
    np.ones((6, 6), dtype=bool) & ~np.eye(6, k=1, dtype=bool),  # no full row
    np.pad(np.ones((3, 3), dtype=bool), (0, 1)),  # n - 1 entries, one the diagonal
])
def test_components_of_patterns_with_a_full_row(pattern):
    want = components_by_search(pattern)
    got = _components(len(pattern), *np.nonzero(pattern))
    assert len(got) == len(want)
    assert all(same_bits(g, w) and not g.flags.writeable for g, w in zip(got, want))


def test_coupled_splits_have_one_sector():
    for split in (random_split(3, 6), random_split(2, 17, seed=3)):
        (whole,) = split.sectors
        assert np.array_equal(whole, np.arange(split.dim))
    # terms that flip one spin each couple every magnetization
    flip = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    split = OperatorSplit.from_terms(3, [[(0, 1, flip)], [(1, 2, flip)], [(2, 0, flip)]])
    (whole,) = split.sectors
    assert np.array_equal(whole, np.arange(8))
    # with site 2 never flipped, its two values stay apart
    split = OperatorSplit.from_terms(3, [[(0, 1, flip)], [(1, 2, flip)]])
    assert [s.tolist() for s in split.sectors] == [[0, 2, 4, 6], [1, 3, 5, 7]]
    zero = OperatorSplit((np.zeros((3, 3)),))
    assert [s.tolist() for s in zero.sectors] == [[0], [1], [2]]


# ---------------------------------------------------------------------------
# dense views: placed from the terms' entries on first use

# every chain of L = 2-10, open and periodic, delta in {1, 0.3, 0, -0.7}
# and J in {1, 0.37}: J = 0.37 and delta = 0.3 or -0.7 give non-integer
# entries, so any change of summation order shows in the bits
DENSE_CHAINS = [
    (L, b, d, J)
    for L in range(2, 11)
    for b in ("open", "periodic")
    if b == "open" or L >= 3
    for d in (1.0, 0.3, 0.0, -0.7)
    for J in (1.0, 0.37)
]


def kernel_dense(split):
    """Reference dense parts and total, built the slow way, by the gate
    kernel: each part is its terms applied to the float identity, summed
    term by term into a zero matrix; the total is the parts summed in
    order into a zero matrix."""
    eye = np.eye(split.dim)
    parts = []
    for terms in split.terms:
        part = np.zeros(eye.shape, np.result_type(eye, *(op for _, _, op in terms)))
        for i, j, op in terms:
            part += _apply_term(op, i, j, eye)
        parts.append(part)
    total = np.zeros(eye.shape, np.result_type(*parts))
    for p in parts:
        total += p
    return parts, total


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_dense_views_are(make, want_parts, want_total):
    """Splits from make() give want_parts and want_total bit for bit, read-only,
    whether the total or the parts are read first."""
    total_first = make()
    assert same_bits(total_first.total, want_total)
    assert "parts" not in vars(total_first)  # built for the sum, not kept
    parts_first = make()
    for split in (total_first, parts_first):
        parts = split.parts
        assert split.parts is parts and len(parts) == len(want_parts)
        assert all(map(same_bits, parts, want_parts))
        assert not any(p.flags.writeable for p in parts)
        assert same_bits(split.total, want_total) and not split.total.flags.writeable


@pytest.mark.parametrize("L, boundary, delta, J", DENSE_CHAINS)
def test_lazy_dense_views_equal_the_kernel_build_bit_for_bit(L, boundary, delta, J):
    cfg = XxzConfig(L=L, boundary=boundary, delta=delta, J=J)
    want_parts, want_total = kernel_dense(build_xxz(cfg))
    assert len(want_parts) == 3
    assert_dense_views_are(lambda: build_xxz(cfg), want_parts, want_total)


def test_complex_terms_and_an_empty_part_equal_the_kernel_build_bit_for_bit():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = a + a.conj().T
    terms = [[(0, 1, a), (2, 3, 0.37 * a.real)], [], [(1, 2, a.real), (4, 0, a)]]
    make = partial(OperatorSplit.from_terms, 5, terms)
    want_parts, want_total = kernel_dense(make())
    assert [p.dtype for p in want_parts] == [np.complex128, np.float64, np.complex128]
    assert not want_parts[1].any()
    assert_dense_views_are(make, want_parts, want_total)


def test_a_cold_total_holds_one_part_beside_it_at_most():
    # a part of several terms is summed on only the places it touches, not
    # in a dense buffer of its own: the peak is the total and its entries
    split = build_xxz(XxzConfig(L=10, boundary="periodic", delta=0.3))
    tracemalloc.start()
    try:
        total = split.total
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total.shape == (1024, 1024) and "parts" not in vars(split)
    assert peak <= total.nbytes + 2**20


def test_dense_split_parts_are_its_validated_copies(monkeypatch):
    rng = np.random.default_rng(7)
    real = rng.normal(size=(4, 4))
    real = real + real.T
    cplx = real + 1j * (np.triu(real, 1) - np.triu(real, 1).T)
    split = OperatorSplit([real, cplx])
    parts = split.parts
    for part, m, ((_, _, op),) in zip(parts, (real, cplx), split.terms):
        assert op is part and same_bits(part, _narrowed(m))
        assert not part.flags.writeable and not np.shares_memory(part, m)

    def rebuild(*args):
        raise AssertionError("a dense split's part was rebuilt")

    placed = []
    builder = OperatorSplit._placed
    term_entries = compose_module._term_entries

    def recording(self, index_sets, terms):
        placed.append((index_sets, terms))
        return builder(self, index_sets, terms)

    # the total sums the kept parts, with no scan of their entries
    monkeypatch.setattr(OperatorSplit, "_placed", recording)
    monkeypatch.setattr(compose_module, "_term_entries", rebuild)
    monkeypatch.setattr(compose_module, "_dense_dim", rebuild)
    assert np.array_equal(split.total, parts[0] + parts[1])
    ((index_sets, terms),) = placed
    assert [s.tolist() for s in index_sets] == [[0, 1, 2, 3]]
    assert all(op is part for ((_, _, op),), part in zip(terms, parts))
    # the sectors read the parts' entries, but place nothing dense
    monkeypatch.setattr(OperatorSplit, "_placed", rebuild)
    monkeypatch.setattr(compose_module, "_term_entries", term_entries)
    assert len(split.sectors) == 1 and split.parts is parts


def full_identity_step(split, sequence, h, direction="forward"):
    """Reference step: the split's gates applied to the whole identity,
    with no sectors packed."""
    return apply_gates(split, sequence, h, np.eye(split.dim, dtype=complex), direction)


@pytest.mark.parametrize("L, boundary, delta", SECTOR_CHAINS)
def test_catalog_steps_have_exactly_zero_off_sector_entries(L, boundary, delta):
    # A bond gate that keeps to the two-site magnetization makes the whole
    # step, built on the full identity, keep to the sectors, since the
    # kernel only multiplies and adds; this is what lets a step be built
    # on the packed identity.
    # Every scheme is checked in both directions up to L = 8; at L = 9, 10,
    # where one step costs 0.1-0.3 s, blanes-moan4 stands for them, forward
    # on open chains and in imaginary time on periodic ones.
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=delta))
    off = off_sector(split)
    catalog = load_catalog()
    names = sorted(catalog) if L <= 8 else ["blanes-moan4"]
    directions = ("forward", "imaginary")
    if L > 8:
        directions = directions[:1] if boundary == "open" else directions[1:]
    for name in names:
        seq = to_multistage(catalog[name]).factor_sequence(split.n_parts)
        for direction in directions:
            step = full_identity_step(split, seq, 0.1, direction)
            assert not step[off].any(), (name, direction)


@pytest.mark.parametrize("L, boundary", CHAINS + [(10, "periodic")])
def test_compose_equals_the_full_identity_step_bit_for_bit(L, boundary):
    # The packed identity's width is padded so that every column takes the
    # full identity's matmul path: no sector block moves by a rounding.
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=0.3))
    catalog = load_catalog()
    names = sorted(catalog) if L <= 8 else ["blanes-moan4"]
    for name in names:
        seq = to_multistage(catalog[name]).factor_sequence(split.n_parts)
        for direction in ("forward", "imaginary"):
            want = full_identity_step(split, seq, 0.1, direction)
            got = compose(split, seq, 0.1, direction)
            assert np.array_equal(got, want), (name, direction)


def gate_widths(monkeypatch):
    """Record the column count of each block a gate is applied to."""
    widths = []
    real = compose_module._apply_term

    def recording(g, i, j, x):
        widths.append(x.shape[1])
        return real(g, i, j, x)

    monkeypatch.setattr(compose_module, "_apply_term", recording)
    return widths


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_blocked_build_is_the_one_block_build_bit_for_bit(monkeypatch, boundary):
    # At L = 11 the packed identity is 2048 x 464 (the widest sector, 462,
    # padded): 29 column blocks of 16 within the budget, one block when
    # the budget holds the whole of it.  The periodic chain has the wrap bond.
    split = build_xxz(XxzConfig(L=11, boundary=boundary, delta=0.3))
    seq = to_multistage(get_scheme("blanes-moan4")).factor_sequence(split.n_parts)
    n_gates = sum(len(split.terms[k]) for k, _ in seq)
    for direction in ("forward", "imaginary"):
        with monkeypatch.context() as patch:
            widths = gate_widths(patch)
            got = compose(split, seq, 0.1, direction)
        assert widths == [16] * 29 * n_gates
        with monkeypatch.context() as patch:
            patch.setattr(compose_module, "_BLOCK_BYTES", split.dim * 464 * 16)
            widths = gate_widths(patch)
            want = compose(split, seq, 0.1, direction)
        assert widths == [464] * n_gates
        assert all(map(np.array_equal, got.blocks, want.blocks)), direction


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_blocked_build_holds_a_few_blocks_beside_its_result(boundary):
    # Above the returned sector blocks, building a step holds at most the
    # current column block and a wrap bond's two temporaries, not the
    # 2048 x 464 packed identity (14.5 MiB) and its product.
    split = build_xxz(XxzConfig(L=11, boundary=boundary, delta=0.3))
    seq = to_multistage(get_scheme("blanes-moan4")).factor_sequence(split.n_parts)
    for direction in ("forward", "imaginary"):
        compose(split, seq, 0.1, direction)  # the sectors and eigensystems
        tracemalloc.start()
        try:
            step = compose(split, seq, 0.1, direction)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(b.nbytes for b in step.blocks)
        assert peak - kept < 4 * compose_module._BLOCK_BYTES, direction


def record_powers(monkeypatch):
    """Record the shape of each matrix powered by np.linalg.matrix_power."""
    shapes = []
    real = np.linalg.matrix_power

    def recording(a, n):
        shapes.append(np.shape(a))
        return real(a, n)

    monkeypatch.setattr(np.linalg, "matrix_power", recording)
    return shapes


@pytest.mark.parametrize("L, boundary", [(4, "open"), (7, "periodic"), (8, "open"), (8, "periodic")])
def test_sector_power_matches_matrix_power(monkeypatch, L, boundary):
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=0.3))
    for name in ("strang", "blanes-moan4", "triple-jump-complex"):
        seq = to_multistage(get_scheme(name)).factor_sequence(split.n_parts)
        for direction in ("forward", "imaginary"):
            step = compose(split, seq, 0.05, direction)
            for steps in (1, 2, 7, 60):
                want = np.linalg.matrix_power(step, steps)
                shapes = record_powers(monkeypatch)
                got = scatter(split.sectors, power_step(step, steps).blocks)
                monkeypatch.undo()
                assert shapes == [(len(s), len(s)) for s in split.sectors]
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_one_sector_split_powers_the_step_whole(monkeypatch):
    split = random_split(3, 16)
    seq = to_multistage(get_scheme("suzuki4")).factor_sequence(3)
    step = compose(split, seq, 0.1)
    (block,) = step.blocks
    assert np.array_equal(block, step)
    want = np.linalg.matrix_power(step, 9)
    shapes = record_powers(monkeypatch)
    (got,) = power_step(step, 9).blocks
    assert np.array_equal(got, want)
    assert shapes == [(16, 16)]


def cancelling_splits():
    """Splits whose parts cancel H's off-diagonal entries: H is diagonal,
    so each of its blocks is one index, while each step couples them."""
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    flip = np.kron(x, np.eye(2)) + 0.5 * np.kron(z, z)
    terms = OperatorSplit.from_terms(3, [[(0, 1, flip)], [(0, 1, -np.kron(x, np.eye(2)))]])
    rng = np.random.default_rng(11)
    c = rng.normal(size=(6, 6))
    c += c.T
    d = np.diag(rng.normal(size=6))
    return [terms, OperatorSplit((d + c - np.diag(np.diag(c)), -c + np.diag(np.diag(c))))]


@pytest.mark.parametrize("split", cancelling_splits())
def test_cancelling_split_sectors_hold_every_step(split):
    # The sectors follow the terms, not H: each is a union of H's blocks
    # (here single indices), and no step has an entry outside them.
    h_blocks = _components(split.dim, *np.nonzero(split.total))
    assert len(h_blocks) == split.dim
    label = np.empty(split.dim, dtype=int)
    for n, s in enumerate(split.sectors):
        label[s] = n
    assert len(split.sectors) < split.dim
    assert all(len(set(label[b])) == 1 for b in h_blocks)
    off = off_sector(split)
    ms = to_multistage(get_scheme("suzuki4"))
    seq = ms.factor_sequence(split.n_parts)
    for direction in ("forward", "imaginary"):
        step = full_identity_step(split, seq, 0.1, direction)
        assert np.count_nonzero(step - np.diag(np.diag(step)))
        assert not step[off].any(), direction
    # The step is built bit for bit.  Its power is the full-identity
    # step's power: bit for bit with one sector, which is powered whole, and
    # within rounding where smaller blocks are powered on their own.
    step = full_identity_step(split, seq, 0.1)
    assert np.array_equal(compose(split, seq, 0.1), step)
    want = np.linalg.matrix_power(step, 7)
    powered = power_step(compose(split, seq, 0.1), 7).blocks
    evolved = np.asarray(evolve(split, ms, 0.1, 7))
    for got in (scatter(split.sectors, powered), evolved):
        if len(split.sectors) == 1:
            assert np.array_equal(got, want)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def dense_form_refused(self, dtype=None, copy=None):
    raise AssertionError("dense form built")


def test_evolve_powers_sector_blocks(monkeypatch):
    split = build_xxz(XxzConfig(L=6))
    seq = ((0, 0.3), (1, 0.5), (2, 0.2))  # not a palindrome
    step = compose(split, seq, 0.2)
    reverse = compose(split, seq[::-1], 0.2)
    with monkeypatch.context() as patch:
        # the pair is multiplied block by block, with nothing scattered
        patch.setattr(SectorBlocks, "__array__", dense_form_refused)
        pair = step @ reverse
        odd = evolve_sequence(split, seq, 0.2, 7, alternate_reversal=True)
    assert isinstance(pair, SectorBlocks)
    products = [a @ b for a, b in zip(step.blocks, reverse.blocks)]
    assert all(map(np.array_equal, pair.blocks, products))
    # the odd step is one more block product: bit for bit the blocks of
    # the powered pair times the step
    want = [u @ b for u, b in zip(power_step(SectorBlocks(split.sectors, products), 3).blocks,
                                  step.blocks)]
    assert all(map(np.array_equal, odd.blocks, want))
    blocks = [(len(s), len(s)) for s in split.sectors]
    for alternate, base, n in ((False, step, 6), (True, pair, 3)):
        shapes = record_powers(monkeypatch)
        got = evolve_sequence(split, seq, 0.2, 6, alternate_reversal=alternate)
        monkeypatch.undo()
        assert shapes == blocks
        want = np.linalg.matrix_power(base, n)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# one gate per distinct (term, z) per composed product


def gates_per_bond(split, sequence, h, direction):
    """The composer with every gate rebuilt for every bond."""
    pref = direction_prefactor(direction)
    x = np.eye(split.dim, dtype=complex)
    for k, coef in reversed(sequence):
        for n, (i, j, _) in enumerate(split.terms[k]):
            x = _apply_term(split.term_gate(k, n, pref * coef * h), i, j, x)
    return x


def test_term_keys_are_built_once_per_split_one_per_distinct_term():
    bond = build_xxz(XxzConfig(L=4)).terms[0][0][2]
    other = np.diag([1.0, -1.0, -1.0, 1.0])
    chain = OperatorSplit.from_terms(
        4, [[(0, 1, bond), (2, 3, bond)], [(1, 2, other)], [(3, 0, bond.copy())]]
    )
    assert chain._term_keys == ((0, 0), (1,), (0,))
    p, q = np.eye(3), np.diag([1.0, 2.0, 3.0])
    assert OperatorSplit((p, q, p))._term_keys == ((0,), (1,), (0,))


@pytest.mark.parametrize("split", [
    build_xxz(XxzConfig(L=8)),
    build_xxz(XxzConfig(L=7, boundary="periodic", delta=0.3)),
    random_split(3, 8),
], ids=["xxz-open", "xxz-periodic", "dense"])
def test_compose_builds_each_distinct_gate_once(monkeypatch, split):
    builds = []
    real = compose_module._eig_expm

    def counting(w, v, z):
        builds.append(z)
        return real(w, v, z)

    for name in ("strang", "blanes-moan4", "triple-jump-complex"):
        seq = to_multistage(get_scheme(name)).factor_sequence(split.n_parts)
        for direction in ("forward", "imaginary"):
            want = gates_per_bond(split, seq, 0.1, direction)
            pref = direction_prefactor(direction)
            distinct = {(op.tobytes(), pref * c * 0.1) for k, c in seq for _, _, op in split.terms[k]}
            monkeypatch.setattr(compose_module, "_eig_expm", counting)
            builds.clear()
            got = compose(split, seq, 0.1, direction)
            monkeypatch.undo()
            assert len(builds) == len(distinct), (name, direction)
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# SectorBlocks: what every step, evolution and exact oracle returns

LIE = TwoStageScheme("lie", 1, a=[1, 0], b=[1], symmetric=False)


def pair_power_blocks(step, reversed_step, steps):
    """The blocks of S S_rev S S_rev ... (`steps` factors), each sector's
    pair powered by `power_step` and the odd step multiplied on last."""
    pair = [a @ b for a, b in zip(step.blocks, reversed_step.blocks)]
    u = power_step(SectorBlocks(step.sectors, pair), steps // 2).blocks
    return [a @ b for a, b in zip(u, step.blocks)] if steps % 2 else u


@pytest.mark.parametrize("L, boundary", [(L, b) for L in range(3, 11)
                                         for b in ("open", "periodic")])
def test_dense_form_is_the_scatter_of_the_built_blocks_bit_for_bit(L, boundary):
    # np.asarray of a step, an evolution with and without alternate
    # reversal, and the exact oracle is each block placed on its sector.
    # Every catalog scheme and Lie up to L = 8; at L = 9, 10, where one
    # pass over the catalog's steps takes 0.1-0.5 s, Lie and blanes-moan4
    # stand for them.
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=0.3))
    catalog = load_catalog()
    schemes = [LIE, *catalog.values()] if L <= 8 else [LIE, catalog["blanes-moan4"]]
    for scheme in schemes:
        ms = to_multistage(scheme)
        seq = ms.factor_sequence(split.n_parts)
        for direction in ("forward", "imaginary"):
            step = compose(split, seq, 0.1, direction)
            want = {
                "step": scatter(split.sectors, step.blocks),
                "plain": scatter(split.sectors, power_step(step, 5).blocks),
            }
            # a palindromic sequence is its own reversal, and reuses the step
            reversed_step = compose(split, seq[::-1], 0.1, direction)
            alternate = scatter(split.sectors, pair_power_blocks(step, reversed_step, 5))
            want["alternate"] = want["plain"] if seq[::-1] == seq else alternate
            got = {
                "step": apply_multistage(split, ms, 0.1, direction),
                "plain": evolve(split, ms, 0.1, 5, direction=direction),
                "alternate": evolve(split, ms, 0.1, 5, alternate_reversal=True,
                                    direction=direction),
            }
            for key, u in got.items():
                assert isinstance(u, SectorBlocks) and u.sectors == split.sectors
                dense = np.asarray(u)
                assert dense.dtype == np.complex128 and u.dtype == dense.dtype
                assert u.shape == dense.shape == (split.dim, split.dim)
                assert np.array_equal(dense, want[key]), (scheme.name, direction, key)
    h = split.total
    h_blocks = _hermitian_blocks(h, "H")
    oracle = spinmodel._sector_oracle(h_blocks)
    for direction, z in (("forward", -0.9j), ("imaginary", -0.9)):
        want = scatter(h_blocks.sectors, oracle(z).blocks)
        assert np.array_equal(np.asarray(exact_evolution(h, 0.9, direction)), want)


def test_two_stage_dense_form_is_the_scatter_of_the_built_blocks_bit_for_bit():
    rng = np.random.default_rng(5)
    parts = []
    for _ in range(2):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        parts.append(m + m.conj().T)
    split = OperatorSplit(parts)
    for scheme in [LIE, *load_catalog().values()]:
        for direction in ("forward", "imaginary"):
            u = apply_two_stage(*parts, scheme, 0.2, direction)
            blocks = compose(split, scheme.factor_sequence(), 0.2, direction).blocks
            want = scatter(split.sectors, blocks)
            assert np.array_equal(np.asarray(u), want), (scheme.name, direction)


def sector_states(dim, rng):
    """The Neel state, a domain wall, a random state and a (dim x 3) block
    of them, as (name, x) pairs."""
    L = dim.bit_length() - 1
    neel = np.zeros(dim, complex)
    neel[int("01" * (L // 2) + "0" * (L % 2), 2)] = 1.0
    wall = np.zeros(dim, complex)
    wall[int("1" * (L // 2) + "0" * (L - L // 2), 2)] = 1.0
    noise = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    noise /= np.linalg.norm(noise)
    return [("neel", neel), ("wall", wall), ("random", noise),
            ("block", np.stack([neel, wall, noise], axis=1))]


@pytest.mark.parametrize("L, boundary", [(6, "open"), (8, "periodic"), (9, "open")])
def test_blocks_times_x_is_the_dense_product(L, boundary):
    # U @ x is taken block by block; it agrees with the dense product, and
    # a sector where x is zero comes out as exact zeros
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=0.3))
    ms = to_multistage(get_scheme("blanes-moan4"))
    rng = np.random.default_rng(L)
    values = [apply_multistage(split, ms, 0.05),
              evolve(split, ms, 0.05, 20, alternate_reversal=True),
              exact_evolution(split.total, 1.0),
              apply_multistage(split, ms, 0.05, "imaginary")]
    for u in values:
        dense = np.asarray(u)
        for name, x in sector_states(split.dim, rng):
            got = u @ x
            want = dense @ x
            assert got.shape == want.shape and got.dtype == np.complex128
            assert np.linalg.norm(got - want) <= 1e-14 * max(1.0, np.linalg.norm(want)), name
            for s in split.sectors:
                if not x[s].any():
                    assert not got[s].any(), name
    # a real x is multiplied as complex, a list is read as an array, and
    # every axis after the leading one is kept
    real = np.arange(split.dim, dtype=float)
    assert np.array_equal(values[0] @ real, values[0] @ real.astype(complex))
    assert np.array_equal(values[0] @ list(real), values[0] @ real)
    cube = rng.normal(size=(split.dim, 2, 3))
    want = np.einsum("ij,jkl->ikl", np.asarray(values[0]), cube)
    assert np.linalg.norm(values[0] @ cube - want) <= 1e-14 * np.linalg.norm(want)
    assert (values[0] @ np.ones((split.dim, 0))).shape == (split.dim, 0)


def per_sector_product(u, x):
    """The reference for `SectorBlocks @ x`: each sector's rows of x
    gathered, tested and multiplied on their own, exact zeros where x is
    zero."""
    x = np.asarray(x)
    flat = x.reshape(len(x), int(np.prod(x.shape[1:])))
    out = np.zeros(flat.shape, np.result_type(complex, x))
    for s, b in zip(u.sectors, u.blocks):
        part = flat[s]
        if part.any():
            out[s] = b @ part
    return out.reshape(x.shape)


@pytest.mark.parametrize("L, boundary", [(6, "periodic"), (7, "open"), (8, "open"),
                                         (9, "periodic"), (10, "periodic")])
def test_blocks_times_x_is_the_per_sector_product_bit_for_bit(L, boundary):
    # U @ x gathers x into sector order once and multiplies only the
    # sectors x meets: bit for bit the product taken one sector at a time
    split = build_xxz(XxzConfig(L=L, boundary=boundary, delta=0.3))
    ms = to_multistage(get_scheme("blanes-moan4"))
    rng = np.random.default_rng(50 + L)
    values = {"step": apply_multistage(split, ms, 0.05),
              "imaginary step": apply_multistage(split, ms, 0.05, "imaginary"),
              "evolution": evolve(split, ms, 0.05, 20, alternate_reversal=True),
              "oracle": exact_evolution(split.total, 1.0)}
    states = dict(sector_states(split.dim, rng))
    neel, wall = states["neel"], states["wall"]
    states["cube"] = np.stack([neel, wall, 1j * neel, wall - neel, 0 * wall, neel],
                              axis=1).reshape(split.dim, 2, 3)
    states["empty"] = np.ones((split.dim, 0))
    for key, u in values.items():
        for name, x in states.items():
            got = u @ x
            want = per_sector_product(u, x)
            assert got.shape == x.shape and got.dtype == np.complex128
            assert np.array_equal(got, want), (key, name)
            unmet = [s for s in u.sectors if not x[s].any()]
            assert all(not got[s].any() for s in unmet), (key, name)
            if name in ("neel", "wall", "cube"):  # all in the half-filled sector
                assert len(unmet) == len(u.sectors) - 1, (key, name)


def test_blocks_times_blocks_on_other_sectors_is_the_dense_product():
    # only equal sectors multiply block by block; blocks on other sectors
    # are read as the dense matrix, as any other operand is
    u = SectorBlocks([np.arange(2), np.arange(2, 4)], [np.eye(2) * 2, np.ones((2, 2))])
    v = SectorBlocks([np.arange(4)], [np.arange(16.0).reshape(4, 4)])
    w = SectorBlocks([np.array([0, 2]), np.array([1, 3])], [np.eye(2), np.eye(2) * 3])
    for x in (v, w):
        got = u @ x
        assert type(got) is np.ndarray
        assert np.array_equal(got, np.asarray(u) @ np.asarray(x))
    same = u @ SectorBlocks(u.sectors, [np.ones((2, 2)), np.eye(2)])
    assert isinstance(same, SectorBlocks)
    assert all(map(np.array_equal, same.blocks, [2 * np.ones((2, 2)), np.ones((2, 2))]))


def test_blocks_times_x_refuses_a_wrong_leading_axis():
    split = build_xxz(XxzConfig(L=4))
    u = apply_multistage(split, to_multistage(get_scheme("strang")), 0.1)
    for x in (np.ones(15), np.ones(17), np.ones((15, 2)), np.ones((2, 16)), np.float64(1.0)):
        with pytest.raises(DimensionError):
            u @ x


def test_sector_blocks_are_read_only_and_dense_on_request():
    split = build_xxz(XxzConfig(L=5))
    u = evolve(split, to_multistage(get_scheme("suzuki4")), 0.1, 3)
    assert all(not b.flags.writeable for b in u.blocks)
    dense = np.asarray(u)
    dense[0, 0] = 7.0  # each dense form is a new array
    assert np.asarray(u)[0, 0] != 7.0
    assert np.array_equal(np.asarray(u, dtype=np.complex64), np.asarray(u).astype(np.complex64))
    with pytest.raises(ValueError):
        np.asarray(u, copy=False)
    # the caller's arrays keep their flags
    block = np.eye(2, dtype=complex)
    SectorBlocks([np.arange(2)], [block])
    assert block.flags.writeable
    with pytest.raises(DimensionError):
        SectorBlocks([np.arange(2), np.arange(2, 4)], [block])
    with pytest.raises(DimensionError):
        SectorBlocks([np.arange(3)], [block])
    with pytest.raises(DimensionError):
        SectorBlocks([np.arange(2), np.arange(0)], [block, np.zeros((0, 0))])


def test_block_results_build_no_dense_evolution(monkeypatch, zeros_cache):
    # with the dense form refused, a state is evolved, a sweep is run and
    # an order is fitted from the blocks alone
    monkeypatch.setattr(SectorBlocks, "__array__", dense_form_refused)
    split = build_xxz(XxzConfig(L=8, boundary="periodic", delta=0.3))
    ms = to_multistage(get_scheme("blanes-moan4"))
    psi = sector_states(split.dim, np.random.default_rng(0))[0][1]
    with pytest.raises(AssertionError, match="dense form built"):
        np.asarray(apply_multistage(split, ms, 0.05))
    apply_multistage(split, ms, 0.05) @ psi
    evolve(split, ms, 0.05, 20, alternate_reversal=True) @ psi
    exact_evolution(split.total, 1.0) @ psi
    plan = BenchPlan(model=XxzConfig(L=6), t_total=1.0, h_grid=(0.5, 0.25),
                     methods=("exact", "strang", "blanes-moan4", "taylor:20", "taylor:20:sum"))
    assert len(run_benchmark(plan, cache_dir=zeros_cache)) == 10
    multistage_order(split, ms)
    multistage_order(random_split(2, 8, seed=7), to_multistage(LIE), alternate_reversal=True)
