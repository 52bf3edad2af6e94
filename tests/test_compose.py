"""The composer's term-gate kernel, on local and on dense splits."""

from functools import partial
from math import comb

import mpmath as mp
import numpy as np
import pytest

from trotterkit import compose as compose_module, spinmodel
from trotterkit.compose import (
    OperatorSplit,
    _apply_gates,
    _apply_term,
    _components,
    _eig_expm,
    _narrowed,
    compose,
    direction_prefactor,
    evolve_sequence,
    power_step,
)
from trotterkit.errors import DimensionError, StructuralError
from trotterkit.multistage import apply_two_stage, evolve, random_split, to_multistage
from trotterkit.schemes import get_scheme, load_catalog
from trotterkit.spinmodel import XxzConfig, build_xxz, exact_evolution

CHAINS = [(L, b) for L in range(3, 9) for b in ("open", "periodic")]


def block_pairs(ms, n_parts):
    """Unmerged (part, coefficient) pairs of the ascending/descending blocks."""
    pairs = []
    for ci, di in zip(ms.c, ms.d):
        pairs += [(k, ci) for k in range(n_parts)]
        pairs += [(k, di) for k in reversed(range(n_parts))]
    return pairs


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


@pytest.mark.parametrize("L, boundary", [(3, "periodic"), (5, "open"), (7, "periodic"), (8, "open")])
def test_sequence_on_a_block_matches_dense_step(L, boundary):
    split = build_xxz(XxzConfig(L=L, boundary=boundary))
    rng = np.random.default_rng(L)
    block = rng.normal(size=(split.dim, 3)) + 1j * rng.normal(size=(split.dim, 3))
    for name in ("blanes-moan4", "triple-jump-complex"):
        seq = to_multistage(get_scheme(name)).factor_sequence(split.n_parts)
        for direction in ("forward", "imaginary"):
            got = _apply_gates(split, seq, 0.1, block, direction)
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
    step = compose(split, seq, 0.2)
    step_rev = compose(split, seq[::-1], 0.2)
    for steps in (1, 2, 5):
        u = step
        for i in range(1, steps):
            u = u @ (step_rev if i % 2 else step)
        got = evolve_sequence(split, seq, 0.2, steps, alternate_reversal=True)
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
    assert "parts" not in vars(split)  # sectors read the total alone


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
def test_sectors_are_the_oracle_blocks_of_the_total(monkeypatch, make):
    split = make()
    seen = []
    scatter = spinmodel._block_diagonal

    def recording(blocks, exps, *args):
        seen.append(blocks)
        return scatter(blocks, exps, *args)

    monkeypatch.setattr(spinmodel, "_block_diagonal", recording)
    exact_evolution(split.total, 0.5)
    (blocks,) = seen
    assert len(blocks) == len(split.sectors)
    assert all(map(same_bits, blocks, split.sectors))


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
    got = _components(pattern)
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
# dense views: built from the terms on first use


def eager_dense(split):
    """Reference dense parts and total, built eagerly term by term: each
    part is its terms applied to the float identity in a zero matrix, then
    narrowed; the total is the parts summed in order into a zero matrix."""
    eye = np.eye(split.dim)
    parts = []
    for terms in split.terms:
        part = np.zeros(eye.shape, np.result_type(eye, *(op for _, _, op in terms)))
        for i, j, op in terms:
            part += _apply_term(op, i, j, eye)
        parts.append(_narrowed(part))
    total = np.zeros(eye.shape, np.result_type(*parts))
    for p in parts:
        total += p
    return parts, total


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("L, boundary, delta", SECTOR_CHAINS)
def test_lazy_dense_views_equal_the_eager_build_bit_for_bit(L, boundary, delta):
    cfg = XxzConfig(L=L, boundary=boundary, delta=delta)
    want_parts, want_total = eager_dense(build_xxz(cfg))
    total_first = build_xxz(cfg)
    assert same_bits(total_first.total, want_total)
    assert "parts" not in vars(total_first)  # built for the sum, not kept
    parts_first = build_xxz(cfg)
    for split in (total_first, parts_first):
        parts = split.parts
        assert split.parts is parts and len(parts) == len(want_parts) == 3
        assert all(map(same_bits, parts, want_parts))
        assert not any(p.flags.writeable for p in parts)
        assert same_bits(split.total, want_total) and not split.total.flags.writeable


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

    monkeypatch.setattr(compose_module, "_applied_sum", rebuild)
    monkeypatch.setattr(compose_module, "_identity", rebuild)
    assert np.array_equal(split.total, parts[0] + parts[1])
    assert len(split.sectors) == 1 and split.parts is parts


@pytest.mark.parametrize("L, boundary, delta", SECTOR_CHAINS)
def test_catalog_steps_have_exactly_zero_off_sector_entries(L, boundary, delta):
    # A bond gate that keeps to the two-site magnetization makes the whole
    # step keep to the sectors, since the kernel only multiplies and adds.
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
            step = compose(split, seq, 0.1, direction)
            assert not step[off].any(), (name, direction)


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
                got = power_step(split, step, steps)
                monkeypatch.undo()
                assert shapes == [(len(s), len(s)) for s in split.sectors]
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_one_sector_split_powers_the_step_whole(monkeypatch):
    split = random_split(3, 16)
    step = compose(split, to_multistage(get_scheme("suzuki4")).factor_sequence(3), 0.1)
    want = np.linalg.matrix_power(step, 9)
    shapes = record_powers(monkeypatch)
    assert np.array_equal(power_step(split, step, 9), want)
    assert shapes == [(16, 16)]


def test_step_with_an_off_sector_entry_is_powered_whole(monkeypatch):
    split = build_xxz(XxzConfig(L=6, boundary="periodic"))
    seq = to_multistage(get_scheme("strang")).factor_sequence(split.n_parts)
    step = compose(split, seq, 0.1)
    step[0, 1] = 1e-300  # all-down state <- one up spin
    want = np.linalg.matrix_power(step, 5)
    shapes = record_powers(monkeypatch)
    assert np.array_equal(power_step(split, step, 5), want)
    assert shapes == [(64, 64)]


def cancelling_splits():
    """Splits whose parts cancel H's off-diagonal entries: H is diagonal,
    so every sector is one index, while each step couples them."""
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    flip = np.kron(x, np.eye(2)) + 0.5 * np.kron(z, z)
    terms = OperatorSplit.from_terms(3, [[(0, 1, flip)], [(0, 1, -np.kron(x, np.eye(2)))]])
    rng = np.random.default_rng(11)
    c = rng.normal(size=(6, 6))
    c += c.T
    d = np.diag(rng.normal(size=6))
    return [terms, OperatorSplit((d + c - np.diag(np.diag(c)), -c + np.diag(np.diag(c))))]


@pytest.mark.parametrize("split", cancelling_splits())
def test_cancelling_split_is_powered_whole_bit_for_bit(monkeypatch, split):
    assert len(split.sectors) == split.dim
    ms = to_multistage(get_scheme("suzuki4"))
    step = compose(split, ms.factor_sequence(split.n_parts), 0.1)
    assert np.count_nonzero(step - np.diag(np.diag(step)))
    want = np.linalg.matrix_power(step, 7)
    shapes = record_powers(monkeypatch)
    assert np.array_equal(power_step(split, step, 7), want)
    assert np.array_equal(evolve(split, ms, 0.1, 7), want)
    assert shapes == [step.shape, step.shape]


def test_evolve_powers_sector_blocks(monkeypatch):
    split = build_xxz(XxzConfig(L=6))
    seq = ((0, 0.3), (1, 0.5), (2, 0.2))  # not a palindrome
    step = compose(split, seq, 0.2)
    pair = step @ compose(split, seq[::-1], 0.2)
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
        for i, j, op in split.terms[k]:
            x = _apply_term(split.term_gate(op, pref * coef * h), i, j, x)
    return x


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
