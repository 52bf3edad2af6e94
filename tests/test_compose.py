"""The composer's term-gate kernel, on local and on dense splits."""

import mpmath as mp
import numpy as np
import pytest

from trotterkit.compose import (
    OperatorSplit,
    _apply_gates,
    _apply_term,
    _eig_expm,
    _narrowed,
    compose,
    direction_prefactor,
    evolve_sequence,
)
from trotterkit.errors import DimensionError, StructuralError
from trotterkit.multistage import apply_two_stage, random_split, to_multistage
from trotterkit.schemes import get_scheme, load_catalog
from trotterkit.spinmodel import XxzConfig, build_xxz

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
