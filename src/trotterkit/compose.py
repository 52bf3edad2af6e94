"""Operator splits and the one composer of exponential factor sequences.

Every splitting step in trotterkit is an ordered product

    U = e^{A_{k_1} tau_1} e^{A_{k_2} tau_2} ... e^{A_{k_n} tau_n},
    tau_i = prefactor * c_i * h,

over a factor sequence of (part index, coefficient) pairs: a two-stage
scheme (a, b) on a pair of parts, or the ascending/descending blocks of a
Lambda-stage scheme (c, d).  Adjacent factors of the same part merge.

Each part is a sum of terms whose gates commute, so its factor is exactly
the product of the gates e^{tau h_b} of its terms, each from one cached
eigensystem per distinct term.  A split made of local terms (a qubit chain,
`OperatorSplit.from_terms`) has site-disjoint two-site terms: a gate acts
on a (2^L x m) block by one reshape to (2^i, 4, 2^(L-i-2) m) and one
batched matmul, and the periodic wrap bond (L-1, 0) first moves site L-1
next to site 0.  A split of dense parts has one term per part that acts on
the whole space, and its gate is applied as one matrix product.  The dense
step is the factor sequence applied to the identity, and the dense parts
of a local split are its terms applied to the identity by the same kernel,
built on first use; `_identity` refuses both past DENSE_DIM_CAP.

A real Hamiltonian stays real: a term or part whose imaginary part is
exactly zero is stored as float64 (and so is `total` when every part is),
so `np.linalg.eigh` diagonalizes it in real arithmetic, and `_eig_expm`
builds v diag(e^{z w}) v^T from a real v as one real GEMM.

A split keeps the invariant blocks of its H as its `sectors`: the
connected components of the nonzero pattern of `total`, the same blocks
the exact oracle (`spinmodel.exact_evolution`) diagonalizes, and for the
XXZ chain its magnetization sectors.  `power_step` powers a step one
sector block at a time (at L = 8, sum n_s^3 = 0.74M multiply-adds per
product against 16.8M for the whole matrix).  One component search
(`_components`) finds the blocks, and one scatter (`_block_diagonal`)
writes blocks computed on them back into a dense matrix.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import CapacityError, DimensionError, StructuralError
from .tolerances import DENSE_DIM_CAP, HERMITICITY_TOL

__all__ = [
    "OperatorSplit",
    "direction_prefactor",
    "merge_factors",
    "compose",
    "evolve_sequence",
    "power_step",
]


class OperatorSplit:
    """An ordered split H = sum_k A_k into Hermitian parts, each a sum of
    terms.

    terms[k] lists part k's terms (i, j, op).  A split built by `from_terms`
    is the two-site terms it was given, and its dense `parts` and `total`
    are built from them on first use.  A split of dense parts has one
    whole-space term (None, None, A_k) per part, and its `parts` are its
    validated copies.  A term or dense part with no nonzero imaginary entry
    is stored as float64, otherwise as complex128, in a read-only copy the
    split owns; a part built from terms is float64 when its terms are.  Each
    distinct term's eigensystem is computed once, on first use, and kept
    for the life of the split.
    """

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise StructuralError("operator split needs at least one part")
        shape = np.shape(parts[0])
        for i, p in enumerate(parts):
            if np.shape(p) != shape:
                raise DimensionError(f"part {i} has shape {np.shape(p)}, expected {shape}")
        self.parts = tuple(_hermitian(p, f"part {i}") for i, p in enumerate(parts))
        self._init(tuple(((None, None, p),) for p in self.parts), shape[0])

    def _init(self, terms, dim):
        self.terms = terms
        self.dim = dim
        self._term_eigensystems = {}

    @classmethod
    def from_terms(cls, n_sites, terms):
        """Split of an n_sites qubit chain from local terms.

        terms[k] lists part k's two-site terms (i, j, op4): op4 is a
        Hermitian 4x4 matrix on sites (i, j), first index site i, site 0
        the most significant bit.  Each bond joins neighbours, j = i + 1
        or the wrap bond (n_sites - 1, 0), and the terms of one part share
        no site, so they commute.  Nothing dense is built here.
        """
        checked = []
        for k, part_terms in enumerate(terms):
            used = set()
            out = []
            for i, j, op4 in part_terms:
                i, j = int(i), int(j)
                op4 = _hermitian(op4, f"term ({i}, {j}) of part {k}")
                if op4.shape != (4, 4):
                    raise DimensionError(f"term ({i}, {j}) has shape {op4.shape}, expected (4, 4)")
                if not ((0 <= i and j == i + 1 < n_sites) or (i, j) == (n_sites - 1, 0)):
                    raise StructuralError(
                        f"term ({i}, {j}) is not a bond of a {n_sites}-site chain"
                    )
                if {i, j} & used:
                    raise StructuralError(f"part {k} reuses a site at bond ({i}, {j})")
                used |= {i, j}
                out.append((i, j, op4))
            checked.append(tuple(out))
        split = cls.__new__(cls)
        split._init(tuple(checked), 2**n_sites)
        return split

    @property
    def n_parts(self):
        return len(self.terms)

    @cached_property
    def parts(self):
        """The dense parts A_k, each its terms applied to the identity;
        built on first use and kept."""
        return tuple(self._dense_parts())

    @cached_property
    def total(self):
        """H = sum_k A_k, summed part by part in order into a zero matrix;
        a part not kept in `parts` is built for the sum and dropped."""
        parts = self._dense_parts()
        ops = (op for part_terms in self.terms for _, _, op in part_terms)
        total = np.zeros((self.dim, self.dim), np.result_type(float, *ops))
        for p in parts:
            total += p
        total.setflags(write=False)
        return total

    def _dense_parts(self):
        """The kept `parts`, or else an iterator that builds each part from
        its terms applied to the identity (refused past DENSE_DIM_CAP)."""
        if "parts" in self.__dict__:
            return self.parts
        eye = _identity(self.dim)
        return (_applied_sum(part_terms, eye) for part_terms in self.terms)

    @cached_property
    def sectors(self):
        """The invariant blocks of H: sorted index arrays of the connected
        components of `total`'s exact nonzero pattern (no tolerance),
        ordered by their first index, the blocks `exact_evolution`
        diagonalizes.  For the XXZ chain they are the magnetization
        sectors, of sizes C(L, m), and every step is block-diagonal over
        them; parts that cancel an entry of H can couple sectors that H
        does not.  An H that couples everything has one sector, the whole
        index range.  Built from `total` alone, so no dense part is kept;
        computed on first use and kept.
        """
        return _components(self.total != 0)

    def term_gate(self, op, z):
        """e^{z op} for one of the split's terms, from its cached eigh."""
        key = op.tobytes()
        got = self._term_eigensystems.get(key)
        if got is None:
            got = self._term_eigensystems[key] = np.linalg.eigh(op)
        g = _eig_expm(*got, z)
        if z.real == 0:
            # e^{z op} is unitary: one Newton-Schulz step removes the
            # rounding that would otherwise compound over long runs.
            g = g @ (1.5 * np.eye(len(g)) - 0.5 * (g.conj().T @ g))
        return g


def direction_prefactor(direction):
    """Generator prefactor: -i for real-time, -1 for imaginary-time."""
    if direction == "forward":
        return -1j
    if direction == "imaginary":
        return -1.0
    raise StructuralError(f"direction must be 'forward' or 'imaginary', got {direction!r}")


def merge_factors(pairs):
    """Drop zero coefficients and merge adjacent factors of the same part.

    e^{A x} e^{A y} = e^{A (x + y)} and e^{A 0} = 1 hold exactly, so the
    merged tuple describes the same product with fewer factors.
    """
    out = []
    for k, coef in pairs:
        if out and out[-1][0] == k:
            coef = out.pop()[1] + coef
        if coef != 0:
            out.append((k, coef))
    return tuple(out)


def _narrowed(a):
    """A new array holding a: float64 when no entry has a nonzero imaginary
    part, else complex128."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and a.imag.any():
        return np.array(a, dtype=complex)
    return np.array(a.real, dtype=float)


def _hermitian(a, what):
    """A read-only `_narrowed` copy of a, which must be a finite square
    matrix that is Hermitian within HERMITICITY_TOL, component-wise."""
    a = _narrowed(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise StructuralError(f"{what} has a non-finite entry")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > HERMITICITY_TOL:
        raise StructuralError(f"{what} is not Hermitian (max deviation {dev:.3e})")
    a.setflags(write=False)
    return a


def _components(pattern):
    """The connected components of a square boolean pattern, its entries
    taken as edges both ways: sorted, read-only index arrays ordered by
    their first index.  An index with no edge is a component of its own."""
    rows, cols = np.nonzero(pattern)
    a, b = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    label = np.arange(len(pattern))
    while True:
        # each index takes its smallest neighbour's label, then the label
        # of its label; at the fixed point every component carries its
        # smallest index
        new = label.copy()
        np.minimum.at(new, a, label[b])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    components = tuple(np.split(order, np.flatnonzero(np.diff(label[order])) + 1))
    for c in components:
        c.setflags(write=False)
    return components


def _block_diagonal(sectors, blocks, dtype=complex):
    """The matrix holding each block on the rows and columns of its sector,
    zero elsewhere; the sectors partition the index range."""
    dim = sum(map(len, sectors))
    out = np.zeros((dim, dim), dtype)
    for s, b in zip(sectors, blocks):
        out[np.ix_(s, s)] = b
    return out


def _identity(dim, dtype=float):
    """The identity every dense matrix of a split is built on, refused
    before anything is allocated when dim exceeds DENSE_DIM_CAP."""
    if dim > DENSE_DIM_CAP:
        raise CapacityError(f"dim {dim} exceeds dense capacity {DENSE_DIM_CAP}")
    return np.eye(dim, dtype=dtype)


def _eig_expm(w, v, z):
    """e^{z A} = v diag(e^{z w}) v^H for a Hermitian A = v diag(w) v^H.

    For a real v the product is one real GEMM: v times the interleaved
    float view of the C-ordered complex right factor diag(e^{z w}) v^T.
    """
    y = np.exp(z * w).astype(complex, copy=False)  # complex also for real z
    if np.iscomplexobj(v):
        return (v * y) @ v.conj().T
    right = np.multiply(y[:, None], v.T, order="C")
    return (v @ right.view(np.float64)).view(np.complex128)


def _apply_term(g, i, j, x):
    """G x for the gate g of the term on sites (i, j) and a (dim x m) block;
    i = None is a whole-space term."""
    if i is None:
        return g @ x
    if j == i + 1:
        return (g @ x.reshape(2**i, 4, -1)).reshape(x.shape)
    # wrap bond (n_sites - 1, 0): axes (site 0, middle, site n-1, columns)
    mid = x.shape[0] // 4
    y = x.reshape(2, mid, 2, -1).transpose(2, 0, 1, 3).reshape(4, -1)
    y = (g @ y).reshape(2, 2, mid, -1).transpose(1, 2, 0, 3)
    return y.reshape(x.shape)


def _applied_sum(terms, x):
    """The sum of the terms (i, j, op) applied to a block x, read-only."""
    out = np.zeros(x.shape, np.result_type(x, *(op for _, _, op in terms)))
    for i, j, op in terms:
        out += _apply_term(op, i, j, x)
    out.setflags(write=False)
    return out


def _apply_gates(split, sequence, h, block, direction):
    """The factor sequence of a split applied to a (dim x m) block.  Each
    distinct (term, z) gate is built once per call: the bonds of an XXZ
    part share one term, and a merged sequence repeats coefficients."""
    pref = direction_prefactor(direction)
    x = np.asarray(block, dtype=complex)
    gates = {}
    for k, coef in reversed(sequence):
        z = pref * coef * h
        for i, j, op in split.terms[k]:
            key = (op.tobytes(), z)
            g = gates.get(key)
            if g is None:
                g = gates[key] = split.term_gate(op, z)
            x = _apply_term(g, i, j, x)
    return x


def compose(split, sequence, h, direction="forward"):
    """The ordered product of e^{A_k * prefactor * c * h} over sequence: the
    term gates applied to the identity."""
    return _apply_gates(split, sequence, h, _identity(split.dim, complex), direction)


def power_step(split, step, steps):
    """step^steps by repeated squaring, one sector block at a time.

    A step with no nonzero entry outside the diagonal blocks of the split's
    sectors has each block powered on its own, and the results written
    into a zero matrix.  A step with an off-sector entry is powered whole by
    `np.linalg.matrix_power`: the sectors follow H's pattern, so a split
    whose parts cancel an entry of H can have sectors finer than its steps.
    """
    sectors = split.sectors
    blocks = [step[np.ix_(s, s)] for s in sectors]
    if sum(map(np.count_nonzero, blocks)) != np.count_nonzero(step):
        return np.linalg.matrix_power(step, steps)
    powers = (np.linalg.matrix_power(b, steps) for b in blocks)
    return _block_diagonal(sectors, powers, step.dtype)


def evolve_sequence(split, sequence, h, steps, direction="forward",
                    alternate_reversal=False):
    """`steps` repetitions of one composed step, powered by repeated squaring
    sector by sector (`power_step`).

    With alternate_reversal every second step uses the reversed sequence
    (the adjoint decomposition): the product S S_rev S S_rev ... is the
    power of the pair S S_rev, times S when steps is odd.  A palindromic
    sequence reuses the step itself, so its result is bit-identical to the
    non-alternating one.
    """
    if steps < 1:
        raise StructuralError(f"steps must be >= 1, got {steps}")
    step = compose(split, sequence, h, direction)
    if not alternate_reversal or sequence[::-1] == sequence:
        return power_step(split, step, steps)
    pair = step @ compose(split, sequence[::-1], h, direction)
    u = power_step(split, pair, steps // 2)
    return u @ step if steps % 2 else u
