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
of a local split are its terms applied to the identity by the same kernel.

A real Hamiltonian stays real: a term or part whose imaginary part is
exactly zero is stored as float64 (and so is `total` when every part is),
so `np.linalg.eigh` diagonalizes it in real arithmetic, and `_eig_expm`
builds v diag(e^{z w}) v^T from a real v as one real GEMM.

A split that leaves subspaces of basis states invariant keeps them as its
`sectors`: the connected components of the parts' joint nonzero pattern,
the magnetization sectors of the XXZ chain.  Every step of such a split is
block-diagonal over them, and `power_step` powers a step one sector block
at a time (at L = 8, sum n_s^3 = 0.74M multiply-adds per product against
16.8M for the whole matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class OperatorSplit:
    """An ordered split H = sum_k A_k into Hermitian parts, each a sum of
    terms.

    terms[k] lists part k's terms (i, j, op).  A split built by `from_terms`
    has the two-site terms it was given; a split of dense parts has one
    whole-space term (None, None, A_k) per part.  A part or term with no
    nonzero imaginary entry is stored as float64, otherwise as complex128,
    in a copy the split owns.  The parts and terms are read-only, so each
    distinct term's eigensystem is computed once, on first use, and kept
    for the life of the split.
    """

    parts: tuple
    total: np.ndarray = field(init=False, repr=False)
    terms: tuple = field(init=False, repr=False, compare=False)
    _term_eigensystems: dict = field(init=False, repr=False, compare=False,
                                     default_factory=dict)

    @classmethod
    def from_terms(cls, n_sites, terms):
        """Split of an n_sites qubit chain from local terms.

        terms[k] lists part k's two-site terms (i, j, op4): op4 is a
        Hermitian 4x4 matrix on sites (i, j), first index site i, site 0
        the most significant bit.  Each bond joins neighbours, j = i + 1
        or the wrap bond (n_sites - 1, 0), and the terms of one part share
        no site, so they commute.  A part of real terms is built real.
        """
        if 2**n_sites > DENSE_DIM_CAP:
            raise CapacityError(
                f"dim 2^{n_sites} = {2**n_sites} exceeds dense capacity {DENSE_DIM_CAP}"
            )
        checked = []
        for k, part_terms in enumerate(terms):
            used = set()
            out = []
            for i, j, op4 in part_terms:
                i, j = int(i), int(j)
                op4 = _narrowed(op4)
                if op4.shape != (4, 4):
                    raise DimensionError(f"term ({i}, {j}) has shape {op4.shape}, expected (4, 4)")
                if np.max(np.abs(op4 - op4.conj().T)) > HERMITICITY_TOL:
                    raise StructuralError(f"term ({i}, {j}) of part {k} is not Hermitian")
                if not ((0 <= i and j == i + 1 < n_sites) or (i, j) == (n_sites - 1, 0)):
                    raise StructuralError(
                        f"term ({i}, {j}) is not a bond of a {n_sites}-site chain"
                    )
                if {i, j} & used:
                    raise StructuralError(f"part {k} reuses a site at bond ({i}, {j})")
                used |= {i, j}
                op4.setflags(write=False)
                out.append((i, j, op4))
            checked.append(tuple(out))
        eye = np.eye(2**n_sites)
        parts = []
        for part_terms in checked:
            part = np.zeros(eye.shape, np.result_type(eye, *(op for _, _, op in part_terms)))
            for i, j, op4 in part_terms:
                part += _apply_term(op4, i, j, eye)
            parts.append(part)
        split = cls(tuple(parts))
        object.__setattr__(split, "terms", tuple(checked))
        return split

    def __post_init__(self):
        parts = tuple(_narrowed(p) for p in self.parts)
        if not parts:
            raise StructuralError("operator split needs at least one part")
        dim = parts[0].shape[0]
        for i, p in enumerate(parts):
            if p.ndim != 2 or p.shape != (dim, dim):
                raise DimensionError(
                    f"part {i} has shape {p.shape}, expected ({dim}, {dim})"
                )
            dev = np.max(np.abs(p - p.conj().T))
            if dev > HERMITICITY_TOL:
                raise StructuralError(
                    f"part {i} is not Hermitian (max deviation {dev:.3e})"
                )
        for p in parts:
            p.setflags(write=False)
        object.__setattr__(self, "parts", parts)
        total = np.zeros((dim, dim), dtype=np.result_type(*parts))
        for p in parts:
            total += p
        total.setflags(write=False)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "terms", tuple(((None, None, p),) for p in parts))

    @property
    def dim(self):
        return self.parts[0].shape[0]

    @property
    def n_parts(self):
        return len(self.parts)

    @cached_property
    def sectors(self):
        """The split's invariant sectors: sorted index arrays of the
        connected components of the union of the parts' exact nonzero
        patterns (no tolerance), ordered by their first index.

        Every part maps the span of each sector's basis states into itself,
        so every step, power and polynomial of the parts is block-diagonal
        over the sectors; for the XXZ chain they are the magnetization
        sectors, of sizes C(L, m).  A split whose parts couple everything
        has one sector, the whole index range.  Computed on first use and
        kept, like the term eigensystems.
        """
        pattern = self.parts[0] != 0
        for p in self.parts[1:]:
            pattern |= p != 0
        rows, cols = np.nonzero(pattern)
        a, b = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        label = np.arange(self.dim)
        while True:
            # each index takes its smallest neighbour's label, then the
            # label of its label; at the fixed point every component
            # carries its smallest index
            new = label.copy()
            np.minimum.at(new, a, label[b])
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        order = np.argsort(label, kind="stable")
        sectors = tuple(np.split(order, np.flatnonzero(np.diff(label[order])) + 1))
        for s in sectors:
            s.setflags(write=False)
        return sectors

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
    return _apply_gates(split, sequence, h, np.eye(split.dim, dtype=complex), direction)


def power_step(split, step, steps):
    """step^steps by repeated squaring, one sector block at a time.

    A step with no nonzero entry outside the diagonal blocks of the split's
    sectors has each block powered on its own, and the results written
    into a zero matrix.  A one-sector split, or a step with any off-sector
    entry, is powered whole by `np.linalg.matrix_power`.
    """
    sectors = split.sectors
    if len(sectors) > 1:
        blocks = [step[np.ix_(s, s)] for s in sectors]
        if sum(map(np.count_nonzero, blocks)) == np.count_nonzero(step):
            out = np.zeros_like(step)
            for s, b in zip(sectors, blocks):
                out[np.ix_(s, s)] = np.linalg.matrix_power(b, steps)
            return out
    return np.linalg.matrix_power(step, steps)


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
