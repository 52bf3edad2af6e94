"""Operator splits and the one composer of exponential factor sequences.

Every splitting step in trotterkit is an ordered product

    U = e^{A_{k_1} tau_1} e^{A_{k_2} tau_2} ... e^{A_{k_n} tau_n},
    tau_i = prefactor * c_i * h,

over a factor sequence of (part index, coefficient) pairs: a two-stage
scheme (a, b) on a pair of parts, or the ascending/descending blocks of a
Lambda-stage scheme (c, d).  Adjacent factors of the same part merge.

The product has two backends, chosen by the split.

A split of dense parts is chained in the parts' eigenbases.  With
A_k = V_k diag(w_k) V_k^H, the product is built from the right,

    X <- D_n V_n^H,   X <- D_j (V_j^H V_k) X,   U = V_1 X,

so each factor costs one matrix product and a row scaling.  A part with a
zero imaginary part has real eigenvectors, and left-multiplying the complex
X by a real matrix is one real product on X's interleaved float view, half
the work of a complex product.

A split made of local terms (a qubit chain whose part k is a sum of
site-disjoint two-site terms, `OperatorSplit.from_terms`) never
diagonalizes a full part.  The terms of a part commute, so its factor is
exactly the product of the bond gates e^{tau h_b}, each from a cached 4x4
eigensystem.  A gate acts on a (2^L x m) block by one reshape to
(2^i, 4, 2^(L-i-2) m) and one batched matmul; the periodic wrap bond
(L-1, 0) first moves site L-1 next to site 0.  The dense step is the
factor sequence applied to the identity, and the dense parts themselves
are the terms applied to the identity by the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError, StructuralError
from .tolerances import DENSE_DIM_CAP, HERMITICITY_TOL

__all__ = [
    "OperatorSplit",
    "direction_prefactor",
    "merge_factors",
    "compose",
    "evolve_sequence",
]


@dataclass(frozen=True)
class OperatorSplit:
    """An ordered split H = sum_k A_k into Hermitian parts.

    The parts are read-only, so each part's eigensystem (and each overlap
    V_j^H V_k between two of them) is computed once, on first use, and kept
    for the life of the split.  A split built by `from_terms` also keeps its
    local terms, and the eigensystem of each distinct two-site term.
    """

    parts: tuple
    total: np.ndarray = field(init=False, repr=False)
    terms: tuple = field(init=False, repr=False, compare=False, default=None)
    _eigensystems: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _overlaps: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _term_eigensystems: dict = field(init=False, repr=False, compare=False,
                                     default_factory=dict)

    @classmethod
    def from_terms(cls, n_sites, terms):
        """Split of an n_sites qubit chain from local terms.

        terms[k] lists part k's two-site terms (i, j, op4): op4 is a
        Hermitian 4x4 matrix on sites (i, j), first index site i, site 0
        the most significant bit.  Each bond joins neighbours, j = i + 1
        or the wrap bond (n_sites - 1, 0), and the terms of one part share
        no site, so they commute.
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
                op4 = np.array(op4, dtype=complex)
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
        eye = np.eye(2**n_sites, dtype=complex)
        parts = []
        for part_terms in checked:
            part = np.zeros_like(eye)
            for i, j, op4 in part_terms:
                part += _apply_bond(op4, i, j, n_sites, eye)
            parts.append(part)
        split = cls(tuple(parts))
        object.__setattr__(split, "terms", tuple(checked))
        return split

    def __post_init__(self):
        parts = tuple(np.asarray(p, dtype=complex) for p in self.parts)
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
        total = np.zeros((dim, dim), dtype=complex)
        for p in parts:
            total = total + p
        total.setflags(write=False)
        object.__setattr__(self, "total", total)

    @property
    def dim(self):
        return self.parts[0].shape[0]

    @property
    def n_parts(self):
        return len(self.parts)

    def eigensystem(self, k):
        """(w, v) with A_k = v diag(w) v^H; v is real when A_k is."""
        got = self._eigensystems.get(k)
        if got is None:
            part = self.parts[k]
            w, v = np.linalg.eigh(part.real if not part.imag.any() else part)
            # One Newton-Schulz step pulls v back onto the unitary manifold;
            # otherwise LAPACK's orthonormality drift leaks a ~dim*eps
            # unitarity defect into every step and compounds over long
            # step sequences.
            v = v @ (1.5 * np.eye(v.shape[0]) - 0.5 * (v.conj().T @ v))
            got = self._eigensystems[k] = (w, v)
        return got

    def bond_gate(self, op4, z):
        """e^{z op4} for one of the split's terms, from its cached eigh."""
        key = op4.tobytes()
        got = self._term_eigensystems.get(key)
        if got is None:
            got = np.linalg.eigh(op4.real if not op4.imag.any() else op4)
            self._term_eigensystems[key] = got
        g = _eig_expm(*got, z)
        if z.real == 0:
            # e^{z op4} is unitary: one Newton-Schulz step removes the
            # rounding that would otherwise compound over long runs.
            g = g @ (1.5 * np.eye(4) - 0.5 * (g.conj().T @ g))
        return g

    def overlap(self, j, k):
        """V_j^H V_k, stored once per unordered pair of parts."""
        if j > k:
            w = self.overlap(k, j)
            return w.T if np.isrealobj(w) else w.conj().T
        got = self._overlaps.get((j, k))
        if got is None:
            got = self.eigensystem(j)[1].conj().T @ self.eigensystem(k)[1]
            self._overlaps[(j, k)] = got
        return got


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


def _eig_expm(w, v, z):
    """e^{z A} = v diag(e^{z w}) v^H for a Hermitian A = v diag(w) v^H."""
    return (v * np.exp(z * w)) @ v.conj().T


def _left_multiply(m, x):
    """m @ x for a complex C-ordered x; a real m takes one real product."""
    if np.isrealobj(m):
        return (m @ x.view(np.float64)).view(np.complex128)
    return m @ x


def _apply_bond(g, i, j, n_sites, x):
    """G x for the two-site gate g on bond (i, j) and a (2^n_sites x m) block."""
    if j == i + 1:
        return (g @ x.reshape(2**i, 4, -1)).reshape(x.shape)
    # wrap bond (n_sites - 1, 0): axes (site 0, middle, site n-1, columns)
    mid = 2 ** (n_sites - 2)
    y = x.reshape(2, mid, 2, -1).transpose(2, 0, 1, 3).reshape(4, -1)
    y = (g @ y).reshape(2, 2, mid, -1).transpose(1, 2, 0, 3)
    return y.reshape(x.shape)


def _apply_gates(split, sequence, h, block, direction):
    """The factor sequence of a split with terms applied to a block."""
    pref = direction_prefactor(direction)
    n_sites = split.dim.bit_length() - 1
    x = np.asarray(block, dtype=complex)
    for k, coef in reversed(sequence):
        z = pref * coef * h
        for i, j, op4 in split.terms[k]:
            x = _apply_bond(split.bond_gate(op4, z), i, j, n_sites, x)
    return x


def compose(split, sequence, h, direction="forward"):
    """The ordered product of e^{A_k * prefactor * c * h} over sequence: the
    bond gates applied to the identity for a split with terms, the
    eigenbasis chain otherwise."""
    if split.terms is not None:
        return _apply_gates(split, sequence, h, np.eye(split.dim, dtype=complex), direction)
    pref = direction_prefactor(direction)
    if not sequence:
        return np.eye(split.dim, dtype=complex)
    k, coef = sequence[-1]
    w, v = split.eigensystem(k)
    x = np.multiply(np.exp(pref * coef * h * w)[:, None], v.conj().T, order="C")
    for j, coef in reversed(sequence[:-1]):
        x = _left_multiply(split.overlap(j, k), x)
        x *= np.exp(pref * coef * h * split.eigensystem(j)[0])[:, None]
        k = j
    return _left_multiply(split.eigensystem(k)[1], x)


def evolve_sequence(split, sequence, h, steps, direction="forward",
                    alternate_reversal=False):
    """`steps` repetitions of one composed step, powered by repeated squaring.

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
        return np.linalg.matrix_power(step, steps)
    pair = step @ compose(split, sequence[::-1], h, direction)
    u = np.linalg.matrix_power(pair, steps // 2)
    return u @ step if steps % 2 else u
