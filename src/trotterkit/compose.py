"""Operator splits and the one composer of exponential factor sequences.

Every splitting step in trotterkit is an ordered product

    U = e^{A_{k_1} tau_1} e^{A_{k_2} tau_2} ... e^{A_{k_n} tau_n},
    tau_i = prefactor * c_i * h,

over a factor sequence of (part index, coefficient) pairs: a two-stage
scheme (a, b) on a pair of parts, or the ascending/descending blocks of a
Lambda-stage scheme (c, d).  Adjacent factors of the same part merge.

With A_k = V_k diag(w_k) V_k^H, the product is chained in the eigenbases
from the right,

    X <- D_n V_n^H,   X <- D_j (V_j^H V_k) X,   U = V_1 X,

so each factor costs one matrix product and a row scaling.  A part with a
zero imaginary part has real eigenvectors, and left-multiplying the complex
X by a real matrix is one real product on X's interleaved float view, half
the work of a complex product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, StructuralError
from .tolerances import HERMITICITY_TOL

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
    for the life of the split.
    """

    parts: tuple
    total: np.ndarray = field(init=False, repr=False)
    _eigensystems: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _overlaps: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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


def compose(split, sequence, h, direction="forward"):
    """The ordered product of e^{A_k * prefactor * c * h} over sequence."""
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
    """`steps` repetitions of one composed step.

    With alternate_reversal every second step uses the reversed sequence
    (the adjoint decomposition).  A palindromic sequence reuses the step
    itself, so its result is bit-identical to the non-alternating one.
    """
    if steps < 1:
        raise StructuralError(f"steps must be >= 1, got {steps}")
    step = compose(split, sequence, h, direction)
    step_rev = step
    if alternate_reversal and sequence[::-1] != sequence:
        step_rev = compose(split, sequence[::-1], h, direction)
    u = step
    for i in range(1, steps):
        u = u @ (step_rev if i % 2 else step)
    return u
