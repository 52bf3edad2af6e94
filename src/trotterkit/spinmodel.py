"""Heisenberg XXZ chain: Hamiltonian builder, 3-stage split, exact oracle.

H = J sum_bonds (sx sx + sy sy + Delta sz sz) over nearest-neighbour bonds
(Pauli-matrix convention, J = 1 by default).  Bonds are partitioned into
three colors so the chain always presents a Lambda = 3 split; every color
group consists of site-disjoint bonds.  The split records each color as
its local terms (i, j, h_b), one shared 4x4 bond term, so the composer
builds every step from cached 4x4 bond gates; the dense parts, H and H's
sector blocks (`OperatorSplit.blocks`) are placed from the terms' entries
on first use, so a chain past the dense cap (L > 12) is split but refused
at its first dense access.
The chain is real in the computational basis, so the bond term, the parts
and the total are float64, and the exact oracle diagonalizes H in real
arithmetic, one magnetization sector at a time: H conserves the number of
up spins, so its blocks are of size C(L, m).  `exact_evolution`, the bench
and the order fit share one oracle, `_sector_oracle`, which takes H as a
`compose.SectorBlocks` and returns its exponentials as one;
`frobenius_error` reads two of them on equal sectors block by block.  The
bench, the order fit and `xxz_spectrum` read H as `split.blocks`, with no
dense H built, and the spectrum is its blocks' eigenvalues, sorted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StructuralError, integer_field, real_field
from .compose import (
    OperatorSplit,
    SectorBlocks,
    _eig_expm,
    _hermitian_blocks,
    direction_prefactor,
)

__all__ = [
    "XxzConfig",
    "EvolutionError",
    "build_xxz",
    "bond_coloring",
    "exact_evolution",
    "frobenius_error",
    "xxz_spectrum",
]

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class XxzConfig:
    """The chain: L sites (an int; 8.0 gives 8), anisotropy delta, boundary, coupling J.

    L is at most 62, so that the basis dimension 2^L fits an int64."""

    L: int
    delta: float = 1.0
    boundary: str = "open"
    J: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "L", integer_field(self.L, "L"))
        object.__setattr__(self, "delta", real_field(self.delta, "delta"))
        object.__setattr__(self, "J", real_field(self.J, "J"))
        if self.L < 2:
            raise StructuralError(f"need L >= 2 sites, got {self.L}")
        if self.L > 62:
            raise StructuralError(f"'L' must be at most 62 (2^L must fit int64), got {self.L}")
        if self.boundary not in ("open", "periodic"):
            raise StructuralError(
                f"boundary must be 'open' or 'periodic', got {self.boundary!r}"
            )
        if self.boundary == "periodic" and self.L < 3:
            raise StructuralError("periodic chains need L >= 3")

    @property
    def dim(self):
        return 2**self.L


@dataclass(frozen=True)
class EvolutionError:
    value: float


def bond_coloring(cfg):
    """Deterministic 3-coloring: list of (site_i, site_j, color).

    Open chains use bond-index mod 3 (site-disjoint within each color since
    bonds three apart never touch).  Periodic chains: index mod 3 when
    L % 3 == 0; an alternating 2-coloring (third color empty) for even L;
    for odd L with L % 3 == 1 the wrap bond is recolored to 1, which
    restores a proper coloring (`OperatorSplit.from_terms` rejects a color
    that reuses a site).
    """
    L = cfg.L
    if cfg.boundary == "open":
        return [(i, i + 1, i % 3) for i in range(L - 1)]
    bonds = [(i, (i + 1) % L) for i in range(L)]
    if L % 3 == 0:
        colors = [i % 3 for i in range(L)]
    elif L % 2 == 0:
        colors = [i % 2 for i in range(L)]
    else:
        colors = [i % 3 for i in range(L)]
        if L % 3 == 1:
            colors[L - 1] = 1
    return [(i, j, c) for (i, j), c in zip(bonds, colors)]


def _bond_matrix(cfg):
    """The shared two-site bond term J (sx sx + sy sy + Delta sz sz); where
    it overflows it is non-finite, with no warning, and `from_terms` refuses it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return cfg.J * (
            np.kron(_SX, _SX) + np.kron(_SY, _SY) + cfg.delta * np.kron(_SZ, _SZ)
        )


def build_xxz(cfg):
    """OperatorSplit of Lambda = 3 colors of bond terms (empty colors kept)."""
    b4 = _bond_matrix(cfg)
    terms = [[] for _ in range(3)]
    for i, j, c in bond_coloring(cfg):
        terms[c].append((i, j, b4))
    return OperatorSplit.from_terms(cfg.L, terms)


def exact_evolution(h_matrix, t, direction="forward"):
    """U = e^{pref * H * t} by exact diagonalization, one invariant block of
    H at a time, in real arithmetic when H has no nonzero imaginary part.

    The blocks are the connected components of H's exact nonzero pattern
    (no tolerance): for the XXZ chain its magnetization sectors, of sizes
    C(L, m), so the L = 10 chain costs sum n_s^3 = 38M multiply-adds to
    diagonalize against 1,074M for the whole matrix.  Each block is
    V diag(e^{pref * lambda * t}) V^dagger from its own eigh, and U is
    returned as these blocks, a `SectorBlocks` (`_sector_oracle`, the
    bench's and the order fit's oracle too).  The search is the one behind
    `split.sectors`, over H's entries (`compose._nonzero`, the one pattern
    scan) instead of the terms', so for the XXZ chain the blocks are its
    `sectors`.  H must be a square matrix holding at least one index, finite
    and Hermitian, checked on its blocks (`_hermitian_blocks`), and t finite.
    """
    h = _hermitian_blocks(h_matrix, "H")
    if not np.isfinite(t):
        raise StructuralError(f"t must be finite, got {t!r}")
    z = direction_prefactor(direction) * t
    return _sector_oracle(h)(z)


def _sector_oracle(h):
    """The exact oracle on H's invariant blocks, h a `SectorBlocks`: one
    eigh per Hermitian block, taken here, and a function of z that returns
    e^{z H} as the blocks e^{z b} = V diag(e^{z lambda}) V^dagger
    (`_eig_expm`) on h's sectors, a `SectorBlocks`, computed once per
    distinct z."""
    eigensystems = [np.linalg.eigh(b) for b in h.blocks]
    return functools.cache(
        lambda z: SectorBlocks(h.sectors, [_eig_expm(w, v, z) for w, v in eigensystems]))


def frobenius_error(u_approx, u_exact):
    """The Frobenius norm of u_approx - u_exact.  Two `SectorBlocks` on
    equal sectors are read block by block, sqrt(sum_s |u_s - e_s|_F^2);
    anything else as two arrays of one shape."""
    if isinstance(u_approx, SectorBlocks) and u_approx._same_sectors(u_exact):
        pairs = zip(u_approx.blocks, u_exact.blocks)
        return EvolutionError(value=math.hypot(*(np.linalg.norm(a - b) for a, b in pairs)))
    if np.shape(u_approx) != np.shape(u_exact):
        raise DimensionError(f"shape mismatch: {np.shape(u_approx)} vs {np.shape(u_exact)}")
    diff = np.asarray(u_approx) - np.asarray(u_exact)
    return EvolutionError(value=float(np.linalg.norm(diff)))


def xxz_spectrum(cfg):
    """Sorted eigenvalues of the chain Hamiltonian: those of its sector
    blocks (`OperatorSplit.blocks`), one eigvalsh per block.  They agree
    with a whole-matrix eigvalsh to rounding, not bit for bit (within 1e-12
    up to L = 10)."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in build_xxz(cfg).blocks.blocks]))
