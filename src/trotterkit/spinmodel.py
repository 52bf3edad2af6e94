"""Heisenberg XXZ chain: Hamiltonian builder, 3-stage split, exact oracle.

H = J sum_bonds (sx sx + sy sy + Delta sz sz) over nearest-neighbour bonds
(Pauli-matrix convention, J = 1 by default).  Bonds are partitioned into
three colors so the chain always presents a Lambda = 3 split; every color
group consists of site-disjoint bonds.  The split records each color as
its local terms (i, j, h_b), one shared 4x4 bond term, so the composer
builds every step from cached 4x4 bond gates; the dense parts and H are
the terms applied to the identity, built on first use, so a chain past the
dense cap (L > 12) is split but refused at its first dense access.  The
chain is real in the computational basis, so the bond term, the parts and
the total are float64, and the exact oracle diagonalizes H in real
arithmetic, one magnetization sector at a time: H conserves the number of
up spins, so its blocks are of size C(L, m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StructuralError
from .compose import (
    OperatorSplit,
    _block_diagonal,
    _components,
    _eig_expm,
    _hermitian,
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
    L: int
    delta: float = 1.0
    boundary: str = "open"
    J: float = 1.0

    def __post_init__(self):
        if self.L < 2:
            raise StructuralError(f"need L >= 2 sites, got {self.L}")
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
    t: float = 0.0
    method: str = ""


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
    """The shared two-site bond term J (sx sx + sy sy + Delta sz sz)."""
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
    V diag(e^{pref * lambda * t}) V^dagger from its own eigh, written into a
    zero complex matrix.  For a split these blocks are `split.sectors`.
    H must be finite and Hermitian.
    """
    h = _hermitian(h_matrix, "H")
    z = direction_prefactor(direction) * t
    blocks = _components(h != 0)
    exps = (_eig_expm(*np.linalg.eigh(h[np.ix_(s, s)]), z) for s in blocks)
    return _block_diagonal(blocks, exps)


def frobenius_error(u_approx, u_exact, *, t=0.0, method=""):
    a = np.asarray(u_approx)
    b = np.asarray(u_exact)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return EvolutionError(value=float(np.linalg.norm(a - b)), t=t, method=method)


def xxz_spectrum(cfg):
    """Sorted eigenvalues of the full chain Hamiltonian."""
    split = build_xxz(cfg)
    return np.sort(np.linalg.eigvalsh(split.total))
