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
the whole space, and its gate is applied as one matrix product.  A step is
the factor sequence applied to the packed identity (below); one builder,
`OperatorSplit._placed`, places the parts, the total and H's sector blocks
(`OperatorSplit.blocks`, one `SectorBlocks`) from the terms' entries, and
refuses a local split's past DENSE_DIM_CAP.

A real Hamiltonian stays real: a term or part whose imaginary part is
exactly zero is stored as float64 (and so is `total` when every part is),
so `np.linalg.eigh` diagonalizes it in real arithmetic, and `_eig_expm`
builds v diag(e^{z w}) v^T from a real v as one real GEMM.

This module is the one reader of a dense operator: `_require_square`
(a square matrix holding at least one index), `_require_finite` and
`_nonzero`, the one scan of a nonzero pattern, serve the split's parts
and terms, `spinmodel.exact_evolution`'s H and polyexp's `h_op` alike.

A split keeps the sectors that every gate preserves as its `sectors`: the
connected components of the union of its terms' off-diagonal nonzero
patterns, found by one component search (`_components`) over the terms'
entries (`_term_entries`), with no dense matrix built.  e^{z op} has no
entry outside op's components, so each step is block-diagonal over them.  For
the XXZ chain they are its magnetization sectors, the blocks the exact
oracle (`spinmodel.exact_evolution`) diagonalizes with the same search;
they are coarser than H's blocks only where parts cancel an entry of H.
A step is built on the packed identity, the (dim x w) matrix in which
sector s holds its identity columns 0..n_s-1 on its own rows, w the widest
sector padded to _PACK_COLUMNS: the gates act on it through the same
kernel, and sector s's block of the step is rows s, columns 0..n_s-1
(`compose`).  At L = 8 that is a 256 x 80 block instead of the
256 x 256 identity.  It is never held whole: `compose` makes it one
column block at a time, sized by _BLOCK_BYTES (one block up to L = 8,
8 blocks of 32 columns at L = 10, 16 columns from L = 11), applies every
gate to that block, and writes its columns into each sector's block, so
at L = 12 a step holds 2 MiB above its 41 MiB of sector blocks instead
of the 58 MiB packed identity and its products.  `power_step` takes a
step as a `SectorBlocks` and powers its blocks one at a time (at L = 8,
sum n_s^3 = 0.74M multiply-adds per product against 16.8M for the whole
matrix), and `evolve_sequence` adds the alternate-reversal pair and the
odd step.  `compose`, `power_step` and `evolve_sequence` return the
blocks as they are, a `SectorBlocks`: `U @ x` gathers x's rows into
sector order once and multiplies only the sectors x meets, and
`np.asarray(U)` scatters the blocks into a zero matrix of their type,
the one dense form.
The bench and the order fit compare such values with the exact oracle's
block by block (`spinmodel.frobenius_error`), so they scatter nothing.
A split with one sector packs nothing: its packed identity is the
identity.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import CapacityError, DimensionError, StructuralError, integer_field
from .tolerances import DENSE_DIM_CAP, HERMITICITY_TOL

__all__ = [
    "OperatorSplit",
    "SectorBlocks",
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
    are placed from their entries on first use.  A split of dense parts has
    one whole-space term (None, None, A_k) per part, and its `parts` are its
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
        # each term's cache key, built once: the index of its distinct
        # value, so equal terms share one eigensystem and one gate per z
        distinct = {}
        self._term_keys = tuple(
            tuple(distinct.setdefault(op.tobytes(), len(distinct)) for _, _, op in part_terms)
            for part_terms in terms
        )
        self._term_eigensystems = {}

    @classmethod
    def from_terms(cls, n_sites, terms):
        """Split of an n_sites qubit chain from local terms.

        terms[k] lists part k's two-site terms (i, j, op4): op4 is a
        Hermitian 4x4 matrix on sites (i, j), first index site i, site 0
        the most significant bit.  Each bond joins neighbours, j = i + 1
        or the wrap bond (n_sites - 1, 0), and the terms of one part share
        no site, so they commute.  n_sites is an int (4.0 gives 4) from 2
        to 62, so 2^n_sites fits an int64.  Nothing dense is built here.
        """
        n_sites = integer_field(n_sites, "n_sites")
        if not 2 <= n_sites <= 62:
            raise StructuralError(f"'n_sites' must be from 2 to 62, got {n_sites}")
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
        """The dense parts A_k, each placed on the whole range (`_placed`)."""
        return tuple(self._placed([np.arange(_dense_dim(self.dim))], [t])[0] for t in self.terms)

    @cached_property
    def total(self):
        """H = sum_k A_k, every part placed on the whole range (`_placed`);
        refused past DENSE_DIM_CAP unless the split holds dense parts."""
        dim = self.dim if "parts" in self.__dict__ else _dense_dim(self.dim)
        return self._placed([np.arange(dim)], self.terms)[0]

    def _placed(self, index_sets, terms):
        """The parts with these terms summed on each sorted index set (the
        sets partition the range, no term joins two): one read-only block
        per set, end to end in one buffer.  Each part's term entries are
        summed in term order, the parts in part order, as dense sums round."""
        ends = np.cumsum([0] + [len(s) ** 2 for s in index_sets])
        # each index's place in its set, and where its row starts in the buffer
        at, row = np.empty((2, self.dim), dtype=np.intp)
        for s, start in zip(index_sets, ends):
            at[s] = np.arange(len(s))
            row[s] = start + at[s] * len(s)

        def entries(i, j, op):  # (places in the buffer, values) of one term
            if i is None:
                for s, start in zip(index_sets, ends):
                    block = op if len(s) == self.dim else op[np.ix_(s, s)]
                    yield slice(start, start + len(s) ** 2), block.ravel()
            else:
                rows, cols, vals = _term_entries(self.dim, i, j, op)
                yield row[rows] + at[cols], vals

        total = np.zeros(ends[-1], np.result_type(float, *(op for t in terms for _, _, op in t)))
        for part_terms in terms:
            placed = [e for term in part_terms for e in entries(*term)]
            # a part of several (local) terms is summed alone on the places it
            # touches; a sum from +0.0 holds no -0.0, so one term goes straight in
            if len(part_terms) > 1:
                places, slot = np.unique(np.concatenate([p for p, _ in placed]), return_inverse=True)
                part = np.zeros(len(places), total.dtype)
                np.add.at(part, slot, np.concatenate([v for _, v in placed]))
                placed = [(places, part)]
            for places, vals in placed:
                total[places] += vals
        total.setflags(write=False)
        return [total[a:b].reshape(len(s), len(s)) for s, a, b in zip(index_sets, ends, ends[1:])]

    @cached_property
    def sectors(self):
        """The sectors every gate preserves: sorted index arrays of the
        connected components of the union of the terms' exact off-diagonal
        nonzero patterns (no tolerance), ordered by their first index.
        e^{z op} has no entry outside op's components, so every step is
        block-diagonal over them.  For the XXZ chain they are the
        magnetization sectors, of sizes C(L, m), the blocks
        `exact_evolution` diagonalizes; where parts cancel an entry of H
        they are unions of H's blocks.  Terms that couple everything give
        one sector, the whole index range.  Read from the entries of the
        terms with their diagonals zeroed (`_term_entries`), so nothing
        dense is built, past the dense cap too; computed on first use and kept.
        """
        none = np.empty(0, dtype=np.intp)
        edges = [(none, none)] + [_term_entries(self.dim, i, j, op - np.diag(np.diag(op)))[:2]
                                  for part_terms in self.terms for i, j, op in part_terms]
        rows, cols = (np.concatenate(e) for e in zip(*edges))
        return _components(self.dim, rows, cols)

    @cached_property
    def blocks(self):
        """H's blocks over `sectors`, in order, a `SectorBlocks` placed from
        the terms (`_placed`): float64 when every term is.  A split past
        DENSE_DIM_CAP is refused before its sectors are searched."""
        _dense_dim(self.dim)
        return SectorBlocks(self.sectors, self._placed(self.sectors, self.terms))

    def term_gate(self, k, n, z):
        """e^{z op} for term n (i, j, op) of part k, from the cached eigh of
        its distinct value."""
        key = self._term_keys[k][n]
        got = self._term_eigensystems.get(key)
        if got is None:
            got = self._term_eigensystems[key] = np.linalg.eigh(self.terms[k][n][2])
        g = _eig_expm(*got, z)
        if z.real == 0:
            # e^{z op} is unitary: one Newton-Schulz step removes the
            # rounding that would otherwise compound over long runs.
            g = g @ (1.5 * np.eye(len(g)) - 0.5 * (g.conj().T @ g))
        return g


class SectorBlocks:
    """A block-diagonal (dim x dim) matrix kept as its blocks: blocks[i]
    on the rows and columns of sectors[i], zero elsewhere, the sectors
    partitioning 0..dim-1 (refused otherwise, and so is dim 0).  Every
    step, evolution and exact oracle is returned as one (complex), and so
    is H (`OperatorSplit.blocks`, real for a real H); the blocks are
    read-only, and `dtype` is their result type.

    `U @ x` multiplies block by block, for any array x whose leading axis
    is dim: x's rows are gathered into sector order once, a sector where x
    is zero gets exact zeros and no product, and `U @ V` on equal sectors
    is a SectorBlocks.  `np.asarray(U)` scatters the blocks into a zero
    matrix of that type; it is the one dense form.
    """

    __slots__ = ("sectors", "blocks", "_order", "_starts", "_rows")

    def __init__(self, sectors, blocks):
        self.sectors = tuple(sectors)
        # read-only views: the caller's arrays keep their own flags
        self.blocks = tuple(np.asarray(b).view() for b in blocks)
        if len(self.blocks) != len(self.sectors):
            raise DimensionError(f"{len(self.blocks)} blocks for {len(self.sectors)} sectors")
        for s, b in zip(self.sectors, self.blocks):
            if b.shape != (len(s), len(s)):
                raise DimensionError(f"block of shape {b.shape} on a sector of {len(s)}")
            if not len(s):
                raise DimensionError("a sector must hold at least one index")
            b.setflags(write=False)
        # the sector permutation (its empty bool seed takes the sectors'
        # own index type), where each sector starts in it, and the rows of
        # the permuted order that each sector holds
        sizes = np.array([len(s) for s in self.sectors], dtype=np.intp)
        self._order = order = np.concatenate([np.empty(0, bool), *self.sectors])
        if not len(order) or order.dtype.kind not in "iu" or not np.array_equal(
                np.sort(order), np.arange(len(order))):
            raise DimensionError("the sectors must hold each index of 0..dim-1 once, dim >= 1")
        ends = np.cumsum(sizes)
        self._starts = ends - sizes
        self._rows = tuple(map(slice, self._starts, ends))

    @property
    def shape(self):
        return (len(self._order), len(self._order))

    @property
    def dtype(self):
        return np.result_type(*self.blocks)

    def _same_sectors(self, other):
        """Whether other is a SectorBlocks on these sectors, in this order."""
        return (isinstance(other, SectorBlocks) and len(other.sectors) == len(self.sectors)
                and all(map(np.array_equal, self.sectors, other.sectors)))

    def __matmul__(self, x):
        if self._same_sectors(x):
            return SectorBlocks(self.sectors, [a @ b for a, b in zip(self.blocks, x.blocks)])
        x = np.asarray(x)
        if x.ndim == 0 or len(x) != len(self._order):
            raise DimensionError(f"cannot apply a {self.shape} matrix to shape {x.shape}")
        out = np.zeros((len(x), math.prod(x.shape[1:])), np.result_type(self.dtype, x))
        # one gather into sector order; each met sector's rows are a
        # contiguous slice of it, multiplied and written back to its rows
        gathered = x.reshape(out.shape)[self._order]
        met = np.logical_or.reduceat(gathered.any(axis=1), self._starts)
        for s, rows, b in compress(zip(self.sectors, self._rows, self.blocks), met):
            out[s] = b @ gathered[rows]
        return out.reshape(x.shape)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a SectorBlocks has no dense array to share")
        out = np.zeros(self.shape, self.dtype)
        for s, b in zip(self.sectors, self.blocks):
            out[np.ix_(s, s)] = b
        return out if dtype is None else out.astype(dtype, copy=False)


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


def _is_complex(a):
    """Whether an entry of the array a has a nonzero imaginary part."""
    return np.iscomplexobj(a) and a.imag.any()


def _narrowed(a):
    """A new array holding a: float64 when no entry has a nonzero imaginary
    part, else complex128."""
    a = np.asarray(a)
    if _is_complex(a):
        return np.array(a, dtype=complex)
    return np.array(a.real, dtype=float)


def _require_square(a, what):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    if not len(a):
        raise DimensionError(f"{what} must hold at least one index, got shape {a.shape}")


def _require_finite(a, what):
    """a, refused with StructuralError if any entry is not finite."""
    if not np.isfinite(a).all():
        raise StructuralError(f"{what} has a non-finite entry")
    return a


def _require_hermitian(blocks, what):
    """Refuse a non-finite entry in any block, then a block that is not
    Hermitian within HERMITICITY_TOL, component-wise (the largest deviation
    over all blocks is reported)."""
    for b in blocks:
        _require_finite(b, what)
    dev = max((np.max(np.abs(b - b.conj().T)) for b in blocks if b.size), default=0.0)
    if dev > HERMITICITY_TOL:
        raise StructuralError(f"{what} is not Hermitian (max deviation {dev:.3e})")


def _hermitian(a, what):
    """A read-only `_narrowed` copy of a, which must be a finite square
    matrix that is Hermitian within HERMITICITY_TOL, component-wise."""
    a = _narrowed(a)
    _require_square(a, what)
    _require_hermitian([a], what)
    a.setflags(write=False)
    return a


def _hermitian_blocks(a, what):
    """A square matrix a as a `SectorBlocks`: its blocks on the connected
    components of its exact nonzero pattern (`_nonzero`, `_components`),
    each narrowed as `_narrowed` narrows the whole a.  a is zero off the
    blocks both ways, so the checks of `_hermitian` run on the blocks
    alone, with the same refusals in the same order and the same reported
    deviation."""
    a = np.asarray(a)
    _require_square(a, what)
    sectors = _components(len(a), *np.nonzero(_nonzero(a)))
    part, dtype = (a, complex) if _is_complex(a) else (a.real, float)
    blocks = [np.ascontiguousarray(part[np.ix_(s, s)], dtype=dtype) for s in sectors]
    _require_hermitian(blocks, what)
    return SectorBlocks(sectors, blocks)


def _components(n, rows, cols):
    """The connected components of the graph on indices 0..n-1 whose
    edges join rows[e] and cols[e], taken both ways: sorted, read-only
    index arrays ordered by their first index.  An index with no edge is a
    component of its own."""
    a, b = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    label = np.arange(n)
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


def _nonzero(m):
    """m != 0 for a matrix m, the one scan of a pattern: -0.0 reads as zero
    and nan as nonzero.  A complex m is compared as its real and imaginary
    parts and each pair of flags read as one uint16, the same flags about
    2.5x faster than comparing the complex entries."""
    if np.iscomplexobj(m):
        m = np.ascontiguousarray(m)
        return (m.view(m.real.dtype) != 0).view(np.uint16) != 0
    return m != 0


def _term_entries(dim, i, j, op):
    """The nonzero entries (rows, cols, vals) of a term as a (dim x dim)
    matrix, each once: op's own for a whole-space term (i = None), else
    those of op on sites (i, j) of a chain, every other site kept."""
    rows, cols = np.nonzero(_nonzero(op))
    if i is None:
        return rows, cols, op[rows, cols]
    n_sites = dim.bit_length() - 1
    bit_i, bit_j = 1 << (n_sites - 1 - i), 1 << (n_sites - 1 - j)
    rest = np.arange(dim)
    rest = rest[(rest & (bit_i | bit_j)) == 0]
    # op's index is 2 * (site i's bit) + (site j's bit)
    place = ((np.arange(4) >> 1) * bit_i + (np.arange(4) & 1) * bit_j)[:, None] + rest
    return place[rows].ravel(), place[cols].ravel(), op[rows, cols].repeat(len(rest))


# The packed identity's width, and the width of each column block it is
# built in, are multiples of this.  The batched matmuls of `_apply_term`
# then take the same kernel path on every column as on the full identity,
# whose width 2^L is a multiple of 16 from L = 4 on, so each sector block
# is bit for bit the full-identity step's.  With OpenBLAS 0.3.31 on one
# thread, the unpadded widest sector left entries of 147 of 320 catalog
# steps (L = 3-10, open and periodic, both directions) up to 7e-16 apart,
# and moved 20 of the 42 errors of an L = 8 bench sweep by up to 8.5e-11
# relative; a multiple of 4, 8 or 16 left none apart.
_PACK_COLUMNS = 16

# A column block of the packed identity is the widest multiple of
# _PACK_COLUMNS columns c whose (dim x c) complex array fits in this many
# bytes, and at least _PACK_COLUMNS: the whole packed identity up to L = 8,
# 32 columns at L = 10, 16 from L = 11.
_BLOCK_BYTES = 2**19


def _dense_dim(dim):
    """dim, refused before anything is allocated when it exceeds
    DENSE_DIM_CAP."""
    if dim > DENSE_DIM_CAP:
        raise CapacityError(f"dim {dim} exceeds dense capacity {DENSE_DIM_CAP}")
    return dim


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


def _resolve_gates(split, sequence, h, direction):
    """The gates of a split's factor sequence as (gate, i, j), in the order
    they act (the last factor first).  Each distinct (term, z) gate is
    built once: the bonds of an XXZ part share one term, and a merged
    sequence repeats coefficients."""
    pref = direction_prefactor(direction)
    gates, out = {}, []
    for k, coef in reversed(sequence):
        z = pref * coef * h
        for n, (i, j, _) in enumerate(split.terms[k]):
            key = (split._term_keys[k][n], z)
            g = gates.get(key)
            if g is None:
                g = gates[key] = split.term_gate(k, n, z)
            out.append((g, i, j))
    return out


def compose(split, sequence, h, direction="forward"):
    """The ordered product of e^{A_k * prefactor * c * h} over sequence, as
    the sector blocks of the step: the factor sequence applied to the
    packed identity (refused past the cap before the sectors are read),
    whose columns never mix the sectors they hold, since every gate
    preserves every sector; sector s's block is rows s, columns 0..n_s-1.
    The packed identity is built and applied one column block at a time
    (`_BLOCK_BYTES`), each block's columns written into the sector blocks."""
    dim = _dense_dim(split.dim)
    sectors = split.sectors
    gates = _resolve_gates(split, sequence, h, direction)
    # each index's column in the packed identity: its place in its sector
    at = np.empty(dim, dtype=np.intp)
    for s in sectors:
        at[s] = np.arange(len(s))
    width = min(-(-max(map(len, sectors)) // _PACK_COLUMNS) * _PACK_COLUMNS, dim)
    most = max(_BLOCK_BYTES // (16 * dim) // _PACK_COLUMNS, 1) * _PACK_COLUMNS
    blocks = [np.empty((len(s), len(s)), complex) for s in sectors]
    for a in range(0, width, most):
        c = min(most, width - a)
        rows = np.flatnonzero((a <= at) & (at < a + c))
        x = np.zeros((dim, c), complex)
        x[rows, at[rows] - a] = 1
        # applied here, not through a helper, so the identity block is freed
        # by the first gate: at most three blocks are alive, at a wrap bond
        for g, i, j in gates:
            x = _apply_term(g, i, j, x)
        for s, b in zip(sectors, blocks):
            if len(s) > a:
                b[:, a:a + c] = x[s, :len(s) - a]
    return SectorBlocks(sectors, blocks)


def power_step(u, steps):
    """A step u, a `SectorBlocks`, to the power `steps`: each block by
    repeated squaring, on u's sectors.  At L = 8, sum n_s^3 = 0.74M
    multiply-adds per product against 16.8M for the whole matrix."""
    return SectorBlocks(u.sectors, [np.linalg.matrix_power(b, steps) for b in u.blocks])


def evolve_sequence(split, sequence, h, steps, direction="forward",
                    alternate_reversal=False):
    """`steps` repetitions of one step, as its sector blocks powered by
    repeated squaring (`power_step`).

    With alternate_reversal every second step uses the reversed sequence
    (the adjoint decomposition): the product S S_rev S S_rev ... is the
    power of the pair S S_rev, times S when steps is odd, each product a
    `SectorBlocks @` of block products.  A palindromic sequence reuses the
    step itself, so its result is bit-identical to the non-alternating one.
    """
    steps = integer_field(steps, "steps")
    if steps < 1:
        raise StructuralError(f"steps must be >= 1, got {steps}")
    step = compose(split, sequence, h, direction)
    if not alternate_reversal or sequence[::-1] == sequence:
        return power_step(step, steps)
    u = power_step(step @ compose(split, sequence[::-1], h, direction), steps // 2)
    return u @ step if steps % 2 else u
