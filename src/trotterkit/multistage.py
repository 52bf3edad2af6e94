"""2-stage -> Lambda-stage coefficient transform and evolution operators.

A two-stage scheme S(h) = e^{A a_1 h} e^{B b_1 h} ... e^{A a_{q+1} h} is
rewritten as q sweeps over Lambda operators,

    U(h) = prod_i [ asc-block(c_i) * desc-block(d_i) ],

where an ascending block is e^{A_1 c h} e^{A_2 c h} ... e^{A_L c h} and a
descending block runs k = L..1.  For Lambda = 2 adjacent same-operator
exponentials merge and U reduces to S exactly; for general Lambda the
order of the source scheme is preserved.  Reversing the (c, d) sequence
yields the adjoint decomposition, and alternating the two across steps
elevates an odd-order scheme to the next even order.  Every operator here
is built by `compose.compose` from the scheme's merged factor sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compose import (
    OperatorSplit,
    compose,
    direction_prefactor,
    evolve_sequence,
    merge_factors,
)
from .errors import ConsistencyError, DimensionError, StructuralError
from .schemes import _fit_order, random_hermitian, validate_consistency
from .tolerances import CONSISTENCY_TOL, DEFAULT_SEED

__all__ = [
    "MultiStageScheme",
    "OperatorSplit",
    "to_multistage",
    "reconstruct_two_stage",
    "apply_two_stage",
    "apply_multistage",
    "evolve",
    "multistage_order",
    "direction_prefactor",
]


@dataclass(frozen=True)
class MultiStageScheme:
    """Per-sweep coefficient pairs (c_i, d_i), i = 1..q."""

    name: str
    order_n: int
    c: tuple
    d: tuple
    source_scheme: str = ""

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(complex(x) for x in self.c))
        object.__setattr__(self, "d", tuple(complex(x) for x in self.d))
        if len(self.c) != len(self.d) or not self.c:
            raise StructuralError(
                f"multistage scheme {self.name!r}: need len(c) = len(d) >= 1"
            )
        total = sum(self.c) + sum(self.d)
        if abs(total - 1.0) > CONSISTENCY_TOL:
            raise ConsistencyError(
                f"multistage scheme {self.name!r}: sum(c)+sum(d) = {total!r}, not 1"
            )

    @property
    def q(self):
        return len(self.c)

    def reversed(self):
        """Adjoint decomposition: reverse the full factor sequence.

        Reading the factor list backwards swaps the roles of ascending and
        descending blocks, so the reversed scheme has c' = reversed(d) and
        d' = reversed(c).  For symmetric source schemes c = d reversed-pair
        wise and this is the identity.
        """
        return MultiStageScheme(
            name=self.name + "-reversed",
            order_n=self.order_n,
            c=self.d[::-1],
            d=self.c[::-1],
            source_scheme=self.source_scheme,
        )

    def factor_sequence(self, n_parts):
        """Merged (part, coefficient) sequence of one step on n_parts parts."""
        pairs = []
        for ci, di in zip(self.c, self.d):
            pairs += [(k, ci) for k in range(n_parts)]
            pairs += [(k, di) for k in reversed(range(n_parts))]
        return merge_factors(pairs)


def to_multistage(scheme):
    """Transform (a, b) to (c, d): c1=a1, d1=b1-c1, ci=ai-d(i-1), di=bi-ci.

    The recurrence consumes a_1..a_q and b_1..b_q; consistency forces the
    final a_{q+1} to close the sequence (checked by the round trip).
    """
    report = validate_consistency(scheme)
    if not report.ok:
        raise ConsistencyError(
            f"scheme {scheme.name!r} is inconsistent "
            f"(a-residual {report.a_residual:.3e}, b-residual {report.b_residual:.3e}); "
            "refusing to transform"
        )
    c = [scheme.a[0]]
    d = [scheme.b[0] - c[0]]
    for i in range(1, scheme.q):
        c.append(scheme.a[i] - d[i - 1])
        d.append(scheme.b[i] - c[i])
    if scheme.symmetric and report.symmetry_ok:
        # A palindromic factor sequence transforms to d = reversed(c)
        # exactly; enforcing it here (instead of keeping the recurrence's
        # round-off-contaminated d) makes the reversed scheme equal the
        # original bit for bit, so alternate reversal is a true no-op.
        d = c[::-1]
    return MultiStageScheme(
        name=scheme.name + "-multistage",
        order_n=scheme.order_n,
        c=tuple(c),
        d=tuple(d),
        source_scheme=scheme.name,
    )


def reconstruct_two_stage(ms):
    """Invert the transform: a1=c1, bi=ci+di, a(i+1)=di+c(i+1), a(q+1)=dq."""
    q = ms.q
    a = [ms.c[0]]
    b = []
    for i in range(q):
        b.append(ms.c[i] + ms.d[i])
        a.append(ms.d[i] + ms.c[i + 1] if i + 1 < q else ms.d[i])
    return tuple(a), tuple(b)


# ---------------------------------------------------------------------------
# evolution operators


def apply_two_stage(a, b, scheme, h, direction="forward"):
    """Ordered product e^{A a_1 h'} e^{B b_1 h'} ... with h' = prefactor * h."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"A and B must be square and same shape, got {a.shape} vs {b.shape}")
    return compose(OperatorSplit((a, b)), scheme.factor_sequence(), h, direction)


def apply_multistage(split, ms, h, direction="forward"):
    """One step of the Lambda-stage decomposition (ascending/descending blocks)."""
    return compose(split, ms.factor_sequence(split.n_parts), h, direction)


def evolve(split, ms, h, steps, alternate_reversal=False, direction="forward"):
    """Compose `steps` applications of the decomposition.

    With alternate_reversal, every second step uses the reversed coefficient
    sequence (the adjoint decomposition), elevating an odd-order scheme to
    the next even order.  For symmetric schemes the reversal is the identity
    and the results are bit-identical.
    """
    return evolve_sequence(split, ms.factor_sequence(split.n_parts), h, steps,
                           direction, alternate_reversal)


def multistage_order(
    split,
    ms,
    h_grid=None,
    *,
    t_total=1.0,
    direction="forward",
    alternate_reversal=False,
):
    """Fitted log-log slope of the Lambda-stage decomposition error.

    Error is the Frobenius distance to the exact exponential of the summed
    operator after t/h steps; plateau points are excluded by the fit.
    """
    return _fit_order(split, ms.factor_sequence(split.n_parts), h_grid, t_total,
                      direction, alternate_reversal)


def random_split(n_parts, dim, *, seed=DEFAULT_SEED):
    """Seeded random Hermitian split for order checks and tests."""
    rng = np.random.default_rng(seed)
    return OperatorSplit(tuple(random_hermitian(rng, dim) for _ in range(n_parts)))
