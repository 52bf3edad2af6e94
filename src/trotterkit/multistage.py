"""2-stage -> Lambda-stage coefficient transform and evolution operators.

A two-stage scheme S(h) = e^{A a_1 h} e^{B b_1 h} ... e^{A a_{q+1} h} is
rewritten as q sweeps over Lambda operators,

    U(h) = prod_i [ asc-block(c_i) * desc-block(d_i) ],

where an ascending block is e^{A_1 c h} e^{A_2 c h} ... e^{A_L c h} and a
descending block runs k = L..1.  For Lambda = 2 adjacent same-operator
exponentials merge and U reduces to S exactly (which inverts the
transform); for general Lambda the order of the source scheme is
preserved.  Reversing the (c, d) sequence
yields the adjoint decomposition, and alternating the two across steps
elevates an odd-order scheme to the next even order.  Every operator here
is built from the scheme's merged factor sequence by `compose`: one step's
sector blocks on the packed sector identity, powered block by block for
`evolve`, and returned as those blocks, a `compose.SectorBlocks`
(`U @ psi` block by block, `np.asarray(U)` the dense matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

from .compose import (
    OperatorSplit,
    compose,
    direction_prefactor,
    evolve_sequence,
    merge_factors,
)
from .errors import ConsistencyError, StructuralError, complex_list, integer_field
from .schemes import _fit_order, _require_consistent
from .tolerances import CONSISTENCY_TOL

__all__ = [
    "MultiStageScheme",
    "OperatorSplit",
    "to_multistage",
    "apply_two_stage",
    "apply_multistage",
    "evolve",
    "multistage_order",
    "direction_prefactor",
]


@dataclass(frozen=True)
class MultiStageScheme:
    """Per-sweep coefficient pairs (c_i, d_i), i = 1..q; order_n is an int >= 1."""

    name: str
    order_n: int
    c: tuple
    d: tuple

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise StructuralError(f"'name' must be a string, got {self.name!r}")
        object.__setattr__(self, "order_n", integer_field(self.order_n, "order_n"))
        if self.order_n < 1:
            raise StructuralError(f"multistage scheme {self.name!r}: order_n must be >= 1")
        object.__setattr__(self, "c", complex_list(self.c, "c"))
        object.__setattr__(self, "d", complex_list(self.d, "d"))
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
    final a_{q+1} to close the sequence.  Its inverse is `factor_sequence(2)`.
    """
    report = _require_consistent(scheme)
    c = [scheme.a[0]]
    d = [scheme.b[0] - c[0]]
    for i in range(1, scheme.q):
        c.append(scheme.a[i] - d[i - 1])
        d.append(scheme.b[i] - c[i])
    if scheme.symmetric and report.symmetry_ok:
        # A palindromic factor sequence transforms to d = reversed(c)
        # exactly; enforcing it here (instead of keeping the recurrence's
        # round-off-contaminated d) makes the reversed sequence equal the
        # original bit for bit, so alternate reversal is a true no-op.
        d = c[::-1]
    return MultiStageScheme(
        name=scheme.name + "-multistage",
        order_n=scheme.order_n,
        c=tuple(c),
        d=tuple(d),
    )


# ---------------------------------------------------------------------------
# evolution operators


def apply_two_stage(a, b, scheme, h, direction="forward"):
    """Ordered product e^{A a_1 h'} e^{B b_1 h'} ... with h' = prefactor * h."""
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


def multistage_order(split, ms, *, alternate_reversal=False):
    """Fitted log-log slope of the Lambda-stage decomposition error.

    The error is the Frobenius distance to the exact exponential of the
    summed operator at t = 1, after 1/h steps for h = 2^-2 .. 2^-6
    (`schemes._fit_order`); plateau points are excluded by the fit.
    """
    return _fit_order(split, ms.factor_sequence(split.n_parts),
                      alternate_reversal=alternate_reversal)
