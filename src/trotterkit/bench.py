"""Error-versus-cost sweeps over Trotter schemes and polynomial methods.

Cost follows the paper's cycle-count model: a scheme costs its cycle count
q per step, a degree-k polynomial costs k/kappa equivalent cycles (kappa=6
by default), and cost = q_effective * steps / t_total, i.e. q/h.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from mpmath import mp

from .compose import SectorBlocks, compose, power_step
from .errors import GridUnusableError, NotFoundError, RangeError, StructuralError, real_field
from .multistage import to_multistage
from .polyexp import SeriesSpec, eval_factorized, eval_summed, factorize, suggest_gamma
from .schemes import get_scheme
from .spinmodel import XxzConfig, _sector_oracle, build_xxz, frobenius_error
from .tolerances import DEFAULT_KAPPA

DEFAULT_METHODS = ("strang", "forest-ruth", "suzuki4", "blanes-moan4")
DEFAULT_H_GRID = tuple(1.0 / 2**j for j in range(7))


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class BenchPlan:
    """One sweep: a model, a fixed total time, methods and an h-grid (lists
    or tuples of names and of numbers), stored as floats and tuples."""

    model: XxzConfig = XxzConfig(L=8)
    t_total: float = 10.0
    methods: tuple = DEFAULT_METHODS
    h_grid: tuple = DEFAULT_H_GRID
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self):
        if not isinstance(self.model, XxzConfig):
            raise StructuralError(f"'model' must be an XxzConfig, got {self.model!r}")
        names = isinstance(self.methods, (list, tuple)) and all(
            isinstance(m, str) for m in self.methods)
        if not names:
            raise StructuralError(f"'methods' must be a list of names, got {self.methods!r}")
        if not isinstance(self.h_grid, (list, tuple)):
            raise StructuralError(f"'h_grid' must be a list of numbers, got {self.h_grid!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "h_grid", tuple(real_field(h, "h_grid") for h in self.h_grid))
        object.__setattr__(self, "t_total", real_field(self.t_total, "t_total"))
        object.__setattr__(self, "kappa", real_field(self.kappa, "kappa"))
        if not self.t_total > 0:
            raise StructuralError(f"t_total must be finite and > 0, got {self.t_total}")
        if not self.kappa > 0:
            raise StructuralError(f"kappa must be finite and > 0, got {self.kappa}")
        if not self.methods:
            raise StructuralError("plan needs at least one method")
        if not self.h_grid or any(not h > 0 for h in self.h_grid):
            raise StructuralError("h_grid must be nonempty with finite positive entries")
        for h in self.h_grid:
            if not math.isfinite(self.t_total / h):
                raise StructuralError(f"t_total / h must be finite, got {self.t_total} / {h}")

    def steps_for(self, h):
        """t_total/h rounded to an integer step count >= 1."""
        return max(1, int(round(self.t_total / h)))


@dataclass(frozen=True)
class BenchmarkRecord:
    method: str
    h: float
    steps: int
    cost: float
    error: float
    wall_time: float = 0.0


@dataclass(frozen=True)
class ProbeRow:
    k: int
    z: complex
    err_sum: float
    err_prod: float


@dataclass(frozen=True)
class ResolvedMethod:
    """A parsed method descriptor: catalog scheme, polynomial, or control."""

    descriptor: str
    kind: str  # "exact" | "scheme" | "taylor" | "chebyshev"
    scheme: object = None
    k: int = 0
    mode: str = ""

    def q_effective(self, kappa):
        """Cycle count entering the cost model; the exact control is free."""
        if self.kind == "exact":
            return 0.0
        if self.kind == "scheme":
            return float(self.scheme.q)
        return self.k / kappa


def parse_method(descriptor, *, catalog_path=None):
    """Resolve "exact", a catalog scheme name, or "family:k[:sum|prod]"."""
    if descriptor == "exact":
        return ResolvedMethod(descriptor, "exact")
    if ":" in descriptor:
        fields = descriptor.split(":")
        family = fields[0]
        if family not in ("taylor", "chebyshev"):
            raise NotFoundError(
                f"unknown method family {family!r}; expected taylor or chebyshev"
            )
        if len(fields) not in (2, 3):
            raise StructuralError(
                f"method descriptor {descriptor!r} must be family:k or family:k:mode"
            )
        try:
            k = int(fields[1])
        except ValueError:
            raise StructuralError(
                f"method descriptor {descriptor!r} has non-integer degree {fields[1]!r}"
            ) from None
        if k < 1:
            raise StructuralError(f"polynomial degree must be >= 1, got {k}")
        mode = fields[2] if len(fields) == 3 else "prod"
        if mode not in ("prod", "sum"):
            raise StructuralError(
                f"evaluation mode must be 'prod' or 'sum', got {mode!r}"
            )
        return ResolvedMethod(descriptor, family, k=k, mode=mode)
    return ResolvedMethod(
        descriptor, "scheme", scheme=get_scheme(descriptor, catalog_path)
    )


def plan_from_dict(data):
    """Build a BenchPlan from a parsed plan.json: objects of known keys,
    whose values pass unconverted to XxzConfig and BenchPlan, which check
    them and hold the defaults."""
    if not isinstance(data, dict):
        raise StructuralError("plan must be a JSON object")
    unknown = set(data) - {"model", "t_total", "methods", "h_grid", "kappa"}
    if unknown:
        raise StructuralError(f"unknown plan keys: {', '.join(sorted(unknown))}")
    model = data.get("model", {})
    if not isinstance(model, dict):
        raise StructuralError("plan 'model' must be a JSON object")
    unknown = set(model) - {"L", "delta", "boundary", "J"}
    if unknown:
        raise StructuralError(f"unknown model keys: {', '.join(sorted(unknown))}")
    return BenchPlan(**dict(data, model=replace(BenchPlan.model, **model)))


# ---------------------------------------------------------------------------
# the sweep


def _polynomial(method, h, gamma, h_blocks, cache_dir):
    """The method's truncation of exp(-i H h) on H's sector blocks (a
    `SectorBlocks`): the factorized or summed polynomial in -i b, evaluated
    on each sector's identity, as a `SectorBlocks` on the same sectors."""
    if method.kind == "taylor":
        spec = SeriesSpec("taylor", method.k, h=h)
    else:
        spec = SeriesSpec("chebyshev", method.k, gamma_scale=gamma, axis="imaginary", h=h)
    if method.mode == "prod":
        evaluate, series = eval_factorized, factorize(spec, cache_dir=cache_dir)
    else:
        evaluate, series = eval_summed, spec
    blocks = [evaluate(-1j * b, np.eye(len(b), dtype=complex), series) for b in h_blocks.blocks]
    return SectorBlocks(h_blocks.sectors, blocks)


def run_benchmark(plan, *, cache_dir=None, catalog_path=None, timing=False):
    """All (method, h) cells of the plan, each a BenchmarkRecord.

    Deterministic: the eigensystems of the split's bond terms are shared
    across cells, and wall_time stays 0.0 unless timing is requested
    (times are informational, never part of the data contract).

    Every cell is kept as its blocks over the chain's magnetization sectors
    (`OperatorSplit.sectors`, the blocks of H's pattern), a `SectorBlocks`,
    and nothing is scattered.  H's sector blocks are placed once from the
    terms (`split.blocks`, which refuses a chain past the dense cap before
    searching its sectors): the exact oracle (`spinmodel._sector_oracle`)
    diagonalizes each once and keeps its exponential per distinct effective
    time.  Every other cell is one step, powered once (`power_step`): a
    scheme's step is `compose`d from its factor sequence, a polynomial's is
    its truncation on each block of H (`_polynomial`).  Each error is
    `frobenius_error`, sqrt(sum_s |U_s - E_s|_F^2) on the blocks.  Only a
    plan with a Chebyshev method builds and diagonalizes the whole H: its
    eigenvalues give the Gamma that keys the zero cache (the perfbench
    `sweep` warm-up solves the zeros for it), and sector eigenvalues can
    differ from them in the last bits.
    """
    methods = [parse_method(d, catalog_path=catalog_path) for d in plan.methods]
    split = build_xxz(plan.model)
    gamma = None
    if any(m.kind == "chebyshev" for m in methods):
        gamma = suggest_gamma(split.total, eigvals=np.linalg.eigh(split.total)[0])
    oracle = _sector_oracle(split.blocks)
    records = []
    for method in methods:
        for h in plan.h_grid:
            steps = plan.steps_for(h)
            exact = oracle(-1j * steps * h)
            begin = time.perf_counter()
            if method.kind == "exact":
                u = exact
            elif method.kind == "scheme":
                sequence = to_multistage(method.scheme).factor_sequence(split.n_parts)
                u = power_step(compose(split, sequence, h), steps)
            else:
                u = power_step(_polynomial(method, h, gamma, split.blocks, cache_dir), steps)
            wall = time.perf_counter() - begin if timing else 0.0
            records.append(
                BenchmarkRecord(
                    method=method.descriptor,
                    h=h,
                    steps=steps,
                    cost=method.q_effective(plan.kappa) * steps / plan.t_total,
                    error=frobenius_error(u, exact).value,
                    wall_time=wall,
                )
            )
    return records


# ---------------------------------------------------------------------------
# emission


def emit_records(records, path, *, plan=None, plot_path=None):
    """CSV (17 significant digits, sorted by method then cost), plus an
    optional gnuplot-style plot-data file with one block per method."""
    if not records:
        raise StructuralError("no records to emit")
    rows = sorted(records, key=lambda r: (r.method, r.cost, r.h))
    lines = []
    if plan is not None:
        m = plan.model
        lines.append(f"# kappa={plan.kappa:.17g}")
        lines.append(
            f"# model=xxz L={m.L} delta={m.delta:.17g} boundary={m.boundary} "
            f"J={m.J:.17g} t_total={plan.t_total:.17g}"
        )
    lines.append("method,h,steps,cost,error,wall_time")
    for r in rows:
        lines.append(
            f"{r.method},{r.h:.17g},{r.steps},{r.cost:.17g},"
            f"{r.error:.17g},{r.wall_time:.17g}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if plot_path is not None:
        blocks = []
        for name in sorted({r.method for r in rows}):
            block = [f"# method={name}"]
            block += [
                f"{r.h:.17g} {r.steps} {r.cost:.17g} {r.error:.17g} {r.wall_time:.17g}"
                for r in rows
                if r.method == name
            ]
            blocks.append("\n".join(block))
        with open(plot_path, "w", encoding="utf-8") as fh:
            fh.write("\n\n".join(blocks) + "\n")
    return path


# ---------------------------------------------------------------------------
# matched-cost comparison (log-log interpolation between grid points)


def matched_cost_errors(records):
    """Errors interpolated to common cost values.

    Returns (costs, {method: [error, ...]}) sampled at every record cost
    inside all methods' cost ranges, each the record's own value;
    interpolation is log-log linear, so power-law segments are interpolated
    exactly.  Records with nonpositive cost (the exact control) are
    ignored; every other method needs two costs at least.
    """
    by_method = {}
    for r in records:
        if r.cost > 0:
            by_method.setdefault(r.method, {})[r.cost] = r.error
    if not by_method:
        raise NotFoundError("need >= 2 costed records for some method, got none")
    methods = sorted(by_method)
    series = {}
    for name in methods:
        if len(by_method[name]) < 2:
            raise NotFoundError(f"need >= 2 costed records for method {name!r}")
        costs, errors = zip(*sorted(by_method[name].items()))
        series[name] = (costs, np.log(costs), np.log([max(e, 1e-300) for e in errors]))
    lo = max(s[0][0] for s in series.values())
    hi = min(s[0][-1] for s in series.values())
    if not lo < hi:
        raise GridUnusableError("methods' cost ranges do not overlap")
    sample = sorted({float(c) for costs, _, _ in series.values() for c in costs if lo <= c <= hi})
    table = {
        name: [float(math.exp(np.interp(math.log(c), *series[name][1:]))) for c in sample]
        for name in methods
    }
    return sample, table


# ---------------------------------------------------------------------------
# summation-instability probe


def _taylor_reference(k, z):
    """The truncation's true value at z, summed in extended precision, and
    the digits it was summed at.

    This is the right yardstick: outside the validity radius the truncation
    itself no longer tracks exp(z), so comparing against exp(z) would charge
    the evaluation with the truncation's error.

    The largest term T = |z|^i / i!, i = min(k, floor |z|), sets the digits:
    40 plus 2 log10 T, as summing terms up to T to a value as small as about
    1/T loses about that many, and at most 40 + |z|.  A z that is not
    finite, whose k + 1 terms could sum past the double range, or at which
    the truncation is exactly zero, has no relative error to measure and is
    refused with RangeError.
    """
    r = abs(z)
    if not r < math.inf:
        raise RangeError(f"z must be finite, got {z}")
    i = min(k, int(r))
    log_t = i * math.log(r) - math.lgamma(i + 1) if i else 0.0
    if log_t + math.log(k + 1) > math.log(np.finfo(float).max):
        raise RangeError(f"the k = {k} Taylor terms at z = {z} pass the double range")
    dps = 40 + min(int(r), 2 * math.ceil(log_t / math.log(10)))
    with mp.workdps(dps):
        zm = mp.mpc(z)
        term = mp.mpc(1)
        acc = mp.mpc(1)
        for i in range(1, k + 1):
            term = term * zm / i
            acc += term
        if acc == 0:
            raise RangeError(f"z = {z} is a zero of the k = {k} Taylor truncation")
        return acc, dps


def stability_probe(k_list, z_samples, *, cache_dir=None):
    """Relative errors of summed vs factorized scalar Taylor evaluation.

    Both run in plain double precision; the reference is the exact
    polynomial value (`_taylor_reference`, which refuses a point past the
    double range or at a zero of the truncation).  Summation collapses once
    |z| outgrows the stable region (every k > 17 has one), factorization
    does not.  Each k goes to `SeriesSpec` as given, which refuses a
    non-integer.
    """
    rows = []
    for k in k_list:
        spec = SeriesSpec("taylor", k)
        fact = factorize(spec, cache_dir=cache_dir)
        for z in z_samples:
            zc = complex(z)
            p_true, dps = _taylor_reference(spec.k, zc)
            p_sum = complex(eval_summed(zc, 1.0 + 0j, spec))
            p_prod = complex(eval_factorized(zc, 1.0 + 0j, fact))
            with mp.workdps(dps):
                scale = abs(p_true)
                err_sum = float(abs(mp.mpc(p_sum) - p_true) / scale)
                err_prod = float(abs(mp.mpc(p_prod) - p_true) / scale)
            rows.append(ProbeRow(k=spec.k, z=zc, err_sum=err_sum, err_prod=err_prod))
    return rows


def probe_csv(rows):
    """CSV text for stability_probe output, mirroring emit_records
    conventions; an empty row list gives the header alone."""
    lines = ["k,z,err_sum,err_prod"]
    for r in rows:
        z = f"{r.z.real:.17g}" if r.z.imag == 0.0 else f"{r.z!r}"
        lines.append(f"{r.k},{z},{r.err_sum:.17g},{r.err_prod:.17g}")
    return "\n".join(lines) + "\n"


def emit_probe(rows, path):
    """Write probe_csv(rows) to path; there must be at least one row."""
    if not rows:
        raise StructuralError("no probe rows to emit")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(probe_csv(rows))
    return path
