"""Error-versus-cost sweeps over Trotter schemes and polynomial methods.

Cost follows the paper's cycle-count model: a scheme costs its cycle count
q per step, a degree-k polynomial costs k/kappa equivalent cycles (kappa=6
by default), and cost = q_effective * steps / t_total, i.e. q/h.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .compose import _block_diagonal, _eig_expm, power_step
from .errors import GridUnusableError, NotFoundError, StructuralError
from .multistage import apply_multistage, to_multistage
from .polyexp import SeriesSpec, eval_factorized, eval_summed, factorize, suggest_gamma
from .schemes import get_scheme
from .spinmodel import XxzConfig, build_xxz, frobenius_error
from .tolerances import DEFAULT_KAPPA

DEFAULT_METHODS = ("strang", "forest-ruth", "suzuki4", "blanes-moan4")
DEFAULT_H_GRID = tuple(1.0 / 2**j for j in range(7))


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class BenchPlan:
    """One sweep: a model, a fixed total time, methods, and an h-grid."""

    model: XxzConfig = XxzConfig(L=8)
    t_total: float = 10.0
    methods: tuple = DEFAULT_METHODS
    h_grid: tuple = DEFAULT_H_GRID
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "h_grid", tuple(float(h) for h in self.h_grid))
        if not self.t_total > 0:
            raise StructuralError(f"t_total must be > 0, got {self.t_total}")
        if not self.kappa > 0:
            raise StructuralError(f"kappa must be > 0, got {self.kappa}")
        if not self.methods:
            raise StructuralError("plan needs at least one method")
        if not self.h_grid or any(not h > 0 for h in self.h_grid):
            raise StructuralError("h_grid must be nonempty with positive entries")

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
    """Build a BenchPlan from a parsed plan.json; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise StructuralError("plan must be a JSON object")
    unknown = set(data) - {"model", "t_total", "methods", "h_grid", "kappa"}
    if unknown:
        raise StructuralError(f"unknown plan keys: {', '.join(sorted(unknown))}")
    model_data = data.get("model", {})
    if not isinstance(model_data, dict):
        raise StructuralError("plan 'model' must be a JSON object")
    unknown = set(model_data) - {"L", "delta", "boundary", "J"}
    if unknown:
        raise StructuralError(f"unknown model keys: {', '.join(sorted(unknown))}")
    model = XxzConfig(
        L=int(model_data.get("L", 8)),
        delta=float(model_data.get("delta", 1.0)),
        boundary=str(model_data.get("boundary", "open")),
        J=float(model_data.get("J", 1.0)),
    )
    return BenchPlan(
        model=model,
        t_total=float(data.get("t_total", 10.0)),
        methods=tuple(data.get("methods", DEFAULT_METHODS)),
        h_grid=tuple(data.get("h_grid", DEFAULT_H_GRID)),
        kappa=float(data.get("kappa", DEFAULT_KAPPA)),
    )


# ---------------------------------------------------------------------------
# the sweep


def _step_operator(method, split, gen_blocks, h, gamma, cache_dir):
    """The dense one-step operator approximating exp(-i H h).  A polynomial
    is evaluated on each sector block of the generator -iH (gen_blocks, in
    the order of split.sectors), with that sector's identity as the target,
    and the blocks are written into a zero matrix."""
    if method.kind == "scheme":
        ms = to_multistage(method.scheme)
        return apply_multistage(split, ms, h)
    if method.kind == "taylor":
        spec = SeriesSpec("taylor", method.k, h=h)
    else:
        spec = SeriesSpec(
            "chebyshev", method.k, gamma_scale=gamma, axis="imaginary", h=h
        )
    if method.mode == "prod":
        fact = factorize(spec, cache_dir=cache_dir)
        blocks = (eval_factorized(g, np.eye(len(g), dtype=complex), fact) for g in gen_blocks)
    else:
        blocks = (eval_summed(g, np.eye(len(g), dtype=complex), spec) for g in gen_blocks)
    return _block_diagonal(split.sectors, blocks)


def run_benchmark(plan, *, cache_dir=None, catalog_path=None, timing=False):
    """All (method, h) cells of the plan, each a BenchmarkRecord.

    Deterministic: the exact oracle comes from one eigendecomposition of
    the whole H shared across cells (its eigenvalues also give the Chebyshev
    Gamma) and is exponentiated once per distinct effective time, the
    eigensystems of the split's bond terms are shared too, and wall_time
    stays 0.0 unless timing is requested (times are informational, never
    part of the data contract).

    Every step is block-diagonal over the chain's magnetization sectors
    (`OperatorSplit.sectors`, the blocks of H's pattern): the generator's
    sector blocks are built once per call, a polynomial step is evaluated
    block by block, and steps compose by powering each sector block
    (`compose.power_step`).  Each error compares the assembled operator
    with the whole-matrix oracle, whose eigenvalues key the zero cache
    through Gamma; sector eigenvalues can differ from them in the last bits.
    """
    methods = [parse_method(d, catalog_path=catalog_path) for d in plan.methods]
    split = build_xxz(plan.model)
    evals, evecs = np.linalg.eigh(split.total)
    gamma = None
    if any(m.kind == "chebyshev" for m in methods):
        gamma = suggest_gamma(split.total, eigvals=evals)
    gen_blocks = [-1j * split.total[np.ix_(s, s)] for s in split.sectors]
    oracles = {}
    records = []
    for method in methods:
        for h in plan.h_grid:
            steps = plan.steps_for(h)
            t_eff = steps * h
            exact = oracles.get(t_eff)
            if exact is None:
                exact = oracles[t_eff] = _eig_expm(evals, evecs, -1j * t_eff)
            begin = time.perf_counter()
            if method.kind == "exact":
                u = exact
            else:
                step_op = _step_operator(method, split, gen_blocks, h, gamma, cache_dir)
                u = power_step(split, step_op, steps)
            wall = time.perf_counter() - begin if timing else 0.0
            err = frobenius_error(u, exact, t=t_eff, method=method.descriptor)
            records.append(
                BenchmarkRecord(
                    method=method.descriptor,
                    h=h,
                    steps=steps,
                    cost=method.q_effective(plan.kappa) * steps / plan.t_total,
                    error=err.value,
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


def matched_cost_errors(records, methods=None):
    """Errors interpolated to common cost values.

    Returns (costs, {method: [error, ...]}) sampled at every grid cost lying
    inside all requested methods' cost ranges; interpolation is log-log
    linear, so power-law segments are interpolated exactly.  Records with
    nonpositive cost (the exact control) are ignored.
    """
    by_method = {}
    for r in records:
        if r.cost > 0:
            by_method.setdefault(r.method, {})[r.cost] = r.error
    if methods is None:
        methods = sorted(by_method)
    series = {}
    for name in methods:
        if name not in by_method or len(by_method[name]) < 2:
            raise NotFoundError(f"need >= 2 costed records for method {name!r}")
        pts = sorted(by_method[name].items())
        log_c = np.log([c for c, _ in pts])
        log_e = np.log([max(e, 1e-300) for _, e in pts])
        series[name] = (log_c, log_e)
    lo = max(s[0][0] for s in series.values())
    hi = min(s[0][-1] for s in series.values())
    if not lo < hi:
        raise GridUnusableError("methods' cost ranges do not overlap")
    sample = sorted(
        {
            float(c)
            for log_c, _ in series.values()
            for c in np.exp(log_c)
            if lo <= math.log(c) <= hi
        }
    )
    table = {
        name: [float(math.exp(np.interp(math.log(c), *series[name]))) for c in sample]
        for name in methods
    }
    return sample, table


# ---------------------------------------------------------------------------
# summation-instability probe


def _taylor_reference(k, z):
    """The truncation's true value at z, summed in extended precision.

    This is the right yardstick: outside the validity radius the truncation
    itself no longer tracks exp(z), so comparing against exp(z) would charge
    the evaluation with the truncation's error.
    """
    dps = 40 + int(abs(z))
    with mp.workdps(dps):
        zm = mp.mpc(z)
        term = mp.mpc(1)
        acc = mp.mpc(1)
        for i in range(1, k + 1):
            term = term * zm / i
            acc += term
        return acc, dps


def stability_probe(k_list, z_samples, *, cache_dir=None):
    """Relative errors of summed vs factorized scalar Taylor evaluation.

    Both run in plain double precision; the reference is the exact
    polynomial value.  Summation collapses once |z| outgrows the stable
    region (every k > 17 has one), factorization does not.
    """
    rows = []
    for k in k_list:
        spec = SeriesSpec("taylor", int(k))
        fact = factorize(spec, cache_dir=cache_dir)
        for z in z_samples:
            zc = complex(z)
            p_sum = complex(eval_summed(zc, 1.0 + 0j, spec))
            p_prod = complex(eval_factorized(zc, 1.0 + 0j, fact))
            p_true, dps = _taylor_reference(spec.k, zc)
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
