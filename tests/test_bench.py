"""Benchmark harness: plans, the sweep, emission, and the stability probe."""

import math
import signal

import numpy as np
import pytest

from trotterkit.bench import (
    DEFAULT_H_GRID,
    DEFAULT_METHODS,
    BenchmarkRecord,
    BenchPlan,
    emit_probe,
    emit_records,
    matched_cost_errors,
    parse_method,
    plan_from_dict,
    run_benchmark,
    stability_probe,
)
from trotterkit.errors import (
    CapacityError,
    GridUnusableError,
    NotFoundError,
    RangeError,
    StructuralError,
)
from trotterkit import bench, compose, polyexp, spinmodel
from trotterkit.polyexp import SeriesSpec, factorize, suggest_gamma
from trotterkit.multistage import apply_multistage, multistage_order, to_multistage
from trotterkit.schemes import get_scheme, load_catalog
from trotterkit.spinmodel import XxzConfig, build_xxz, exact_evolution

TINY_PLAN = BenchPlan(
    model=XxzConfig(L=4),
    t_total=2.0,
    methods=("exact", "strang", "suzuki4", "taylor:12"),
    h_grid=(0.5, 0.25, 0.125),
)


@pytest.fixture(scope="module")
def tiny_records(zeros_cache):
    return run_benchmark(TINY_PLAN, cache_dir=zeros_cache)


# ---------------------------------------------------------------------------
# plan construction


def test_plan_defaults():
    plan = BenchPlan()
    assert plan.methods == DEFAULT_METHODS
    assert plan.h_grid == DEFAULT_H_GRID
    assert plan.kappa == 6.0
    assert plan.steps_for(1.0) == 10
    assert plan.steps_for(0.3) == 33
    assert plan.steps_for(20.0) == 1  # never below one step


def test_plan_validation():
    with pytest.raises(StructuralError):
        BenchPlan(t_total=0.0)
    with pytest.raises(StructuralError):
        BenchPlan(kappa=0.0)
    with pytest.raises(StructuralError):
        BenchPlan(methods=())
    with pytest.raises(StructuralError):
        BenchPlan(h_grid=(0.5, -0.1))


@pytest.mark.parametrize("field", ["t_total", "kappa", "h_grid"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_plan_refuses_non_finite_values(field, value):
    data = {field: [0.5, value] if field == "h_grid" else value}
    with pytest.raises(StructuralError, match="finite"):
        plan_from_dict(data)


@pytest.mark.parametrize("field, value", [
    ("t_total", "10"), ("t_total", None), ("kappa", True),
    pytest.param("kappa", 10**400, id="kappa-int-past-float"),
    ("methods", "strang"), ("methods", ("strang", 5)), ("methods", None),
    ("h_grid", 0.5), ("h_grid", ("0.5",)), ("h_grid", (0.5, True)), ("model", {"L": 3}),
])
def test_plan_refuses_a_field_of_the_wrong_type(field, value):
    with pytest.raises(StructuralError, match=f"'{field}'"):
        BenchPlan(**{field: value})


def test_plan_from_dict_passes_integral_numbers_through():
    # JSON integers where floats are meant, and a float where an int is,
    # give the plan written with the intended types
    plan = plan_from_dict({"model": {"L": 6.0, "delta": 1}, "t_total": 2, "kappa": 6,
                           "h_grid": [1, 0.5]})
    assert plan == BenchPlan(model=XxzConfig(L=6, delta=1.0), t_total=2.0, kappa=6.0,
                             h_grid=(1.0, 0.5))
    assert type(plan.model.L) is int
    assert {type(v) for v in (plan.model.delta, plan.t_total, plan.kappa, *plan.h_grid)} == {float}


def test_plan_refuses_a_step_count_that_overflows():
    # both values are finite, their ratio is not
    with pytest.raises(StructuralError, match="t_total / h must be finite"):
        BenchPlan(t_total=1e300, h_grid=(0.5, 1e-10))
    assert BenchPlan(t_total=1e300, h_grid=(1e-5,)).steps_for(1e-5) == round(1e305)


def test_plan_from_dict_roundtrip():
    plan = plan_from_dict(
        {
            "model": {"L": 6, "delta": 0.5, "boundary": "periodic", "J": 2.0},
            "t_total": 4.0,
            "methods": ["strang"],
            "h_grid": [0.5],
            "kappa": 3.0,
        }
    )
    assert plan.model == XxzConfig(L=6, delta=0.5, boundary="periodic", J=2.0)
    assert plan.t_total == 4.0 and plan.kappa == 3.0


def test_plan_from_dict_rejects_unknown_keys():
    with pytest.raises(StructuralError, match="unknown plan keys"):
        plan_from_dict({"t_totall": 4.0})
    with pytest.raises(StructuralError, match="unknown model keys"):
        plan_from_dict({"model": {"length": 6}})
    with pytest.raises(StructuralError):
        plan_from_dict(["not", "a", "dict"])


# ---------------------------------------------------------------------------
# method descriptors


def test_parse_method_forms():
    exact = parse_method("exact")
    assert exact.kind == "exact" and exact.q_effective(6.0) == 0.0
    scheme = parse_method("strang")
    assert scheme.kind == "scheme" and scheme.q_effective(6.0) == 1.0
    taylor = parse_method("taylor:52")
    assert taylor.kind == "taylor" and taylor.k == 52 and taylor.mode == "prod"
    assert taylor.q_effective(6.0) == pytest.approx(52 / 6)
    cheb = parse_method("chebyshev:146:sum")
    assert cheb.kind == "chebyshev" and cheb.mode == "sum"


def test_parse_method_errors():
    with pytest.raises(NotFoundError):
        parse_method("bogus-name")
    with pytest.raises(NotFoundError):
        parse_method("pade:10")
    with pytest.raises(StructuralError):
        parse_method("taylor:ten")
    with pytest.raises(StructuralError):
        parse_method("taylor:0")
    with pytest.raises(StructuralError):
        parse_method("taylor:12:fast")
    with pytest.raises(StructuralError):
        parse_method("taylor:12:sum:extra")


# ---------------------------------------------------------------------------
# the sweep


def test_exact_control_is_free_and_errorless(tiny_records):
    controls = [r for r in tiny_records if r.method == "exact"]
    assert len(controls) == 3
    for r in controls:
        assert r.cost == 0.0
        assert r.error == 0.0


def test_cost_model_and_doubling(tiny_records):
    for r in tiny_records:
        q_eff = {"exact": 0.0, "strang": 1.0, "suzuki4": 5.0, "taylor:12": 2.0}[r.method]
        assert r.cost == q_eff * r.steps / TINY_PLAN.t_total
    for method in ("strang", "suzuki4", "taylor:12"):
        rows = sorted((r for r in tiny_records if r.method == method), key=lambda r: r.h)
        for finer, coarser in zip(rows, rows[1:]):
            assert finer.cost == 2.0 * coarser.cost  # halving h doubles cost


def test_errors_decrease_with_h(tiny_records):
    for method in ("strang", "suzuki4", "taylor:12"):
        rows = sorted((r for r in tiny_records if r.method == method), key=lambda r: r.h)
        errs = [r.error for r in rows]
        assert errs == sorted(errs)
        assert all(e > 0 for e in errs)


def test_wall_time_zero_without_timing_flag(tiny_records, zeros_cache):
    assert all(r.wall_time == 0.0 for r in tiny_records)
    timed = run_benchmark(
        BenchPlan(model=XxzConfig(L=3), t_total=1.0, methods=("strang",), h_grid=(0.5,)),
        cache_dir=zeros_cache,
        timing=True,
    )
    assert all(r.wall_time > 0.0 for r in timed)


def test_run_is_deterministic(tiny_records, zeros_cache):
    again = run_benchmark(TINY_PLAN, cache_dir=zeros_cache)
    assert again == tiny_records  # bit-identical records, wall_time included


def test_run_diagonalizes_each_local_term_once(zeros_cache, monkeypatch):
    # one eigh per sector block of H for the oracle plus one per distinct
    # 4x4 bond term, whatever the number of cells; with no Chebyshev
    # method nothing full-size is diagonalized
    load_catalog()  # catalog validation diagonalizes its own test pairs
    split = build_xxz(TINY_PLAN.model)
    n_terms = len({op4.tobytes() for part in split.terms for _, _, op4 in part})
    assert n_terms == 1
    eigh = np.linalg.eigh
    shapes = []

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    one_cell = BenchPlan(model=TINY_PLAN.model, methods=("strang",), h_grid=(0.5,))
    for plan in (one_cell, TINY_PLAN):
        shapes.clear()
        run_benchmark(plan, cache_dir=zeros_cache)
        assert len(shapes) == n_terms + len(split.sectors) == 6
        assert sorted(shapes) == sorted([(4, 4)] + [(len(s), len(s)) for s in split.sectors])


def test_xxz_oracles_diagonalize_only_real_matrices(zeros_cache, monkeypatch):
    load_catalog()
    eigh = np.linalg.eigh
    dtypes = []

    def recording_eigh(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    plan = BenchPlan(model=XxzConfig(L=5, boundary="periodic"), t_total=1.0,
                     methods=("exact", "strang", "taylor:12"), h_grid=(0.5,))
    run_benchmark(plan, cache_dir=zeros_cache)
    split = build_xxz(plan.model)
    exact_evolution(split.total, 1.0)
    exact_evolution(split.total, 1.0, direction="imaginary")
    # the bond term and each sector block of the total in the sweep, and
    # each sector block again in each oracle
    assert len(dtypes) == 1 + 3 * len(split.sectors)
    assert set(dtypes) == {np.dtype(np.float64)}


def test_run_builds_each_part_once(zeros_cache, monkeypatch):
    # each part is placed once, on H's sectors, and the sectors read the
    # terms alone, so no part is built a second time
    plan = BenchPlan(model=XxzConfig(L=5, boundary="periodic"), t_total=1.0,
                     methods=("exact", "strang", "taylor:12"), h_grid=(0.5,))
    builds = []
    placed = compose.OperatorSplit._placed

    def counting(split, index_sets, terms):
        assert index_sets is split.sectors
        builds.append([[(i, j) for i, j, _ in part_terms] for part_terms in terms])
        return placed(split, index_sets, terms)

    monkeypatch.setattr(compose.OperatorSplit, "_placed", counting)
    run_benchmark(plan, cache_dir=zeros_cache)
    parts = build_xxz(plan.model).terms
    assert len(parts) == 3
    assert builds == [[[(i, j) for i, j, _ in terms] for terms in parts]]


def test_no_dense_h_without_a_chebyshev_method(zeros_cache, monkeypatch):
    # H's sector blocks come from the terms, so a run with no Chebyshev
    # method, the spectrum and an order fit build no dense total
    splits = []

    def recording(cfg):
        splits.append(build_xxz(cfg))
        return splits[-1]

    monkeypatch.setattr(bench, "build_xxz", recording)
    monkeypatch.setattr(spinmodel, "build_xxz", recording)
    run_benchmark(BenchPlan(model=XxzConfig(L=6, boundary="periodic", delta=0.3), t_total=1.0,
                            methods=("exact", "strang", "taylor:12", "taylor:12:sum"),
                            h_grid=(0.5,)), cache_dir=zeros_cache)
    spinmodel.xxz_spectrum(XxzConfig(L=7, J=0.7))
    splits.append(build_xxz(XxzConfig(L=5)))
    multistage_order(splits[-1], to_multistage(get_scheme("strang")))
    assert len(splits) == 3
    assert all("total" not in vars(split) for split in splits)


@pytest.mark.parametrize("plan", [
    BenchPlan(model=XxzConfig(L=6), t_total=2.0,
              methods=("strang", "taylor:12", "chebyshev:16"), h_grid=(1.0, 0.5)),
    BenchPlan(methods=DEFAULT_METHODS + ("taylor:30", "chebyshev:40")),
], ids=["l6", "sweep-benchmark"])
def test_run_after_warm_zeros_solves_no_zeros(plan, tmp_path, monkeypatch):
    # warm the zeros the way a caller does (the sweep benchmark's set-up
    # among them), with Gamma from a plain eigh of the split's total; the
    # sweep must then hit every zero set it needs.  At L = 6 a real and a
    # complex eigh of H differ in the last bit of the spectral radius, and
    # at L = 8 the sector eighs and eigvalsh differ from it too, so a sweep
    # that diagonalized otherwise would miss.
    split = build_xxz(plan.model)
    gamma = suggest_gamma(split.total, eigvals=np.linalg.eigh(split.total)[0])
    cache_dir = str(tmp_path / "warm")
    for method in map(parse_method, plan.methods):
        if method.kind == "taylor":
            factorize(SeriesSpec("taylor", method.k), cache_dir=cache_dir)
        elif method.kind == "chebyshev":
            for h in plan.h_grid:
                spec = SeriesSpec("chebyshev", method.k, gamma_scale=gamma, axis="imaginary", h=h)
                factorize(spec, cache_dir=cache_dir)

    def no_solve(*args):
        raise AssertionError("zero solve after warm-up")

    monkeypatch.setattr(polyexp, "_zeros_mp", no_solve)
    records = run_benchmark(plan, cache_dir=cache_dir)
    assert len(records) == len(plan.methods) * len(plan.h_grid)
    assert all(math.isfinite(r.error) for r in records)


@pytest.mark.parametrize("methods, whole", [
    (DEFAULT_METHODS + ("taylor:30",), []),
    (DEFAULT_METHODS + ("taylor:30", "chebyshev:40"), [(256, 256)]),
], ids=["no-chebyshev", "chebyshev"])
def test_run_multiplies_only_sector_blocks_after_the_oracle(methods, whole, zeros_cache,
                                                            monkeypatch):
    # the L = 8 plan: every eigh, product, power and oracle exponential
    # acts on one magnetization sector block, the largest C(8, 4) = 70
    # wide, or on a 4x4 bond term; the one exception is the whole-matrix
    # eigh whose eigenvalues give a Chebyshev method's Gamma
    load_catalog()  # catalog validation diagonalizes its own test pairs
    plan = BenchPlan(model=XxzConfig(L=8), methods=methods)
    shapes = []
    eighs = []
    matmul, matrix_power, eigh = np.matmul, np.linalg.matrix_power, np.linalg.eigh
    eig_expm = spinmodel._eig_expm

    def recording_matmul(a, b, *args, **kwargs):
        shapes.append(np.shape(a)[-2:] + np.shape(b)[-2:])
        return matmul(a, b, *args, **kwargs)

    def recording_power(a, n):
        shapes.append(np.shape(a))
        return matrix_power(a, n)

    def recording_eigh(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def recording_expm(w, v, z):
        shapes.append(np.shape(v))
        return eig_expm(w, v, z)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    monkeypatch.setattr(np.linalg, "matrix_power", recording_power)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(spinmodel, "_eig_expm", recording_expm)
    records = run_benchmark(plan, cache_dir=zeros_cache)
    assert len(records) == len(methods) * len(plan.h_grid)
    assert max(max(s) for s in shapes) == 70
    sectors = [(len(s), len(s)) for s in build_xxz(plan.model).sectors]
    assert sorted(eighs) == sorted([(4, 4)] + sectors + whole)
    # every cell powers its nine sector blocks, and the oracle is
    # exponentiated on them once per distinct effective time
    t_effs = {plan.steps_for(h) * h for h in plan.h_grid}
    assert sum(len(s) == 2 for s in shapes) == 9 * (len(records) + len(t_effs))


@pytest.fixture
def cell_blocks(monkeypatch):
    """The blocks of every non-exact cell, in the order the sweep powers
    them."""
    cells = []
    for name in ("power_step", "evolve_sequence"):
        real = getattr(bench, name)

        def recording(*args, real=real, **kwargs):
            got = real(*args, **kwargs)
            cells.append(getattr(got, "blocks", got))
            return got

        monkeypatch.setattr(bench, name, recording)
    return cells


@pytest.mark.parametrize("plan", [
    BenchPlan(model=XxzConfig(L=6, boundary="periodic", delta=0.3),
              methods=("exact", "strang", "blanes-moan4", "taylor:30",
                       "taylor:20:sum", "chebyshev:40", "chebyshev:24:sum")),
    BenchPlan(),
], ids=["l6-periodic", "default"])
def test_every_cell_matches_a_sector_by_sector_reference(plan, zeros_cache, cell_blocks):
    # the reference builds each step whole (a scheme) or on each gathered
    # sector block of H (a polynomial), powers it per sector block and
    # scatters it: the sweep's blocks are bit for bit the reference's, and
    # each error lies within the sweep benchmark's tolerance of the dense
    # error against the whole-matrix oracle
    records = run_benchmark(plan, cache_dir=zeros_cache)
    split = build_xxz(plan.model)
    evals, evecs = np.linalg.eigh(split.total)
    gamma = suggest_gamma(split.total, eigvals=evals)
    gathered = [np.ix_(s, s) for s in split.sectors]
    assert len(records) == len(plan.methods) * len(plan.h_grid)
    blocks = iter(cell_blocks)
    for r in records:
        method = parse_method(r.method)
        exact = compose._eig_expm(evals, evecs, -1j * (r.steps * r.h))
        if method.kind == "exact":
            assert r.error == 0.0
            continue
        u = np.zeros_like(exact)
        if method.kind == "scheme":
            step = np.asarray(apply_multistage(split, to_multistage(method.scheme), r.h))
            for ix in gathered:
                u[ix] = np.linalg.matrix_power(step[ix], r.steps)
        else:
            spec = (SeriesSpec("taylor", method.k, h=r.h) if method.kind == "taylor" else
                    SeriesSpec("chebyshev", method.k, gamma_scale=gamma, axis="imaginary", h=r.h))
            for ix in gathered:
                g = -1j * split.total[ix]
                eye = np.eye(len(g), dtype=complex)
                if method.mode == "prod":
                    p = polyexp.eval_factorized(g, eye, factorize(spec, cache_dir=zeros_cache))
                else:
                    p = polyexp.eval_summed(g, eye, spec)
                u[ix] = np.linalg.matrix_power(p, r.steps)
        got = next(blocks)
        assert all(np.array_equal(b, u[ix]) for b, ix in zip(got, gathered, strict=True))
        dense = float(np.linalg.norm(u - exact))
        tol = 1e-8 * dense + r.steps * split.dim * np.finfo(float).eps
        assert abs(r.error - dense) <= tol, (r.method, r.h, r.error, dense)
    assert next(blocks, None) is None


@pytest.mark.parametrize("model", [
    XxzConfig(L=4), XxzConfig(L=7, boundary="periodic", delta=0.3, J=0.7),
    XxzConfig(L=10), XxzConfig(L=10, boundary="periodic", delta=-0.7),
], ids=["l4-open", "l7-periodic", "l10-open", "l10-periodic"])
def test_blockwise_error_equals_the_dense_error_against_the_sector_oracle(
        model, zeros_cache, cell_blocks):
    # with the oracle held fixed (exact_evolution, the same sector eigh),
    # the error summed over the sectors is the dense Frobenius norm of the
    # scattered difference, up to the order of the sum
    plan = BenchPlan(model=model, t_total=2.0, h_grid=(0.5, 0.25),
                     methods=("exact", "strang", "blanes-moan4", "taylor:30"))
    records = run_benchmark(plan, cache_dir=zeros_cache)
    split = build_xxz(model)
    blocks = iter(cell_blocks)
    for r in records:
        exact = np.asarray(exact_evolution(split.total, r.steps * r.h))
        if r.method == "exact":
            assert r.error == 0.0
            continue
        u = np.asarray(compose.SectorBlocks(split.sectors, next(blocks)))
        dense = float(np.linalg.norm(u - exact))
        assert abs(r.error - dense) <= 1e-13 * dense, (r.method, r.h, r.error, dense)
    assert next(blocks, None) is None


# ---------------------------------------------------------------------------
# emission


def test_emit_records_layout(tiny_records, tmp_path):
    out = tmp_path / "bench.csv"
    plot = tmp_path / "bench.dat"
    emit_records(tiny_records, str(out), plan=TINY_PLAN, plot_path=str(plot))
    lines = out.read_text().splitlines()
    assert lines[0] == "# kappa=6"
    assert lines[1] == "# model=xxz L=4 delta=1 boundary=open J=1 t_total=2"
    assert lines[2] == "method,h,steps,cost,error,wall_time"
    body = lines[3:]
    assert len(body) == len(tiny_records)
    keys = [(row.split(",")[0], float(row.split(",")[3])) for row in body]
    assert keys == sorted(keys)
    blocks = plot.read_text().rstrip("\n").split("\n\n")
    assert len(blocks) == 4
    assert [b.splitlines()[0] for b in blocks] == [
        "# method=exact",
        "# method=strang",
        "# method=suzuki4",
        "# method=taylor:12",
    ]
    for b in blocks:
        assert len(b.splitlines()) == 1 + 3


def test_emit_records_byte_identical(tiny_records, tmp_path, zeros_cache):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_records(tiny_records, str(a), plan=TINY_PLAN)
    emit_records(run_benchmark(TINY_PLAN, cache_dir=zeros_cache), str(b), plan=TINY_PLAN)
    assert a.read_bytes() == b.read_bytes()


def test_emit_records_metadata_only_with_plan(tiny_records, tmp_path):
    out = tmp_path / "plain.csv"
    emit_records(tiny_records[:1], str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "method,h,steps,cost,error,wall_time"
    assert len(lines) == 2


def test_emit_records_rejects_empty(tmp_path):
    with pytest.raises(StructuralError):
        emit_records([], str(tmp_path / "x.csv"))


# ---------------------------------------------------------------------------
# matched-cost interpolation


def synthetic(method, costs, law):
    return [
        BenchmarkRecord(method=method, h=1.0 / c, steps=int(c), cost=float(c), error=law(c))
        for c in costs
    ]


def test_matched_cost_interpolates_power_laws_exactly():
    records = synthetic("fast", [2, 4, 8, 16], lambda c: 10.0 * c**-2.0) + synthetic(
        "slow", [3, 6, 12, 24], lambda c: 20.0 / c
    )
    costs, table = matched_cost_errors(records)
    # the records' own costs in the common range, not their log/exp images
    assert costs == [3.0, 4.0, 6.0, 8.0, 12.0, 16.0]
    for c, e_fast, e_slow in zip(costs, table["fast"], table["slow"]):
        assert e_fast == pytest.approx(10.0 * c**-2.0, rel=1e-12)
        assert e_slow == pytest.approx(20.0 / c, rel=1e-12)


def test_matched_cost_skips_free_control():
    records = synthetic("m", [2, 4], lambda c: 1.0 / c) + [
        BenchmarkRecord(method="exact", h=0.5, steps=4, cost=0.0, error=0.0)
    ]
    costs, table = matched_cost_errors(records)
    assert "exact" not in table
    assert set(table) == {"m"}


def test_matched_cost_requires_overlap_and_presence():
    apart = synthetic("a", [1, 2], lambda c: 1.0) + synthetic("b", [10, 20], lambda c: 1.0)
    with pytest.raises(GridUnusableError):
        matched_cost_errors(apart)
    with pytest.raises(NotFoundError):  # a single point is not a curve
        matched_cost_errors(synthetic("a", [1], lambda c: 1.0))
    with pytest.raises(NotFoundError):  # the exact control alone has no cost
        matched_cost_errors([BenchmarkRecord(method="exact", h=0.5, steps=4, cost=0.0,
                                             error=0.0)])


# ---------------------------------------------------------------------------
# stability probe


def test_probe_stable_regime(zeros_cache):
    (row,) = stability_probe([10], [-5.0], cache_dir=zeros_cache)
    assert row.k == 10 and row.z == -5.0
    assert row.err_sum < 1e-12
    assert row.err_prod < 1e-12


def test_probe_unstable_regime(zeros_cache):
    (row,) = stability_probe([52], [-15.0], cache_dir=zeros_cache)
    assert row.err_sum > 1e-6
    assert row.err_prod < 1e-12
    assert row.err_sum / row.err_prod > 1e3


def test_probe_rows_cover_grid(zeros_cache):
    rows = stability_probe([10, 12], [-1.0, -2.0, 1j], cache_dir=zeros_cache)
    assert [(r.k, r.z) for r in rows] == [
        (10, -1 + 0j),
        (10, -2 + 0j),
        (10, 1j),
        (12, -1 + 0j),
        (12, -2 + 0j),
        (12, 1j),
    ]


@pytest.mark.parametrize("k, z", [(1, -1.0), (2, -1 + 1j)])
def test_probe_refuses_an_exact_zero_of_the_truncation(zeros_cache, k, z):
    # 1 + z and 1 + z + z^2/2 vanish exactly there: no relative error exists
    with pytest.raises(RangeError, match="is a zero of the k = .* Taylor truncation"):
        stability_probe([k], [z], cache_dir=zeros_cache)


@pytest.mark.parametrize("k, z", [(304, -1e4), (10, -1e300), (10, math.inf), (10, math.nan)])
def test_probe_refuses_a_point_past_the_double_range(zeros_cache, k, z):
    # 1e4^304 / 304! is about 1e593: both evaluations would read inf or nan
    with pytest.raises(RangeError, match="double range|must be finite"):
        stability_probe([k], [z], cache_dir=zeros_cache)


def test_probe_far_outside_the_validity_radius_returns_within_a_second(zeros_cache):
    # the reference's digits follow the largest term, 1e6^10 / 10! ~ 3e53,
    # not |z|: at 40 + |z| digits z = -1e6 did not finish in 20 s
    stability_probe([10], [-5.0], cache_dir=zeros_cache)  # the zeros, off the clock

    def expired(signum, frame):
        raise TimeoutError("still running after 1 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        rows = stability_probe([10], [-3e5, -1e6], cache_dir=zeros_cache)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert all(r.err_sum < 1e-14 and r.err_prod < 1e-14 for r in rows)


def test_probe_passes_k_through_unconverted(zeros_cache):
    # int(5.5) used to probe k = 5; the spec refuses it, as everywhere else
    with pytest.raises(StructuralError, match="k must be an integer >= 1, got 5.5"):
        stability_probe([5.5], [-1.0], cache_dir=zeros_cache)


def test_emit_probe_format(zeros_cache, tmp_path):
    rows = stability_probe([10], [-5.0, 2j], cache_dir=zeros_cache)
    out = tmp_path / "probe.csv"
    emit_probe(rows, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "k,z,err_sum,err_prod"
    assert lines[1].startswith("10,-5,")
    assert lines[2].startswith("10,2j,")
    with pytest.raises(StructuralError):
        emit_probe([], str(tmp_path / "empty.csv"))


def test_a_chain_past_the_dense_cap_is_refused_before_its_sectors_are_searched(monkeypatch):
    # a plan with no Chebyshev method and the order fit used to search the
    # sectors first: about 38 MiB at L = 16, growing fourfold per two sites
    splits = []

    def recording(cfg):
        splits.append(build_xxz(cfg))
        return splits[-1]

    monkeypatch.setattr(bench, "build_xxz", recording)
    monkeypatch.setattr(spinmodel, "build_xxz", recording)
    with pytest.raises(CapacityError):
        run_benchmark(BenchPlan(model=XxzConfig(L=13), methods=("strang",)))
    with pytest.raises(CapacityError):
        spinmodel.xxz_spectrum(XxzConfig(L=13))
    splits.append(build_xxz(XxzConfig(L=13)))
    with pytest.raises(CapacityError):
        multistage_order(splits[-1], to_multistage(get_scheme("strang")))
    assert len(splits) == 3
    assert all("sectors" not in split.__dict__ for split in splits)
