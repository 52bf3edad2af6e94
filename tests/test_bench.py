"""Benchmark harness: plans, the sweep, emission, and the stability probe."""

import math

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
    GridUnusableError,
    NotFoundError,
    StructuralError,
)
from trotterkit import bench, compose, polyexp
from trotterkit.polyexp import SeriesSpec, factorize, suggest_gamma
from trotterkit.schemes import load_catalog
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
    # one eigh for the oracle plus one per distinct 4x4 bond term, whatever
    # the number of cells; no full-size part is diagonalized
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
        assert len(shapes) == n_terms + 1 == 2
        assert sorted(shapes) == [(4, 4), (split.dim, split.dim)]


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
    # the total and the bond term in the sweep, each sector block of the
    # total in each oracle
    assert len(dtypes) == 2 + 2 * len(split.sectors)
    assert set(dtypes) == {np.dtype(np.float64)}


def test_run_builds_each_part_once(zeros_cache, monkeypatch):
    # each part is built once for the total, and the sectors read the
    # total's pattern, so no part is built a second time
    plan = BenchPlan(model=XxzConfig(L=5, boundary="periodic"), t_total=1.0,
                     methods=("exact", "strang", "taylor:12"), h_grid=(0.5,))
    builds = []
    applied_sum = compose._applied_sum

    def counting(terms, x):
        builds.append([(i, j) for i, j, _ in terms])
        return applied_sum(terms, x)

    monkeypatch.setattr(compose, "_applied_sum", counting)
    run_benchmark(plan, cache_dir=zeros_cache)
    parts = build_xxz(plan.model).terms
    assert len(parts) == 3
    assert builds == [[(i, j) for i, j, _ in terms] for terms in parts]


def test_run_after_warm_zeros_solves_no_zeros(tmp_path, monkeypatch):
    # warm the zeros the way a caller does, with Gamma from a plain eigh of
    # the split's total; the sweep must then hit every zero set it needs.
    # At L = 6 a real and a complex eigh of H differ in the last bit of the
    # spectral radius, so a sweep that diagonalized otherwise would miss.
    plan = BenchPlan(model=XxzConfig(L=6), t_total=2.0,
                     methods=("strang", "taylor:12", "chebyshev:16"), h_grid=(1.0, 0.5))
    split = build_xxz(plan.model)
    gamma = suggest_gamma(split.total, eigvals=np.linalg.eigh(split.total)[0])
    cache_dir = str(tmp_path / "warm")
    factorize(SeriesSpec("taylor", 12), cache_dir=cache_dir)
    for h in plan.h_grid:
        spec = SeriesSpec("chebyshev", 16, gamma_scale=gamma, axis="imaginary", h=h)
        factorize(spec, cache_dir=cache_dir)

    def no_solve(*args):
        raise AssertionError("zero solve after warm-up")

    monkeypatch.setattr(polyexp, "_taylor_zeros_mp", no_solve)
    monkeypatch.setattr(polyexp, "_chebyshev_zeros_mp", no_solve)
    records = run_benchmark(plan, cache_dir=cache_dir)
    assert len(records) == 6 and all(math.isfinite(r.error) for r in records)


def test_run_multiplies_only_sector_blocks_after_the_oracle(zeros_cache, monkeypatch):
    # the L = 8 plan with both polynomial families: apart from the oracle's
    # exponential, every product and every power acts on one magnetization
    # sector block, the largest C(8, 4) = 70 wide
    plan = BenchPlan(model=XxzConfig(L=8),
                     methods=DEFAULT_METHODS + ("taylor:30", "chebyshev:40"))
    shapes = []
    oracle = []
    matmul, matrix_power, eig_expm = np.matmul, np.linalg.matrix_power, bench._eig_expm

    def recording_matmul(a, b, *args, **kwargs):
        if not oracle:
            shapes.append(np.shape(a)[-2:] + np.shape(b)[-2:])
        return matmul(a, b, *args, **kwargs)

    def recording_power(a, n):
        shapes.append(np.shape(a))
        return matrix_power(a, n)

    def marked_oracle(*args):
        oracle.append(True)
        try:
            return eig_expm(*args)
        finally:
            oracle.pop()

    monkeypatch.setattr(np, "matmul", recording_matmul)
    monkeypatch.setattr(np.linalg, "matrix_power", recording_power)
    monkeypatch.setattr(bench, "_eig_expm", marked_oracle)
    records = run_benchmark(plan, cache_dir=zeros_cache)
    assert len(records) == 6 * len(plan.h_grid)
    assert max(max(s) for s in shapes) == 70
    # every cell powers its nine sector blocks
    assert sum(len(s) == 2 for s in shapes) == 9 * len(records)


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
    assert costs == sorted(costs)
    assert min(costs) >= 3.0 and max(costs) <= 16.0
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
    with pytest.raises(NotFoundError):
        matched_cost_errors(synthetic("a", [1, 2], lambda c: 1.0), methods=["a", "missing"])
    with pytest.raises(NotFoundError):  # a single point is not a curve
        matched_cost_errors(synthetic("a", [1], lambda c: 1.0), methods=["a"])


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
