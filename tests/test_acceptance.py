"""End-to-end acceptance gate.

One test per release criterion, each pinned at its stated tolerance.  Every
test appends a PASS/FAIL line with the measured numbers to LINES *before*
asserting, and conftest prints the collected scoreboard in the terminal
summary — so a failing criterion still reports what was measured instead of
silently truncating the list.
"""

import math
import re
from pathlib import Path

import mpmath as mp
import numpy as np
from hypothesis import settings

from trotterkit.bench import (
    BenchPlan,
    matched_cost_errors,
    run_benchmark,
    stability_probe,
)
from trotterkit.multistage import (
    OperatorSplit,
    apply_multistage,
    apply_two_stage,
    multistage_order,
    to_multistage,
)
from trotterkit.polyexp import (
    SeriesSpec,
    chebyshev_admissible_k,
    eval_factorized,
    factorize,
    taylor_cutoff,
)
from trotterkit.schemes import load_catalog, random_hermitian
from trotterkit.spinmodel import XxzConfig, build_xxz

LINES = []


def record(criterion, ok, detail):
    LINES.append(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _rel_error_vs_exp(fact, z):
    z = complex(z)
    got = eval_factorized(np.array([[z]], dtype=complex), np.eye(1, dtype=complex), fact)[0, 0]
    with mp.workdps(60):
        want = mp.exp(mp.mpc(z.real, z.imag))
        return float(abs(got - want) / abs(want))


def test_criterion_1_transform_equivalence():
    # Every catalog scheme, merged onto a two-part split, must reproduce the
    # direct two-stage product on seeded Hermitian pairs.
    rng = np.random.default_rng(12345)
    a = random_hermitian(rng, 8)
    b = random_hermitian(rng, 8)
    split = OperatorSplit((a, b))
    worst = 0.0
    for scheme in load_catalog().values():
        ms = to_multistage(scheme)
        for h in (0.5, 0.1):
            diff = np.asarray(apply_multistage(split, ms, h)) - np.asarray(
                apply_two_stage(a, b, scheme, h))
            worst = max(worst, float(np.linalg.norm(diff)))
    ok = worst < 1e-12
    assert record(
        1,
        ok,
        f"two-part merge vs direct product over all catalog schemes, "
        f"h in {{0.5, 0.1}}: worst Frobenius {worst:.3e} (< 1e-12)",
    )


def test_criterion_2_order_preservation():
    # Each order-4 catalog scheme keeps its order on the three-part XXZ
    # split: fitted log-log error slope within [3.7, 4.3] at L=6, t=1.
    split = build_xxz(XxzConfig(L=6))
    slopes = {
        name: multistage_order(split, to_multistage(scheme))
        for name, scheme in sorted(load_catalog().items())
        if scheme.order_n == 4
    }
    ok = bool(slopes) and all(3.7 <= s <= 4.3 for s in slopes.values())
    detail = ", ".join(f"{name} {s:.3f}" for name, s in slopes.items())
    assert record(2, ok, f"order-4 slopes on the L=6 chain: {detail} (each in [3.7, 4.3])")


def test_criterion_3_efficiency_hierarchy():
    # At matched cost on the L=8 chain (t=10), interpolated errors obey
    # forest-ruth > suzuki4 > blanes-moan4 wherever all three exceed 1e-11.
    plan = BenchPlan(
        model=XxzConfig(L=8),
        t_total=10.0,
        methods=("forest-ruth", "suzuki4", "blanes-moan4"),
        h_grid=(0.25, 0.125, 0.0625, 0.03125, 0.015625),
    )
    costs, table = matched_cost_errors(run_benchmark(plan))
    fr, su, bm = (np.asarray(table[m]) for m in plan.methods)
    live = (fr > 1e-11) & (su > 1e-11) & (bm > 1e-11)
    ok = int(live.sum()) > 0 and bool(np.all((fr[live] > su[live]) & (su[live] > bm[live])))
    assert record(
        3,
        ok,
        f"matched-cost errors ordered forest-ruth > suzuki4 > blanes-moan4 at "
        f"{int(live.sum())}/{len(costs)} shared costs above 1e-11",
    )


def test_criterion_4_factorized_taylor_precision(zeros_cache):
    # k=52: relative error against exp(z) below 5e-13 across the |z| <= 10
    # disk.  k=304: below 5e-12 on the imaginary segment |z| <= 100 (the
    # validity disk of the k=304 polynomial ends at its innermost zeros,
    # |z| ~ 86, so the large-k reach is an axis statement, not a disk one).
    rng = np.random.default_rng(12345)
    f52 = factorize(SeriesSpec("taylor", 52), cache_dir=zeros_cache)
    radii = 10.0 * np.sqrt(rng.uniform(size=200))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=200)
    worst_disk = max(_rel_error_vs_exp(f52, z) for z in radii * np.exp(1j * angles))
    f304 = factorize(SeriesSpec("taylor", 304), cache_dir=zeros_cache)
    worst_seg = max(_rel_error_vs_exp(f304, 1j * y) for y in rng.uniform(-100.0, 100.0, size=200))
    ok = worst_disk < 5e-13 and worst_seg < 5e-12
    assert record(
        4,
        ok,
        f"k=52 disk |z|<=10 worst {worst_disk:.3e} (< 5e-13); "
        f"k=304 imaginary |z|<=100 worst {worst_seg:.3e} (< 5e-12), 200 samples each",
    )


def test_criterion_5_summation_instability(zeros_cache):
    # Plain summation must visibly destabilize where the factorized product
    # stays at rounding level: ratio > 1e3 at (k=52, z=-30), raw err_sum > 1
    # at (k=304, z=-100), err_prod < 1e-10 at both.
    (row52,) = stability_probe([52], [-30.0], cache_dir=zeros_cache)
    (row304,) = stability_probe([304], [-100.0], cache_dir=zeros_cache)
    ratio = row52.err_sum / row52.err_prod
    ok = (
        ratio > 1e3
        and row304.err_sum > 1.0
        and row52.err_prod < 1e-10
        and row304.err_prod < 1e-10
    )
    assert record(
        5,
        ok,
        f"(k=52, z=-30) err_sum/err_prod {ratio:.4g} (> 1e3 required); "
        f"(k=304, z=-100) err_sum {row304.err_sum:.4g} (> 1); "
        f"err_prod {row52.err_prod:.3e} / {row304.err_prod:.3e} (< 1e-10)",
    )


def test_criterion_6_chebyshev_reach(zeros_cache):
    # Chebyshev at Gamma*h = 100 with k=152 matches exp(iy) to 1e-11 across
    # the whole segment, and the matched-reach Taylor/Chebyshev cutoff ratio
    # sits in [2.0, 2.8].
    spec = SeriesSpec("chebyshev", 152, gamma_scale=100.0, axis="imaginary")
    fact = factorize(spec, cache_dir=zeros_cache)
    ys = np.random.default_rng(12345).uniform(-100.0, 100.0, size=200)
    worst = max(_rel_error_vs_exp(fact, 1j * y) for y in ys)
    k_taylor = taylor_cutoff(100.0, 1.0, 1e-14)
    k_cheb = chebyshev_admissible_k(100.0, "imaginary", 1e-14)
    ratio = k_taylor / k_cheb
    ok = worst < 1e-11 and 2.0 <= ratio <= 2.8
    assert record(
        6,
        ok,
        f"k=152 Gamma*h=100 imaginary worst {worst:.3e} (< 1e-11) over 200 samples; "
        f"matched-reach cutoff ratio {k_taylor}/{k_cheb} = {ratio:.4f} (in [2.0, 2.8])",
    )


def test_criterion_7_cutoff_rule():
    # Closed-form cutoff: pinned value at (1, 1, 1e-16), and agreement with
    # an exact-arithmetic brute-force minimal-k scan on 50 random pairs.
    pinned = taylor_cutoff(1.0, 1.0, 1e-16)
    rng = np.random.default_rng(12345)
    agree = 0
    with mp.workdps(60):
        for _ in range(50):
            lh = float(np.exp(rng.uniform(math.log(0.05), math.log(120.0))))
            eps = float(np.exp(rng.uniform(math.log(1e-18), math.log(1e-3))))
            k = 1
            while mp.mpf(lh) ** k / mp.factorial(k + 1) >= eps:
                k += 1
            agree += k == taylor_cutoff(lh, 1.0, eps)
    ok = pinned == 18 and agree == 50
    assert record(
        7,
        ok,
        f"taylor_cutoff(1, 1, 1e-16) = {pinned} (expect 18); "
        f"brute-force minimal k agrees on {agree}/50 random (lambda*h, epsilon) pairs",
    )


def test_criterion_8_property_suites():
    # The randomized invariants run inside this same suite under the seeded
    # profile registered in conftest: at least 100 cases per property,
    # derandomized for reproducibility.
    prof = settings.get_profile("trotterkit")
    counts = {}
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        if path.name == "test_acceptance.py":
            continue
        n = len(re.findall(r"@given\(", path.read_text()))
        if n:
            counts[path.name] = n
    total = sum(counts.values())
    ok = prof.max_examples >= 100 and prof.derandomize and total >= 10
    assert record(
        8,
        ok,
        f"seeded profile: max_examples={prof.max_examples}, derandomize={prof.derandomize}; "
        f"{total} randomized properties across {len(counts)} module suites",
    )
