#!/usr/bin/env bash
# Run one fixed list of trotterkit commands, and one snippet of the public
# API, from the source tree TREE and write what each prints (stdout,
# stderr, exit status and any output file) under OUTDIR, one set of files
# per command.  Two trees print the same
# bytes when `diff -r` of their OUTDIRs is empty:
#
#   scripts/cli_outputs.sh . /tmp/out-head
#   scripts/cli_outputs.sh ../base /tmp/out-base
#   diff -r /tmp/out-base /tmp/out-head
#
# Every run has its own empty HOME, and every zero is solved cold but in
# the entries that read back a zero file they wrote; BLAS runs on one
# thread.
#
# Every command exits 0 unless its entry declares otherwise (`expect=1 run
# ...`).  With --check, nothing is run: each entry's NAME.status in OUTDIR
# must read its declared status, and a command declared to fail must have
# printed exactly one line to stderr, an `error:` line.  The exit status
# is 1 on any mismatch.
#
#   scripts/cli_outputs.sh --check /tmp/out-head
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 TREE OUTDIR | $0 --check OUTDIR" >&2
    exit 2
fi
check= tree=
if [ "$1" = --check ]; then
    check=1
else
    tree=$(cd "$1" && pwd)
    mkdir -p "$2"
fi
out=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/home"
export HOME="$work/home" PYTHONPATH="$tree/src"
export OMP_NUM_THREADS=1
mismatches=0

# record NAME CMD...: CMD, run in the work directory, into NAME.out,
# NAME.err, NAME.status; with --check, NAME.status and NAME.err checked
# against the declared status ${expect:-0}
record() {
    local name=$1 status=0 want=${expect:-0}
    shift
    if [ -n "$check" ]; then
        status=$(cat "$out/$name.status")
        if [ "$status" != "$want" ]; then
            echo "$name exited with status $status, declared $want"
            mismatches=$((mismatches + 1))
        elif [ "$want" != 0 ] && { [ "$(wc -l <"$out/$name.err")" != 1 ] ||
                                    [ "$(head -c 6 "$out/$name.err")" != error: ]; }; then
            echo "$name refused without exactly one error: line on stderr"
            mismatches=$((mismatches + 1))
        fi
        return
    fi
    (cd "$work" && "$@") >"$out/$name.out" 2>"$out/$name.err" || status=$?
    echo "$status" >"$out/$name.status"
}

# run NAME ARGS...: `trotterkit ARGS...`
run() {
    record "$1" python3 -m trotterkit.cli "${@:2}"
}

run bench bench --out "$out/bench.csv" --plot-data "$out/bench.plot"
# a small periodic chain with the exact control, two schemes and every
# polynomial mode, so polynomial steps on matrices are compared too
cat >"$work/plan-l6.json" <<'PLAN'
{"model": {"L": 6, "boundary": "periodic", "delta": 0.3},
 "methods": ["exact", "strang", "blanes-moan4", "taylor:30", "taylor:20:sum",
             "chebyshev:40", "chebyshev:24:sum"]}
PLAN
run bench-l6 bench --config plan-l6.json --out "$out/bench-l6.csv" --plot-data "$out/bench-l6.plot"
# an open chain whose widest sector, C(7, 3) = 35, is not a multiple of the
# packed identity's column padding, so padded step blocks are compared too
cat >"$work/plan-l7.json" <<'PLAN'
{"model": {"L": 7, "boundary": "open", "delta": 0.5},
 "methods": ["strang", "suzuki4", "blanes-moan4", "taylor:30"]}
PLAN
run bench-l7 bench --config plan-l7.json --out "$out/bench-l7.csv" --plot-data "$out/bench-l7.plot"
# a plan whose numbers are written as JSON integers where floats are meant,
# and as a float where an integer is, which must read as the typed plan
cat >"$work/plan-typed.json" <<'PLAN'
{"model": {"L": 6.0, "delta": 1}, "t_total": 2, "kappa": 6, "h_grid": [1, 0.5, 0.25],
 "methods": ["exact", "strang", "taylor:30", "chebyshev:24"]}
PLAN
run bench-typed bench --config plan-typed.json --out "$out/bench-typed.csv" --plot-data "$out/bench-typed.plot"
# a catalog whose strang entry claims order 4: the load gate refuses it
cat >"$work/bad-catalog.json" <<'CATALOG'
[{"name": "strang", "order": 4, "a": [[0.5, 0.0], [0.5, 0.0]], "b": [[1.0, 0.0]],
  "symmetric": true}]
CATALOG
expect=1 run bench-bad-catalog --catalog bad-catalog.json bench --out "$out/bench-bad-catalog.csv"
run adapt-forest-ruth adapt forest-ruth
run adapt-blanes-moan4 adapt blanes-moan4
run adapt-check-blanes-moan4 adapt blanes-moan4 --check
run adapt-check-strang-4 adapt strang --check --lambda 4
run schemes-list schemes list
run schemes-validate-suzuki4 schemes validate suzuki4
run schemes-validate-catalog schemes validate "$tree/src/trotterkit/data/schemes.json"
# the gate refuses an order claimed below the scheme's exact order, and a
# blanes-moan4 whose outer a's moved by +1e-8 and middle a by -2e-8: still
# consistent and symmetric, but of exact order 2
cat >"$work/underclaimed-catalog.json" <<'CATALOG'
[{"name": "suzuki4", "order": 2,
  "a": [[0.20724538589718788, 0.0], [0.41449077179437577, 0.0], [-0.12173615769156361, 0.0],
        [-0.12173615769156361, 0.0], [0.41449077179437577, 0.0], [0.20724538589718788, 0.0]],
  "b": [[0.41449077179437577, 0.0], [0.41449077179437577, 0.0], [-0.657963087177503, 0.0],
        [0.41449077179437577, 0.0], [0.41449077179437577, 0.0]],
  "symmetric": true}]
CATALOG
expect=1 run schemes-validate-underclaimed schemes validate underclaimed-catalog.json
cat >"$work/moved-catalog.json" <<'CATALOG'
[{"name": "blanes-moan4-moved", "order": 4,
  "a": [[0.07920370643119569, 0.0], [0.353172906049774, 0.0], [-0.0420650803577195, 0.0],
        [0.21937693575349962, 0.0], [-0.0420650803577195, 0.0], [0.353172906049774, 0.0],
        [0.07920370643119569, 0.0]],
  "b": [[0.209515106613362, 0.0], [-0.143851773179818, 0.0], [0.434336666566456, 0.0],
        [0.434336666566456, 0.0], [-0.143851773179818, 0.0], [0.209515106613362, 0.0]],
  "symmetric": true}]
CATALOG
expect=1 run schemes-validate-moved schemes validate moved-catalog.json
# --seed is checked on every command, also on one that draws no operators
expect=1 run seed-negative-schemes-list --seed -1 schemes list
for name in blanes-moan4 strang forest-ruth suzuki4 omelyan2 triple-jump-complex; do
    run "schemes-efficiency-$name" schemes efficiency "$name"
done
# k = 2 and 3, where the Szego curve is coarsest: their guesses start
# furthest from the zeros that the double-precision polish reaches
for k in 1 2 3 5 20 21 52; do
    run "zeros-taylor-$k" zeros --family taylor --k "$k"
done
run zeros-chebyshev-20-10-imaginary zeros --family chebyshev --k 20 --gamma-h 10 --axis imaginary
run zeros-chebyshev-16-2.5-real zeros --family chebyshev --k 16 --gamma-h 2.5 --axis real
# the cold-start benchmark's two zero solves, a Taylor order where a few
# roots take a third Newton evaluation if the polish's constant is rounded
# in double precision, the largest Taylor order (u^k far below the
# fixed-point resolution), a real-axis solve at k = 40, and
# the over-resolved imaginary-axis solve of the sweep benchmark's
# chebyshev:40 cells (290 guard bits)
run zeros-taylor-152 zeros --family taylor --k 152
run zeros-taylor-304 zeros --family taylor --k 304
run zeros-taylor-400 zeros --family taylor --k 400
run zeros-chebyshev-100-80-imaginary zeros --family chebyshev --k 100 --gamma-h 80 --axis imaginary
run zeros-chebyshev-40-20-real zeros --family chebyshev --k 40 --gamma-h 20 --axis real
run zeros-chebyshev-40-0.213-imaginary zeros --family chebyshev --k 40 --gamma-h 0.21304262029217305 --axis imaginary
# imaginary-axis truncations below their admissible k (k < Gamma*h), and
# one far above it, whose digits rise by the residual floor a failed pass
# at 65 + k/4 measures: not at k = 52 (78 digits), at k = 24 (71 -> 77),
# k = 128 (97 -> 159) and k = 172 at Gamma*h = 7.5 (108 -> 111, with poor
# double-precision guesses)
run zeros-chebyshev-52-100-imaginary zeros --family chebyshev --k 52 --gamma-h 100 --axis imaginary
run zeros-chebyshev-24-100-imaginary zeros --family chebyshev --k 24 --gamma-h 100 --axis imaginary
run zeros-chebyshev-128-172-imaginary zeros --family chebyshev --k 128 --gamma-h 172 --axis imaginary
run zeros-chebyshev-172-7.5-imaginary zeros --family chebyshev --k 172 --gamma-h 7.5 --axis imaginary
# a zero file written through --zeros-cache, then read back by a second
# process: Taylor k = 152, and the far-above solve that refines and raises
for step in write read; do
    run "zeros-taylor-152-file-$step" --zeros-cache zeros zeros --family taylor --k 152
    run "zeros-chebyshev-172-7.5-imaginary-file-$step" --zeros-cache zeros \
        zeros --family chebyshev --k 172 --gamma-h 7.5 --axis imaginary
done
run expm-taylor-prod expm --method taylor --k 52 --scalar=-10j
run expm-taylor-sum expm --method taylor --k 52 --scalar=-10j --sum
run expm-chebyshev-prod expm --method chebyshev --k 40 --gamma-h 20 --axis imaginary --scalar=-15j
run expm-chebyshev-sum expm --method chebyshev --k 40 --gamma-h 20 --axis imaginary --scalar=-15j --sum
run expm-chebyshev-real-prod expm --method chebyshev --k 16 --gamma-h 2.5 --axis real --scalar=-2
run expm-chebyshev-real-sum expm --method chebyshev --k 16 --gamma-h 2.5 --axis real --scalar=-2 --sum
# the spectrum is the sector blocks' eigenvalues: the four model-xxz
# entries moved in their last bits (at most 1.1e-13 at L = 10) when they
# stopped coming from a whole-matrix eigvalsh, so a tree from before that
# differs there
run model-xxz model xxz
run model-xxz-periodic model xxz --L 6 --delta 0.3 --bc periodic
# a periodic L = 7 chain with delta = 0.3 and J = 0.7: H has non-integer
# entries, so the order they are summed in shows in the bits, and
# L % 3 == 1 recolours the wrap bond
run model-xxz-periodic-l7 model xxz --L 7 --bc periodic --delta 0.3 --J 0.7
run model-xxz-l10 model xxz --L 10
# at the dense cap, whose sector blocks are placed from the terms, with
# non-integer entries whose summation order shows in the bits
run model-xxz-l12 model xxz --L 12 --bc periodic --delta 0.3 --J 0.7
# past the dense cap: refused before any sector search
expect=1 run model-xxz-l13 model xxz --L 13
run probe-stability probe-stability
# no command applies a polynomial to a state, so this public-API snippet
# does: the L = 8 Neel state, open and periodic (delta = 0.3), evolved by
# Taylor k = 30 and Chebyshev k = 40, factorized and summed, every entry
# printed; each step runs H through its entry table on the state's reach
cat >"$work/state-l8.py" <<'PY'
import numpy as np
import trotterkit as tk

psi0 = np.zeros(256, dtype=complex)
psi0[0b10101010] = 1.0
h, steps = 0.25, 4
for cfg in (tk.XxzConfig(L=8), tk.XxzConfig(L=8, boundary="periodic", delta=0.3)):
    split = tk.build_xxz(cfg)
    gamma = tk.suggest_gamma(split.total)
    gen = -1j * split.total
    for spec in (tk.SeriesSpec("taylor", 30, h=h),
                 tk.SeriesSpec("chebyshev", 40, gamma_scale=gamma, axis="imaginary", h=h)):
        fact = tk.factorize(spec)
        for mode, evaluate, arg in (("prod", tk.eval_factorized, fact),
                                    ("sum", tk.eval_summed, spec)):
            psi = psi0
            for _ in range(steps):
                psi = evaluate(gen, psi, arg)
            print(f"# {cfg.boundary} delta={cfg.delta} {spec.family}:{spec.k}:{mode}")
            for z in psi:
                print(f"{z.real:.17g} {z.imag:.17g}")
PY
record state-l8 python3 state-l8.py
# no command prints a factorization's evaluation plan, so this public-API
# snippet does: overall_scale and each factor group's kind and coeffs in
# plan order, for Taylor and for Chebyshev on both axes
cat >"$work/plans.py" <<'PY'
import trotterkit as tk

specs = [tk.SeriesSpec("taylor", k) for k in (30, 52, 152)]
specs += [tk.SeriesSpec("chebyshev", k, gamma_scale=gh, axis=axis)
          for k, gh, axis in ((40, 0.21304262029217305, "imaginary"),
                              (100, 80.0, "imaginary"), (40, 20.0, "real"))]
for spec in specs:
    fact = tk.factorize(spec)
    print(f"# {spec.family} k={spec.k} gamma_scale={spec.gamma_scale} axis={spec.axis}")
    print(f"overall_scale {fact.overall_scale:.17g}")
    for g in fact.groups:
        print(g.kind, *(f"{c:.17g}" for c in g.coeffs))
PY
record plans python3 plans.py
# no command prints the admissible Chebyshev degree, so this public-API
# snippet does, over Gamma*h from 0 to BESSEL_X_MAX, both axes and four
# tolerances
cat >"$work/admissible-k.py" <<'PY'
import trotterkit as tk

for axis in ("real", "imaginary"):
    for gh in (0, 1e-3, 0.213, 1, 10, 27.27, 100, 499, 500):
        ks = [tk.chebyshev_admissible_k(gh, axis, eps) for eps in (1e-4, 1e-8, 1e-12, 1e-16)]
        print(axis, gh, *ks)
PY
record admissible-k python3 admissible-k.py
# no command alternates a step with its reversed sequence, so this
# public-API snippet does: the Lie scheme, alternately reversed, on the
# L = 6 periodic chain (delta = 0.3), an odd and an even number of steps,
# every entry printed
cat >"$work/alternate-l6.py" <<'PY'
import numpy as np

import trotterkit as tk

split = tk.build_xxz(tk.XxzConfig(L=6, boundary="periodic", delta=0.3))
ms = tk.to_multistage(tk.TwoStageScheme("lie", 1, a=[1, 0], b=[1], symmetric=False))
for n in (3, 4):
    u = tk.evolve(split, ms, 0.1, n, alternate_reversal=True)
    print(f"# lie alternate_reversal steps={n}")
    for z in np.asarray(u).ravel():
        print(f"{z.real:.17g} {z.imag:.17g}")
PY
record alternate-l6 python3 alternate-l6.py
# no command evolves a state, so this public-API snippet does: the L = 8
# Neel state, on an open chain and on a periodic chain with delta = 0.3,
# after each of 20 blanes-moan4 steps of h = 0.05 and under the exact
# oracle at t = 1, every entry of each state
cat >"$work/state-trotter-l8.py" <<'PY'
import numpy as np

import trotterkit as tk

ms = tk.to_multistage(tk.get_scheme("blanes-moan4"))
for cfg in (tk.XxzConfig(L=8), tk.XxzConfig(L=8, boundary="periodic", delta=0.3)):
    split = tk.build_xxz(cfg)
    psi0 = np.zeros(cfg.dim, complex)
    psi0[int("01" * 4, 2)] = 1.0
    step = tk.apply_multistage(split, ms, 0.05)
    psi = psi0
    for n in range(1, 21):
        psi = step @ psi
        print(f"# {cfg.boundary} delta={cfg.delta} blanes-moan4 step {n}")
        for z in psi:
            print(f"{z.real:.17g} {z.imag:.17g}")
    print(f"# {cfg.boundary} delta={cfg.delta} exact t=1")
    for z in tk.exact_evolution(split.total, 1.0) @ psi0:
        print(f"{z.real:.17g} {z.imag:.17g}")
PY
record state-trotter-l8 python3 state-trotter-l8.py
# no command fits an order with alternate reversal, so this public-API
# snippet does: the Lie scheme's fitted order on seeded random splits of 2
# and 3 parts, plain and alternately reversed
cat >"$work/order-random.py" <<'PY'
import trotterkit as tk
from trotterkit.schemes import random_split

ms = tk.to_multistage(tk.TwoStageScheme("lie", 1, a=[1, 0], b=[1], symmetric=False))
for n in (2, 3):
    split = random_split(n, 8, seed=7)
    for alternate in (False, True):
        slope = tk.multistage_order(split, ms, alternate_reversal=alternate)
        print(f"lambda={n} alternate_reversal={alternate} slope={slope:.17g}")
PY
record order-random python3 order-random.py
# no command prints the exact error coefficients at both truncations, so
# this public-API snippet does: every field of each catalog scheme's
# coefficients at max_order 3 and 5, and its efficiency score
cat >"$work/coefficients-catalog.py" <<'PY'
import dataclasses

import trotterkit as tk

for name, scheme in tk.load_catalog().items():
    for max_order in (3, 5):
        coeffs = tk.estimate_error_coefficients(scheme, max_order=max_order)
        print(f"# {name} max_order={max_order}")
        for field in dataclasses.fields(coeffs):
            values = getattr(coeffs, field.name)
            values = values if isinstance(values, tuple) else (values,)
            print(field.name, *(f"{v.real:.17g} {v.imag:.17g}" for v in values))
    print(f"eff {tk.efficiency(scheme).eff:.17g}")
PY
record coefficients-catalog python3 coefficients-catalog.py
[ "$mismatches" = 0 ]
