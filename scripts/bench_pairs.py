"""Run perfbench on two source trees in alternating pairs and summarize.

    python3 scripts/bench_pairs.py TREE_A TREE_B --workload state-L10 \\
        --pairs 10 --seed-base 4601 --out pairs.json

TREE_A is the baseline (the parent) and TREE_B the change.  Pair i
(1-based) runs ``perfbench/run.py --workload W --seed S+i-1 --seconds 25
--trace 0`` from each tree's own checkout, back to back: A first in odd
pairs, B first in even ones, so that a slow or fast phase of the machine
falls on both sides alike.  run.py already runs every round in a fresh
process with one BLAS thread.

The JSON written to FILE holds every pair's end-to-end metrics and failed
checks, and per metric: the median and quartiles of each side, the
median ratio B/A, how many pairs each side won (lower is better for every
end-to-end metric), and two verdicts.  A metric is "unresolved" when A's
quartile spread, relative to its median, exceeds the metric's bound in
TREE_A's BENCHMARK.json: a change that small or smaller cannot be told
from noise.  "worse_beyond_bound" is B's median above A's by more than the
bound; "claim_met" is B lower in at least 90% of the pairs with the median
difference above A's quartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree, workload, seed):
    """One run.py invocation from tree: (result JSON, env, per-part medians)."""
    tree = os.path.abspath(tree)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "25", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{tree}: run.py exited with {proc.returncode} on seed {seed}")
    lines = proc.stdout.strip().splitlines()
    env = parts = None
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("details "):
            parts = json.loads(line[8:]).get("parts_s")
    return json.loads(lines[-1]), env, parts


def quartiles(values):
    """(q1, median, q3), inclusive; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(a, b, bound):
    qa, qb = quartiles(a), quartiles(b)
    spread = qa[2] - qa[0]
    b_lower = sum(y < x for x, y in zip(a, b))
    return {
        "A": {"median": qa[1], "q1": qa[0], "q3": qa[2]},
        "B": {"median": qb[1], "q1": qb[0], "q3": qb[2]},
        "ratio_B_over_A": qb[1] / qa[1],
        "B_lower_pairs": b_lower,
        "A_lower_pairs": sum(x < y for x, y in zip(a, b)),
        "bound": bound,
        "A_relative_spread": spread / qa[1],
        "unresolved": spread / qa[1] > bound,
        "worse_beyond_bound": qb[1] > qa[1] * (1 + bound),
        "claim_met": b_lower >= 0.9 * len(a) and qa[1] - qb[1] > spread,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--workload", required=True, help="a perfbench workload; run.py checks the name")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    trees = {"A": args.tree_a, "B": args.tree_b}
    with open(os.path.join(trees["A"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    rows, env = [], None
    for i in range(1, args.pairs + 1):
        seed = args.seed_base + i - 1
        order = ("A", "B") if i % 2 else ("B", "A")
        row = {"pair": i, "seed": seed, "first": order[0]}
        for side in order:
            result, side_env, parts = run_once(trees[side], args.workload, seed)
            env = env or side_env
            row[side] = {
                "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                "parts_s": parts,
                "failed": result["failed"],
                "attempted": result["attempted"],
            }
        rows.append(row)
        line = "  ".join(f"{side} {k}={row[side]['metrics'][k]:.4g}"
                         for k in bounds for side in "AB")
        print(f"pair {i} seed {seed}: {line}", flush=True)
    summary = {
        name: summarize([r["A"]["metrics"][name] for r in rows],
                        [r["B"]["metrics"][name] for r in rows], bound)
        for name, bound in bounds.items()
    }
    out = {
        "workload": args.workload,
        "trees": trees,
        "pairs": args.pairs,
        "seeds": [r["seed"] for r in rows],
        "environment": env,
        "failed_checks": {side: sum(r[side]["failed"] for r in rows) for side in "AB"},
        "attempted_checks": {side: sum(r[side]["attempted"] for r in rows) for side in "AB"},
        "summary": summary,
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, s in summary.items():
        flags = [k for k in ("unresolved", "worse_beyond_bound", "claim_met") if s[k]]
        print(f"{name:16s} A {s['A']['median']:.4g}  B {s['B']['median']:.4g}  "
              f"B/A {s['ratio_B_over_A']:.3f}  B lower {s['B_lower_pairs']}/{args.pairs}  "
              f"{' '.join(flags)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
