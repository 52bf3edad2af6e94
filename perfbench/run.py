"""Benchmark trotterkit end to end, or layer by layer with --trace 1.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from anywhere inside a checkout: trotterkit is imported from the
checkout's ``src/``.  Workloads (see ``workloads.py``):

  sweep       the ``trotterkit bench`` call path on the default plan, plus
              taylor:30 and chebyshev:40, L = 8 (42 cells)
  state-L10   the Neel state of an L = 10 chain evolved to T = 10 at
              epsilon = 1e-8 by blanes-moan4, factorized Taylor and
              factorized Chebyshev
  cold-start  cold zero solves, then error-coefficient scoring

The load is a closed loop: one caller, each call waiting for the previous
one.  Every round runs in a fresh process (``worker.py``) with one BLAS
thread and its own empty zeros cache; the library's default cache
directory is pointed at an empty directory of the run, and any file that
appears there fails the run's hermetic check.  Set-up runs in at least
three processes and is reported as their median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Everything
before it is a readable report, including the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep", "state-L10", "cold-start")
# seconds one round process takes at full size; --seconds buys
# round(seconds / nominal) rounds, at least one
NOMINAL_ROUND_S = {"sweep": 13.0, "state-L10": 24.0, "cold-start": 20.0}
MIN_SETUPS = 3
DEADLINE_S = 170.0

# per-layer metrics whose time is measured on every workload
TIMED_LAYERS = (
    "polyexp.factorize",
    "polyexp.eval_factorized",
    "schemes.load_catalog",
    "spinmodel.build_xxz",
    "spinmodel.frobenius_error",
    "linalg.eigh",
)
COUNTED_LAYERS = (
    "polyexp.factorize",
    "polyexp.eval_factorized",
    "schemes.efficiency",
    "schemes.estimate_error_coefficients",
    "multistage.apply_multistage",
    "spinmodel.exact_evolution",
    "bench.run_benchmark",
    "linalg.eigh",
    "linalg.matrix_power",
)


class RunFailed(Exception):
    pass


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Run:
    """One invocation for one workload: its processes, checks and metrics."""

    def __init__(self, workload, seed, seconds, size, work, deadline):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.work = work
        self.deadline = deadline
        self.sentinel = os.path.join(work, "default-zeros")
        self.checks = []
        self.env = None

    def _child(self, index, mode, spans=None):
        cache = os.path.join(self.work, f"zeros-{index}")
        os.makedirs(cache)
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--src", SRC, "--workload", self.workload, "--size", self.size,
            "--seed", str(self.seed), "--mode", mode, "--cache-dir", cache,
        ]
        if spans:
            cmd += ["--spans", spans]
        env = dict(os.environ)
        env["TROTTERKIT_ZEROS_DIR"] = self.sentinel
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed("out of time before starting a process")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{mode} process {index} exceeded the time limit") from None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RunFailed(f"{mode} process {index} exited with {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        leaked = sorted(os.listdir(self.sentinel)) if os.path.isdir(self.sentinel) else []
        self.checks.append([f"hermetic.{index}", not leaked, " ".join(leaked)])
        self.checks.extend(out.get("checks", []))
        self.env = out.get("env", self.env)
        out["cache_files"] = len([f for f in os.listdir(cache) if f.endswith(".json")])
        return out

    def end_to_end(self):
        rounds = max(1, int(self.seconds / NOMINAL_ROUND_S[self.workload] + 0.5))
        modes = ["setup"] * max(0, MIN_SETUPS - rounds) + ["run"] * rounds
        outs = [self._child(i, mode) for i, mode in enumerate(modes)]
        runs = [o for o in outs if "parts" in o]
        samples = {}
        for o in runs:
            for part, secs in o["parts"].items():
                samples.setdefault(part, []).extend(secs)
        parts = {part: statistics.median(secs) for part, secs in samples.items()}
        wall = sum(parts.values())
        metrics = {
            "setup_s": _metric(statistics.median([o["setup_s"] for o in outs]), "s"),
            "wall_s": _metric(wall, "s"),
            "part_geomean_s": _metric(
                math.exp(sum(math.log(v) for v in parts.values()) / len(parts)), "s"
            ),
            "peak_rss_mb": _metric(max(o["rss_mb"] for o in runs), "MB"),
        }
        named = {}
        if self.workload == "sweep":
            cells = runs[0]["info"]["cells"]
            named["cells_per_s"] = _metric(cells / parts["run_benchmark"], "1/s")
        elif self.workload == "state-L10":
            for method in ("trotter", "taylor", "chebyshev"):
                named[f"solve_s.{method}"] = _metric(parts[method], "s")
        else:
            named["zeros_cold_s"] = _metric(
                sum(v for k, v in parts.items() if k.startswith("zeros.")), "s")
            named["coeffs_s"] = _metric(
                sum(v for k, v in parts.items() if k.startswith("coeffs.")), "s")
        details = {
            "processes": len(outs),
            "rounds": rounds,
            "parts_s": parts,
            "samples": samples,
            "setup_samples": [o["setup_s"] for o in outs],
            "info": runs[0]["info"],
        }
        return metrics, named, details

    def per_layer(self):
        plain = self._child(0, "run")
        spans = os.path.join(HERE, "out", f"spans-{self.workload}-seed{self.seed}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        traced = self._child(1, "trace", spans)
        trace = traced["trace"]
        calls = trace["calls"]
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
        metrics = {}
        for name in TIMED_LAYERS:
            metrics[f"{name}.s"] = _metric(calls.get(name, empty)["s"], "s")
        for name in COUNTED_LAYERS:
            metrics[f"{name}.calls"] = _metric(calls.get(name, empty)["calls"], "count")
        for name, value in trace["counters"].items():
            metrics[name] = _metric(value, "count")
        misses = traced["cache_files"]
        metrics["polyexp.zero_cache.misses"] = _metric(misses, "count")
        metrics["polyexp.zero_cache.hits"] = _metric(
            calls.get("polyexp.factorize", empty)["calls"] - misses, "count")
        metrics["bench.run_benchmark.eigh_calls"] = _metric(
            trace["eigh_in_run_benchmark"], "count")
        metrics["trace.overhead_s"] = _metric(traced["round_s"] - plain["round_s"], "s")
        details = {"spans_file": os.path.relpath(spans, ROOT), "layers": calls}
        return metrics, {}, details


def _result(checks, metrics):
    attempted = len(checks)
    failed = sum(1 for _, ok, _ in checks if not ok)
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def report(workload, args, run, metrics, named, details):
    failed = [c for c in run.checks if not c[1]]
    print(f"== {workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  size {args.size}")
    print("env " + json.dumps(run.env, sort_keys=True))
    for name, m in {**metrics, **named}.items():
        print(f"  {name:40s} {m['value']!r:>24} {m['unit']}")
    print(f"  {'failed_frac':40s} {len(failed) / len(run.checks)!r:>24} ratio "
          f"({len(failed)} failed of {len(run.checks)} checks attempted)")
    for name, ok, detail in failed:
        print(f"  FAILED {name}: {detail}")
    if "layers" in details:
        print(f"  {'layer function':40s} {'calls':>8} {'s':>12} {'self_s':>12}")
        for name, row in sorted(details.pop("layers").items()):
            print(f"  {name:40s} {row['calls']:>8} {row['s']:>12.6f} {row['self_s']:>12.6f}")
    print("details " + json.dumps(details, sort_keys=True))


def run_workload(workload, args):
    work = os.path.join(HERE, ".work", f"{workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        run = Run(workload, args.seed, args.seconds, args.size, work,
                  time.monotonic() + DEADLINE_S)
        measure = run.per_layer if args.trace else run.end_to_end
        metrics, named, details = measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    report(workload, args, run, metrics, named, details)
    return run.checks, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small runs every workload at reduced size (self-test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trotterkit", "__init__.py")):
        print(f"no trotterkit sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_checks, all_metrics = [], {}
    for name in names:
        try:
            checks, metrics = run_workload(name, args)
        except RunFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        all_checks += checks
        prefix = f"{name}:" if len(names) > 1 else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(_result(all_checks, all_metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
