"""Self-test of the benchmark: every workload, untraced and traced, at
reduced size.  Checks that every run is correct and that every metric of
BENCHMARK.json, and every named figure of the readable report, is present
with its unit.

    python3 perfbench/selftest.py

Exits 0 when all is well; takes about half a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "state-L10", "cold-start")
REPORTED = {
    "sweep": {"cells_per_s": "1/s"},
    "state-L10": {"solve_s.trotter": "s", "solve_s.taylor": "s", "solve_s.chebyshev": "s"},
    "cold-start": {"zeros_cold_s": "s", "coeffs_s": "s"},
}


def run(trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
           "--size", "small", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run.py --trace {trace} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        report, result = run(trace)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"trace {trace}: {result['failed']} of "
                            f"{result['attempted']} checks failed")
        for workload in WORKLOADS:
            for metric in spec[key]:
                got = result["metrics"].get(f"{workload}:{metric['name']}")
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"trace {trace}: {workload} {metric['name']}: {got}")
        text = "\n".join(report)
        for workload, named in REPORTED.items():
            block = text.split(f"== {workload} ")[1].split("\n== ")[0]
            rows = {line.split()[0]: line.split() for line in block.splitlines()[1:]}
            wanted = {"failed_frac": "ratio"}
            wanted.update({"trace.overhead_s": "s"} if trace else named)
            for name, unit in wanted.items():
                row = rows.get(name)
                if row is None or len(row) < 3 or row[2] != unit:
                    problems.append(f"trace {trace}: {workload} report lacks {name} [{unit}]")
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
