"""One benchmark process: set-up, then (in ``run`` and ``trace`` mode) one
timed round and its checks.  Prints one JSON object as its last line.

Started by ``run.py``; not meant to be called by hand.  BLAS is pinned to
one thread before NumPy loads, so reductions run in a fixed order and the
checked errors repeat exactly.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import sys
import time

START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def blas_threads(np):
    """Thread count reported by the OpenBLAS that NumPy bundles, if any."""
    import ctypes

    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import mpmath
    import mpmath.libmp
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    sys.path[:0] = [args.src, os.path.dirname(os.path.abspath(__file__))]
    import trotterkit
    import workloads

    if not os.path.abspath(trotterkit.__file__).startswith(os.path.abspath(args.src)):
        raise SystemExit(f"trotterkit loaded from {trotterkit.__file__}, not {args.src}")
    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}")
        tracer.install()

    workload = workloads.WORKLOADS[args.workload](args.size, args.cache_dir, args.seed)
    workload.setup()
    out = {"setup_s": time.perf_counter() - START}
    if args.mode != "setup":
        workload.warm()
        begin = time.perf_counter()
        parts, info = workload.round()
        out["round_s"] = time.perf_counter() - begin
        out["parts"] = parts
        out["info"] = info
        checks = workloads.Checks()
        workload.check(checks)
        out["checks"] = checks.rows
        if tracer is not None:
            tracer.uninstall()
            calls, in_bench = tracer.summary()
            out["trace"] = {
                "calls": calls,
                "eigh_in_run_benchmark": in_bench,
                "counters": tracer.counters,
            }
            if args.spans:
                tracer.write(args.spans)
        out["env"] = environment()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
