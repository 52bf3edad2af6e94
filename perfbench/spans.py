"""Span recorder for the traced benchmark run.

The recorder wraps public functions from the outside: it replaces a
function object wherever a module global or attribute refers to it, so the
calls that trotterkit makes internally (``trotterkit.bench.apply_multistage``,
``numpy.linalg.eigh`` looked up by ``trotterkit.multistage``) are timed as
well as the benchmark's own calls.  Nothing inside ``src/`` is edited.

Spans are kept in memory and written out when the run ends.  Each span
records its name, start, end, parent index and run id; self time is the
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, module that defines the function, function name).  The layer
# is the trotterkit module the function belongs to; ``linalg`` is NumPy's.
TRACED = (
    ("polyexp", "trotterkit.polyexp", "factorize"),
    ("polyexp", "trotterkit.polyexp", "eval_factorized"),
    ("polyexp", "trotterkit.polyexp", "eval_summed"),
    ("schemes", "trotterkit.schemes", "load_catalog"),
    ("schemes", "trotterkit.schemes", "estimate_error_coefficients"),
    ("schemes", "trotterkit.schemes", "efficiency"),
    ("multistage", "trotterkit.multistage", "apply_multistage"),
    ("multistage", "trotterkit.multistage", "to_multistage"),
    ("spinmodel", "trotterkit.spinmodel", "build_xxz"),
    ("spinmodel", "trotterkit.spinmodel", "exact_evolution"),
    ("spinmodel", "trotterkit.spinmodel", "frobenius_error"),
    ("bench", "trotterkit.bench", "run_benchmark"),
    ("linalg", "numpy.linalg", "eigh"),
    ("linalg", "numpy.linalg", "matrix_power"),
)


def _target_columns(target):
    shape = getattr(target, "shape", ())
    if len(shape) >= 2:
        return int(shape[1])
    return 1


def _count_eval_factorized(counters, args, kwargs):
    fact = args[2] if len(args) > 2 else kwargs["fact"]
    target = args[1] if len(args) > 1 else kwargs["target"]
    counters["polyexp.h_apply_cols"] += fact.spec.k * _target_columns(target)


def _count_apply_multistage(counters, args, kwargs):
    split = args[0] if args else kwargs["split"]
    ms = args[1] if len(args) > 1 else kwargs["ms"]
    # a scheme without (c, d) sweeps, or a split without parts, adds nothing
    blocks = sum(1 for x in getattr(ms, "c", ()) if x != 0)
    blocks += sum(1 for x in getattr(ms, "d", ()) if x != 0)
    counters["multistage.factor_products"] += blocks * getattr(split, "n_parts", 0)


def _count_run_benchmark(counters, result):
    counters["bench.cells"] += len(result)


# counters computed from a call's arguments, before the call
BEFORE = {
    "polyexp.eval_factorized": _count_eval_factorized,
    "multistage.apply_multistage": _count_apply_multistage,
}
# counters computed from a call's result
AFTER = {"bench.run_benchmark": _count_run_benchmark}
COUNTERS = ("polyexp.h_apply_cols", "multistage.factor_products", "bench.cells")


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent]
        self.counters = {name: 0 for name in COUNTERS}
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        spans = self.spans
        stack = self._stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counters, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(counters, result)
            return result

        return traced

    def install(self):
        """Wrap every function in TRACED wherever a loaded module refers to it."""
        wrappers = {}
        for layer, module_name, attr in TRACED:
            fn = getattr(sys.modules[module_name], attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "trotterkit"
                or module_name.startswith("trotterkit.")
                or module_name == "numpy.linalg"
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def summary(self):
        """Per-function calls, inclusive and self seconds, and eigh calls
        made inside ``bench.run_benchmark``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, parent), covered in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered
        in_bench = 0
        for index, (name, _, _, parent) in enumerate(self.spans):
            if name != "linalg.eigh":
                continue
            while parent >= 0:
                if self.spans[parent][0] == "bench.run_benchmark":
                    in_bench += 1
                    break
                parent = self.spans[parent][3]
        return out, in_bench

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )
