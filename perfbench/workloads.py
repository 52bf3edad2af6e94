"""The benchmark's workloads, run through trotterkit's public API.

Each workload has a set-up (import, catalog load, model build, oracle and
zeros warm-up), one timed round made of named parts, and checks of every
output against a reference.  ``run.py`` runs each round in a fresh process,
so no in-process memo carries over from one round to the next.

Only names exported by ``trotterkit/__init__.py`` are called, always by
attribute lookup on the package at call time, so that the traced run sees
every call.  ``seed``, ``draws``, ``operators`` and ``expm_hook`` are left at
their defaults.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

import trotterkit as tk

HERE = os.path.dirname(os.path.abspath(__file__))
EPS = float(np.finfo(float).eps)
# mirrors trotterkit.tolerances.CATALOG_ORDER_SLOPE_TOL at the seed; kept
# here so that the check cannot loosen with the library
ORDER_SLOPE_TOL = 0.5

SIZES = {
    "sweep": {
        "full": {
            "L": 8,
            "t_total": 10.0,
            "methods": ("strang", "forest-ruth", "suzuki4", "blanes-moan4",
                        "taylor:30", "chebyshev:40"),
            "h_grid": tuple(1.0 / 2**j for j in range(7)),
        },
        "small": {
            "L": 6,
            "t_total": 2.0,
            "methods": ("strang", "suzuki4", "taylor:20", "chebyshev:20"),
            "h_grid": tuple(1.0 / 2**j for j in range(2, 6)),
        },
    },
    "state-L10": {
        # per-step target of each polynomial solve: epsilon / (div * steps)
        "full": {
            "L": 10, "t_total": 10.0, "epsilon": 1e-8, "scheme": "blanes-moan4",
            "trotter_steps": 1600, "taylor_steps": 20, "chebyshev_steps": 10,
            "div": 10, "repeats": 3,
        },
        "small": {
            "L": 6, "t_total": 2.0, "epsilon": 1e-8, "scheme": "blanes-moan4",
            "trotter_steps": 200, "taylor_steps": 4, "chebyshev_steps": 2,
            "div": 10, "repeats": 1,
        },
    },
    "cold-start": {
        "full": {
            "taylor": (52, 152), "chebyshev": ((100, 80.0),),
            "schemes": ("strang", "suzuki4"), "check_L": 6, "points": 8,
        },
        "small": {
            "taylor": (20, 30), "chebyshev": ((30, 20.0),),
            "schemes": ("strang",), "check_L": 4, "points": 4,
        },
    },
}


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def neel_index(L):
    """Basis index of |0101...>, the Neel state of an L-site chain."""
    return int("01" * (L // 2) + "0" * (L % 2), 2)


class Checks:
    """Named pass/fail results; every failure is counted."""

    def __init__(self):
        self.rows = []

    def add(self, name, ok, detail=""):
        self.rows.append([name, bool(ok), detail])


def timed(fn, *args, **kwargs):
    begin = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - begin, result


# ---------------------------------------------------------------------------
# sweep: the `trotterkit bench` call path on the default plan


class Sweep:
    name = "sweep"

    def __init__(self, size, cache_dir, seed):
        self.p = SIZES[self.name][size]
        self.size = size
        self.cache_dir = cache_dir

    def setup(self):
        p = self.p
        tk.load_catalog()
        plan = tk.BenchPlan(
            model=tk.XxzConfig(L=p["L"]),
            t_total=p["t_total"],
            methods=p["methods"],
            h_grid=p["h_grid"],
        )
        # the zeros warm-up solves what run_benchmark will factorize,
        # with Gamma from the full spectrum as run_benchmark computes it
        split = tk.build_xxz(plan.model)
        evals, _ = np.linalg.eigh(split.total)
        gamma = tk.suggest_gamma(split.total, eigvals=evals)
        for descriptor in plan.methods:
            family, _, k = descriptor.partition(":")
            if family == "taylor":
                tk.factorize(tk.SeriesSpec("taylor", int(k)), cache_dir=self.cache_dir)
            elif family == "chebyshev":
                for h in plan.h_grid:
                    spec = tk.SeriesSpec(
                        "chebyshev", int(k), gamma_scale=gamma, axis="imaginary", h=h
                    )
                    tk.factorize(spec, cache_dir=self.cache_dir)
        self.plan = plan

    def warm(self):
        pass

    def round(self):
        seconds, records = timed(tk.run_benchmark, self.plan, cache_dir=self.cache_dir)
        self.records = records
        return {"run_benchmark": [seconds]}, {"cells": len(records)}

    def check(self, checks):
        ref = load_reference()["sweep"][self.size]
        dim = 2 ** self.p["L"]
        got = {(r.method, r.h): r for r in self.records}
        checks.add("sweep.cells", len(got) == len(ref) == len(self.records),
                   f"{len(self.records)} cells, reference {len(ref)}")
        for row in ref:
            r = got.get((row["method"], row["h"]))
            if r is None:
                checks.add(f"sweep.error.{row['method']}@{row['h']}", False, "missing")
                continue
            tol = 1e-8 * abs(row["error"]) + r.steps * dim * EPS
            checks.add(
                f"sweep.error.{row['method']}@{row['h']}",
                abs(r.error - row["error"]) <= tol,
                f"{r.error!r} vs {row['error']!r}",
            )
        smallest = sorted(self.plan.h_grid)[:3]
        for method in self.plan.methods:
            if ":" in method:
                continue
            errors = [got[(method, h)].error for h in smallest]
            slope = float(np.polyfit(np.log(smallest), np.log(errors), 1)[0])
            order = tk.get_scheme(method).order_n
            checks.add(f"sweep.slope.{method}", abs(slope - order) <= ORDER_SLOPE_TOL,
                       f"slope {slope:.3f}, order {order}")


# ---------------------------------------------------------------------------
# state-L10: evolve the Neel state to T at accuracy epsilon


class State:
    name = "state-L10"

    def __init__(self, size, cache_dir, seed):
        self.p = SIZES[self.name][size]
        self.cache_dir = cache_dir

    def setup(self):
        p = self.p
        tk.load_catalog()
        cfg = tk.XxzConfig(L=p["L"])
        split = tk.build_xxz(cfg)
        self.psi0 = np.zeros(cfg.dim, dtype=complex)
        self.psi0[neel_index(p["L"])] = 1.0
        self.reference = tk.exact_evolution(split.total, p["t_total"]) @ self.psi0
        gamma = tk.suggest_gamma(split.total)
        self.gen = -1j * split.total
        self.split = split
        self.ms = tk.to_multistage(tk.get_scheme(p["scheme"]))
        facts = {}
        n = p["taylor_steps"]
        h = p["t_total"] / n
        k = tk.taylor_cutoff(gamma, h, p["epsilon"] / (p["div"] * n))
        facts["taylor"] = (n, tk.factorize(tk.SeriesSpec("taylor", k, h=h),
                                           cache_dir=self.cache_dir))
        n = p["chebyshev_steps"]
        h = p["t_total"] / n
        k = tk.chebyshev_admissible_k(gamma * h, "imaginary", p["epsilon"] / (p["div"] * n))
        spec = tk.SeriesSpec("chebyshev", k, gamma_scale=gamma, axis="imaginary", h=h)
        facts["chebyshev"] = (n, tk.factorize(spec, cache_dir=self.cache_dir))
        self.facts = facts
        self.outputs = []

    def _trotter(self):
        n = self.p["trotter_steps"]
        step = tk.apply_multistage(self.split, self.ms, self.p["t_total"] / n)
        psi = self.psi0
        for _ in range(n):
            psi = step @ psi
        return psi

    def _poly(self, family):
        steps, fact = self.facts[family]
        psi = self.psi0
        for _ in range(steps):
            psi = tk.eval_factorized(self.gen, psi, fact)
        return psi

    def warm(self):
        # the first polynomial solve in a process runs slower than later ones
        for family in self.facts:
            self._poly(family)

    def round(self):
        parts = {}
        seconds, psi = timed(self._trotter)
        parts["trotter"] = [seconds]
        self.outputs.append(("trotter", psi))
        for family in self.facts:
            parts[family] = []
            for _ in range(self.p["repeats"]):
                seconds, psi = timed(self._poly, family)
                parts[family].append(seconds)
                self.outputs.append((family, psi))
        info = {f"k.{family}": fact.k for family, (_, fact) in self.facts.items()}
        return parts, info

    def check(self, checks):
        eps = self.p["epsilon"]
        for method, psi in self.outputs:
            err = tk.frobenius_error(psi, self.reference).value
            checks.add(f"state.error.{method}", err <= eps, f"{err:.3e} vs {eps:g}")
            drift = abs(float(np.linalg.norm(psi)) - 1.0)
            checks.add(f"state.norm.{method}", drift <= eps, f"{drift:.3e} vs {eps:g}")


# ---------------------------------------------------------------------------
# cold-start: cold zero solves, then error-coefficient scoring


class ColdStart:
    name = "cold-start"

    def __init__(self, size, cache_dir, seed):
        self.p = SIZES[self.name][size]
        self.cache_dir = cache_dir
        self.rng = np.random.default_rng(seed)

    def setup(self):
        tk.load_catalog()
        self.schemes = [tk.get_scheme(name) for name in self.p["schemes"]]

    def warm(self):
        pass

    def round(self):
        parts = {}
        self.facts = []
        specs = [tk.SeriesSpec("taylor", k) for k in self.p["taylor"]]
        specs += [
            tk.SeriesSpec("chebyshev", k, gamma_scale=gh, axis="imaginary")
            for k, gh in self.p["chebyshev"]
        ]
        for spec in specs:
            seconds, fact = timed(tk.factorize, spec, cache_dir=self.cache_dir)
            parts[f"zeros.{spec.family}{spec.k}"] = [seconds]
            self.facts.append(fact)
        self.scores = {}
        for scheme in self.schemes:
            begin = time.perf_counter()
            coeffs = tk.estimate_error_coefficients(
                scheme, max_order=5 if scheme.order_n == 4 else 3
            )
            score = tk.efficiency(scheme, coeffs=coeffs)
            parts[f"coeffs.{scheme.name}"] = [time.perf_counter() - begin]
            self.scores[scheme.name] = (coeffs, score)
        return parts, {}

    def _points(self, fact):
        """Seeded sample points where summation is also accurate: |z| <= 4
        for Taylor, the imaginary segment [-i Gh, i Gh] for Chebyshev."""
        n = self.p["points"]
        if fact.spec.family == "taylor":
            r = 4.0 * np.sqrt(self.rng.random(n))
            return r * np.exp(2j * np.pi * self.rng.random(n))
        return 1j * fact.spec.gamma_h * (2.0 * self.rng.random(n) - 1.0)

    def check(self, checks):
        ref = load_reference()["cold-start"]
        for fact in self.facts:
            label = f"{fact.spec.family}{fact.spec.k}"
            worst = 0.0
            for z in self._points(fact):
                prod = complex(tk.eval_factorized(complex(z), 1.0 + 0j, fact))
                summ = complex(tk.eval_summed(complex(z), 1.0 + 0j, fact.spec))
                worst = max(worst, abs(prod - summ) / abs(summ))
            checks.add(f"cold.factorized_vs_summed.{label}", worst <= 1e-11,
                       f"worst relative {worst:.3e}")
        # the freshly solved zeros reproduce exp(-iHh) on a small chain
        taylor = next(f for f in self.facts if f.spec.family == "taylor")
        split = tk.build_xxz(tk.XxzConfig(L=self.p["check_L"]))
        h = 0.5 * tk.r_valid(taylor) / tk.suggest_gamma(split.total)
        fact = tk.factorize(tk.SeriesSpec("taylor", taylor.spec.k, h=h),
                            cache_dir=self.cache_dir)
        eye = np.eye(split.dim, dtype=complex)
        err = tk.frobenius_error(
            tk.eval_factorized(-1j * split.total, eye, fact),
            tk.exact_evolution(split.total, h),
        ).value
        checks.add(f"cold.operator.taylor{taylor.spec.k}", err <= 1e-10, f"{err:.3e}")
        for name, (coeffs, score) in self.scores.items():
            if name == "strang":
                checks.add("cold.strang.alpha", abs(coeffs.alpha + 1 / 24) <= 1e-12,
                           repr(coeffs.alpha))
                checks.add("cold.strang.beta", abs(coeffs.beta + 1 / 12) <= 1e-12,
                           repr(coeffs.beta))
            if name in ref["gamma"]:
                dev = max(abs(g - complex(*r)) for g, r in
                          zip(coeffs.gamma, ref["gamma"][name]))
                ok = len(coeffs.gamma) == len(ref["gamma"][name]) and dev <= 1e-12
                checks.add(f"cold.{name}.gamma", ok, f"max deviation {dev:.3e}")
            want = ref["eff"][name]
            checks.add(f"cold.{name}.eff",
                       math.isfinite(score.eff) and abs(score.eff - want) <= 1e-9 * want,
                       f"{score.eff!r} vs {want!r}")


WORKLOADS = {w.name: w for w in (Sweep, State, ColdStart)}
