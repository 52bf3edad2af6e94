#!/usr/bin/env python3
"""Digest the library surfaces the command line cannot reach, and compare
two such runs.

    scripts/lib_digest.py TREE [--out FILE]
    scripts/lib_digest.py --compare A.json B.json

The first form imports trotterkit from TREE/src, with one BLAS thread, and
writes one JSON object (to FILE, or stdout) that maps each surface below
to the SHA-256 of the dtype, shape and bytes of every array it returns, in
order, so signed zeros and the last bit count:

  state-path   `eval_factorized` and `eval_summed` of -i H on a state, for
               XXZ chains at L in {4, 6, 8, 10}, open and periodic, with
               Delta in {0, 0.3, 1}; the Neel state, the domain wall, basis
               state 5 and a seeded random state; Taylor k = 20 and k = 5
               at h = 0.1, and Chebyshev at Gamma = 31, h = 0.1, with k =
               chebyshev_admissible_k(3.1, "imaginary", 1e-13) (576 arrays)
  state-L10    the perfbench `state-L10` loops on the Neel state, L = 10:
               Taylor over 20 steps and Chebyshev over 10, each step
               `eval_factorized`, then the same with `eval_summed` (4 arrays)
  exact        np.asarray(exact_evolution(split.total, 1.3)) and
               `xxz_spectrum`, at L = 6, 8 and 10, open and periodic,
               Delta = 0.3 (12 arrays)
  evolve       np.asarray(evolve(split, blanes-moan4, 0.05, 7)), plain and
               alternating, on the same chains (12 arrays)
  multistage   apply_multistage(split, blanes-moan4, 0.05) @ the Neel state,
               on the same chains (6 arrays)

The object also holds each surface's array count under `counts` and the
wall time of the run under `s`.  Both trees of a comparison must run on
one machine: BLAS rounding differs between machines.

The second form prints every surface whose digest or count differs
between A and B and exits 1 if there is one, else 0.  A run takes about
2 s on a 2-core machine.
"""

import argparse
import hashlib
import json
import os
import sys
import time

os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread count is set)

CHAINS = [(L, b, d) for L in (4, 6, 8, 10) for b in ("open", "periodic") for d in (0.0, 0.3, 1.0)]
MODEL_CHAINS = [(L, b) for L in (6, 8, 10) for b in ("open", "periodic")]


class Digest:
    """A SHA-256 over arrays: each one's dtype, shape and bytes."""

    def __init__(self):
        self.sha, self.count = hashlib.sha256(), 0

    def add(self, a):
        a = np.ascontiguousarray(a)
        self.sha.update(f"{a.dtype.str} {a.shape}\n".encode())
        self.sha.update(a.tobytes())
        self.count += 1


def basis_state(dim, index):
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def chain_states(L):
    """The Neel state, the domain wall, basis state 5 and a random state
    seeded by L, over the 2^L basis."""
    dim = 2**L
    rng = np.random.default_rng(L)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return [basis_state(dim, int("10" * (L // 2), 2)),
            basis_state(dim, (2**(L // 2) - 1) << (L - L // 2)),
            basis_state(dim, 5),
            psi / np.linalg.norm(psi)]


def state_path(tk, out):
    h = 0.1
    k = tk.chebyshev_admissible_k(31.0 * h, "imaginary", 1e-13)
    specs = [tk.SeriesSpec("taylor", 20, h=h), tk.SeriesSpec("taylor", 5, h=h),
             tk.SeriesSpec("chebyshev", k, gamma_scale=31.0, axis="imaginary", h=h)]
    facts = [tk.factorize(spec) for spec in specs]
    for L, boundary, delta in CHAINS:
        gen = -1j * tk.build_xxz(tk.XxzConfig(L=L, boundary=boundary, delta=delta)).total
        for psi in chain_states(L):
            for spec, fact in zip(specs, facts):
                out.add(tk.eval_factorized(gen, psi, fact))
                out.add(tk.eval_summed(gen, psi, spec))


def state_l10(tk, out):
    """perfbench's state-L10 parameters: T = 10, epsilon = 1e-8, div = 10."""
    split = tk.build_xxz(tk.XxzConfig(L=10))
    gen = -1j * split.total
    gamma = tk.suggest_gamma(split.total)
    taylor_h = 10.0 / 20
    cheb_h = 10.0 / 10
    specs = [
        (20, tk.SeriesSpec("taylor", tk.taylor_cutoff(gamma, taylor_h, 1e-8 / 200), h=taylor_h)),
        (10, tk.SeriesSpec("chebyshev",
                           tk.chebyshev_admissible_k(gamma * cheb_h, "imaginary", 1e-8 / 100),
                           gamma_scale=gamma, axis="imaginary", h=cheb_h)),
    ]
    start = chain_states(10)[0]
    for steps, spec in specs:
        fact = tk.factorize(spec)
        for evaluate, arg in ((tk.eval_factorized, fact), (tk.eval_summed, spec)):
            psi = start
            for _ in range(steps):
                psi = evaluate(gen, psi, arg)
            out.add(psi)


def exact(tk, out):
    for L, boundary in MODEL_CHAINS:
        cfg = tk.XxzConfig(L=L, boundary=boundary, delta=0.3)
        out.add(np.asarray(tk.exact_evolution(tk.build_xxz(cfg).total, 1.3)))
        out.add(tk.xxz_spectrum(cfg))


def evolve(tk, out):
    ms = tk.to_multistage(tk.get_scheme("blanes-moan4"))
    for L, boundary in MODEL_CHAINS:
        split = tk.build_xxz(tk.XxzConfig(L=L, boundary=boundary, delta=0.3))
        for alternate in (False, True):
            out.add(np.asarray(tk.evolve(split, ms, 0.05, 7, alternate_reversal=alternate)))


def multistage(tk, out):
    ms = tk.to_multistage(tk.get_scheme("blanes-moan4"))
    for L, boundary in MODEL_CHAINS:
        split = tk.build_xxz(tk.XxzConfig(L=L, boundary=boundary, delta=0.3))
        out.add(tk.apply_multistage(split, ms, 0.05) @ chain_states(L)[0])


SURFACES = {"state-path": state_path, "state-L10": state_l10, "exact": exact,
            "evolve": evolve, "multistage": multistage}


def run(tree):
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    import trotterkit as tk

    begin = time.perf_counter()
    digests, counts = {}, {}
    for name, surface in SURFACES.items():
        out = Digest()
        surface(tk, out)
        digests[name], counts[name] = out.sha.hexdigest(), out.count
    return {"digests": digests, "counts": counts, "s": round(time.perf_counter() - begin, 2)}


def compare(path_a, path_b):
    runs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    a, b = runs
    differ = 0
    for name in sorted(a["digests"].keys() | b["digests"].keys()):
        got = [(r["digests"].get(name), r["counts"].get(name)) for r in (a, b)]
        if got[0] != got[1]:
            print(f"differs: {name}: A {got[0]}; B {got[1]}")
            differ += 1
    print(f"{differ} of {len(a['digests'] | b['digests'])} surfaces differ "
          f"(A {a['s']} s, B {b['s']} s)")
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("tree", nargs="?")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.tree:
        ap.error("give TREE, or --compare A B")
    text = json.dumps(run(args.tree), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
