#!/usr/bin/env python3
"""Differential grid for the zero solve: solve a named grid of specs cold
from one source tree, read each back from the zero file it wrote, and
compare two such runs.

    scripts/zero_grid.py TREE GRID [--out FILE]
    scripts/zero_grid.py --compare A.jsonl B.jsonl

The first form imports trotterkit from TREE/src and, for each spec of GRID
(`base`, `below`, `above` or `quick`), clears the zero memo and the
Chebyshev plane cache and factorizes the spec into an empty zero directory
(the cold solve), then clears both again and factorizes it from the same
directory (the read).  It writes one JSON line per spec (to FILE, or
stdout), with, for the cold solve and for the read:

  - `digest`: SHA-256 of the zeros, `overall_scale` and the plan (each
    group's kind and coeffs), every number as `float.hex`;
  - `class`: the class of the error raised, or null;
  - `setups`: each set-up's [digits, started from given zeros];
  - `passes`: each certified pass's failed check (null for a pass that
    certified);
  - `refined`: the number of refinements; `evals`: kernel evaluations;
  - `s`: the wall time of the `factorize` call.

The counters wrap the private names `polyexp._SETUPS` (and the kernel each
set-up returns), `polyexp._newton_certified` and `polyexp._refined_guesses`
from outside; a change that renames them updates this script with it.

The second form prints every spec whose digest or class differs between A
and B, or between a spec's cold solve and its read; every spec whose
set-ups moved; every spec that refined after a pass whose roots all
converged (one that failed on `residual above contract`); and the time and
evaluation totals.  It exits 1 if a digest or a class differs, and 0
otherwise: moved set-ups and times are reported, not gated.

Grids (Chebyshev on both axes unless named):
  base   Taylor k = 1..60, 80, 100, 128, 152, 200, 304, 400; Chebyshev k in
         {1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 52, 64, 80, 100, 128, 152}
         x Gamma*h in {0.21304262029217305, 0.5, 1, 2, 5, 10, 20, 40, 80,
         100, 150, 172} (499 specs)
  below  imaginary axis, k = 8, 16, ..., 160 x Gamma*h = 25, 30, ..., 200
         with k < Gamma*h (468 specs)
  above  imaginary axis, far above the admissible k: k = 172..204 at
         Gamma*h = 7.5, 180..204 at 5, 188..204 at 10, and (304, 100)
         (13 specs)
  quick  39 specs from the three, every outcome among them: certified at
         the base digits, refined, raised, both, and each error class
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

os.environ.setdefault("OMP_NUM_THREADS", "1")

GH_BASE = (0.21304262029217305, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 100.0, 150.0, 172.0)
K_BASE = (1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 52, 64, 80, 100, 128, 152)


def grid(name):
    """The specs of a named grid, as (family, k, Gamma*h, axis) tuples."""
    if name == "base":
        specs = [("taylor", k, None, None) for k in (*range(1, 61), 80, 100, 128, 152, 200,
                                                      304, 400)]
        return specs + [("chebyshev", k, gh, axis) for k in K_BASE for gh in GH_BASE
                        for axis in ("real", "imaginary")]
    if name == "below":
        return [("chebyshev", k, float(gh), "imaginary") for k in range(8, 161, 8)
                for gh in range(25, 201, 5) if k < gh]
    if name == "above":
        ks = {7.5: (172, 180, 188, 196, 204), 5.0: (180, 188, 196, 204), 10.0: (188, 196, 204)}
        return [("chebyshev", k, gh, "imaginary") for gh, row in ks.items() for k in row] + [
            ("chebyshev", 304, 100.0, "imaginary")]
    if name == "quick":
        taylor = [("taylor", k, None, None) for k in (1, 2, 3, 5, 20, 21, 52, 152, 400)]
        cheb = [("chebyshev", k, gh, axis) for k, gh, axis in [
            # certified at the base digits
            (6, 2.0, "real"), (16, 2.5, "real"), (20, 10.0, "imaginary"),
            (40, 20.0, "real"), (40, 20.0, "imaginary"), (40, 0.21304262029217305, "imaginary"),
            (100, 80.0, "imaginary"), (152, 100.0, "imaginary"), (52, 100.0, "imaginary"),
            # refined: the guessed pass missed Newton's stop rule or collided
            (60, 20.0, "real"), (100, 5.0, "real"), (100, 80.0, "real"), (152, 172.0, "real"),
            (64, 1.0, "imaginary"), (80, 10.0, "imaginary"),
            # raised: the guessed pass missed the contract
            (24, 100.0, "imaginary"), (48, 70.0, "imaginary"), (80, 150.0, "imaginary"),
            (80, 172.0, "imaginary"), (72, 80.0, "imaginary"), (128, 172.0, "imaginary"),
            # refined and raised
            (172, 7.5, "imaginary"),
            # ConvergenceError
            (152, 1.0, "imaginary"), (152, 0.5, "real"), (128, 0.21304262029217305, "real"),
            (152, 0.21304262029217305, "imaginary"),
            # StructuralError (a zero on the segment)
            (20, 100.0, "real"), (24, 150.0, "real"), (24, 172.0, "real"), (40, 172.0, "real"),
        ]]
        return taylor + cheb
    raise SystemExit(f"unknown grid {name!r}: base, below, above or quick")


def label(spec):
    family, k, gh, axis = spec
    return f"taylor:{k}" if family == "taylor" else f"chebyshev:{k}:{gh!r}:{axis}"


class Spy:
    """Counts set-ups, passes, refinements and kernel evaluations of the
    zero solves in polyexp, from outside."""

    def __init__(self, polyexp):
        self.record = None
        setups = dict(polyexp._SETUPS)
        certified, refine = polyexp._newton_certified, polyexp._refined_guesses

        def wrap_setup(setup):
            def recorded(spec, dps, zeros=None):
                self.record["setups"].append([dps, zeros is not None])
                guesses, scale, bits, kernel, slack = setup(spec, dps, zeros)

                def counted(w):
                    self.record["evals"] += 1
                    return kernel(w)

                return guesses, scale, bits, counted, slack
            return recorded

        def recorded_pass(*args):
            got = certified(*args)
            self.record["passes"].append(got[2])
            return got

        def recorded_refine(*args):
            self.record["refined"] += 1
            return refine(*args)

        for family, setup in setups.items():
            polyexp._SETUPS[family] = wrap_setup(setup)
        polyexp._newton_certified = recorded_pass
        polyexp._refined_guesses = recorded_refine

    def start(self):
        self.record = {"class": None, "digest": None, "setups": [], "passes": [],
                       "refined": 0, "evals": 0, "s": None}
        return self.record


def digest(fact):
    """SHA-256 of the zeros, overall_scale and plan, as float.hex."""
    lines = [" ".join(f"{z.real.hex()},{z.imag.hex()}" for z in fact.zeros),
             fact.overall_scale.hex()]
    lines += [f"{g.kind} " + " ".join(c.hex() for c in g.coeffs) for g in fact.groups]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run(tree, name, out):
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    import trotterkit as tk
    from trotterkit import polyexp

    spy = Spy(polyexp)

    def factorize(spec, cache_dir):
        polyexp._memo.clear()
        polyexp._chebyshev_plane.cache_clear()
        record = spy.start()
        begin = time.perf_counter()
        try:
            record["digest"] = digest(tk.factorize(spec, cache_dir=cache_dir))
        except Exception as exc:  # the error class is a result
            record["class"] = type(exc).__name__
        record["s"] = time.perf_counter() - begin
        return record

    for family, k, gh, axis in grid(name):
        spec = tk.SeriesSpec(family, k, gamma_scale=gh, axis=axis)
        with tempfile.TemporaryDirectory() as zeros_dir:
            cold = factorize(spec, zeros_dir)
            read = factorize(spec, zeros_dir) if os.listdir(zeros_dir) else None
        line = {"spec": label((family, k, gh, axis)), **cold, "read": read}
        out.write(json.dumps(line) + "\n")
        out.flush()


def load(path):
    with open(path, encoding="utf-8") as fh:
        return {line["spec"]: line for line in map(json.loads, fh)}


def outcome(record):
    """(error class, digest) of a cold or read record, None for no read."""
    return (record["class"], record["digest"]) if record else None


def compare(path_a, path_b):
    a, b = load(path_a), load(path_b)
    differ = 0
    for spec in sorted(a.keys() ^ b.keys()):
        print(f"only in {'A' if spec in a else 'B'}: {spec}")
        differ += 1
    both = [spec for spec in a if spec in b]
    for spec in both:
        x, y = a[spec], b[spec]
        if outcome(x) != outcome(y) or outcome(x["read"]) != outcome(y["read"]):
            print(f"differs: {spec}: A {outcome(x)} read {outcome(x['read'])}; "
                  f"B {outcome(y)} read {outcome(y['read'])}")
            differ += 1
        for side, r in (("A", x), ("B", y)):
            if r["read"] and outcome(r["read"]) != outcome(r):
                print(f"read differs from cold in {side}: {spec}")
                differ += 1
    for kind in ("cold", "read"):
        # the (A, B) records of this kind for each spec that has both
        pairs = {s: (a[s], b[s]) if kind == "cold" else (a[s]["read"], b[s]["read"])
                 for s in both}
        pairs = {s: (p, q) for s, (p, q) in pairs.items() if p and q}
        moved = [s for s, (p, q) in pairs.items() if p["setups"] != q["setups"]]
        print(f"{kind}: {len(moved)} specs moved their set-ups (digits, from given zeros)")
        for spec in moved:
            print(f"  {spec}: {pairs[spec][0]['setups']} -> {pairs[spec][1]['setups']}")
        for field in ("s", "evals", "refined"):
            ta = sum(p[field] for p, _ in pairs.values())
            tb = sum(q[field] for _, q in pairs.values())
            ratio = f" ({tb / ta:.3f}x)" if ta else ""
            print(f"{kind} {field}: A {ta:.6g}, B {tb:.6g}{ratio} over {len(pairs)} specs")
    for side, runs in (("A", a), ("B", b)):
        bad = [s for s, r in runs.items() for rec in (r, r["read"])
               if rec and rec["refined"] and rec["passes"][:1] == ["residual above contract"]]
        print(f"{side}: {len(bad)} specs refined after a pass whose roots all converged"
              + (f": {', '.join(bad)}" if bad else ""))
        fails = {}
        for r in runs.values():
            if r["class"]:
                fails[r["class"]] = fails.get(r["class"], 0) + 1
        print(f"{side}: {len(runs)} specs, {sum(fails.values())} failed {fails}")
    print(f"{differ} digest or class differences")
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("tree", nargs="?")
    ap.add_argument("grid", nargs="?")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (args.tree and args.grid):
        ap.error("give TREE GRID, or --compare A B")
    grid(args.grid)  # refuse an unknown name before importing anything
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            run(args.tree, args.grid, out)
    else:
        run(args.tree, args.grid, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
