"""Single entry point: `trotterkit <subcommand>`.

Exit codes: 0 success, 1 failed check or propagated library error (one
stderr line with the machine-parsable prefix `error:<category>:`),
2 usage error (argparse).  All numeric output uses 17 significant digits
and no data stream carries timestamps, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from mpmath import mp

from .bench import (
    BenchPlan,
    emit_probe,
    emit_records,
    plan_from_dict,
    run_benchmark,
    stability_probe,
)
from .errors import NotFoundError, StructuralError, TrotterkitError
from .multistage import multistage_order, random_split, to_multistage
from .polyexp import (
    SeriesSpec,
    chebyshev_zeros,
    eval_factorized,
    eval_summed,
    factorize,
    gamma_for,
    taylor_zeros,
)
from .schemes import (
    efficiency,
    empirical_order,
    load_catalog,
    validate_consistency,
)
from .spinmodel import XxzConfig, xxz_spectrum
from .tolerances import CATALOG_ORDER_SLOPE_TOL, DEFAULT_SEED


def _g(x):
    return f"{x:.17g}"


def _pairs_json(values):
    """Complex tuple as a JSON array of [re, im] pairs, 17 digits."""
    return "[" + ", ".join(f"[{v.real:.17g}, {v.imag:.17g}]" for v in values) + "]"


def _parse_complex(text):
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise StructuralError(f"cannot parse {text!r} as a complex number") from None


def _parse_int_list(text):
    try:
        return [int(f) for f in text.split(",") if f != ""]
    except ValueError:
        raise StructuralError(f"cannot parse {text!r} as comma-separated integers") from None


def _parse_complex_list(text):
    return [_parse_complex(f) for f in text.split(",") if f != ""]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_schemes_list(args):
    catalog = load_catalog(args.catalog, validate=False)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["name", "order", "q", "symmetric", "source"])
    for name in sorted(catalog):
        s = catalog[name]
        writer.writerow([name, s.order_n, s.q, "true" if s.symmetric else "false", s.source])
    return 0


def _looks_like_path(target):
    return os.sep in target or target.endswith(".json") or os.path.exists(target)


def _cmd_schemes_validate(args):
    if _looks_like_path(args.target):
        entries = list(load_catalog(args.target, validate=False).values())
    else:
        catalog = load_catalog(args.catalog, validate=False)
        if args.target not in catalog:
            known = ", ".join(sorted(catalog))
            raise NotFoundError(f"unknown scheme {args.target!r}; catalog has: {known}")
        entries = [catalog[args.target]]
    failures = []
    for scheme in entries:
        report = validate_consistency(scheme)
        ok = report.ok and (not scheme.symmetric or report.symmetry_ok)
        slope = float("nan")
        if ok:
            slope = empirical_order(scheme, seed=args.seed)
            ok = abs(slope - scheme.order_n) <= CATALOG_ORDER_SLOPE_TOL
        verdict = "ok" if ok else "FAIL"
        print(
            f"{scheme.name}: {verdict} order={scheme.order_n} q={scheme.q} "
            f"a_residual={_g(report.a_residual)} b_residual={_g(report.b_residual)} "
            f"symmetry_residual={_g(report.symmetry_residual)} slope={_g(slope)}"
        )
        if not ok:
            failures.append(scheme.name)
    if failures:
        raise TrotterkitError(
            f"validation failed for: {', '.join(failures)}", category="consistency"
        )
    return 0


def _cmd_schemes_efficiency(args):
    catalog = load_catalog(args.catalog, validate=False)
    if args.name not in catalog:
        known = ", ".join(sorted(catalog))
        raise NotFoundError(f"unknown scheme {args.name!r}; catalog has: {known}")
    score = efficiency(catalog[args.name])
    print(f"name={args.name} order={score.order_n} q={score.q} eff={_g(score.eff)}")
    return 0


def _cmd_adapt(args):
    catalog = load_catalog(args.catalog, validate=False)
    if args.name not in catalog:
        known = ", ".join(sorted(catalog))
        raise NotFoundError(f"unknown scheme {args.name!r}; catalog has: {known}")
    scheme = catalog[args.name]
    ms = to_multistage(scheme)
    if args.check:
        split = random_split(args.n_stage, 8, seed=args.seed)
        slope = multistage_order(split, ms)
        print(f"name={args.name} lambda={args.n_stage} slope={_g(slope)}")
        return 0
    print(
        f'{{"name": {json.dumps(args.name)}, '
        f'"c": {_pairs_json(ms.c)}, "d": {_pairs_json(ms.d)}}}'
    )
    return 0


def _chebyshev_spec(args):
    if args.gamma_h is None or args.axis is None:
        raise StructuralError("chebyshev needs --gamma-h and --axis")
    return SeriesSpec("chebyshev", args.k, gamma_scale=args.gamma_h, axis=args.axis)


def _cmd_zeros(args):
    if args.family == "taylor":
        zeros = taylor_zeros(args.k, cache_dir=args.zeros_cache)
    else:
        zeros = chebyshev_zeros(_chebyshev_spec(args), cache_dir=args.zeros_cache)
    gammas = gamma_for(zeros, args.k)
    print("index,z_re,z_im,gamma_re,gamma_im")
    for i, (z, g) in enumerate(zip(zeros, gammas)):
        print(f"{i},{_g(z.real)},{_g(z.imag)},{_g(g.real)},{_g(g.imag)}")
    return 0


def _cmd_expm(args):
    z = _parse_complex(args.scalar)
    if args.method == "taylor":
        spec = SeriesSpec("taylor", args.k)
    else:
        spec = _chebyshev_spec(args)
    if args.mode == "sum":
        value = complex(eval_summed(z, 1.0 + 0j, spec))
    else:
        fact = factorize(spec, cache_dir=args.zeros_cache)
        value = complex(eval_factorized(z, 1.0 + 0j, fact))
    with mp.workdps(40):
        exact = mp.exp(mp.mpc(z))
        rel = float(abs(mp.mpc(value) - exact) / abs(exact))
        exact_c = complex(exact)
    print("value_re,value_im,exact_re,exact_im,rel_error")
    print(
        f"{_g(value.real)},{_g(value.imag)},"
        f"{_g(exact_c.real)},{_g(exact_c.imag)},{_g(rel)}"
    )
    return 0


def _cmd_model_xxz(args):
    cfg = XxzConfig(L=args.L, delta=args.delta, boundary=args.bc, J=args.J)
    energies = xxz_spectrum(cfg)
    lines = ["index,energy"]
    lines += [f"{i},{_g(e)}" for i, e in enumerate(energies)]
    text = "\n".join(lines) + "\n"
    if args.dump is not None:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args):
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"plan file is not valid JSON: {exc}") from None
        plan = plan_from_dict(data)
    else:
        plan = BenchPlan()
    records = run_benchmark(
        plan,
        cache_dir=args.zeros_cache,
        catalog_path=args.catalog,
        timing=args.timing,
    )
    emit_records(records, args.out, plan=plan, plot_path=args.plot_data)
    return 0


def _cmd_probe_stability(args):
    rows = stability_probe(
        _parse_int_list(args.k), _parse_complex_list(args.z), cache_dir=args.zeros_cache
    )
    if args.out is not None:
        emit_probe(rows, args.out)
        return 0
    print("k,z,err_sum,err_prod")
    for r in rows:
        z = _g(r.z.real) if r.z.imag == 0.0 else repr(r.z)
        print(f"{r.k},{z},{_g(r.err_sum)},{_g(r.err_prod)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="trotterkit",
        description="Trotter scheme catalog, multi-stage adaptation, "
        "zero-factorized polynomial exponentials, and XXZ benchmarks.",
    )
    parser.add_argument(
        "--catalog", default=None, metavar="PATH",
        help="scheme catalog JSON (default: bundled)",
    )
    parser.add_argument(
        "--zeros-cache", default=None, metavar="DIR",
        help="zero cache directory (default: TROTTERKIT_ZEROS_DIR or ~/.cache)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="seed for the random operators of order fits and adapt --check",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_schemes = sub.add_parser("schemes", help="catalog inspection and validation")
    schemes_sub = p_schemes.add_subparsers(dest="schemes_command", required=True)
    p = schemes_sub.add_parser("list", help="list catalog entries as CSV")
    p.set_defaults(func=_cmd_schemes_list)
    p = schemes_sub.add_parser("validate", help="validate a scheme or a catalog file")
    p.add_argument("target", help="scheme name or catalog JSON path")
    p.set_defaults(func=_cmd_schemes_validate)
    p = schemes_sub.add_parser("efficiency", help="order, q, and efficiency score")
    p.add_argument("name", help="scheme name")
    p.set_defaults(func=_cmd_schemes_efficiency)

    p = sub.add_parser("adapt", help="two-stage to multi-stage coefficients")
    p.add_argument("name", help="scheme name")
    p.add_argument("--check", action="store_true", help="run a Lambda-stage order check")
    p.add_argument(
        "--lambda", dest="n_stage", type=int, default=3, metavar="N",
        help="number of operator parts for --check (default 3)",
    )
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("zeros", help="print polynomial zeros and gamma factors")
    p.add_argument("--family", choices=("taylor", "chebyshev"), required=True)
    p.add_argument("--k", type=int, required=True, help="truncation order")
    p.add_argument("--gamma-h", type=float, default=None, help="interval half-width")
    p.add_argument("--axis", choices=("real", "imaginary"), default=None)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("expm", help="scalar exponential-approximation diagnostics")
    p.add_argument("--method", choices=("taylor", "chebyshev"), required=True)
    p.add_argument("--k", type=int, required=True, help="truncation order")
    p.add_argument("--gamma-h", type=float, default=None, help="interval half-width")
    p.add_argument("--axis", choices=("real", "imaginary"), default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--sum", dest="mode", action="store_const", const="sum")
    group.add_argument("--prod", dest="mode", action="store_const", const="prod")
    p.add_argument("--scalar", required=True, metavar="Z", help="evaluation point")
    p.set_defaults(func=_cmd_expm, mode="prod")

    p_model = sub.add_parser("model", help="test Hamiltonians")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    p = model_sub.add_parser("xxz", help="XXZ spectrum as CSV")
    p.add_argument("--L", type=int, default=8, help="number of sites")
    p.add_argument("--delta", type=float, default=1.0, help="anisotropy")
    p.add_argument("--bc", choices=("open", "periodic"), default="open")
    p.add_argument("--J", type=float, default=1.0, help="coupling")
    p.add_argument("--dump", default=None, metavar="PATH", help="write CSV here")
    p.set_defaults(func=_cmd_model_xxz)

    p = sub.add_parser("bench", help="error-versus-cost sweep")
    p.add_argument("--config", default=None, metavar="PATH", help="plan JSON")
    p.add_argument("--out", required=True, metavar="PATH", help="results CSV")
    p.add_argument("--plot-data", default=None, metavar="PATH", help="plot blocks")
    p.add_argument("--timing", action="store_true", help="record wall times")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("probe-stability", help="summed vs factorized Taylor")
    p.add_argument("--k", default="10,52,304", help="comma-separated cutoffs")
    p.add_argument(
        "--z", default="-5,-22,-30,-100",
        help="comma-separated points (write --z=-5,-30 so the dash is not read as a flag)",
    )
    p.add_argument("--out", default=None, metavar="PATH", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_probe_stability)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrotterkitError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
