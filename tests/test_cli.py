"""Command-line interface: exit codes, output formats, determinism."""

import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import trotterkit
from trotterkit import cli, polyexp
from trotterkit.cli import _build_parser, main

# In-process zero computations here share the polyexp memo with the rest of
# the suite; stick to k values the cache-behaviour tests do not reserve.


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# usage errors (argparse exits with 2)


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schemes", "list", "--frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# schemes


def test_schemes_list_csv(capsys):
    rc, out, err = run_cli(capsys, "schemes", "list")
    assert rc == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    strang = next(r for r in rows if r["name"] == "strang")
    assert strang["order"] == "2" and strang["q"] == "1" and strang["symmetric"] == "true"
    assert all(r["source"] for r in rows)


def test_schemes_validate_single_entry(capsys):
    rc, out, err = run_cli(capsys, "schemes", "validate", "strang")
    assert rc == 0 and err == ""
    assert out.startswith("strang: ok order=2 q=1")
    assert "a_residual=0" in out and out.endswith(" exact_order=2\n")


def test_schemes_validate_unknown_name(capsys):
    rc, out, err = run_cli(capsys, "schemes", "validate", "bogus-name")
    assert rc == 1
    assert err.startswith("error:not-found:")


def catalog_entry(name, a, b, order=2, symmetric=True):
    return {
        "name": name,
        "order": order,
        "a": [[x, 0.0] for x in a],
        "b": [[x, 0.0] for x in b],
        "symmetric": symmetric,
        "source": "test",
    }


def test_schemes_validate_catalog_file(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([catalog_entry("strang-copy", [0.5, 0.5], [1.0])]))
    rc, out, err = run_cli(capsys, "schemes", "validate", str(path))
    assert rc == 0
    assert "strang-copy: ok" in out

    path.write_text(json.dumps([catalog_entry("strang-copy", [0.5, 0.5], [0.9])]))
    rc, out, err = run_cli(capsys, "schemes", "validate", str(path))
    assert rc == 1
    assert "strang-copy: FAIL" in out
    assert err.startswith("error:consistency:")


def test_global_catalog_flag(capsys, tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([catalog_entry("custom", [0.3, 0.7], [1.0], order=1, symmetric=False)]))
    rc, out, err = run_cli(capsys, "--catalog", str(path), "schemes", "validate", "custom")
    assert rc == 0
    assert out.startswith("custom: ok")


def test_schemes_efficiency_strang(capsys):
    rc, out, err = run_cli(capsys, "schemes", "efficiency", "strang")
    assert rc == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert fields["name"] == "strang" and fields["order"] == "2" and fields["q"] == "1"
    assert float(fields["eff"]) == pytest.approx(24 / math.sqrt(5), rel=1e-10)


def test_schemes_efficiency_does_not_depend_on_seed(capsys):
    # The score comes from exact coefficients; no random operator enters it.
    first = run_cli(capsys, "--seed", "1", "schemes", "efficiency", "suzuki4")
    second = run_cli(capsys, "--seed", "2", "schemes", "efficiency", "suzuki4")
    assert first[0] == 0 and first[1].startswith("name=suzuki4 ")
    assert first == second


@pytest.mark.parametrize("command", ["schemes validate strang", "schemes efficiency strang"])
def test_readme_example_shows_the_printed_line(capsys, command):
    rc, out, err = run_cli(capsys, *command.split())
    assert rc == 0 and err == "" and out.count("\n") == 1
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        assert f"\n$ trotterkit {command}\n{out}" in fh.read()


def _readme_synopsis_lines():
    """The synopsis words of each `trotterkit ...` line in the README's CLI
    block (the text before the two-space gap to the description)."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    return [line.split("  ")[0].split() for line in block.splitlines()
            if line.startswith("trotterkit ")]


@pytest.mark.parametrize("words", _readme_synopsis_lines(), ids=" ".join)
def test_readme_cli_block_options_exist(words):
    parser = _build_parser()
    for word in words[1:]:
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs or word not in subs[0].choices:
            break
        parser = subs[0].choices[word]
    assert parser.prog != "trotterkit", words
    options = [w.strip("[]") for w in words if w.strip("[]").startswith("--")]
    assert [o for o in options if o not in parser._option_string_actions] == []


# ---------------------------------------------------------------------------
# adapt


def test_adapt_emits_coefficient_json(capsys):
    rc, out, err = run_cli(capsys, "adapt", "forest-ruth")
    assert rc == 0
    data = json.loads(out)
    assert data["name"] == "forest-ruth"
    assert len(data["c"]) == 3 and len(data["d"]) == 3
    total = sum(re for re, _ in data["c"]) + sum(re for re, _ in data["d"])
    assert total == pytest.approx(1.0, abs=1e-12)
    assert all(im == 0 for _, im in data["c"] + data["d"])
    assert data["d"] == list(reversed(data["c"]))


def test_adapt_check_reports_slope(capsys):
    rc, out, err = run_cli(capsys, "adapt", "--check", "--lambda", "2", "blanes-moan4")
    assert rc == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert fields["name"] == "blanes-moan4" and fields["lambda"] == "2"
    assert fields["exact_order"] == "4"
    assert 3.7 <= float(fields["slope"]) <= 4.3


@pytest.mark.parametrize("name, order", [("strang", 2), ("forest-ruth", 4)])
@pytest.mark.parametrize("n_stage", [3, 4, 7])
def test_adapt_check_reports_the_exact_order_of_the_sweep(capsys, monkeypatch, name, order,
                                                          n_stage):
    # the fit is stubbed out; past order + 1 parts the order is read on
    # order + 1 letters
    monkeypatch.setattr(cli, "multistage_order", lambda split, ms: 0.0)
    rc, out, err = run_cli(capsys, "adapt", "--check", "--lambda", str(n_stage), name)
    assert rc == 0 and err == ""
    assert out == f"name={name} lambda={n_stage} exact_order={order} slope=0\n"


@pytest.mark.parametrize("argv", [
    ("schemes", "validate", "strang"),
    ("adapt", "strang", "--check"),
])
def test_negative_seed_is_one_structural_error(capsys, argv):
    rc, out, err = run_cli(capsys, "--seed", "-1", *argv)
    assert rc == 1 and out == ""
    assert err.startswith("error:structural:") and "'seed'" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("schemes", "list"),
    ("schemes", "efficiency", "strang"),
    ("model", "xxz", "--L", "2"),
])
def test_negative_seed_is_refused_on_commands_that_draw_no_operators(capsys, argv):
    rc, out, err = run_cli(capsys, "--seed", "-1", *argv)
    assert (rc, out) == (1, "")
    assert err == "error:structural: 'seed' must be >= 0, got -1\n"


def test_adapt_unknown_scheme(capsys):
    rc, out, err = run_cli(capsys, "adapt", "no-such-scheme")
    assert rc == 1
    assert err.startswith("error:not-found:")


# ---------------------------------------------------------------------------
# zeros / expm


def test_zeros_taylor_table(capsys, tmp_path):
    rc, out, err = run_cli(
        capsys, "--zeros-cache", str(tmp_path), "zeros", "--family", "taylor", "--k", "6"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "index,z_re,z_im,gamma_re,gamma_im"
    assert len(lines) == 7
    row = lines[1].split(",")
    z = complex(float(row[1]), float(row[2]))
    g = complex(float(row[3]), float(row[4]))
    assert g == pytest.approx(-6.0 / z, rel=1e-13)
    assert (tmp_path / "taylor_6.json").exists()


def test_zeros_chebyshev_requires_scale(capsys):
    rc, out, err = run_cli(capsys, "zeros", "--family", "chebyshev", "--k", "5")
    assert rc == 1 and out == ""
    assert err == "error:structural: chebyshev spec needs gamma_scale > 0\n"


@pytest.mark.parametrize("argv", [
    ("zeros", "--family", "taylor", "--k", "5", "--gamma-h", "2"),
    ("zeros", "--family", "taylor", "--k", "5", "--axis", "imaginary"),
    ("expm", "--method", "taylor", "--k", "5", "--axis", "real", "--scalar=1"),
    ("expm", "--method", "taylor", "--k", "5", "--gamma-h", "2", "--scalar=1", "--sum"),
])
def test_taylor_commands_refuse_the_chebyshev_options(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == "error:structural: a taylor spec takes no gamma_scale or axis\n"


def test_zeros_serves_a_truncation_that_factorize_refuses(capsys):
    # zeros prints a real-axis truncation far below its admissible k whose
    # zero on the approximation segment expm's factorization refuses
    args = ("--k", "20", "--gamma-h", "100", "--axis", "real")
    rc, out, err = run_cli(capsys, "zeros", "--family", "chebyshev", *args)
    assert rc == 0 and err == "" and len(out.splitlines()) == 21
    rc, out, err = run_cli(capsys, "expm", "--method", "chebyshev", *args, "--scalar=1")
    assert rc == 1 and out == ""
    assert err.startswith("error:structural: zero at ") and "approximation segment" in err


def test_zeros_chebyshev_refuses_infinite_gamma_h(capsys, tmp_path):
    # one error line, no traceback and no cache file
    rc, out, err = run_cli(capsys, "--zeros-cache", str(tmp_path), "zeros", "--family",
                           "chebyshev", "--k", "20", "--gamma-h", "inf", "--axis", "real")
    assert rc == 1 and out == ""
    assert err.startswith("error:structural:") and len(err.splitlines()) == 1
    assert not os.listdir(tmp_path)


def test_zeros_chebyshev_table(capsys, tmp_path):
    rc, out, err = run_cli(
        capsys,
        "--zeros-cache",
        str(tmp_path),
        "zeros",
        "--family",
        "chebyshev",
        "--k",
        "5",
        "--gamma-h",
        "2.5",
        "--axis",
        "imaginary",
    )
    assert rc == 0
    assert len(out.splitlines()) == 6
    assert (tmp_path / f"chebyshev_5_{(2.5).hex()}_imaginary.json").exists()


def test_expm_taylor_prod(capsys):
    rc, out, err = run_cli(capsys, "expm", "--method", "taylor", "--k", "20", "--prod", "--scalar=-1.5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "value_re,value_im,exact_re,exact_im,rel_error"
    vals = lines[1].split(",")
    assert float(vals[2]) == pytest.approx(math.exp(-1.5), rel=1e-15)
    assert float(vals[4]) < 1e-12


def test_expm_taylor_sum_matches_prod_in_stable_region(capsys):
    rc, out_p, _ = run_cli(capsys, "expm", "--method", "taylor", "--k", "20", "--prod", "--scalar=-1.5")
    rc2, out_s, _ = run_cli(capsys, "expm", "--method", "taylor", "--k", "20", "--sum", "--scalar=-1.5")
    assert rc == 0 and rc2 == 0
    v_p = float(out_p.splitlines()[1].split(",")[0])
    v_s = float(out_s.splitlines()[1].split(",")[0])
    assert v_p == pytest.approx(v_s, rel=1e-12)


def test_expm_chebyshev_imaginary(capsys):
    # k=45 is the admissible cutoff for gamma_h=20 at 1e-12
    rc, out, err = run_cli(
        capsys,
        "expm",
        "--method",
        "chebyshev",
        "--k",
        "45",
        "--gamma-h",
        "20",
        "--axis",
        "imaginary",
        "--scalar",
        "5j",
    )
    assert rc == 0
    assert float(out.splitlines()[1].split(",")[4]) < 1e-11


def test_expm_chebyshev_high_order_tiny_argument(capsys):
    rc, out, err = run_cli(
        capsys,
        "expm",
        "--method",
        "chebyshev",
        "--k",
        "200",
        "--gamma-h",
        "0.005",
        "--axis",
        "real",
        "--sum",
        "--scalar",
        "0.001",
    )
    assert rc == 0, err
    assert math.isfinite(float(out.splitlines()[1].split(",")[4]))


@pytest.mark.parametrize("axis", ["real", "imaginary"])
@pytest.mark.parametrize("gamma_h", ["0.5", "1.0"])
def test_expm_chebyshev_underflowing_coefficients_is_convergence_error(capsys, gamma_h, axis):
    # mu_152 underflows in double precision at these Gamma*h, which leaves
    # the colleague matrix without finite entries
    rc, out, err = run_cli(
        capsys, "expm", "--method", "chebyshev", "--k", "152", "--gamma-h", gamma_h,
        "--axis", axis, "--scalar", "0.5",
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error:convergence:") and len(err.splitlines()) == 1


def test_zeros_convergence_failure_is_reported(capsys, monkeypatch):
    monkeypatch.setattr(polyexp, "ZERO_RESIDUAL_PER_K", 0.0)
    monkeypatch.setattr(polyexp, "_memo", {})
    rc, out, err = run_cli(capsys, "zeros", "--family", "taylor", "--k", "5")
    assert rc == 1
    assert err.startswith("error:convergence:")


def test_expm_rejects_unparseable_scalar(capsys):
    rc, out, err = run_cli(capsys, "expm", "--method", "taylor", "--k", "5", "--scalar", "abc")
    assert rc == 1
    assert err.startswith("error:structural:")


@pytest.mark.parametrize("argv, prefix", [
    (("expm", "--method", "taylor", "--k", "52", "--scalar=1e308j"), "error:range:"),
    (("expm", "--method", "taylor", "--k", "52", "--scalar=1e308j", "--sum"), "error:range:"),
    (("expm", "--method", "chebyshev", "--k", "40", "--gamma-h", "20", "--axis", "imaginary",
      "--scalar=1e10"), "error:range:"),
    (("expm", "--method", "chebyshev", "--k", "40", "--gamma-h", "20", "--axis", "imaginary",
      "--scalar=1e10", "--sum"), "error:range:"),
    # a finite value whose e^z overflows or underflows the double range
    (("expm", "--method", "taylor", "--k", "52", "--scalar=1000"), "error:range:"),
    (("expm", "--method", "taylor", "--k", "52", "--scalar=-800"), "error:range:"),
    (("expm", "--method", "taylor", "--k", "52", "--scalar=-800", "--sum"), "error:range:"),
    (("model", "xxz", "--L", "3", "--delta", "nan"), "error:structural:"),
    (("model", "xxz", "--L", "3", "--delta", "inf"), "error:structural:"),
    (("model", "xxz", "--L", "3", "--J=-inf"), "error:structural:"),
    (("model", "xxz", "--L", "3", "--J", "1e308", "--delta", "1e308"), "error:structural:"),
], ids=["expm-taylor-prod", "expm-taylor-sum", "expm-chebyshev-prod", "expm-chebyshev-sum",
        "expm-exact-overflow", "expm-exact-underflow", "expm-exact-underflow-sum",
        "xxz-delta-nan", "xxz-delta-inf", "xxz-j-minus-inf", "xxz-bond-overflow"])
def test_non_finite_input_or_value_is_one_error_line(capsys, argv, prefix):
    # an overflowing value is refused, not printed as nan with status 0,
    # and an overflowing bond term is refused without a NumPy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert rc == 1 and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


# ---------------------------------------------------------------------------
# model


def test_model_xxz_l2_spectrum(capsys):
    rc, out, err = run_cli(capsys, "model", "xxz", "--L", "2", "--delta", "0.5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "index,energy"
    energies = sorted(float(line.split(",")[1]) for line in lines[1:])
    assert energies == pytest.approx([-2.5, 0.5, 0.5, 1.5], abs=1e-13)


def test_model_xxz_dump(capsys, tmp_path):
    out_path = tmp_path / "spec.csv"
    rc, out, err = run_cli(capsys, "model", "xxz", "--L", "3", "--dump", str(out_path))
    assert rc == 0
    assert out_path.read_text().splitlines()[0] == "index,energy"


def test_model_xxz_dump_io_error(capsys):
    rc, out, err = run_cli(capsys, "model", "xxz", "--L", "2", "--dump", "/nonexistent/dir/x.csv")
    assert rc == 1
    assert err.startswith("error:io:")


def test_model_xxz_capacity_error(capsys):
    rc, out, err = run_cli(capsys, "model", "xxz", "--L", "13")
    assert rc == 1
    assert err.startswith("error:capacity:")


# ---------------------------------------------------------------------------
# bench and probe


@pytest.fixture()
def plan_file(tmp_path):
    plan = {
        "model": {"L": 3},
        "t_total": 1.0,
        "methods": ["exact", "strang", "taylor:8"],
        "h_grid": [0.5, 0.25],
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def test_bench_run_and_determinism(capsys, tmp_path, plan_file, zeros_cache):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    plot = tmp_path / "r1.dat"
    rc, _, _ = run_cli(
        capsys,
        "--zeros-cache",
        zeros_cache,
        "bench",
        "--config",
        str(plan_file),
        "--out",
        str(out1),
        "--plot-data",
        str(plot),
    )
    assert rc == 0
    rc, _, _ = run_cli(
        capsys, "--zeros-cache", zeros_cache, "bench", "--config", str(plan_file), "--out", str(out2)
    )
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "# kappa=6"
    assert lines[1].startswith("# model=xxz L=3")
    assert lines[2] == "method,h,steps,cost,error,wall_time"
    assert len(lines) == 3 + 6
    assert plot.read_text().count("# method=") == 3


def test_bench_missing_config(capsys, tmp_path):
    rc, out, err = run_cli(
        capsys, "bench", "--config", "/nonexistent/plan.json", "--out", str(tmp_path / "x.csv")
    )
    assert rc == 1
    assert err.startswith("error:io:")


@pytest.mark.parametrize("field", ['"t_total": 1e999', '"kappa": 1e999', '"h_grid": [0.5, 1e999]'])
def test_bench_refuses_a_non_finite_plan_value(capsys, tmp_path, field):
    # JSON's 1e999 parses as inf
    path = tmp_path / "plan.json"
    path.write_text('{"model": {"L": 3}, "methods": ["strang", "taylor:8"], ' + field + "}")
    out = tmp_path / "r.csv"
    rc, stdout, err = run_cli(capsys, "bench", "--config", str(path), "--out", str(out))
    assert rc == 1 and stdout == ""
    assert err.startswith("error:structural:") and "finite" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("plan, key", [
    ('{"h_grid": 0.5}', "'h_grid'"),
    ('{"h_grid": [0.5, null]}', "'h_grid'"),
    ('{"methods": 5}', "'methods'"),
    ('{"methods": "strang"}', "'methods'"),
    ('{"methods": ["strang", 5]}', "'methods'"),
    ('{"kappa": "abc"}', "'kappa'"),
    ('{"t_total": null}', "'t_total'"),
    ('{"model": {"L": "x"}}', "'L'"),
    ('{"model": {"L": null}}', "'L'"),
    ('{"model": {"L": 1e999}}', "'L'"),
    ('{"model": {"L": 3, "delta": [1]}}', "'delta'"),
    ('{"model": {"L": 3.9}}', "'L'"),
    ('{"model": {"L": 100000}}', "'L'"),
    ('{"kappa": true}', "'kappa'"),
    ('{"model": {"L": 3, "delta": true}}', "'delta'"),
    ('{"t_total": "10"}', "'t_total'"),
    ('{"h_grid": ["0.5"]}', "'h_grid'"),
])
def test_bench_refuses_a_plan_value_of_the_wrong_type(capsys, tmp_path, plan, key):
    path = tmp_path / "plan.json"
    path.write_text(plan)
    out = tmp_path / "r.csv"
    rc, stdout, err = run_cli(capsys, "bench", "--config", str(path), "--out", str(out))
    assert rc == 1 and stdout == ""
    assert err.startswith("error:structural:") and key in err and err.count("\n") == 1
    assert not out.exists()


def test_bench_refuses_a_plan_whose_step_count_overflows(capsys, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"model": {"L": 3}, "methods": ["strang"], '
                    '"t_total": 1e300, "h_grid": [1e-10]}')
    out = tmp_path / "r.csv"
    rc, stdout, err = run_cli(capsys, "bench", "--config", str(path), "--out", str(out))
    assert rc == 1 and stdout == ""
    assert err.startswith("error:structural:") and err.count("\n") == 1
    assert not out.exists()


def test_bench_without_a_plan_runs_the_default_plan(capsys, tmp_path, zeros_cache):
    out = tmp_path / "r.csv"
    rc, stdout, err = run_cli(capsys, "--zeros-cache", zeros_cache, "bench", "--out", str(out))
    assert rc == 0 and stdout == "" and err == ""
    want = tmp_path / "want.csv"
    plan = trotterkit.BenchPlan()
    trotterkit.emit_records(trotterkit.run_benchmark(plan, cache_dir=zeros_cache), want, plan=plan)
    assert out.read_bytes() == want.read_bytes()
    rows = list(csv.DictReader(line for line in out.read_text().splitlines()
                               if not line.startswith("#")))
    assert len(rows) == 28


def test_bench_requires_out(capsys, plan_file):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", str(plan_file)])
    assert exc.value.code == 2


def test_probe_stability_stdout(capsys, zeros_cache):
    rc, out, err = run_cli(
        capsys, "--zeros-cache", zeros_cache, "probe-stability", "--k", "10,12", "--z=-2,-5"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k,z,err_sum,err_prod"
    assert len(lines) == 5
    for line in lines[1:]:
        k, z, es, ep = line.split(",")
        assert float(es) < 1e-11 and float(ep) < 1e-12


@pytest.mark.parametrize("args", [("--k", "1", "--z=-1"), ("--k", "2", "--z=-1+1j"),
                                  ("--k", "304", "--z=-1e4")])
def test_probe_stability_refuses_a_zero_or_an_overflowing_point(capsys, zeros_cache, args):
    rc, out, err = run_cli(capsys, "--zeros-cache", zeros_cache, "probe-stability", *args)
    assert rc == 1 and out == ""
    assert err.startswith("error:range:") and len(err.splitlines()) == 1


def test_probe_stability_file_output(capsys, tmp_path, zeros_cache):
    out_path = tmp_path / "probe.csv"
    rc, out, err = run_cli(
        capsys,
        "--zeros-cache",
        zeros_cache,
        "probe-stability",
        "--k",
        "10",
        "--z=-5",
        "--out",
        str(out_path),
    )
    assert rc == 0
    assert out_path.read_text().splitlines()[0] == "k,z,err_sum,err_prod"


# ---------------------------------------------------------------------------
# installed entry point (one subprocess round-trip)


@pytest.mark.skipif(shutil.which("trotterkit") is None, reason="console script not installed")
def test_console_script_roundtrip():
    ok = subprocess.run(
        ["trotterkit", "--help"], capture_output=True, text=True, check=False
    )
    assert ok.returncode == 0
    assert "probe-stability" in ok.stdout

    bad = subprocess.run(
        ["trotterkit", "schemes", "validate", "bogus-name"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert bad.returncode == 1
    assert bad.stderr.startswith("error:not-found:")

    one = subprocess.run(["trotterkit", "schemes", "list"], capture_output=True, check=False)
    two = subprocess.run(["trotterkit", "schemes", "list"], capture_output=True, check=False)
    assert one.stdout == two.stdout


def test_module_entry_point():
    # The child imports the same trotterkit as this process, installed or not.
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(trotterkit.__file__)))
    pythonpath = os.pathsep.join(p for p in (src_root, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-m", "trotterkit.cli", "schemes", "validate", "strang"],
        capture_output=True,
        text=True,
        check=False,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert res.returncode == 0
    assert res.stdout.startswith("strang: ok")
