"""Command-line interface: exit codes, output formats, determinism."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import trotterkit
from trotterkit.cli import main

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
    assert "a_residual=0" in out and "slope=" in out


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
    assert 3.7 <= float(fields["slope"]) <= 4.3


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
    assert rc == 1
    assert err.startswith("error:structural:")


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
    assert (tmp_path / "chebyshev_5_2.500000_imaginary.json").exists()


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


def test_expm_rejects_unparseable_scalar(capsys):
    rc, out, err = run_cli(capsys, "expm", "--method", "taylor", "--k", "5", "--scalar", "abc")
    assert rc == 1
    assert err.startswith("error:structural:")


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
