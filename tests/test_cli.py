"""CLI behavior: grids, CSV contracts, determinism, exit codes."""

import csv
import json
import math
import os
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import zcrate.cli
from zcrate.cli import main
from zcrate.simulate import deletion_census


def read_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_bounds_sweep_grid_and_invariants(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["--out", str(out), "--seed", "5", "bounds-sweep"])
    assert rc == 0
    rows = read_rows(out / "bounds_sweep.csv")
    assert len(rows) == 120  # 40 log-spaced k x 3 SNRs
    for r in rows:
        lower = float(r["lower_bits_s"])
        upper = float(r["upper_bits_s"])
        awgn = float(r["awgn_bits_s"])
        assert lower <= upper + 1e-9
        assert lower <= awgn + 1e-9
        assert float(r["mu_bar"]) >= 1.0
        assert r["clamped_flag"] in ("0", "1")
    header = open(out / "bounds_sweep.csv").readline().strip().split(",")
    assert header[:11] == [
        "W", "lambda", "k", "rho_dB", "lower_bits_s", "upper_bits_s",
        "awgn_bits_s", "mu_bar", "nu", "sigma_S_sq", "clamped_flag",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert "config_hash" in manifest and "version" in manifest
    assert set(manifest["environment"]) == {"python", "numpy", "scipy"}
    assert manifest["environment"]["numpy"] == np.__version__


def test_k_opt_curve_shape(tmp_path):
    out = tmp_path / "kopt"
    assert main(["--out", str(out), "k-opt"]) == 0
    rows = read_rows(out / "k_opt.csv")
    by_rho = {float(r["rho_dB"]): float(r["k_opt"]) for r in rows}
    assert by_rho[40.0] == pytest.approx(0.7, abs=0.1)
    high = [v for rho, v in by_rho.items() if 30.0 <= rho <= 40.0]
    assert max(high) - min(high) <= 0.05
    # ratio column is exp(delta)
    for r in rows:
        assert float(r["ratio_awgn_over_lower"]) == pytest.approx(
            math.exp(float(r["delta_nats"])), rel=1e-12
        )


def test_constants_subcommand(tmp_path, capsys):
    out = tmp_path / "const"
    assert main(["--out", str(out), "constants"]) == 0
    rows = read_rows(out / "constants.csv")
    by_name = {r["quantity"]: r for r in rows}
    assert float(by_name["c0"]["rel_residual"]) < 1e-6
    assert float(by_name["c2"]["rel_residual"]) < 1e-6
    assert float(by_name["zc_rate_coeff"]["value"]) == pytest.approx(2.0 / math.sqrt(3.0))
    printed = capsys.readouterr().out
    assert "c0" in printed and "c2" in printed


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["--out", str(out), "--seed", "17", "simulate", "--K", "200"]) == 0
    assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()


def test_jobs_do_not_change_output(tmp_path):
    cases = [
        (["bounds-sweep", "--k-points", "6"], ["bounds_sweep.csv"]),
        (["psd", "--k-list", "1,2", "--K", "1000"], ["psd_k1.csv", "psd_k2.csv"]),
        (["lp-distortion", "--k-list", "1,2", "--n-time", "2000", "--n-ensemble", "50"],
         ["lp_distortion.csv"]),
        (["transition-census", "--rho-db", "10", "--k-list", "1,2", "--mc-trials", "40"],
         ["transition_census.csv"]),
        (["deletions", "--rho-db", "15", "--beta-list", "1", "--ratio-list", "0.5,1",
          "--K", "50", "--dt", "5e-3"], ["deletions.csv"]),
    ]
    for i, (args, files) in enumerate(cases):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert main(["--out", str(a), "--seed", "3", *args]) == 0
        assert main(["--out", str(b), "--seed", "3", "--jobs", "2", *args]) == 0
        for fname in files:
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), (args, fname)
    # a cell draws from its own seed: the k = 1 row does not depend on the cell before it
    rows = {}
    for first in ("0.5", "4"):
        out = tmp_path / f"lp{first}"
        assert main(["--out", str(out), "--seed", "3", "lp-distortion", "--k-list", f"{first},1",
                     "--n-time", "2000", "--n-ensemble", "50"]) == 0
        rows[first] = read_rows(out / "lp_distortion.csv")[1]
    assert rows["0.5"] == rows["4"]


class _RecordingPool:
    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, cells):
        return [fn(*cell) for cell in cells]


def test_jobs_size_the_pool_to_the_cells(tmp_path, monkeypatch):
    monkeypatch.setattr(zcrate.cli, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    assert main(["--out", str(tmp_path / "one"), "k-opt", "--rho-db", "10,20"]) == 0
    assert _RecordingPool.sizes == []          # --jobs 1 runs in this process
    assert main(["--out", str(tmp_path / "many"), "--jobs", "64", "k-opt",
                 "--rho-db", "10,20"]) == 0
    assert _RecordingPool.sizes == [2]         # never more workers than cells
    assert main(["--out", str(tmp_path / "few"), "--jobs", "3", "k-opt",
                 "--rho-db", "10,20,30,40"]) == 0
    assert _RecordingPool.sizes == [2, 3]


def test_invalid_grid_exit_code(tmp_path):
    rc = main(["--out", str(tmp_path), "bounds-sweep", "--k-min", "5", "--k-max", "1"])
    assert rc == 2
    rc = main(["--out", str(tmp_path), "--set", "bogus=1", "constants"])
    assert rc == 2


@pytest.mark.parametrize("args", [
    ["psd", "--k-list", "0"],
    ["deletions", "--dt", "1"],
    ["lp-distortion", "--n-ensemble", "0"],
    ["lp-distortion", "--n-ensemble", "-3"],
    ["lp-distortion", "--n-time", "0"],
    ["simulate", "--K", "0"],
    ["deletions", "--K", "0"],
    ["transition-census", "--mc-trials", "-1"],
    ["--set", "W=abc", "k-opt"],
    ["--set", "seed=1.5", "k-opt"],
    ["--config", "/nonexistent/zcrate.cfg", "k-opt"],
    ["--set", "P_hat=0", "gauss-check"],
    ["bounds-sweep", "--rho-db", "nan"],
    ["--set", "W=nan", "k-opt"],
    ["--seed", "-1", "simulate"],
    ["--jobs", "0", "k-opt"],
    ["--jobs", "-2", "k-opt"],
    ["bounds-sweep", "--k-min", "0"],
    ["deletions", "--dt", "nan"],
    # a Monte-Carlo variance needs at least two draws
    ["lp-distortion", "--n-time", "1"],
    ["lp-distortion", "--n-ensemble", "1"],
    ["transition-census", "--mc-trials", "1"],
    # values that leave the floats: the sample rate below 2W, an SNR of 0 or
    # inf, a derived scalar that underflows or overflows
    ["deletions", "--beta-list", "1", "--ratio-list", "50", "--rho-db", "6", "--K", "10",
     "--dt", "0.05"],
    ["bounds-sweep", "--rho-db=-4000", "--k-points", "2"],
    ["deletions", "--rho-db=-4000", "--beta-list", "1", "--ratio-list", "1", "--K", "10",
     "--dt", "0.05"],
    ["bounds-sweep", "--rho-db=4000", "--k-points", "2"],
    ["k-opt", "--rho-db=4000"],
    ["k-opt", "--rho-db=3080"],
    ["--set", "W=1e-300", "bounds-sweep"],
    ["--set", "lambda=1e-300", "simulate", "--K", "5"],
    # the shift variance of simulate needs two symbols
    ["simulate", "--K", "1"],
    # a cell whose numbers leave the floats, in any grid subcommand and in simulate
    ["--set", "W=1e150", "bounds-sweep", "--k-points", "2", "--rho-db", "10"],
    ["--set", "W=1e150", "spectral-efficiency", "--k-list", "1", "--rho-db", "10"],
    ["--set", "W=1e150", "excursion", "--k-list", "1", "--rho-db", "10"],
    ["--set", "W=1e150", "lp-distortion", "--k-list", "1", "--n-time", "2", "--n-ensemble", "2"],
    ["--set", "P_hat=1e300", "transition-census", "--k-list", "1", "--rho-db", "10"],
    ["--set", "W=1e-306", "transition-census", "--k-list", "1e-306", "--rho-db", "10"],
    ["--set", "W=1e-306", "simulate", "--K", "5"],
])
def test_bad_value_is_usage_error(tmp_path, capsys, args):
    rc = main(["--out", str(tmp_path), *args])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("args, quantity", [
    (["--set", "W=1e150", "bounds-sweep", "--k-points", "2", "--rho-db", "10"], "N0 W^3"),
    (["--set", "W=1e150", "spectral-efficiency", "--k-list", "1", "--rho-db", "10"], "N0 W^3"),
    (["--set", "W=1e150", "excursion", "--k-list", "1", "--rho-db", "10"], "N0 W^3"),
    (["--set", "W=1e150", "lp-distortion", "--k-list", "1", "--n-time", "2", "--n-ensemble", "2"],
     "N0 W^3"),
    (["--set", "P_hat=1e300", "transition-census", "--k-list", "1", "--rho-db", "10"], "s(0)^2"),
])
def test_overflow_names_the_quantity(tmp_path, capsys, args, quantity):
    # the message names what left the floats, not the errno of a float power
    rc = main(["--out", str(tmp_path), *args])
    err = capsys.readouterr().err
    assert rc == 2
    assert quantity in err and "leaves the floating-point range" in err
    assert "Numerical result out of range" not in err


def test_k_opt_without_a_minimum_is_numerical_failure(tmp_path, capsys):
    # below about -5 dB the lower bound is nonpositive at every k of the bracket
    rc = main(["--out", str(tmp_path), "k-opt", "--rho-db=-10,-5"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("numerical failure in k-opt:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "k_opt.csv").exists()


def test_k_opt_minimum_beyond_the_bracket_is_numerical_failure(tmp_path, capsys):
    # at -3.5 dB the search would return the upper bracket edge k = 5
    rc = main(["--out", str(tmp_path), "k-opt", "--rho-db=-3.5"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("numerical failure in k-opt:") and err.count("\n") == 1
    assert "bracket edge" in err and "Traceback" not in err
    assert not (tmp_path / "k_opt.csv").exists()


def test_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch):
    # lp-distortion at k = 1e9 would ask numpy for terabytes; fake the refusal
    def refuse(*args):
        raise MemoryError("Unable to allocate 13.6 TiB")

    monkeypatch.setattr(zcrate.cli, "lp_distortion_stats", refuse)
    rc = main(["--out", str(tmp_path), "lp-distortion", "--k-list", "1e9", "--n-time", "2",
               "--n-ensemble", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("out of memory in lp-distortion:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "lp_distortion.csv").exists()


@pytest.mark.parametrize("args, rc, head", [
    # rho W underflows: derive's N0 overflows
    (["--rho-db=-3200", "--beta-list", "1", "--ratio-list", "1"], 2, "usage error:"),
    # N0 = P/(rho W) overflows at 2 beta W = 0.002, the noise scale at 1
    (["--rho-db=-3080", "--beta-list", "1", "--ratio-list", "0.002,1", "--dt", "0.05"], 2,
     "usage error:"),
    (["--rho-db=-3080", "--beta-list", "1", "--ratio-list", "1", "--dt", "1e-3"], 2,
     "usage error:"),
    # more samples than an array can index
    (["--rho-db", "10", "--beta-list", "1e300", "--ratio-list", "1", "--dt", "1e-3"], 1,
     "out of memory in deletions:"),
    # a sample count that overflows to inf
    (["--rho-db", "10", "--beta-list", "1e306", "--ratio-list", "1", "--dt", "1e-3"], 1,
     "out of memory in deletions:"),
], ids=["derived_N0", "census_N0", "noise_scale", "sample_count", "sample_count_inf"])
def test_deletions_cell_outside_the_floats_is_one_line(tmp_path, capsys, args, rc, head):
    assert main(["--out", str(tmp_path), "deletions", "--K", "10", *args]) == rc
    err = capsys.readouterr().err
    assert err.startswith(head) and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "deletions.csv").exists()


def test_negative_snr_list_takes_the_equals_form(tmp_path, capsys):
    # argparse reads "-6,-4" after a space as a flag, not as a value
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "gauss-check", "--rho-db", "-6,-4"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err
    assert main(["--out", str(tmp_path), "gauss-check", "--rho-db=-6,-4", "--k-list", "1"]) == 0
    assert [float(r["rho_dB"]) for r in read_rows(tmp_path / "gauss_check.csv")] == [-6.0, -4.0]


def test_bounds_sweep_at_tiny_k(tmp_path):
    # below k = 1.7e-9 the band-edge correlation factor must not cancel to 1/0
    rc = main(["--out", str(tmp_path), "bounds-sweep", "--k-min", "1e-9", "--k-max", "1e-8",
               "--k-points", "2"])
    assert rc == 0
    rows = read_rows(tmp_path / "bounds_sweep.csv")
    assert len(rows) == 6
    for row in rows:
        assert row["clamped_flag"] == "1" and float(row["lower_bits_s"]) == 0.0
        assert 0.0 < float(row["upper_bits_s"]) < float(row["awgn_bits_s"])


def test_deletions_dt_at_the_beta_limit(tmp_path):
    # 1/(2 (1/(2 beta))) is an ulp below beta = 0.095; dt = beta/20 must still run
    out = tmp_path / "del"
    assert main(["--out", str(out), "deletions", "--beta-list", "0.095",
                 "--dt", "0.00475", "--K", "50"]) == 0
    rows = read_rows(out / "deletions.csv")
    assert {float(r["beta"]) for r in rows} == {0.095}


def test_deletions_filter_column_is_the_census_count(tmp_path):
    # at 2 beta W = 0.3 the filter alone deletes symbols, so the column is not 0
    out = tmp_path / "del"
    assert main(["--out", str(out), "--seed", "3", "deletions", "--rho-db", "15",
                 "--beta-list", "1", "--ratio-list", "0.3", "--K", "200", "--dt", "5e-3"]) == 0
    header = open(out / "deletions.csv").readline().strip().split(",")
    assert header == ["rho_dB", "beta", "W", "two_beta_W", "k_tilde", "n_symbols",
                      "n_deletions", "n_insertions", "n_deletions_filter"]
    (row,) = read_rows(out / "deletions.csv")
    (cell_seed,) = np.random.SeedSequence(3).spawn(1)
    dc = deletion_census(1.0, 1.0, 0.3 / 2.0, 10.0 ** (15.0 / 10.0), 200, 5e-3,
                         np.random.default_rng(cell_seed))
    assert int(row["n_deletions_filter"]) == dc.n_deletions_filter > 0
    assert int(row["n_deletions"]) == dc.n_deletions


def test_deletions_use_the_config_lambda(tmp_path):
    args = ["--seed", "7", "deletions", "--rho-db", "15", "--beta-list", "1",
            "--ratio-list", "0.3", "--K", "200", "--dt", "5e-3"]
    csvs = {}
    for lam in (1.0, 2.0):
        out = tmp_path / f"lam{lam:g}"
        assert main(["--out", str(out), "--set", f"lambda={lam:g}", *args]) == 0
        (row,) = read_rows(out / "deletions.csv")
        assert float(row["k_tilde"]) == 1.0 / (2.0 * 1.0 * lam)
        csvs[lam] = (out / "deletions.csv").read_bytes()
    assert csvs[1.0] != csvs[2.0]


def test_cli_import_leaves_slow_scipy_subpackages_out(tmp_path):
    # none of these is needed to parse arguments, to run the analytic
    # subcommands at their defaults and the Monte-Carlo ones at small sizes,
    # to evaluate the offset k_opt searches anywhere in its bracket, or to
    # solve the water-filling level where it covers part of the band (at
    # k = 0.05 and 6 dB the upper bound's); scipy.integrate is loaded on
    # demand by the constants oracle, which must still write its residuals
    code = (
        "import contextlib, io, json, sys, zcrate.cli\n"
        "from zcrate.bounds import waterfill_nu\n"
        "zcrate.cli.build_parser()\n"
        "runs = [['transition-census'], ['bounds-sweep'], ['k-opt'],\n"
        "        ['simulate', '--K', '100'],\n"
        "        ['lp-distortion', '--k-list', '1', '--n-time', '2000', '--n-ensemble', '4'],\n"
        "        ['deletions', '--rho-db', '15', '--beta-list', '1', '--ratio-list', '0.3',\n"
        "         '--K', '200', '--dt', '5e-3']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for run in runs:\n"
        "        assert zcrate.cli.main(['--out', sys.argv[1], *run]) == 0\n"
        "zcrate.cli.delta_offset(0.05, 10.0 ** 0.6)\n"
        "assert waterfill_nu(0.1, 1.0) < 4.0\n"
        "slow = ['scipy.integrate', 'scipy.optimize', 'scipy.special', 'scipy.fft',\n"
        "        'scipy.signal']\n"
        "print(json.dumps([m for m in slow if m in sys.modules]))\n"
        "zcrate.cli.main(['--out', sys.argv[1], 'constants'])\n"
        "print(json.dumps('scipy.integrate' in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    lines = done.stdout.splitlines()
    assert json.loads(lines[0]) == []
    assert json.loads(lines[-1]) is True
    residuals = {r["quantity"]: float(r["rel_residual"])
                 for r in read_rows(tmp_path / "constants.csv")}
    assert residuals["c0"] < 1e-6 and residuals["c2"] < 1e-6


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "chan.cfg"
    cfg.write_text("# channel setup\nW = 2.0\nlambda: 4.0\nrho = 100\nseed = 9\n")
    out = tmp_path / "sim"
    rc = main(["--config", str(cfg), "--set", "rho=10", "--out", str(out),
               "simulate", "--K", "100"])
    assert rc == 0
    row = read_rows(out / "simulate.csv")[0]
    assert float(row["W"]) == 2.0
    assert float(row["lambda"]) == 4.0
    assert float(row["rho"]) == 10.0  # --set wins over the file
    assert float(row["k"]) == pytest.approx(0.5)


def test_manifest_keys_and_simulate_stdout(tmp_path, capsys):
    # the hash covers the configuration only: no presentation flag enters it
    out = tmp_path / "sim"
    assert main(["--out", str(out), "--seed", "3", "simulate", "--K", "50"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config_hash", "version", "files", "environment", "subcommand",
                             "config", "grid", "seed"}
    printed = capsys.readouterr().out
    rates = re.findall(r"(lower|upper|AWGN) (\S+) bits/s \((\S+) nats/s\)", printed)
    assert [name for name, _, _ in rates] == ["lower", "upper", "AWGN"]
    for _, bits, nats in rates:
        assert float(bits) == pytest.approx(float(nats) / math.log(2.0), abs=2e-4)


def test_excursion_at_large_k_and_snr(tmp_path, capsys):
    # exp(a) overflows here (a = P_hat/(2 sigma_z^2) > 709)
    rc = main(["--out", str(tmp_path), "excursion", "--k-list", "1000", "--rho-db", "60"])
    assert rc == 0 and "Traceback" not in capsys.readouterr().err
    (row,) = read_rows(tmp_path / "excursion.csv")
    assert math.isfinite(float(row["tau_over_beta"])) and float(row["tau_over_beta"]) > 0.0


def test_crossing_dump_format(tmp_path):
    out = tmp_path / "dump"
    assert main(["--out", str(out), "--seed", "2", "simulate", "--K", "50",
                 "--dump-crossings"]) == 0
    blob = (out / "tx_crossings.bin").read_bytes()
    count = int.from_bytes(blob[:8], "little")
    assert count == 50
    times = np.frombuffer(blob[8:], dtype="<f8")
    assert times.size == count
    assert np.all(np.diff(times) > 0)


def test_psd_csv_columns(tmp_path):
    out = tmp_path / "psd"
    assert main(["--out", str(out), "--seed", "4", "psd", "--k-list", "1",
                 "--K", "2000"]) == 0
    rows = read_rows(out / "psd_k1.csv")
    assert set(rows[0]) >= {"f_over_W", "lower", "upper", "empirical"}
    f = np.array([float(r["f_over_W"]) for r in rows])
    assert f.min() > 0.0 and f.max() <= 3.0
    lower = np.array([float(r["lower"]) for r in rows])
    upper = np.array([float(r["upper"]) for r in rows])
    assert np.all(lower <= upper)


class _Axes:
    """Stands in for a matplotlib Axes: records every call made on it."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        return lambda *args, **kwargs: self.calls.append((name, args, kwargs))


def _stub_matplotlib(monkeypatch) -> list:
    """Install a matplotlib that records calls; returns the call list."""
    calls: list = []
    pyplot = types.ModuleType("matplotlib.pyplot")

    def subplots(n=1, m=1, squeeze=True, **kw):
        axes = np.array([[_Axes(calls) for _ in range(m)] for _ in range(n)], dtype=object)
        if squeeze:
            axes = axes.item() if axes.size == 1 else axes.ravel()
        return _Axes(calls), axes

    pyplot.subplots = subplots
    pyplot.__getattr__ = _Axes(calls).__getattr__
    package = types.ModuleType("matplotlib")
    package.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", package)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return calls


# subcommand at a small size -> (x column, the y columns its plot draws,
# marker lines: "axvline"/"axhline" at a position or at each row's column)
_PLOTTED = {
    "bounds_sweep": (["bounds-sweep", "--k-points", "3", "--rho-db", "10,20"], "k",
                     ["lower_bits_s", "upper_bits_s", "awgn_bits_s"], []),
    "k_opt": (["k-opt", "--rho-db", "10,20"], "rho_dB", ["k_opt", "ratio_awgn_over_lower"], []),
    "spectral_efficiency": (["spectral-efficiency", "--rho-db", "0,10", "--k-list", "1,2"],
                            "rho_dB", ["lower_bits_s_hz", "upper_bits_s_hz"],
                            [("axvline", "sdr_star_dB")]),
    "psd": (["psd", "--k-list", "1,2", "--K", "1000"], "f_over_W", ["upper", "empirical"], []),
    "transition_census": (["transition-census", "--rho-db", "10", "--k-list", "1"], "rho_dB",
                          ["E_N", "Var_N"], []),
    "gauss_check": (["gauss-check", "--rho-db", "0,10", "--k-list", "1"], "rho_dB",
                    ["sigma_ratio"], [("axhline", 1.0)]),
    "excursion": (["excursion", "--rho-db", "0,10"], "rho_dB", ["tau_over_beta"], []),
    "lp_distortion": (["lp-distortion", "--k-list", "1,2", "--n-time", "2000",
                       "--n-ensemble", "50"], "k",
                      ["var_time", "var_ensemble", "sigma_xt_sq_lo", "sigma_xt_sq_hi", "kl_nats"],
                      []),
    "deletions": (["deletions", "--rho-db", "15", "--beta-list", "1", "--ratio-list", "0.5,1",
                   "--K", "50", "--dt", "5e-3"], "two_beta_W", ["n_deletions"],
                  [("axvline", 1.0)]),
}


def test_plot_scripts_are_written(tmp_path, monkeypatch, capsys):
    calls = _stub_matplotlib(monkeypatch)
    for name, (args, x, columns, markers) in _PLOTTED.items():
        out = tmp_path / name
        assert main(["--out", str(out), *args]) == 0
        script = out / f"plot_{name}.py"
        assert "matplotlib" in script.read_text()
        calls.clear()
        runpy.run_path(str(script), run_name="__main__")
        drawn = set()
        for method, cargs, _ in calls:
            if method in ("plot", "semilogy", "scatter"):
                drawn |= set(zip(cargs[0], cargs[1]))
        csvs = sorted(out.glob("psd_k*.csv" if name == "psd" else f"{name}.csv"))
        assert csvs
        for path in csvs:
            rows = read_rows(path)
            for column in columns:
                want = {(float(r[x]), float(r[column])) for r in rows}
                assert want <= drawn, (name, path.name, column)
            for method, at in markers:
                want = {float(r[at]) for r in rows} if isinstance(at, str) else {at}
                assert want <= {c[1][0] for c in calls if c[0] == method}, (name, method)
        assert [c[1][0] for c in calls if c[0] == "savefig"] == [out / f"{name}.png"]
