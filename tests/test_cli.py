"""CLI behavior: grids, CSV contracts, determinism, exit codes."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from zcrate.cli import main


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
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), "--seed", "3", "bounds-sweep", "--k-points", "6"]) == 0
    assert main(["--out", str(b), "--seed", "3", "--jobs", "2", "bounds-sweep",
                 "--k-points", "6"]) == 0
    assert (a / "bounds_sweep.csv").read_bytes() == (b / "bounds_sweep.csv").read_bytes()


def test_invalid_grid_exit_code(tmp_path):
    rc = main(["--out", str(tmp_path), "bounds-sweep", "--k-min", "5", "--k-max", "1"])
    assert rc == 2
    rc = main(["--out", str(tmp_path), "--set", "bogus=1", "constants"])
    assert rc == 2


@pytest.mark.parametrize("args", [["psd", "--k-list", "0"], ["deletions", "--dt", "1"]])
def test_bad_value_is_usage_error(tmp_path, capsys, args):
    rc = main(["--out", str(tmp_path), *args])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_plot_scripts_are_written(tmp_path):
    out = tmp_path / "plots"
    assert main(["--out", str(out), "k-opt", "--rho-db", "10,20"]) == 0
    script = out / "plot_k_opt.py"
    assert script.exists()
    assert "matplotlib" in script.read_text()
