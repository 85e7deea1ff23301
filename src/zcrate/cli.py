"""Command-line front end: parameter sweeps, simulation experiments, CSV
emission, and generated plot scripts.

Each grid subcommand is a :class:`Sweep`: its axes, a pure cell function, its
CSV header and a declarative :class:`Plot`.  One engine (:func:`run_sweep`)
maps the cell function over the product of the axes, in ``--jobs`` worker
processes, and writes the CSV, a matplotlib plot script that reads it by
relative path, and a manifest recording the configuration hash, seed,
package version and the Python, numpy and scipy versions.  Each Monte-Carlo
cell draws from its own child of ``SeedSequence(seed)``, so a cell's row
depends only on its position in the grid, and reruns with the same spec and
seed produce byte-identical CSVs whatever ``--jobs`` is.  Rates are computed
in nats internally; CSV columns carry both bits/s and nats/s.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import platform
import pprint
import struct
import sys
from dataclasses import asdict, dataclass
from functools import partial
from multiprocessing import Pool
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
# numpy imports numpy.random on first attribute access; importing it here
# keeps that cost in start-up rather than in the first Monte-Carlo cell
from numpy.random import SeedSequence, default_rng

from . import __version__
from .bounds import bound_report, delta_offset, k_opt, sigma_S_sq
from .distortion import c0_constant, c2_constant, distortion_bounds
from .level_crossing import (
    AcfModel,
    mean_excursion_duration,
    shift_variance_ratio,
    transition_curve,
    variance_curve_crossings,
)
from .params import DerivedParams, derive
from .quadrature import NumericalError, quad_checked
from .simulate import (
    deletion_census,
    empirical_psd,
    lp_distortion_stats,
    run_chain,
    transition_crossing_census,
)
from .spectrum import g_mag_sq, psd_bounds, psd_finite_k

LN2 = math.log(2.0)


class UsageError(ValueError):
    """Bad grid or configuration supplied on the command line."""


@dataclass
class ExperimentSpec:
    """Everything one subcommand run depends on."""

    subcommand: str
    config: dict              # W, lambda, rho, P_hat (floats), seed (int)
    grid: dict                # subcommand-specific ranges and sizes
    output_dir: str
    jobs: int = 1


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_DEFAULT_CONFIG = {"W": 1.0, "lambda": 1.0, "rho": 10.0, "P_hat": 1.0, "seed": 1234}


def _set_config(cfg: dict, key: str, value: str, where: str) -> None:
    if key not in _DEFAULT_CONFIG:
        raise UsageError(f"{where}: unknown config key {key!r}")
    try:
        cfg[key] = int(value) if key == "seed" else float(value)
    except ValueError as exc:
        kind = "an integer" if key == "seed" else "a number"
        raise UsageError(f"{where}: {key} must be {kind}, got {value!r}") from exc


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Flat key-value config file plus --set overrides."""
    cfg = dict(_DEFAULT_CONFIG)
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeError) as exc:
            raise UsageError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, value = (part.strip() for part in line.split(sep, 1))
                    break
            else:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            _set_config(cfg, key, value, f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        _set_config(cfg, key, value, "--set")
    return cfg


def _params(cfg: dict, k: float | None = None, rho_db: float | None = None) -> DerivedParams:
    """The config's parameters, at k = W/lambda and SNR rho_db [dB] when given."""
    lam = cfg["lambda"] if k is None else cfg["W"] / k
    rho = cfg["rho"] if rho_db is None else 10.0 ** (rho_db / 10.0)
    return derive(cfg["W"], lam, rho, cfg["P_hat"])


def parse_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"expected finite numbers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".15g")


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_manifest(spec: ExperimentSpec, out: Path, files: list[str]) -> None:
    payload = {
        "subcommand": spec.subcommand,
        "config": spec.config,
        "grid": spec.grid,
        "seed": spec.config["seed"],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    manifest = {
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "version": __version__,
        "files": files,
        # kept out of the hash: the same configuration on another install
        # must hash the same
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        **payload,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


@dataclass(frozen=True)
class Plot:
    """What a generated plot script draws: for each CSV it reads and each value
    of the ``group`` column, one line per column of each panel."""

    title: str
    x: str
    xlabel: str
    panels: dict                 # y label -> y columns, top panel first
    group: str | None = None
    xlog: bool = False
    ylog: bool = False
    scatter: bool = False        # points only, no lines
    markers: tuple = ()          # (("axvline" or "axhline", position or column), ...)


_PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Plot %(title)s from the CSV written alongside this script."""
from pathlib import Path
import csv
import matplotlib.pyplot as plt

spec = %(spec)s

here = Path(__file__).resolve().parent
fig, axes = plt.subplots(len(spec["panels"]), 1, sharex=True, squeeze=False)
axes = axes[:, 0]
for fname in sorted(here.glob(spec["csv"])):
    with open(fname) as fh:
        rows = list(csv.DictReader(fh))
    key = spec["group"]
    for value in sorted({r[key] for r in rows}, key=float) if key else [None]:
        pts = [r for r in rows if key is None or r[key] == value]
        tag = f"{key}={value}" if key else fname.stem
        x = [float(p[spec["x"]]) for p in pts]
        for ax, columns in zip(axes, spec["panels"].values()):
            for column, style in zip(columns, ["-", "--", ":", "-."]):
                ax.plot(x, [float(p[column]) for p in pts], "o" if spec["scatter"] else style,
                        label=f"{column} {tag}")
        for method, at in spec["markers"]:
            pos = float(pts[0][at]) if isinstance(at, str) else at
            getattr(axes[0], method)(pos, color="k", lw=0.5, ls=":")
for ax, ylabel in zip(axes, spec["panels"]):
    ax.set_ylabel(ylabel)
    ax.set_yscale("log" if spec["ylog"] else "linear")
    ax.legend(fontsize="small")
axes[-1].set_xscale("log" if spec["xlog"] else "linear")
axes[-1].set_xlabel(spec["xlabel"])
plt.tight_layout()
plt.savefig(here / spec["png"], dpi=150)
print("wrote", here / spec["png"])
'''


def write_plot_script(out: Path, name: str, plot: Plot, csv_glob: str) -> str:
    spec = pprint.pformat({**asdict(plot), "csv": csv_glob, "png": f"{name}.png"},
                          sort_dicts=False)
    path = out / f"plot_{name}.py"
    path.write_text(_PLOT_TEMPLATE % {"title": plot.title, "spec": spec})
    return path.name


# ---------------------------------------------------------------------------
# grid subcommands: cell functions (config, grid, seed or None, *axis values)
# ---------------------------------------------------------------------------

def _bounds_cell(cfg: dict, grid: dict, seed, rho_db: float, k: float) -> tuple:
    p = _params(cfg, k, rho_db)
    rep = bound_report(p)
    return (
        p.W, p.lam, k, rho_db,
        rep.lower_rate / LN2, rep.upper_rate / LN2, rep.awgn / LN2,
        rep.mu_bar, rep.nu, rep.sigma_S_sq, rep.clamped,
        rep.lower_rate, rep.upper_rate, rep.awgn, rep.lower_rate_raw,
    )


def _k_opt_cell(cfg: dict, grid: dict, seed, rho_db: float) -> tuple:
    rho = 10.0 ** (rho_db / 10.0)
    k = k_opt(rho)
    d = delta_offset(k, rho)
    return (rho_db, k, d, math.exp(d), d / LN2)


def _spectral_efficiency_cell(cfg: dict, grid: dict, seed, k: float, rho_db: float) -> tuple:
    p = _params(cfg, k, rho_db)
    rep = bound_report(p)
    return (rho_db, k, rep.lower_rate / (2.0 * p.W) / LN2, rep.upper_rate / (2.0 * p.W) / LN2,
            10.0 * math.log10(rep.sdr.sdr_lo))


def _psd_cell(cfg: dict, grid: dict, seed, k: float) -> list[tuple]:
    p = _params(cfg, k)
    emp = empirical_psd(p, grid["K"], default_rng(seed))
    mask = (emp.f > 0) & (emp.f <= 3.0 * p.W)
    f = emp.f[mask]
    w = 2.0 * math.pi * f
    lower, upper = psd_bounds(w, p)
    finite_k = psd_finite_k(w, p, grid["K"])
    return list(zip(f / p.W, lower, upper, emp.psd[mask], finite_k))


def _census_cell(cfg: dict, grid: dict, seed, k: float, rho_db: float) -> tuple:
    p = _params(cfg, k, rho_db)
    psi, psip, T = transition_curve(p)
    acf = AcfModel.total(p, "upper")
    crossings = variance_curve_crossings(psi, psip, T, acf)
    row = (rho_db, k, crossings.expectation, crossings.variance)
    if seed is None:
        return row
    cen = transition_crossing_census(p, grid["mc_trials"], default_rng(seed))
    return row + (cen.mean, cen.var)


def _gauss_cell(cfg: dict, grid: dict, seed, k: float, rho_db: float) -> tuple:
    p = _params(cfg, k, rho_db)
    ratio = shift_variance_ratio(p, distortion_bounds(p).sigma_z_sq_hi)
    return (rho_db, k, math.sqrt(ratio), ratio)


def _excursion_cell(cfg: dict, grid: dict, seed, k: float, rho_db: float) -> tuple:
    p = _params(cfg, k, rho_db)
    db = distortion_bounds(p)
    return (rho_db, k, mean_excursion_duration(p, db.sigma_z_sq_hi, db.s2_zz_lo) / p.beta)


def _lp_distortion_cell(cfg: dict, grid: dict, seed, k: float) -> tuple:
    p = _params(cfg, k)
    st = lp_distortion_stats(p, grid["n_time"], grid["n_ensemble"], default_rng(seed))
    db = distortion_bounds(p)
    return (k, st.mean_time, st.var_time, float(st.mean_ensemble.mean()), st.var_ensemble_pooled,
            st.kl_nats, db.sigma_xt_sq_lo, db.sigma_xt_sq_hi)


def _deletions_cell(cfg: dict, grid: dict, seed, rho_db: float, beta: float, ratio: float) -> tuple:
    W = ratio / (2.0 * beta)
    dc = deletion_census(cfg["lambda"], beta, W, 10.0 ** (rho_db / 10.0), grid["K"],
                         grid["dt"], default_rng(seed), P_hat=cfg["P_hat"])
    return (rho_db, beta, W, ratio, dc.k_tilde, grid["K"], dc.n_deletions, dc.n_insertions,
            dc.n_deletions_filter)


@dataclass(frozen=True)
class Sweep:
    """A grid subcommand: its cell function mapped over the product of its axes."""

    axes: Callable[[dict], tuple]    # grid -> (name, values) pairs, outermost (slowest) first
    cell: Callable                   # module-level, so that worker processes can run it
    csv: str                         # with "{}", one CSV per cell, named by its first axis value
    header: tuple
    plot: Plot
    seeded: Callable[[dict], bool] = lambda grid: False   # True: Monte-Carlo cells, each seeded
    mc_header: tuple = ()            # columns a seeded cell appends to ``header``


def _k_and_snr(grid: dict) -> tuple:
    return (("k", grid["k_list"]), ("rho_dB", grid["rho_db"]))


def _monte_carlo(grid: dict) -> bool:
    return True


_SNR = "SNR [dB]"
_SWEEPS = {
    "bounds-sweep": Sweep(
        lambda g: (("rho_dB", g["rho_db"]),
                   ("k", np.geomspace(g["k_min"], g["k_max"], g["k_points"]).tolist())),
        _bounds_cell, "bounds_sweep.csv",
        ("W", "lambda", "k", "rho_dB", "lower_bits_s", "upper_bits_s", "awgn_bits_s", "mu_bar",
         "nu", "sigma_S_sq", "clamped_flag", "lower_nats_s", "upper_nats_s", "awgn_nats_s",
         "lower_raw_nats_s"),
        Plot("rate bounds vs k", "k", "k = W/lambda", group="rho_dB", xlog=True,
             panels={"rate [bits/s]": ("lower_bits_s", "upper_bits_s", "awgn_bits_s")})),
    "k-opt": Sweep(
        lambda g: (("rho_dB", g["rho_db"]),), _k_opt_cell, "k_opt.csv",
        ("rho_dB", "k_opt", "delta_nats", "ratio_awgn_over_lower", "delta_bits"),
        Plot("optimal k vs SNR", "rho_dB", _SNR,
             panels={"k_opt": ("k_opt",), "C_AWGN / lower": ("ratio_awgn_over_lower",)})),
    "spectral-efficiency": Sweep(
        _k_and_snr, _spectral_efficiency_cell, "spectral_efficiency.csv",
        ("rho_dB", "k", "lower_bits_s_hz", "upper_bits_s_hz", "sdr_star_dB"),
        Plot("spectral efficiency", "rho_dB", _SNR, group="k",
             panels={"bits/s/Hz": ("lower_bits_s_hz", "upper_bits_s_hz")},
             markers=(("axvline", "sdr_star_dB"),))),
    "psd": Sweep(
        lambda g: (("k", g["k_list"]),), _psd_cell, "psd_k{}.csv",
        ("f_over_W", "lower", "upper", "empirical", "finite_k"),
        Plot("PSD bounds and estimate", "f_over_W", "f / W", ylog=True,
             panels={"PSD [W/Hz]": ("upper", "empirical")}),
        seeded=_monte_carlo),
    "transition-census": Sweep(
        _k_and_snr, _census_cell, "transition_census.csv", ("rho_dB", "k", "E_N", "Var_N"),
        Plot("crossings per transition", "rho_dB", _SNR, group="k",
             panels={"crossings per transition": ("E_N", "Var_N")}),
        seeded=lambda g: g["mc_trials"] > 0, mc_header=("E_N_mc", "Var_N_mc")),
    "gauss-check": Sweep(
        _k_and_snr, _gauss_cell, "gauss_check.csv", ("rho_dB", "k", "sigma_ratio", "var_ratio"),
        Plot("Gaussian approximation check", "rho_dB", _SNR, group="k",
             panels={"sigma ratio": ("sigma_ratio",)}, markers=(("axhline", 1.0),))),
    "excursion": Sweep(
        _k_and_snr, _excursion_cell, "excursion.csv", ("rho_dB", "k", "tau_over_beta"),
        Plot("mean excursion duration", "rho_dB", _SNR, group="k", ylog=True,
             panels={"mean excursion / beta": ("tau_over_beta",)})),
    "lp-distortion": Sweep(
        lambda g: (("k", g["k_list"]),), _lp_distortion_cell, "lp_distortion.csv",
        ("k", "mean_time", "var_time", "mean_ensemble", "var_ensemble", "kl_nats",
         "sigma_xt_sq_lo", "sigma_xt_sq_hi"),
        Plot("lowpass distortion statistics", "k", "k", panels={
            "variance": ("var_time", "var_ensemble", "sigma_xt_sq_lo", "sigma_xt_sq_hi"),
            "KL [nats]": ("kl_nats",)}),
        seeded=_monte_carlo),
    "deletions": Sweep(
        lambda g: (("rho_dB", g["rho_db"]), ("beta", g["beta_list"]),
                   ("two_beta_W", g["ratio_list"])), _deletions_cell,
        "deletions.csv", ("rho_dB", "beta", "W", "two_beta_W", "k_tilde", "n_symbols",
                          "n_deletions", "n_insertions", "n_deletions_filter"),
        Plot("deletion census", "two_beta_W", "2 beta W", group="rho_dB", scatter=True,
             panels={"deletions": ("n_deletions",)}, markers=(("axvline", 1.0),)),
        seeded=_monte_carlo),
}


def _map(fn, cells: list[tuple], jobs: int) -> list:
    """``fn(*cell)`` for every cell, in order; in worker processes when jobs > 1."""
    if jobs <= 1 or len(cells) <= 1:
        return [fn(*cell) for cell in cells]
    with Pool(processes=min(jobs, len(cells))) as pool:
        return pool.starmap(fn, cells)


def _run_cell(cell: Callable, names: tuple, cfg: dict, grid: dict, seed, *point):
    """``cell(cfg, grid, seed, *point)``; a cell whose numbers leave the floats
    is a usage error named by its grid point."""
    try:
        return cell(cfg, grid, seed, *point)
    except (ValueError, ArithmeticError) as exc:
        where = ", ".join(f"{name} = {value:g}" for name, value in zip(names, point))
        raise UsageError(f"{where}: {exc}") from exc


def run_sweep(spec: ExperimentSpec, out: Path) -> list[str]:
    sweep = _SWEEPS[spec.subcommand]
    names, values = zip(*sweep.axes(spec.grid))
    points = list(itertools.product(*values))
    seeded = sweep.seeded(spec.grid)
    seeds = (SeedSequence(spec.config["seed"]).spawn(len(points)) if seeded
             else [None] * len(points))
    cells = [(spec.config, spec.grid, seed, *point) for seed, point in zip(seeds, points)]
    results = _map(partial(_run_cell, sweep.cell, names), cells, spec.jobs)
    header = list(sweep.header + (sweep.mc_header if seeded else ()))
    if "{}" in sweep.csv:
        files = [sweep.csv.format(_fmt(point[0])) for point in points]
        for fname, rows in zip(files, results):
            write_csv(out / fname, header, rows)
    else:
        files = [sweep.csv]
        write_csv(out / sweep.csv, header, results)
    name = spec.subcommand.replace("-", "_")
    return files + [write_plot_script(out, name, sweep.plot, sweep.csv.replace("{}", "*"))]


# ---------------------------------------------------------------------------
# single-run subcommands
# ---------------------------------------------------------------------------

def run_simulate(spec: ExperimentSpec, out: Path) -> list[str]:
    rng = default_rng(spec.config["seed"])
    p = _params(spec.config)
    rep = bound_report(p)
    rates = {"lower": rep.lower_rate, "upper": rep.upper_rate, "AWGN": rep.awgn}
    print(f"bounds at W={p.W:g}, lambda={p.lam:g}, rho={p.rho:g}: " + ", ".join(
        f"{name} {rate / LN2:.4f} bits/s ({rate:.4f} nats/s)" for name, rate in rates.items()))
    run = run_chain(p, spec.grid["K"], p.beta / 24.0, rng)
    shift_var = float(np.var(run.report.shift_samples)) if run.report.shift_samples.size else math.nan
    rows = [(
        p.W, p.lam, p.rho, p.k, spec.grid["K"],
        len(run.rx), run.report.n_insertions, run.report.n_deletions,
        shift_var, sigma_S_sq(p, p.sigma_nhat_sq + run.sigma_xt_emp),
        run.sigma_xt_emp, rep.sdr.sigma_xt_sq_lo, rep.sdr.sigma_xt_sq_hi,
    )]
    header = ["W", "lambda", "rho", "k", "n_tx", "n_rx", "n_insertions", "n_deletions",
              "shift_var", "sigma_S_sq_emp", "sigma_xt_emp", "sigma_xt_sq_lo", "sigma_xt_sq_hi"]
    write_csv(out / "simulate.csv", header, rows)
    files = ["simulate.csv"]
    if spec.grid["dump_crossings"]:
        for name, seq in (("tx_crossings.bin", run.tx), ("rx_crossings.bin", run.rx)):
            payload = struct.pack("<Q", len(seq)) + seq.times.astype("<f8").tobytes()
            (out / name).write_bytes(payload)
            files.append(name)
    return files


def run_constants(spec: ExperimentSpec, out: Path) -> list[str]:
    c0 = c0_constant()
    c2 = c2_constant()

    c0_oracle = 2.0 * math.pi * (
        quad_checked(lambda u: g_mag_sq(u, 1.0), math.pi, 4.0 * math.pi, "c0 head")
        + quad_checked(lambda u: 2.0 * math.pi**4 / (u**2 * (math.pi**2 - u**2) ** 2),
                       4.0 * math.pi, np.inf, "c0 tail")
        + quad_checked(lambda u: 2.0 * math.pi**4 / (u**2 * (math.pi**2 - u**2) ** 2),
                       4.0 * math.pi, np.inf, "c0 tail cos", weight="cos", wvar=1.0)
    )
    c2_oracle = (2.0 / math.pi) * (
        quad_checked(lambda u: u**2 * g_mag_sq(u, 1.0), math.pi, 4.0 * math.pi, "c2 head")
        + quad_checked(lambda u: 2.0 * math.pi**4 / (math.pi**2 - u**2) ** 2,
                       4.0 * math.pi, np.inf, "c2 tail")
        + quad_checked(lambda u: 2.0 * math.pi**4 / (math.pi**2 - u**2) ** 2,
                       4.0 * math.pi, np.inf, "c2 tail cos", weight="cos", wvar=1.0)
    )
    # crossing rate of brick-wall noise per unit bandwidth: evaluate the
    # Rice rate with the sinc ACF at W = 1 and compare against 2/sqrt(3)
    rice = 2.0 / math.sqrt(3.0)
    noise = AcfModel.bandlimited_noise(1.0, 1.0)
    rice_oracle = (1.0 / math.pi) * math.sqrt(-float(noise.s2(0.0)) / noise.s0)

    rows = [
        ("c0", c0, c0_oracle, abs(c0 / c0_oracle - 1.0)),
        ("c2", c2, c2_oracle, abs(c2 / c2_oracle - 1.0)),
        ("zc_rate_coeff", rice, rice_oracle, abs(rice / rice_oracle - 1.0)),
    ]
    write_csv(out / "constants.csv", ["quantity", "value", "oracle", "rel_residual"], rows)
    for name, value, oracle, resid in rows:
        print(f"{name} = {value:.12f}   oracle {oracle:.12f}   rel residual {resid:.3e}")
    return ["constants.csv"]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {"simulate": run_simulate, "constants": run_constants}


def run(spec: ExperimentSpec) -> int:
    out = Path(spec.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output dir {out} not writable: {exc}", file=sys.stderr)
        return 2
    try:
        files = _RUNNERS.get(spec.subcommand, run_sweep)(spec, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:  # simulate's one cell is the config
        print(f"usage error: config: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure in {spec.subcommand}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory in {spec.subcommand}: {exc}", file=sys.stderr)
        return 1
    write_manifest(spec, out, files)
    print(f"{spec.subcommand}: wrote {', '.join(files)} to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _steps(start: int, stop: int, step: int) -> str:
    return ",".join(str(v) for v in range(start, stop, step))


# subcommand -> (help, {option: default}).  A string default is a
# comma-separated list of numbers; an integer option's default comes as
# (default, smallest accepted value).
_COMMANDS = {
    "bounds-sweep": ("rate bounds over a (k, SNR) grid",
                     {"k_min": 0.1, "k_max": 5.0, "k_points": (40, 2), "rho_db": "10,20,30"}),
    "k-opt": ("offset-minimizing k over SNR", {"rho_db": _steps(6, 41, 2)}),
    "spectral-efficiency": ("bounds normalized by 2W vs SNR",
                            {"rho_db": _steps(0, 51, 2), "k_list": "0.5,1,2,4"}),
    "psd": ("PSD bounds, finite-block approximation, periodogram of K symbols",
            {"k_list": "0.5,1,2", "K": (100000, 1000)}),
    "transition-census": ("crossings per transition interval; --mc-trials N >= 2 adds "
                          "Monte-Carlo columns over N transitions",
                          {"rho_db": "0,3,6,10,15,20", "k_list": "0.5,1,2", "mc_trials": (0, 0)}),
    "gauss-check": ("shift density vs Gaussian approximation",
                    {"rho_db": _steps(0, 21, 2), "k_list": "0.5,1,2"}),
    "excursion": ("mean noise excursion duration", {"rho_db": _steps(0, 21, 2), "k_list": "1"}),
    "lp-distortion": ("empirical lowpass-distortion statistics",
                      {"k_list": "0.5,1,2,4", "n_time": (10**6, 2), "n_ensemble": (2000, 2)}),
    "deletions": ("deletion census with decoupled (W, beta); --ratio-list gives 2*beta*W",
                  {"rho_db": "6,15", "beta_list": "0.5,1,2",
                   "ratio_list": "0.2,0.3,0.5,1.0,1.25", "K": (1000, 1), "dt": 1e-3}),
    "simulate": ("one end-to-end run with match statistics",
                 {"K": (2000, 2), "dump_crossings": False}),
    "constants": ("print c0, c2, and the crossing-rate factor with oracles", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zcrate",
        description="Rate bounds and waveform simulation for zero-crossing "
                    "signaling over 1-bit quantized AWGN channels.",
    )
    parser.add_argument("--config", help="flat key=value config file (W, lambda, rho, P_hat, seed)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config value (repeatable)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for grid subcommands")

    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text, description=text)
        for key, default in options.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                cmd.add_argument(flag, action="store_true")
            elif isinstance(default, tuple):
                cmd.add_argument(flag, type=int, default=default[0],
                                 help=f"integer >= {default[1]}")
            elif isinstance(default, str):
                cmd.add_argument(flag, default=default, help="comma-separated numbers")
            else:
                cmd.add_argument(flag, type=float, default=default)
    return parser


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    cfg = load_config(args.config, args.set)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if cfg["seed"] < 0:
        raise UsageError(f"seed must be >= 0, got {cfg['seed']}")
    try:
        _params(cfg)
    except ValueError as exc:
        raise UsageError(f"config: {exc}") from exc
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    grid = {}
    for key, default in _COMMANDS[args.subcommand][1].items():
        value = getattr(args, key)
        if isinstance(default, str):
            value = parse_list(value)
            if not value:
                raise UsageError(f"empty grid for {key}")
        elif isinstance(default, tuple) and value < default[1]:
            raise UsageError(f"{key} must be >= {default[1]}, got {value}")
        elif isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{key} must be finite, got {value}")
        grid[key] = value
    if grid.get("mc_trials") == 1:
        raise UsageError("mc_trials must be 0 or >= 2, got 1")
    for rho_db in grid.get("rho_db", ()):
        try:
            rho = 10.0 ** (rho_db / 10.0)
        except OverflowError:
            rho = math.inf
        if not 0 < rho < math.inf:
            raise UsageError(f"rho_db {rho_db:g} gives a linear SNR outside (0, inf)")
    for key in ("k_list", "beta_list", "ratio_list"):
        if key in grid and not all(v > 0 for v in grid[key]):
            raise UsageError(f"{key} values must be positive, got {grid[key]}")
    if "k_min" in grid and not 0 < grid["k_min"] < grid["k_max"]:
        raise UsageError(f"need 0 < k_min < k_max, got {grid['k_min']} and {grid['k_max']}")
    if "dt" in grid:
        dt_max = min(grid["beta_list"]) / 20.0
        if not (0 < grid["dt"] <= dt_max):
            raise UsageError(f"dt must lie in (0, min(beta_list)/20 = {dt_max:.3g}], "
                             f"got {grid['dt']}")
        fastest = max(ratio / beta for beta in grid["beta_list"] for ratio in grid["ratio_list"])
        if 1.0 / grid["dt"] < fastest:
            raise UsageError(f"sample rate 1/dt = {1.0 / grid['dt']:.3g} is below 2W = "
                             f"ratio/beta = {fastest:.3g}")
    return ExperimentSpec(
        subcommand=args.subcommand, config=cfg, grid=grid, output_dir=args.out, jobs=args.jobs,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
