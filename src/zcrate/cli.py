"""Command-line front end: parameter sweeps, simulation experiments, CSV
emission, and generated plot scripts.

Every subcommand writes one or more CSV files, a matplotlib plot script that
reads them by relative path, and a manifest recording the configuration
hash, seed, package version and the Python, numpy and scipy versions.
Reruns with the same spec and seed produce byte-identical CSVs.  Rates are
computed in nats internally; CSV columns carry both bits/s and nats/s.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import struct
import sys
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bounds import bound_report, delta_offset, k_opt, sigma_S_sq
from .distortion import c0_constant, c2_constant, distortion_bounds
from .level_crossing import (
    AcfModel,
    expected_curve_crossings,
    mean_excursion_duration,
    shift_variance_ratio,
    transition_curve,
    variance_curve_crossings,
)
from .params import ChannelConfig, derive
from .quadrature import NumericalError, quad_checked
from .simulate import (
    deletion_census,
    empirical_psd,
    lp_distortion_stats,
    run_chain,
    transition_crossing_census,
)
from .spectrum import psd_bounds, psd_finite_k

LN2 = math.log(2.0)


class UsageError(ValueError):
    """Bad grid or configuration supplied on the command line."""


@dataclass
class ExperimentSpec:
    """Everything one subcommand run depends on."""

    subcommand: str
    config: dict              # W, lambda, rho, P_hat (floats)
    grid: dict                # subcommand-specific ranges and sizes
    output_dir: str
    seed: int
    units: str = "bits"
    jobs: int = 1


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_DEFAULT_CONFIG = {"W": 1.0, "lambda": 1.0, "rho": 10.0, "P_hat": 1.0, "seed": 1234}
_CONFIG_KEYS = set(_DEFAULT_CONFIG)


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Flat key-value config file plus --set overrides."""
    cfg = dict(_DEFAULT_CONFIG)
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, value = (part.strip() for part in line.split(sep, 1))
                    break
            else:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            cfg[key] = int(value) if key == "seed" else float(value)
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"--set: unknown config key {key!r}")
        cfg[key] = int(value) if key == "seed" else float(value)
    return cfg


def _channel(cfg: dict, **replacements) -> ChannelConfig:
    merged = dict(cfg)
    merged.update(replacements)
    return ChannelConfig(
        W=merged["W"], lam=merged["lambda"], rho=merged["rho"],
        P_hat=merged["P_hat"], seed=merged["seed"],
    )


def parse_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if not (0 < lo < hi) or n < 2:
        raise UsageError(f"invalid log grid [{lo}, {hi}] x {n}")
    return np.geomspace(lo, hi, n)


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
        "grid": {k: (list(v) if isinstance(v, (list, tuple, np.ndarray)) else v)
                 for k, v in spec.grid.items()},
        "seed": spec.seed,
        "units": spec.units,
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


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
\"\"\"Plot {title} from the CSV written alongside this script.\"\"\"
from pathlib import Path
import csv
import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
{body}
plt.tight_layout()
plt.savefig(here / "{png}", dpi=150)
print("wrote", here / "{png}")
"""


def write_plot_script(out: Path, name: str, title: str, body: str) -> str:
    script = _PLOT_TEMPLATE.format(title=title, body=body, png=f"{name}.png")
    path = out / f"plot_{name}.py"
    path.write_text(script)
    return path.name


def _read_csv_body(fname: str, series: str) -> str:
    return (
        f"rows = list(csv.DictReader(open(here / \"{fname}\")))\n"
        f"{series}"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _bounds_point(args: tuple) -> tuple:
    cfg, k, rho_db = args
    rho = 10.0 ** (rho_db / 10.0)
    p = derive(_channel(cfg, **{"lambda": cfg["W"] / k, "rho": rho}))
    rep = bound_report(p)
    return (
        p.W, p.lam, k, rho_db,
        rep.lower_rate / LN2, rep.upper_rate / LN2, rep.awgn / LN2,
        rep.mu_bar, rep.nu, rep.sigma_S_sq, rep.clamped,
        rep.lower_rate, rep.upper_rate, rep.awgn, rep.lower_rate_raw,
    )


def run_bounds_sweep(spec: ExperimentSpec, out: Path) -> list[str]:
    g = spec.grid
    ks = log_grid(g["k_min"], g["k_max"], g["k_points"])
    work = [(spec.config, float(k), float(r)) for r in g["rho_db"] for k in ks]
    rows = _map(_bounds_point, work, spec.jobs)
    header = [
        "W", "lambda", "k", "rho_dB",
        "lower_bits_s", "upper_bits_s", "awgn_bits_s",
        "mu_bar", "nu", "sigma_S_sq", "clamped_flag",
        "lower_nats_s", "upper_nats_s", "awgn_nats_s", "lower_raw_nats_s",
    ]
    write_csv(out / "bounds_sweep.csv", header, rows)
    body = _read_csv_body(
        "bounds_sweep.csv",
        "rhos = sorted({row['rho_dB'] for row in rows}, key=float)\n"
        "for r in rhos:\n"
        "    pts = [row for row in rows if row['rho_dB'] == r]\n"
        "    ks = [float(p['k']) for p in pts]\n"
        "    plt.plot(ks, [float(p['lower_bits_s']) for p in pts], label=f'lower {r} dB')\n"
        "    plt.plot(ks, [float(p['upper_bits_s']) for p in pts], '--', label=f'upper {r} dB')\n"
        "    plt.plot(ks, [float(p['awgn_bits_s']) for p in pts], ':', label=f'AWGN {r} dB')\n"
        "plt.xscale('log')\nplt.xlabel('k = W/lambda')\nplt.ylabel('rate [bits/s]')\nplt.legend()\n",
    )
    return ["bounds_sweep.csv", write_plot_script(out, "bounds_sweep", "rate bounds vs k", body)]


def run_k_opt(spec: ExperimentSpec, out: Path) -> list[str]:
    rows = []
    for rho_db in spec.grid["rho_db"]:
        rho = 10.0 ** (rho_db / 10.0)
        k = k_opt(rho)
        d = delta_offset(k, rho)
        rows.append((rho_db, k, d, math.exp(d), d / LN2))
    write_csv(out / "k_opt.csv", ["rho_dB", "k_opt", "delta_nats", "ratio_awgn_over_lower", "delta_bits"], rows)
    body = _read_csv_body(
        "k_opt.csv",
        "x = [float(r['rho_dB']) for r in rows]\n"
        "fig, (a1, a2) = plt.subplots(2, 1, sharex=True)\n"
        "a1.plot(x, [float(r['k_opt']) for r in rows]); a1.set_ylabel('k_opt')\n"
        "a2.plot(x, [float(r['ratio_awgn_over_lower']) for r in rows])\n"
        "a2.set_ylabel('C_AWGN / lower'); a2.set_xlabel('SNR [dB]')\n",
    )
    return ["k_opt.csv", write_plot_script(out, "k_opt", "optimal k vs SNR", body)]


def run_spectral_efficiency(spec: ExperimentSpec, out: Path) -> list[str]:
    rows = []
    for k in spec.grid["k_list"]:
        lam = spec.config["W"] / k
        for rho_db in spec.grid["rho_db"]:
            rho = 10.0 ** (rho_db / 10.0)
            p = derive(_channel(spec.config, **{"lambda": lam, "rho": rho}))
            rep = bound_report(p)
            db = rep.sdr
            rows.append((
                rho_db, k,
                rep.lower_rate / (2.0 * p.W) / LN2,
                rep.upper_rate / (2.0 * p.W) / LN2,
                10.0 * math.log10(db.sdr_lo),
            ))
    header = ["rho_dB", "k", "lower_bits_s_hz", "upper_bits_s_hz", "sdr_star_dB"]
    write_csv(out / "spectral_efficiency.csv", header, rows)
    body = _read_csv_body(
        "spectral_efficiency.csv",
        "ks = sorted({r['k'] for r in rows}, key=float)\n"
        "for k in ks:\n"
        "    pts = [r for r in rows if r['k'] == k]\n"
        "    x = [float(p['rho_dB']) for p in pts]\n"
        "    plt.plot(x, [float(p['lower_bits_s_hz']) for p in pts], label=f'lower k={k}')\n"
        "    plt.plot(x, [float(p['upper_bits_s_hz']) for p in pts], '--', label=f'upper k={k}')\n"
        "    plt.axvline(float(pts[0]['sdr_star_dB']), color='k', lw=0.5, ls=':')\n"
        "plt.xlabel('SNR [dB]')\nplt.ylabel('bits/s/Hz')\nplt.legend()\n",
    )
    return ["spectral_efficiency.csv", write_plot_script(out, "spectral_efficiency", "spectral efficiency", body)]


def run_psd(spec: ExperimentSpec, out: Path) -> list[str]:
    files = []
    rng = np.random.default_rng(spec.seed)
    for k in spec.grid["k_list"]:
        p = derive(_channel(spec.config, **{"lambda": spec.config["W"] / k}))
        emp = empirical_psd(p, spec.grid["K"], p.beta / 20.0, rng)
        pb = psd_bounds(p)
        mask = (emp.f > 0) & (emp.f <= 3.0 * p.W)
        f = emp.f[mask]
        w = 2.0 * math.pi * f
        lower = pb.lower(w)
        upper = pb.upper(w)
        fk = psd_finite_k(w, p, spec.grid["K"])
        rows = list(zip(f / p.W, lower, upper, emp.psd[mask], fk))
        fname = f"psd_k{_fmt(k)}.csv"
        write_csv(out / fname, ["f_over_W", "lower", "upper", "empirical", "finite_k"], rows)
        files.append(fname)
    body = (
        "import glob\n"
        "for fname in sorted(glob.glob(str(here / 'psd_k*.csv'))):\n"
        "    rows = list(csv.DictReader(open(fname)))\n"
        "    x = [float(r['f_over_W']) for r in rows]\n"
        "    plt.semilogy(x, [float(r['upper']) for r in rows], label=Path(fname).stem + ' upper')\n"
        "    plt.semilogy(x, [float(r['empirical']) for r in rows], lw=0.5)\n"
        "plt.xlabel('f / W')\nplt.ylabel('PSD [W/Hz]')\nplt.legend()\n"
    )
    files.append(write_plot_script(out, "psd", "PSD bounds and estimate", body))
    return files


def run_transition_census(spec: ExperimentSpec, out: Path) -> list[str]:
    rng = np.random.default_rng(spec.seed)
    rows = []
    for k in spec.grid["k_list"]:
        lam = spec.config["W"] / k
        for rho_db in spec.grid["rho_db"]:
            rho = 10.0 ** (rho_db / 10.0)
            p = derive(_channel(spec.config, **{"lambda": lam, "rho": rho}))
            psi, psip, T = transition_curve(p)
            acf = AcfModel.total(p, "upper")
            e_val = expected_curve_crossings(psi, psip, T, acf)
            v = variance_curve_crossings(psi, psip, T, acf)
            row = [rho_db, k, e_val, v.variance]
            if spec.grid["mc_trials"]:
                cen = transition_crossing_census(p, rho, spec.grid["mc_trials"], rng)
                row += [cen.mean, cen.var]
            rows.append(tuple(row))
    header = ["rho_dB", "k", "E_N", "Var_N"]
    if spec.grid["mc_trials"]:
        header += ["E_N_mc", "Var_N_mc"]
    write_csv(out / "transition_census.csv", header, rows)
    body = _read_csv_body(
        "transition_census.csv",
        "ks = sorted({r['k'] for r in rows}, key=float)\n"
        "for k in ks:\n"
        "    pts = [r for r in rows if r['k'] == k]\n"
        "    x = [float(p['rho_dB']) for p in pts]\n"
        "    plt.plot(x, [float(p['E_N']) for p in pts], label=f'E k={k}')\n"
        "    plt.plot(x, [float(p['Var_N']) for p in pts], '--', label=f'Var k={k}')\n"
        "plt.xlabel('SNR [dB]')\nplt.legend()\n",
    )
    return ["transition_census.csv", write_plot_script(out, "transition_census", "crossings per transition", body)]


def run_gauss_check(spec: ExperimentSpec, out: Path) -> list[str]:
    rows = []
    for k in spec.grid["k_list"]:
        lam = spec.config["W"] / k
        for rho_db in spec.grid["rho_db"]:
            rho = 10.0 ** (rho_db / 10.0)
            p = derive(_channel(spec.config, **{"lambda": lam, "rho": rho}))
            db = distortion_bounds(p)
            ratio = shift_variance_ratio(p, db.sigma_z_sq_hi)
            rows.append((rho_db, k, math.sqrt(ratio), ratio))
    write_csv(out / "gauss_check.csv", ["rho_dB", "k", "sigma_ratio", "var_ratio"], rows)
    body = _read_csv_body(
        "gauss_check.csv",
        "ks = sorted({r['k'] for r in rows}, key=float)\n"
        "for k in ks:\n"
        "    pts = [r for r in rows if r['k'] == k]\n"
        "    plt.plot([float(p['rho_dB']) for p in pts], [float(p['sigma_ratio']) for p in pts], label=f'k={k}')\n"
        "plt.axhline(1.0, color='k', lw=0.5)\nplt.xlabel('SNR [dB]')\nplt.ylabel('sigma ratio')\nplt.legend()\n",
    )
    return ["gauss_check.csv", write_plot_script(out, "gauss_check", "Gaussian approximation check", body)]


def run_excursion(spec: ExperimentSpec, out: Path) -> list[str]:
    rows = []
    for k in spec.grid["k_list"]:
        lam = spec.config["W"] / k
        for rho_db in spec.grid["rho_db"]:
            rho = 10.0 ** (rho_db / 10.0)
            p = derive(_channel(spec.config, **{"lambda": lam, "rho": rho}))
            db = distortion_bounds(p)
            tau = mean_excursion_duration(p, db.sigma_z_sq_hi, db.s2_zz_lo)
            rows.append((rho_db, k, tau / p.beta))
    write_csv(out / "excursion.csv", ["rho_dB", "k", "tau_over_beta"], rows)
    body = _read_csv_body(
        "excursion.csv",
        "ks = sorted({r['k'] for r in rows}, key=float)\n"
        "for k in ks:\n"
        "    pts = [r for r in rows if r['k'] == k]\n"
        "    plt.semilogy([float(p['rho_dB']) for p in pts], [float(p['tau_over_beta']) for p in pts], label=f'k={k}')\n"
        "plt.xlabel('SNR [dB]')\nplt.ylabel('mean excursion / beta')\nplt.legend()\n",
    )
    return ["excursion.csv", write_plot_script(out, "excursion", "mean excursion duration", body)]


def run_lp_distortion(spec: ExperimentSpec, out: Path) -> list[str]:
    rng = np.random.default_rng(spec.seed)
    rows = []
    for k in spec.grid["k_list"]:
        p = derive(_channel(spec.config, **{"lambda": spec.config["W"] / k}))
        st = lp_distortion_stats(p, spec.grid["n_time"], spec.grid["n_ensemble"], rng)
        db = distortion_bounds(p)
        rows.append((
            k, st.mean_time, st.var_time,
            float(st.mean_ensemble.mean()), st.var_ensemble_pooled,
            st.kl_nats, db.sigma_xt_sq_lo, db.sigma_xt_sq_hi,
        ))
    header = ["k", "mean_time", "var_time", "mean_ensemble", "var_ensemble",
              "kl_nats", "sigma_xt_sq_lo", "sigma_xt_sq_hi"]
    write_csv(out / "lp_distortion.csv", header, rows)
    body = _read_csv_body(
        "lp_distortion.csv",
        "x = [float(r['k']) for r in rows]\n"
        "fig, (a1, a2) = plt.subplots(2, 1, sharex=True)\n"
        "a1.plot(x, [float(r['var_time']) for r in rows], 'o-', label='time')\n"
        "a1.plot(x, [float(r['var_ensemble']) for r in rows], 's--', label='ensemble')\n"
        "a1.plot(x, [float(r['sigma_xt_sq_lo']) for r in rows], ':', label='lower bound')\n"
        "a1.plot(x, [float(r['sigma_xt_sq_hi']) for r in rows], ':', label='upper bound')\n"
        "a1.set_ylabel('variance'); a1.legend()\n"
        "a2.plot(x, [float(r['kl_nats']) for r in rows], 'o-')\n"
        "a2.set_ylabel('KL [nats]'); a2.set_xlabel('k')\n",
    )
    return ["lp_distortion.csv", write_plot_script(out, "lp_distortion", "lowpass distortion statistics", body)]


def _deletion_point(args: tuple) -> tuple:
    seed, lam, beta, ratio, rho_db, K, dt, p_hat = args
    rng = np.random.default_rng(seed)
    W = ratio / (2.0 * beta)
    dc = deletion_census(lam, beta, W, 10.0 ** (rho_db / 10.0), K, dt, rng, P_hat=p_hat)
    return (rho_db, beta, W, ratio, dc.k_tilde, dc.n_symbols, dc.n_deletions, dc.n_insertions)


def run_deletions(spec: ExperimentSpec, out: Path) -> list[str]:
    g = spec.grid
    work = []
    for i, (rho_db, beta, ratio) in enumerate(
        (r, b, x) for r in g["rho_db"] for b in g["beta_list"] for x in g["ratio_list"]
    ):
        work.append((spec.seed + 7919 * i, 1.0, beta, ratio, rho_db,
                     g["K"], g["dt"], spec.config["P_hat"]))
    rows = _map(_deletion_point, work, spec.jobs)
    header = ["rho_dB", "beta", "W", "two_beta_W", "k_tilde", "n_symbols",
              "n_deletions", "n_insertions"]
    write_csv(out / "deletions.csv", header, rows)
    body = _read_csv_body(
        "deletions.csv",
        "snrs = sorted({r['rho_dB'] for r in rows}, key=float)\n"
        "for s in snrs:\n"
        "    pts = [r for r in rows if r['rho_dB'] == s]\n"
        "    plt.scatter([float(p['two_beta_W']) for p in pts],\n"
        "                [int(p['n_deletions']) for p in pts], label=f'{s} dB')\n"
        "plt.axvline(1.0, color='k', lw=0.5)\nplt.xlabel('2 beta W')\nplt.ylabel('deletions')\nplt.legend()\n",
    )
    return ["deletions.csv", write_plot_script(out, "deletions", "deletion census", body)]


def run_simulate(spec: ExperimentSpec, out: Path) -> list[str]:
    rng = np.random.default_rng(spec.seed)
    p = derive(_channel(spec.config))
    rep = bound_report(p)
    scale = 1.0 if spec.units == "nats" else 1.0 / LN2
    print(
        f"bounds at W={p.W:g}, lambda={p.lam:g}, rho={p.rho:g}: "
        f"lower {rep.lower_rate * scale:.4f}, upper {rep.upper_rate * scale:.4f}, "
        f"AWGN {rep.awgn * scale:.4f} [{spec.units}/s]"
    )
    run = run_chain(p, spec.grid["K"], p.beta / 24.0, rng)
    db = distortion_bounds(p)
    shift_var = float(np.var(run.report.shift_samples)) if run.report.shift_samples.size else math.nan
    rows = [(
        p.W, p.lam, p.rho, p.k, spec.grid["K"],
        len(run.rx), run.report.n_insertions, run.report.n_deletions,
        shift_var, sigma_S_sq(p, p.sigma_nhat_sq + run.sigma_xt_emp),
        run.sigma_xt_emp, db.sigma_xt_sq_lo, db.sigma_xt_sq_hi,
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

    def w_shape(u):
        from .spectrum import g_mag_sq
        return g_mag_sq(u, 1.0)

    c0_oracle = 2.0 * math.pi * (
        quad_checked(w_shape, math.pi, 4.0 * math.pi, label="c0 head", epsabs=1e-13)
        + quad_checked(lambda u: 2.0 * math.pi**4 / (u**2 * (math.pi**2 - u**2) ** 2),
                       4.0 * math.pi, np.inf, label="c0 tail", epsabs=1e-13)
        + quad_checked(lambda u: 2.0 * math.pi**4 / (u**2 * (math.pi**2 - u**2) ** 2),
                       4.0 * math.pi, np.inf, label="c0 tail cos", epsabs=1e-13,
                       weight="cos", wvar=1.0)
    )
    c2_oracle = (2.0 / math.pi) * (
        quad_checked(lambda u: u**2 * w_shape(u), math.pi, 4.0 * math.pi,
                     label="c2 head", epsabs=1e-13)
        + quad_checked(lambda u: 2.0 * math.pi**4 / (math.pi**2 - u**2) ** 2,
                       4.0 * math.pi, np.inf, label="c2 tail", epsabs=1e-13)
        + quad_checked(lambda u: 2.0 * math.pi**4 / (math.pi**2 - u**2) ** 2,
                       4.0 * math.pi, np.inf, label="c2 tail cos", epsabs=1e-13,
                       weight="cos", wvar=1.0)
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

_RUNNERS = {
    "bounds-sweep": run_bounds_sweep,
    "k-opt": run_k_opt,
    "spectral-efficiency": run_spectral_efficiency,
    "psd": run_psd,
    "transition-census": run_transition_census,
    "gauss-check": run_gauss_check,
    "excursion": run_excursion,
    "lp-distortion": run_lp_distortion,
    "deletions": run_deletions,
    "simulate": run_simulate,
    "constants": run_constants,
}


def _map(fn, work: list, jobs: int) -> list:
    if jobs <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    with Pool(processes=jobs) as pool:
        return pool.map(fn, work)


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
        files = _RUNNERS[spec.subcommand](spec, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure in {spec.subcommand}: {exc}", file=sys.stderr)
        return 1
    write_manifest(spec, out, files)
    print(f"{spec.subcommand}: wrote {', '.join(files)} to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

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
    parser.add_argument("--units", choices=["bits", "nats"], default="bits")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    sweep = sub.add_parser("bounds-sweep", help="rate bounds over a (k, SNR) grid")
    sweep.add_argument("--k-min", type=float, default=0.1)
    sweep.add_argument("--k-max", type=float, default=5.0)
    sweep.add_argument("--k-points", type=int, default=40)
    sweep.add_argument("--rho-db", default="10,20,30")

    kopt = sub.add_parser("k-opt", help="offset-minimizing k over SNR")
    kopt.add_argument("--rho-db", default=",".join(str(v) for v in range(6, 41, 2)))

    se = sub.add_parser("spectral-efficiency", help="bounds normalized by 2W vs SNR")
    se.add_argument("--rho-db", default=",".join(str(v) for v in range(0, 51, 2)))
    se.add_argument("--k-list", default="0.5,1,2,4")

    psd = sub.add_parser("psd", help="PSD bounds, finite-block approximation, periodogram")
    psd.add_argument("--k-list", default="0.5,1,2")
    psd.add_argument("--K", type=int, default=100000, help="symbols per realization")

    census = sub.add_parser("transition-census", help="crossings per transition interval")
    census.add_argument("--rho-db", default="0,3,6,10,15,20")
    census.add_argument("--k-list", default="0.5,1,2")
    census.add_argument("--mc-trials", type=int, default=0,
                        help="add Monte-Carlo columns with this many transitions")

    gauss = sub.add_parser("gauss-check", help="shift density vs Gaussian approximation")
    gauss.add_argument("--rho-db", default=",".join(str(v) for v in range(0, 21, 2)))
    gauss.add_argument("--k-list", default="0.5,1,2")

    exc = sub.add_parser("excursion", help="mean noise excursion duration")
    exc.add_argument("--rho-db", default=",".join(str(v) for v in range(0, 21, 2)))
    exc.add_argument("--k-list", default="1")

    lpd = sub.add_parser("lp-distortion", help="empirical lowpass-distortion statistics")
    lpd.add_argument("--k-list", default="0.5,1,2,4")
    lpd.add_argument("--n-time", type=int, default=10**6)
    lpd.add_argument("--n-ensemble", type=int, default=2000)

    dele = sub.add_parser("deletions", help="deletion census with decoupled (W, beta)")
    dele.add_argument("--rho-db", default="6,15")
    dele.add_argument("--beta-list", default="0.5,1,2")
    dele.add_argument("--ratio-list", default="0.2,0.3,0.5,1.0,1.25",
                      help="values of 2*beta*W")
    dele.add_argument("--K", type=int, default=1000)
    dele.add_argument("--dt", type=float, default=1e-3)

    sim = sub.add_parser("simulate", help="one end-to-end run with match statistics")
    sim.add_argument("--K", type=int, default=2000)
    sim.add_argument("--dump-crossings", action="store_true")

    sub.add_parser("constants", help="print c0, c2, and the crossing-rate factor with oracles")
    return parser


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    cfg = load_config(args.config, args.set)
    if args.seed is not None:
        cfg["seed"] = args.seed
    grid: dict = {}
    sc = args.subcommand
    if sc == "bounds-sweep":
        if args.k_min >= args.k_max or args.k_points < 2:
            raise UsageError("need k_min < k_max and k_points >= 2")
        grid = {"k_min": args.k_min, "k_max": args.k_max, "k_points": args.k_points,
                "rho_db": parse_list(args.rho_db)}
    elif sc in ("k-opt",):
        grid = {"rho_db": parse_list(args.rho_db)}
    elif sc == "spectral-efficiency":
        grid = {"rho_db": parse_list(args.rho_db), "k_list": parse_list(args.k_list)}
    elif sc == "psd":
        if args.K < 1000:
            raise UsageError("K must be >= 1000")
        grid = {"k_list": parse_list(args.k_list), "K": args.K}
    elif sc == "transition-census":
        if args.mc_trials < 0:
            raise UsageError(f"mc_trials must be >= 0, got {args.mc_trials}")
        grid = {"rho_db": parse_list(args.rho_db), "k_list": parse_list(args.k_list),
                "mc_trials": args.mc_trials}
    elif sc in ("gauss-check", "excursion"):
        grid = {"rho_db": parse_list(args.rho_db), "k_list": parse_list(args.k_list)}
    elif sc == "lp-distortion":
        if args.n_time < 1 or args.n_ensemble < 1:
            raise UsageError(f"n_time and n_ensemble must be >= 1, "
                             f"got {args.n_time} and {args.n_ensemble}")
        grid = {"k_list": parse_list(args.k_list), "n_time": args.n_time,
                "n_ensemble": args.n_ensemble}
    elif sc == "deletions":
        grid = {"rho_db": parse_list(args.rho_db), "beta_list": parse_list(args.beta_list),
                "ratio_list": parse_list(args.ratio_list), "K": args.K, "dt": args.dt}
    elif sc == "simulate":
        grid = {"K": args.K, "dump_crossings": bool(args.dump_crossings)}
    if sc in ("deletions", "simulate") and grid["K"] < 1:
        raise UsageError(f"K must be >= 1, got {grid['K']}")
    for key in ("rho_db", "k_list", "beta_list", "ratio_list"):
        if key in grid and not grid[key]:
            raise UsageError(f"empty grid for {key}")
    for key in ("k_list", "beta_list", "ratio_list"):
        if key in grid and not all(v > 0 for v in grid[key]):
            raise UsageError(f"{key} values must be positive, got {grid[key]}")
    if sc == "deletions":
        dt_max = min(grid["beta_list"]) / 20.0
        if not (0 < grid["dt"] <= dt_max):
            raise UsageError(f"dt must lie in (0, min(beta_list)/20 = {dt_max:.3g}], "
                             f"got {grid['dt']}")
    return ExperimentSpec(
        subcommand=sc, config=cfg, grid=grid, output_dir=args.out,
        seed=cfg["seed"], units=args.units, jobs=args.jobs,
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
