"""Workload definitions: the zcrate CLI invocations of one pass, and the
checks on the CSVs they write.

Every check holds at honest values whatever the seed.  The Monte-Carlo
checks are statistical statements with wide margins (measured values are
quoted beside each); the analytic checks compare against reference CSVs
written by zcrate itself and stored in ``reference/``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Analytic outputs may drift by this much, relative to the largest magnitude
# in the CSV column, before a row counts as wrong.  Column-relative, because
# Var_N = E - E^2 + E[N(N-1)] cancels to 1e-7 at high SNR while its terms are
# of order 1; a tabulated ACF moment accurate to 1e-10 stays well inside.
ANALYTIC_RTOL = 1e-8

MC_LONG_SIM_K = 5000
MC_LONG_DELETIONS = ["--rho-db", "6,15", "--beta-list", "1", "--ratio-list", "0.3,1.0",
                     "--K", "1000", "--dt", "5e-3"]
MC_MANY_K_LIST = (0.5, 1.0, 2.0)

# A Monte-Carlo variance estimate may sit this far outside the analytic
# sandwich [sigma_xt_sq_lo, sigma_xt_sq_hi], relative to the nearer edge.  The
# run-to-run relative sd of var_time and var_ensemble at k=2 is about 2.8%
# while the estimate sits 5-10% above the lower edge, so 10% keeps the check
# from failing on honest values.
MC_VARIANCE_SLACK = 0.10


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: list[tuple[str, list[str]]]     # (output subdirectory, CLI args)
    check: Callable[[Path], list[Check]]


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _in_sandwich(value: float, lo: float, hi: float) -> bool:
    return lo * (1.0 - MC_VARIANCE_SLACK) <= value <= hi * (1.0 + MC_VARIANCE_SLACK)


def _rows(out: Path, sub: str, fname: str, checks: list[Check]) -> list[dict]:
    """Rows of out/sub/fname, or [] with a failed check when it is unreadable."""
    path = out / sub / fname
    try:
        return read_csv(path)[1]
    except (OSError, csv.Error) as exc:
        checks.append(Check(f"{sub}/{fname} readable", False, str(exc)))
        return []


# ---------------------------------------------------------------------------
# mc_long
# ---------------------------------------------------------------------------

def check_mc_long(out: Path) -> list[Check]:
    checks: list[Check] = []
    sim = _rows(out, "simulate", "simulate.csv", checks)
    if sim:
        r = {k: float(v) for k, v in sim[0].items()}
        n_tx = r["n_tx"]
        checks += [
            Check("simulate: one row with n_tx = K", len(sim) == 1 and n_tx == MC_LONG_SIM_K,
                  f"{len(sim)} rows, n_tx {n_tx:g}"),
            # measured: |n_rx - n_tx| <= 16, insertions <= 9, deletions <= 7 of 5000
            Check("simulate: |n_rx - n_tx| <= 1% of n_tx", abs(r["n_rx"] - n_tx) <= 0.01 * n_tx,
                  f"n_rx {r['n_rx']:g}"),
            Check("simulate: insertions and deletions <= 1% of n_tx",
                  max(r["n_insertions"], r["n_deletions"]) <= 0.01 * n_tx,
                  f"ins {r['n_insertions']:g}, del {r['n_deletions']:g}"),
            # measured: 0.0239-0.0252 inside [0.0201, 0.0379]
            Check("simulate: sigma_xt_emp inside the distortion-variance sandwich",
                  _in_sandwich(r["sigma_xt_emp"], r["sigma_xt_sq_lo"], r["sigma_xt_sq_hi"]),
                  f"{r['sigma_xt_emp']:.4g} vs [{r['sigma_xt_sq_lo']:.4g}, {r['sigma_xt_sq_hi']:.4g}]"),
            # measured: 0.0062-0.0067; a matched shift stays inside its beta = 0.5 transition
            Check("simulate: 0 < shift_var < (beta/2)^2", 0.0 < r["shift_var"] < 0.0625,
                  f"{r['shift_var']:.4g}"),
        ]
    dele = _rows(out, "deletions", "deletions.csv", checks)
    if dele:
        cells = {(float(d["rho_dB"]), float(d["two_beta_W"])): d for d in dele}
        want = {(6.0, 0.3), (6.0, 1.0), (15.0, 0.3), (15.0, 1.0)}
        checks.append(Check("deletions: the 4 grid cells", set(cells) == want and len(dele) == 4,
                            f"{sorted(cells)}"))
        for d in dele:
            ok = int(d["n_symbols"]) == 1000 and float(d["k_tilde"]) == 0.5
            checks.append(Check(f"deletions {d['rho_dB']} dB {d['two_beta_W']}: K and k_tilde", ok,
                                f"n_symbols {d['n_symbols']}, k_tilde {d['k_tilde']}"))
        for (snr, ratio), d in sorted(cells.items()):
            n = int(d["n_deletions"])
            if ratio == 0.3:    # measured 302-332 of 1000
                checks.append(Check(f"deletions {snr:g} dB 2bW=0.3: deletions > 0", n > 0, f"{n}"))
            elif snr == 15.0:   # measured 0
                checks.append(Check("deletions 15 dB 2bW=1.0: no deletions", n == 0, f"{n}"))
            else:               # measured 4-8: short symbols inverted by noise
                checks.append(Check("deletions 6 dB 2bW=1.0: deletions <= 5% of K", n <= 50, f"{n}"))
    return checks


# ---------------------------------------------------------------------------
# mc_many
# ---------------------------------------------------------------------------

def check_mc_many(out: Path) -> list[Check]:
    checks: list[Check] = []
    rows = _rows(out, "lp_distortion", "lp_distortion.csv", checks)
    if not rows:
        return checks
    ks = tuple(float(r["k"]) for r in rows)
    checks.append(Check("lp-distortion: one row per k", ks == MC_MANY_K_LIST, f"{ks}"))
    for row in rows:
        r = {k: float(v) for k, v in row.items()}
        tag = f"lp-distortion k={row['k']}"
        lo, hi = r["sigma_xt_sq_lo"], r["sigma_xt_sq_hi"]
        # standard error of the probe mean, counting the three probes of one
        # realization as a single draw (they share the realization)
        se = math.sqrt(r["var_ensemble"] / 1000)
        checks += [
            # measured at k=2: 0.0150-0.0162 inside [0.0141, 0.0194]
            Check(f"{tag}: var_time inside the sandwich", _in_sandwich(r["var_time"], lo, hi),
                  f"{r['var_time']:.4g} vs [{lo:.4g}, {hi:.4g}]"),
            # measured at k=2: 0.0147-0.0159
            Check(f"{tag}: var_ensemble inside the sandwich",
                  _in_sandwich(r["var_ensemble"], lo, hi),
                  f"{r['var_ensemble']:.4g} vs [{lo:.4g}, {hi:.4g}]"),
            # the brick-wall filter keeps the DC bin, so the distortion averages to 0
            Check(f"{tag}: |mean_time| < 1e-3", abs(r["mean_time"]) < 1e-3, f"{r['mean_time']:.3g}"),
            Check(f"{tag}: |mean_ensemble| < 5 standard errors",
                  abs(r["mean_ensemble"]) < 5.0 * se, f"{r['mean_ensemble']:.3g} vs se {se:.3g}"),
            # measured 0.004-0.050
            Check(f"{tag}: 0 <= KL < 0.1 nats", 0.0 <= r["kl_nats"] < 0.1, f"{r['kl_nats']:.4g}"),
        ]
    return checks


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

ANALYTIC_FILES = (("transition_census", "transition_census.csv"),
                  ("bounds_sweep", "bounds_sweep.csv"),
                  ("k_opt", "k_opt.csv"))


def _close(a: float, b: float, scale: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= ANALYTIC_RTOL * scale


def compare_to_reference(path: Path, ref_path: Path) -> list[Check]:
    """One check for the header and one per row of the reference CSV."""
    name = ref_path.name
    ref_header, ref_rows = read_csv(ref_path)
    try:
        header, rows = read_csv(path)
    except (OSError, csv.Error) as exc:
        return [Check(f"{name} readable", False, str(exc))]
    checks = [Check(f"{name}: header and row count", header == ref_header
                    and len(rows) == len(ref_rows), f"{len(rows)} rows")]
    scale = {c: max(abs(float(r[c])) for r in ref_rows if math.isfinite(float(r[c])))
             for c in ref_header}
    for i, ref in enumerate(ref_rows):
        got = rows[i] if i < len(rows) else {}
        bad = [c for c in ref_header
               if c not in got or not _close(float(got[c]), float(ref[c]), scale[c])]
        checks.append(Check(f"{name} row {i}", not bad,
                            "; ".join(f"{c}: {got.get(c)} vs {ref[c]}" for c in bad)))
    return checks


def check_analytic(out: Path) -> list[Check]:
    checks: list[Check] = []
    for sub, fname in ANALYTIC_FILES:
        checks += compare_to_reference(out / sub / fname, REFERENCE_DIR / fname)
    return checks


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mc_long",
            invocations=[("simulate", ["simulate", "--K", str(MC_LONG_SIM_K)]),
                         ("deletions", ["deletions", *MC_LONG_DELETIONS])],
            check=check_mc_long,
        ),
        Workload(
            name="mc_many",
            invocations=[("lp_distortion", ["lp-distortion", "--k-list",
                                            ",".join(f"{k:g}" for k in MC_MANY_K_LIST),
                                            "--n-time", "200000", "--n-ensemble", "1000"])],
            check=check_mc_many,
        ),
        Workload(
            name="analytic",
            invocations=[("transition_census", ["transition-census"]),
                         ("bounds_sweep", ["bounds-sweep"]),
                         ("k_opt", ["k-opt"])],
            check=check_analytic,
        ),
    )
}
