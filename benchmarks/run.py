"""zcrate benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload mc_long --seed 1 --seconds 40 --trace 0

Run from the root of a zcrate checkout.  Each pass is a fresh interpreter
(one_pass.py) that imports zcrate.cli from the checkout's ``src`` and runs the
workload's CLI invocations, because every real zcrate run is one cold
process: a cache kept across passes would show a gain users never see.
Pass p of a run gets CLI seed ``seed * 1000 + p``, so the same --seed gives
the same inputs.

The run first starts one untimed set-up pass (it writes the bytecode cache),
then three set-up-only passes, then full passes until the next one would
overrun --seconds (at least one).  With --trace 0 it reports the medians of
the end-to-end metrics; with --trace 1 it alternates untraced and traced
passes on the same seeds and reports the per-layer metrics of the traced ones (lower median)
and the tracing overhead (median traced minus median untraced compute_s).
The last line of standard output is the JSON
result; the line before it records the environment.  Everything a run writes
stays under ``.bench_work`` (removed at exit) and ``.bench_results`` in the
checkout.

Exit codes: 0 result printed, 1 no pass completed, 2 not a zcrate checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 3
PASS_TIMEOUT_S = 150.0


class Runner:
    """Starts passes as child processes and keeps their records."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.n = 0
        nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env.update({v: str(nproc) for v in THREAD_VARS})
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, pass_seed: int, trace: bool = False, setup_only: bool = False) -> dict | None:
        """One pass; its record, or None when it crashed or timed out."""
        self.n += 1
        tag = f"pass{self.n}"
        result = self.work / f"{tag}.json"
        cfg = {"workload": self.workload, "seed": pass_seed, "out": str(self.work / tag),
               "result": str(result), "trace": trace, "setup_only": setup_only}
        with open(self.work / f"{tag}.log", "w") as log:
            cfg["t_spawn"] = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "one_pass.py"), json.dumps(cfg)],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root,
                    timeout=PASS_TIMEOUT_S,
                )
                rc = proc.returncode
            except subprocess.TimeoutExpired:   # run() has killed and reaped it
                rc = "timeout"
        shutil.rmtree(self.work / tag, ignore_errors=True)
        if rc != 0 or not result.exists():
            tail = (self.work / f"{tag}.log").read_text()[-2000:]
            print(f"{tag} (seed {pass_seed}) failed: exit {rc}\n{tail}", file=sys.stderr)
            return None
        record = json.loads(result.read_text())
        record["pass_seed"] = pass_seed
        record["trace"] = trace
        return record


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "zcrate" / "cli.py").is_file():
        print(f"error: {root} holds no zcrate source (src/zcrate/cli.py); "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # running pass, and the finally below removes the scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(root, args.workload, args.seed)
    try:
        return measure(runner, args)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)


def measure(runner: Runner, args: argparse.Namespace) -> int:
    start = time.monotonic()
    deadline = start + args.seconds
    warm = runner.run(args.seed * 1000, setup_only=True)
    if warm is None:
        print("error: zcrate.cli does not import", file=sys.stderr)
        return 1
    # one_pass runs in the checkout root and records the path relative to it
    if warm["env"]["zcrate_path"] != os.path.join("src", "zcrate"):
        print(f"error: imported zcrate from {warm['env']['zcrate_path']}, not src/zcrate",
              file=sys.stderr)
        return 1
    probes = [runner.run(args.seed * 1000, setup_only=True) for _ in range(SETUP_PROBES)]

    untraced: list[dict] = []
    traced: list[dict] = []
    crashed = 0
    p = 0
    while True:
        t0 = time.monotonic()
        seed = args.seed * 1000 + p
        for trace in ((False, True) if args.trace else (False,)):
            rec = runner.run(seed, trace=trace)
            if rec is None:
                crashed += 1
            else:
                (traced if trace else untraced).append(rec)
        p += 1
        now = time.monotonic()
        if now + (now - t0) > deadline:
            break

    passes = untraced + traced
    if not untraced or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1
    attempted = sum(r["checks_attempted"] for r in passes) + crashed
    failed = sum(r["checks_failed"] for r in passes) + crashed

    setups = [r["setup_s"] for r in probes if r is not None] + [r["setup_s"] for r in passes]
    e2e = {
        "wall_s": median([r["wall_s"] for r in untraced]),
        "setup_s": median(setups),
        "compute_s": median([r["compute_s"] for r in untraced]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
    }
    if args.trace:
        names = list(traced[0]["layers"])
        # median_low: every value is one a traced pass reported, e.g. a prime
        layers = {n: float(statistics.median_low([r["layers"][n] for r in traced]))
                  for n in names}
        layers["trace.overhead_s"] = (median([r["compute_s"] for r in traced])
                                      - e2e["compute_s"])
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in layers.items()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in e2e.items()}

    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": time.monotonic() - start,
        "env": warm["env"], "end_to_end": e2e, "setup_samples": len(setups),
        "passes": [{k: v for k, v in r.items() if k != "env"} for r in passes],
        "crashed_passes": crashed,
    }
    results = runner.root / ".bench_results"
    results.mkdir(exist_ok=True)
    out_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(summary, indent=1) + "\n")
    for r in passes:
        for failure in r["failures"]:
            print(f"check failed (seed {r['pass_seed']}): {failure}", file=sys.stderr)
    if args.trace:
        print_span_table(traced[0], sys.stderr)

    print(json.dumps({"env": warm["env"], "untraced_passes": len(untraced),
                      "traced_passes": len(traced), "setup_samples": len(setups),
                      "results": str(out_file.relative_to(runner.root))}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s", ".s_per_point")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_frac", "_mass_max", "_max_prime")):
        return "1"
    if name.endswith(("samples", "fft_len_max")):
        return "samples"
    return "count"


def print_span_table(record: dict, fh) -> None:
    """Inclusive and self time per span of one traced pass."""
    rows = sorted(record["spans"].items(), key=lambda kv: -kv[1]["s"])
    print(f"{'span':48s} {'calls':>7s} {'incl s':>9s} {'self s':>9s}", file=fh)
    for name, row in rows:
        print(f"{name:48s} {row['calls']:7d} {row['s']:9.4f} {row['self_s']:9.4f}", file=fh)


if __name__ == "__main__":
    sys.exit(main())
