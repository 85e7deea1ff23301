"""Repeat benchmark runs over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --seeds 1-10 --seconds 40
    python3 benchmarks/spread.py --workloads mc_long --seeds 1-5 --seconds 40
    python3 benchmarks/spread.py --seeds 1-10 --seconds 40 --trace-seed 1 \\
        --out benchmarks/BENCH_baseline.json

Run from the root of a zcrate checkout.  For every workload it runs
run.py once per seed with tracing off and prints, for each end-to-end
metric, the median, the quartiles (statistics.quantiles(n=4)) and the
spread, (q3 - q1) / median, beside the metric's bound from BENCHMARK.json.
--trace-seed adds one traced run per workload, whose per-layer metrics and
span table go into the --out file with everything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "result": result, "info": info}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", help="write every run and the summary to this JSON file")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = [one_run(name, s, args.seconds, 0) for s in seed_list(args.seeds)]
        entry: dict = {"runs": runs, "metrics": {}}
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"{name}: {len(runs)} runs, {failed}/{attempted} checks failed")
        for metric, bound in bounds.items():
            q = quartiles([r["result"]["metrics"][metric]["value"] for r in runs])
            entry["metrics"][metric] = q
            within = metric == "setup_s" or q["spread"] <= bound / 3
            ok &= within
            print(f"  {metric:12s} median {q['median']:10.4f}  q1 {q['q1']:10.4f}  "
                  f"q3 {q['q3']:10.4f}  spread {q['spread']:.4f}  bound {bound}"
                  f"{'' if within else '  <- above a third of the bound'}")
        if args.trace_seed is not None:
            traced = one_run(name, args.trace_seed, args.seconds, 1)
            detail = json.loads(Path(traced["info"]["results"]).read_text())
            first = next(p for p in detail["passes"] if p["trace"])
            entry["traced"] = {
                "seed": args.trace_seed,
                "layers": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
                "spans": first["spans"],
                "fft_lengths": first["fft_lengths"],
            }
        entry["env"] = runs[0]["info"]["env"]
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
