"""One benchmark pass in a fresh interpreter.

Imports zcrate.cli, builds its parser, runs the workload's invocations
through zcrate.cli.main and checks the CSVs they wrote, then writes one JSON
record.  run.py starts it as

    python3 one_pass.py '{"workload": ..., "seed": ..., "out": ..., "result": ...,
                          "t_spawn": ..., "trace": ..., "setup_only": ...}'

where t_spawn is the parent's time.monotonic() just before the start, so the
record's setup_s and wall_s include interpreter start-up.  CLOCK_MONOTONIC is
system-wide on Linux, so the two processes' readings compare.

Nothing but ``time`` and ``sys`` is imported before zcrate.cli, so setup_s is
the cost a zcrate user pays.
"""

import time

T_START = time.monotonic()

import sys  # noqa: E402

T_IMPORT0 = time.monotonic()
import zcrate.cli  # noqa: E402

T_IMPORT1 = time.monotonic()
zcrate.cli.build_parser()
T_SETUP = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "zcrate": zcrate.cli.__version__,
        "zcrate_path": os.path.relpath(Path(zcrate.cli.__file__).resolve().parent),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "machine": platform.machine(),
    }


def main() -> None:
    cfg = json.loads(sys.argv[1])
    t_spawn = cfg["t_spawn"]
    record = {
        "setup_s": T_SETUP - t_spawn,
        "interpreter_s": T_START - t_spawn,
        "import_s": T_IMPORT1 - T_IMPORT0,
        "parser_s": T_SETUP - T_IMPORT1,
        "env": environment(),
    }
    if not cfg["setup_only"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import workloads

        workload = workloads.WORKLOADS[cfg["workload"]]
        out = Path(cfg["out"])
        tracer = None
        if cfg["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        compute_s = 0.0
        checks = []
        for sub, args in workload.invocations:
            argv = ["--out", str(out / sub), "--seed", str(cfg["seed"]), *args]
            t0 = time.monotonic()
            try:
                if tracer is not None:
                    rc = tracer.span(f"cli.main.{args[0]}", zcrate.cli.main)(argv)
                else:
                    rc = zcrate.cli.main(argv)
            except Exception:  # a traceback is a failed invocation, not a crashed pass
                traceback.print_exc()
                rc = "exception"
            compute_s += time.monotonic() - t0
            checks.append(workloads.Check(f"{args[0]} exits 0", rc == 0, f"exit {rc}"))
        checks += workload.check(out)
        t_done = time.monotonic()
        record.update({
            "compute_s": compute_s,
            "wall_s": t_done - t_spawn,
            "checks_attempted": len(checks),
            "checks_failed": sum(not c.ok for c in checks),
            "failures": [f"{c.label}: {c.detail}" for c in checks if not c.ok],
        })
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
            record["layers"]["cli.import.s"] = record["import_s"]
            record["spans"] = tracer.span_table()
            record["fft_lengths"] = tracer.fft_table()
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    Path(cfg["result"]).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
