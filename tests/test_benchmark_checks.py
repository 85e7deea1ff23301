"""The benchmark's output checks, run on this checkout's CLI.

``benchmarks/workloads.py`` defines each workload's CLI invocations and the
checks on the CSVs they write.  Running them here, at fixed seeds, shows a
change that moves a Monte-Carlo value out of a check's band before a
benchmark run does.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zcrate.cli import main


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("zcrate_benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("seed", [7, 1000])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_checks_pass(tmp_path, name, seed):
    workload = WORKLOADS[name]
    for sub, args in workload.invocations:
        assert main(["--out", str(tmp_path / sub), "--seed", str(seed), *args]) == 0, args
    failed = [f"{c.label}: {c.detail}" for c in workload.check(tmp_path) if not c.ok]
    assert failed == []


def test_tracer_binds_every_hook():
    # benchmarks/tracing.py rebinds its targets by name and raises when one is
    # gone, and one_pass.py reads zcrate.cli.__version__.  install() rebinds
    # module globals, so it runs in an interpreter of its own.
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracing import Tracer\n"
        "Tracer().install()\n"
        "import zcrate.cli\n"
        "assert zcrate.cli.__version__ == '0.1.0', zcrate.cli.__version__\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(root / "benchmarks")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert done.returncode == 0, done.stderr


def test_tracer_sees_the_channel_stages(tmp_path):
    # the Monte-Carlo chains run synthesize -> ideal_lp -> gen_bandlimited_noise,
    # so the traced stage counters and FFT lengths are not 0
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracing import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from zcrate.cli import main\n"
        "out = sys.argv[2]\n"
        "assert main(['--out', out + '/sim', 'simulate', '--K', '50']) == 0\n"
        "assert main(['--out', out + '/lp', 'lp-distortion', '--k-list', '1',\n"
        "             '--n-time', '2000', '--n-ensemble', '20']) == 0\n"
        "m = tracer.layer_metrics()\n"
        "assert m['simulate.ideal_lp.calls'] == m['simulate.synthesize.calls'], m\n"
        "assert m['simulate.gen_bandlimited_noise.calls'] >= 1, m\n"
        "assert m['simulate.fft_len_max'] > 0, m\n"
        "assert m['simulate.fft_len_max_prime'] <= 5, m\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(root / "benchmarks"), str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert done.returncode == 0, done.stderr


def test_tracer_sees_the_census_run_the_chain(tmp_path):
    # the Monte-Carlo transition census runs run_chain, so its spans are traced
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracing import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from zcrate.cli import main\n"
        "assert main(['--out', sys.argv[2], 'transition-census', '--k-list', '1',\n"
        "             '--rho-db', '10', '--mc-trials', '50']) == 0\n"
        "spans = tracer.span_table()\n"
        "assert spans['simulate.run_chain']['calls'] >= 1, spans\n"
        "assert spans['simulate.match_crossings']['calls'] >= 1, spans\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(root / "benchmarks"), str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert done.returncode == 0, done.stderr
