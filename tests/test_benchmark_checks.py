"""The benchmark's output checks, run on this checkout's CLI.

``benchmarks/workloads.py`` defines each workload's CLI invocations and the
checks on the CSVs they write.  Running them here, at fixed seeds, shows a
change that moves a Monte-Carlo value out of a check's band before a
benchmark run does.
"""

import importlib.util
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
