"""Shared fixtures."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def fit_tool():
    """tools/fit_tables.py as a module (skips without mpmath)."""
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parents[1] / "tools" / "fit_tables.py"
    spec = importlib.util.spec_from_file_location("fit_tables", path)
    fit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fit)
    return fit
