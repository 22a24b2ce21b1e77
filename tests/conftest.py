"""The figure studies, run once per test session and shared by every module
that checks them (fig2's tangent sweeps alone take about a minute)."""

import os
from pathlib import Path

import pytest

from rdspectral import studies

# pyproject.toml puts src/ on the suite's own import path; the CLI tests
# start child interpreters, which get it through PYTHONPATH, so an
# uninstalled checkout runs the whole suite under a bare `pytest`.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def fig1_study():
    return studies.run("fig1")


@pytest.fixture(scope="session")
def fig2_study():
    return studies.run("fig2")
