"""The figure studies, run once per test session and shared by every module
that checks them (fig2's tangent sweeps alone take about a minute)."""

import pytest

from rdspectral import studies


@pytest.fixture(scope="session")
def fig1_study():
    return studies.run("fig1")


@pytest.fixture(scope="session")
def fig2_study():
    return studies.run("fig2")
