"""Tests for the figure studies and the `study` command."""

import hashlib
import importlib.util
from pathlib import Path

import pytest
from click.testing import CliRunner

from oracles import run_cli
from rdspectral import studies
from rdspectral.cli import cli

RD_REPORTS = [
    "eigenvalues_vs_beta.svg",
    "iterations_vs_beta.svg",
    "marginal_vs_beta.svg",
    "rate_prediction.svg",
    "sweep.csv",
    "sweep.json",
    "transitions.json",
]
IB_REPORTS = [
    "decoder_vs_beta.svg",
    "iterations_vs_beta.svg",
    "marginal_vs_beta.svg",
    "sweep.csv",
    "sweep.json",
    "transitions.json",
]

# SHA-256 of each fig2 tangent problem's d: its shape and strides, then its
# bytes in memory order. tangent_rd builds d with ib_distortion, and d's
# layout decides the bits of every Blahut-Arimoto step on it.
TANGENT_D_DIGESTS = [
    "622e3a3878c80b2956515b00342c0bd7865c5b9622c3f680e1e56d79974e7adf",
    "3e450743993e0859bf028c4d04e4ef461054e7d33619aa2c905f67ee393e412e",
    "04fce73504dee1e63813a6422b14c2bf71817473e78192f527ae54e156cedd01",
]


def names(directory):
    return sorted(p.name for p in directory.iterdir())


def csv_iterations(path):
    lines = path.read_text().strip().split("\n")[1:]
    return [int(line.split(",")[1]) for line in lines]


def test_study_fig1_writes_the_fixture_records(fig1_study, tmp_path):
    out = run_cli("study", "fig1", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert names(tmp_path) == RD_REPORTS
    assert out.stdout.count("transition bracketed") == 3
    iterations = csv_iterations(tmp_path / "sweep.csv")
    assert iterations == [r.iterations for r in fig1_study.records]
    assert sum(iterations) == 93185


def test_sweep_with_fig1_settings_writes_the_study_files(fig1_study, tmp_path):
    """The `sweep` command with fig1's grid and tolerances writes the same
    bytes as the study: a descending CLI grid is the study's grid."""
    out = run_cli(
        "sweep", "--builtin", "fig1_like", "--beta-min", "0.2", "--beta-max", "50",
        "--beta-steps", "420", "--init", "reverse", "--epsilon", "1e-9",
        "--support-tol", "1e-5", "--out", str(tmp_path / "cli"),
    )
    assert out.returncode == 0, out.stderr
    studies.write_reports(fig1_study, tmp_path / "study")
    assert names(tmp_path / "cli") == names(tmp_path / "study") == RD_REPORTS
    for name in RD_REPORTS:
        assert (tmp_path / "cli" / name).read_bytes() == (
            tmp_path / "study" / name
        ).read_bytes(), name


def test_unknown_study_is_usage_error(tmp_path):
    out = run_cli("study", "fig3", "--out", str(tmp_path))
    assert out.returncode == 1
    assert "fig3" in out.stderr
    assert not any(tmp_path.iterdir())


def test_study_fig2_reports_from_the_fixture_run(fig2_study, tmp_path, monkeypatch):
    """The command's fig2 layout, written from the session's fig2 run rather
    than a second minute-long one."""
    monkeypatch.setattr(studies, "run", {"fig2": fig2_study}.__getitem__)
    result = CliRunner().invoke(cli, ["study", "fig2", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert result.output.count("transition bracketed") == 3
    assert names(tmp_path) == ["ib", "tangent_0", "tangent_1", "tangent_2"]
    assert names(tmp_path / "ib") == IB_REPORTS
    assert csv_iterations(tmp_path / "ib" / "sweep.csv") == [
        r.iterations for r in fig2_study.records
    ]
    for k, tangent in enumerate(fig2_study.tangents):
        assert names(tmp_path / f"tangent_{k}") == RD_REPORTS
        assert csv_iterations(tmp_path / f"tangent_{k}" / "sweep.csv") == [
            r.iterations for r in tangent.records
        ]


def test_tangent_problems_are_pinned(fig2_study):
    """The distortion matrices of fig2's three tangent problems keep their
    bytes and their strides."""
    digests = []
    for tangent in fig2_study.tangents:
        d = tangent.problem.d
        layout = repr((d.shape, d.strides)).encode()
        digests.append(hashlib.sha256(layout + d.tobytes(order="A")).hexdigest())
    assert digests == TANGENT_D_DIGESTS


def test_study_grids_are_read_only():
    for config in (studies.FIG1, studies.FIG2):
        with pytest.raises(ValueError, match="read-only"):
            config.beta_grid[0] = 1.0


def test_benchmark_copies_match_the_studies():
    """perfbench keeps its own frozen copies of the study values; they must
    stay the values declared here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    planar = workloads.get("planar-cold")
    assert planar.beta_grid().tobytes() == studies.FIG1.beta_grid[::3].tobytes()
    assert planar.epsilon == studies.FIG1.solver.epsilon

    anneal = workloads.get("bottleneck-anneal")
    assert anneal.beta_grid().tobytes() == studies.FIG2.beta_grid.tobytes()
    assert anneal.init == studies.FIG2.init
    assert anneal.epsilon == studies.FIG2.solver.epsilon
    assert anneal.merge_tol == workloads.FIG2_MERGE_TOL == studies.FIG2.merge_tol
    assert workloads.FIG2_DEDUP_TOL == studies.DEDUP_TOL
    assert workloads.SUPPORT_TOL == studies.SUPPORT_TOL
