"""Tests for report emission (CSV/JSON/SVG) and the command-line interface."""

import dataclasses
import hashlib
import inspect
import json
import types
import xml.etree.ElementTree as ET

import click
import numpy as np
import pytest

import rdspectral
from oracles import run_cli
from rdspectral import (
    NumericalError,
    RateStudyPoint,
    SolverConfig,
    SweepConfig,
    SweepRecord,
    binary_hamming,
    bottleneck_four_symbol,
    detect_transitions,
    dump_problem,
    emit_reports,
    load_problem,
    planar_four_point,
    studies,
    svgplot,
    sweep,
)
from rdspectral.cli import cli, main as cli_main
from rdspectral.reports import (CSV_HEADER, RATE_STUDY_CSV_HEADER, write_rate_study_csv,
                                write_sweep_csv)


@pytest.fixture(scope="module")
def rd_sweep_results():
    problem = planar_four_point()
    config = SweepConfig(
        beta_grid=np.geomspace(25.0, 10.0, 12),
        init="reverse",
        solver=SolverConfig(epsilon=1e-10),
        support_tol=1e-6,
    )
    records = sweep(problem, config)
    return records, detect_transitions(records)


@pytest.fixture(scope="module")
def ib_sweep_results():
    problem = bottleneck_four_symbol()
    config = SweepConfig(
        beta_grid=np.geomspace(40.0, 10.0, 15),
        init="reverse",
        solver=SolverConfig(epsilon=1e-7),
        merge_tol=1e-4,
        support_tol=1e-5,
    )
    records = sweep(problem, config)
    return records, detect_transitions(records)


@pytest.fixture(scope="module")
def unconverged_sweep_results():
    """rd_sweep_results' sweep on a budget of one iteration: no record
    converges, so the eigenvalue and rate panels have no point to plot."""
    config = SweepConfig(
        beta_grid=np.geomspace(25.0, 10.0, 12),
        init="reverse",
        solver=SolverConfig(epsilon=1e-10, max_iterations=1),
        support_tol=1e-6,
    )
    records = sweep(planar_four_point(), config)
    with pytest.warns(UserWarning, match="^excluding 12 unconverged record"):
        transitions = detect_transitions(records)
    return records, transitions


class TestCsv:
    def test_header_is_pinned(self):
        assert CSV_HEADER == (
            "beta,iterations,converged,support_size,effective_cardinality,"
            "lambda0,lambda_max,predicted_rate,measured_rate,rate,"
            "distortion_or_info"
        )

    def test_header_is_the_json_fields_without_the_marginal(
        self, rd_sweep_results, ib_sweep_results
    ):
        for records, _ in (rd_sweep_results, ib_sweep_results):
            keys = [k for k in records[0].to_json_dict() if k != "marginal"]
            assert CSV_HEADER == ",".join(keys)

    def test_single_record(self, rd_sweep_results, tmp_path):
        records, _ = rd_sweep_results
        path = write_sweep_csv(records[:1], tmp_path / "one.csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == 11
        assert cells[2] == "true"
        assert cells[4] == ""  # no effective cardinality on the RD side

    def test_deterministic_bytes(self, tmp_path):
        problem = planar_four_point()
        config = SweepConfig(
            beta_grid=np.geomspace(20.0, 15.0, 4),
            init="dirichlet",
            seed=3,
            solver=SolverConfig(epsilon=1e-10),
        )
        a = write_sweep_csv(sweep(problem, config), tmp_path / "a.csv")
        b = write_sweep_csv(sweep(problem, config), tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()


class TestEmitReports:
    def test_rejects_no_records(self, tmp_path):
        with pytest.raises(ValueError, match="^no records to report$"):
            emit_reports([], detect_transitions([]), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_empty_formats_writes_nothing(self, rd_sweep_results, tmp_path):
        records, transitions = rd_sweep_results
        manifest = emit_reports(records, transitions, tmp_path / "out", formats=())
        assert manifest == []
        assert not (tmp_path / "out").exists()

    def test_rd_panel_set(self, rd_sweep_results, tmp_path):
        records, transitions = rd_sweep_results
        manifest = emit_reports(records, transitions, tmp_path / "out")
        names = sorted(p.name for p in manifest)
        assert names == [
            "eigenvalues_vs_beta.svg",
            "iterations_vs_beta.svg",
            "marginal_vs_beta.svg",
            "rate_prediction.svg",
            "sweep.csv",
            "sweep.json",
            "transitions.json",
        ]
        for path in manifest:
            if path.suffix == ".svg":
                root = ET.fromstring(path.read_text())
                assert root.tag.endswith("svg")
                assert len(list(root.iter())) > 10

    def test_ib_panel_set(self, ib_sweep_results, tmp_path):
        records, transitions = ib_sweep_results
        manifest = emit_reports(records, transitions, tmp_path / "out")
        names = sorted(p.name for p in manifest)
        assert "decoder_vs_beta.svg" in names
        assert "eigenvalues_vs_beta.svg" not in names

    def test_sweep_json_carries_all_records(self, rd_sweep_results, tmp_path):
        records, transitions = rd_sweep_results
        manifest = emit_reports(records, transitions, tmp_path / "out",
                                formats=("json",))
        payload = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert len(payload) == len(records)
        assert payload[0]["beta"] == records[0].beta
        tr = json.loads((tmp_path / "out" / "transitions.json").read_text())
        assert tr["kind"] == "support"

    def test_sweep_json_maps_non_finite_values(self, ib_sweep_results, tmp_path):
        records, transitions = ib_sweep_results
        emit_reports(records, transitions, tmp_path / "out", formats=("json",))
        payload = strict_json((tmp_path / "out" / "sweep.json").read_text())
        assert payload[0]["lambda0"] is None
        assert [k for k in payload[0] if k != "marginal"] == CSV_HEADER.split(",")
        point = RateStudyPoint(epsilon=0.1, iterations=3, converged=True,
                               measured_rate=float("nan"), lambda0=float("-inf"),
                               lambda_max=np.float64(0.5), predicted_rate=float("inf"))
        assert point.to_json_dict() == {
            "epsilon": 0.1, "iterations": 3, "converged": True, "measured_rate": None,
            "lambda0": "-inf", "lambda_max": 0.5, "predicted_rate": "inf",
        }

    def test_unknown_format_rejected(self, rd_sweep_results, tmp_path):
        records, transitions = rd_sweep_results
        with pytest.raises(ValueError, match="unknown"):
            emit_reports(records, transitions, tmp_path, formats=("pdf",))

    def test_unwritable_directory_reports_path(self, rd_sweep_results, tmp_path):
        records, transitions = rd_sweep_results
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory should go")
        with pytest.raises(OSError, match="blocked"):
            emit_reports(records, transitions, blocker / "out")

    def test_log_iteration_panel_has_polyline(self, rd_sweep_results, tmp_path):
        records, transitions = rd_sweep_results
        emit_reports(records, transitions, tmp_path / "out", formats=("svg",))
        text = (tmp_path / "out" / "iterations_vs_beta.svg").read_text()
        assert "<polyline" in text


# SHA-256 of every file emit_reports writes for each sweep fixture. Between
# them the panels draw every element kind: ticks and their labels, axis
# labels, legends, polylines, scatter points, transition markers, the
# identity diagonal, the decoder branches and empty panels. No decoder panel
# here has a dead representative; HAND_BUILT_PANELS pins a line that skips one.
REPORT_DIGESTS = {
    "rd": {
        "eigenvalues_vs_beta.svg": "140527c0a81562c1e9a44b677d0933eccb5aedddd7baa630e4b7f69e420a0bdb",
        "iterations_vs_beta.svg": "d3bc98d37b96750968824dae13dcfff415cf21f72eb76b0c795dcfbfd7145502",
        "marginal_vs_beta.svg": "f28bc455e38c283d0c6ad2dd96f5fe2ae84590f34fa8bcd5c661215ab0b11235",
        "rate_prediction.svg": "4351fdd0fb552562fd093fc6d73fae4b64c355dd5dcb256d286a08574731d7c8",
        "sweep.csv": "27e8a715ebe4bf517fee6a69882fb79a4a4499cceeb0a94bcc54e89c000e019c",
        "sweep.json": "f1b87726b588710575db7adfa96f518294548ea1b8b1ef91cd586c27be742eb7",
        "transitions.json": "03ca2f4c0604cd945b8caa785ddbd5cd8af81e677960588d73f04e5678e3840d",
    },
    "ib": {
        "decoder_vs_beta.svg": "ed6d59940f65af3e397004038fb59ba550c8af96cbbcd6eddc6e454c01d78132",
        "iterations_vs_beta.svg": "60873dce3ea504b629a8107bb00886f16960faeb7008226d9c6e9557c7dfa8e6",
        "marginal_vs_beta.svg": "6484c74f3bc7252ac0bf39364e02338053da97ef3eca193d9353c0352aa2b751",
        "sweep.csv": "ccdc8883b9755f694b91fbedfd30da947eef60a09a088df70aaac9f9807ed33d",
        "sweep.json": "823299e46af2e292aecdd0cd0165816efa30964f098140e320ccd17159db0053",
        "transitions.json": "5bc6dc21c33b25518b2f86a4a14998b932ea20e208591caf4b8950f77fa5aac2",
    },
    "unconverged": {
        "eigenvalues_vs_beta.svg": "ac9c4915bf9c1c9b084a08c5bc18b4ecea8dcb9aac9bba44f66f7f9616482fba",
        "iterations_vs_beta.svg": "eedd44f2e8e909409546bd4fddf6502c447da5af15279bc688a74a1ca51ce007",
        "marginal_vs_beta.svg": "df7a27942e6558eda6426e5b26882344478534474c6128cd90d89b20811955d4",
        "rate_prediction.svg": "8904a4c4bfa5d643194180f3202681c7f85ea7094708ba496c7ef18967931c21",
        "sweep.csv": "ed7c16390c5925563e9b0e852a8ae102854ef19425734c2154ab02b728e99a39",
        "sweep.json": "864b11c17f8a76025aa0c1e151b355fb7b6730bb8d92bea91fdff28bfc74e1fa",
        "transitions.json": "0a5b88597fe39ceb74459c28225f0a32d25be0f1f9ab94efcef3e5cb3c7af84d",
    },
}


@pytest.mark.parametrize("sweep_name", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(sweep_name, request, tmp_path):
    """A refactor of the report layer must keep every byte it writes. The
    empty eigenvalue panel of the unconverged sweep used to raise a math
    domain error: its empty log axis started at 0."""
    records, transitions = request.getfixturevalue(f"{sweep_name}_sweep_results")
    manifest = emit_reports(records, transitions, tmp_path)
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in manifest
    } == REPORT_DIGESTS[sweep_name]


NAN, INF = float("nan"), float("inf")
# Hand-built rows whose cells no sweep fixture writes: NaN, +inf, -inf, None,
# False, -0.0 and an integer of 10**7, with the SHA-256 of each CSV file.
HAND_BUILT_ROWS = {
    "sweep.csv": (write_sweep_csv, [
        SweepRecord(beta=0.5, iterations=10**7, converged=False, support_size=2,
                    effective_cardinality=None, lambda0=NAN, lambda_max=INF,
                    predicted_rate=-INF, measured_rate=1 / 3, marginal=np.array([0.25, 0.75]),
                    rate=-0.0, distortion_or_info=1e-300),
        SweepRecord(beta=2.0, iterations=0, converged=True, support_size=1,
                    effective_cardinality=3, lambda0=0.0, lambda_max=1.0,
                    predicted_rate=INF, measured_rate=NAN, marginal=np.array([1.0, 0.0]),
                    rate=NAN, distortion_or_info=-INF),
    ], "0e37aa6333b2d4ecc014a362b8093bf197f1b1363b9031f06c9b43452a35e8fd"),
    "rate.csv": (write_rate_study_csv, [
        RateStudyPoint(epsilon=1e-12, iterations=10**7, converged=False, measured_rate=NAN,
                       lambda0=0.0, lambda_max=1.0, predicted_rate=INF),
        RateStudyPoint(epsilon=0.1, iterations=3, converged=True, measured_rate=-INF,
                       lambda0=2 / 3, lambda_max=-0.0, predicted_rate=1.25),
    ], "91c77f729bd824a1e9d569212fdfa9af98d53862bab734a0cb15364ddeebca66"),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT_ROWS))
def test_hand_built_csv_bytes_are_pinned(name, tmp_path):
    """Cells the sweep digests never write keep their bytes: a rate-study
    file, a -inf, an integer of 10**7 and a -0.0."""
    write, rows, digest = HAND_BUILT_ROWS[name]
    path = write(rows, tmp_path / name)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """Parse text, rejecting the NaN and Infinity that JSON does not have."""
    return json.loads(text, parse_constant=_reject_constant)


class TestCli:
    def test_builtin_list(self):
        out = run_cli("builtin")
        assert out.returncode == 0
        assert "fig2" in out.stdout
        assert "binary_hamming" in out.stdout

    def test_builtin_emit_matches_construction(self):
        out = run_cli("builtin", "--name", "fig2")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        pxy = np.asarray(payload["pxy"])
        np.testing.assert_allclose(pxy.sum(axis=1), [0.7, 0.1, 0.1, 0.1],
                                   atol=1e-12)
        assert payload["m"] == 4

    @pytest.mark.parametrize("args, infinite", [
        (("solve", "--builtin", "fig2", "--beta", "3.0"), None),
        (("solve", "--builtin", "binary_hamming", "--beta", "2.0"), None),
        (("spectrum", "--builtin", "fig1_like", "--beta", "0"), "predicted_rate"),
        (("rate-study", "--builtin", "binary_hamming", "--beta", "1e-6",
          "--epsilons", "1e-6"), "predicted_rate"),
    ])
    def test_printed_json_is_strict(self, args, infinite):
        out = run_cli(*args)
        assert out.returncode == 0, out.stderr
        payload = strict_json(out.stdout)
        if infinite is not None:
            record = payload[0] if isinstance(payload, list) else payload
            assert record[infinite] == "inf"

    def test_unknown_builtin_is_usage_error(self):
        out = run_cli("builtin", "--name", "nope")
        assert out.returncode == 1

    def test_solve_success(self):
        out = run_cli("solve", "--builtin", "binary_hamming", "--beta", "1.0986")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        np.testing.assert_allclose(payload["distortion"], 0.25, atol=1e-4)

    def test_solve_nonconvergence_exit_code(self):
        out = run_cli(
            "solve", "--builtin", "binary_hamming_skewed", "--beta", "2.5",
            "--max-iters", "3",
        )
        assert out.returncode == 3

    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_solve_non_finite_beta_is_usage_error(self, beta):
        out = run_cli("solve", "--builtin", "binary_hamming", "--beta", beta)
        assert out.returncode == 1
        assert "finite and non-negative" in out.stderr

    @pytest.mark.parametrize("tol", ["nan", "2.0", "-1"])
    def test_spectrum_bad_zero_tol_is_usage_error(self, tol):
        out = run_cli("spectrum", "--builtin", "binary_hamming", "--beta", "1.0",
                      "--zero-tol", tol)
        assert out.returncode == 1
        assert "zero_tol must be finite" in out.stderr

    def test_spectrum_checks_zero_tol_before_it_solves(self, monkeypatch, capsys):
        """A bad --zero-tol used to be reported after the solve, 14 s into
        this one; it is now reported without solving."""
        def no_solve(*args, **kwargs):
            raise AssertionError("spectrum solved before checking --zero-tol")

        monkeypatch.setattr(rdspectral.rd, "solve", no_solve)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["spectrum", "--builtin", "fig1_like", "--beta", "0.44977",
                      "--epsilon", "1e-12", "--zero-tol", "1.5"])
        assert exit_info.value.code == 1
        assert capsys.readouterr().err == "error: zero_tol must be finite and lie in [0, 1)\n"

    def test_problem_without_representatives_is_usage_error(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"px": [1.0], "d": [[]]}')
        out = run_cli("solve", "--problem", str(path), "--beta", "1.0")
        assert out.returncode == 1
        assert "at least one column" in out.stderr

    def test_solve_missing_problem_is_usage_error(self):
        out = run_cli("solve", "--beta", "1.0")
        assert out.returncode == 1

    def test_solve_conflicting_sources_is_usage_error(self, tmp_path):
        path = tmp_path / "p.json"
        dump_problem(binary_hamming(), path)
        out = run_cli("solve", "--problem", str(path), "--builtin",
                      "binary_hamming", "--beta", "1.0")
        assert out.returncode == 1

    def test_solve_from_problem_file(self, tmp_path):
        path = tmp_path / "p.json"
        dump_problem(binary_hamming(0.7), path)
        out = run_cli("solve", "--problem", str(path), "--beta", "2.0",
                      "--epsilon", "1e-11")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        np.testing.assert_allclose(
            payload["distortion"], np.exp(-2) / (1 + np.exp(-2)), atol=1e-6
        )

    def test_solve_dispatches_bottleneck(self):
        out = run_cli("solve", "--builtin", "fig2", "--beta", "3.0")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert "relevant_info" in payload

    def test_spectrum_output(self):
        out = run_cli("spectrum", "--builtin", "binary_hamming", "--beta", "2.0")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert set(payload) == {
            "beta", "eigenvalues", "kernel_dim", "lambda0", "lambda_max",
            "predicted_rate",
        }
        assert payload["kernel_dim"] == 0

    def test_spectrum_rejects_bottleneck(self):
        out = run_cli("spectrum", "--builtin", "fig2", "--beta", "2.0")
        assert out.returncode == 1

    def test_sweep_end_to_end(self, tmp_path):
        out = run_cli(
            "sweep", "--builtin", "fig1_like", "--beta-min", "10",
            "--beta-max", "25", "--beta-steps", "8", "--init", "reverse",
            "--epsilon", "1e-9", "--out", str(tmp_path / "run"),
            "--formats", "csv,json",
        )
        assert out.returncode == 0, out.stderr
        csv_text = (tmp_path / "run" / "sweep.csv").read_text()
        assert csv_text.startswith(CSV_HEADER)
        assert len(csv_text.strip().split("\n")) == 9

    def test_sweep_linear_grid_forward(self, tmp_path):
        out = run_cli(
            "sweep", "--builtin", "binary_hamming", "--beta-min", "0.5",
            "--beta-max", "3", "--beta-steps", "6", "--linear-grid",
            "--init", "uniform", "--out", str(tmp_path / "lin"),
            "--formats", "csv",
        )
        assert out.returncode == 0, out.stderr
        lines = (tmp_path / "lin" / "sweep.csv").read_text().strip().split("\n")
        betas = [float(l.split(",")[0]) for l in lines[1:]]
        np.testing.assert_allclose(betas, np.linspace(0.5, 3, 6), atol=1e-12)

    def test_ib_sweep_end_to_end(self, tmp_path):
        out = run_cli(
            "sweep", "--builtin", "fig2", "--beta-min", "10",
            "--beta-max", "40", "--beta-steps", "10", "--init", "reverse",
            "--epsilon", "1e-7", "--support-tol", "1e-5",
            "--merge-tol", "1e-4", "--out", str(tmp_path / "ib"),
            "--formats", "csv,svg",
        )
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "ib" / "decoder_vs_beta.svg").exists()

    def test_rate_study_json(self):
        out = run_cli(
            "rate-study", "--builtin", "binary_hamming_skewed", "--beta", "2.5",
            "--anchor-beta", "8.0", "--epsilons", "1e-6,1e-10",
        )
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert len(payload) == 2
        assert payload[0]["epsilon"] == 1e-6

    def test_rate_study_beta_zero_usage_error(self):
        out = run_cli("rate-study", "--builtin", "binary_hamming", "--beta", "0.0")
        assert out.returncode == 1

    def test_rate_study_unconverged_reference_is_an_error(self):
        """At beta = log 4, the skewed source's support transition, the
        reference solve needs far more than 2000 iterations; its spectrum
        would give an unflagged prediction, so the study refuses."""
        out = run_cli(
            "rate-study", "--builtin", "binary_hamming_skewed",
            "--beta", "1.3862943611198906", "--max-iters", "2000", "--epsilons", "1e-6",
        )
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.startswith("error: rate study reference solve at "
                                     "beta=1.3862943611198906 did not converge")
        assert "within 2000 iterations" in out.stderr

    def test_rate_study_csv(self, tmp_path):
        path = tmp_path / "rate.csv"
        out = run_cli(
            "rate-study", "--builtin", "binary_hamming_skewed", "--beta", "2.5",
            "--anchor-beta", "8.0", "--epsilons", "1e-6,1e-10", "--out", str(path),
        )
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout.rsplit("\nwrote ", 1)[0])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == RATE_STUDY_CSV_HEADER == ",".join(payload[0])
        assert len(lines) == 3
        for line, point in zip(lines[1:], payload):
            cells = line.split(",")
            assert float(cells[0]) == point["epsilon"]
            assert int(cells[1]) == point["iterations"]
            assert cells[2] == ("true" if point["converged"] else "false")
            assert float(cells[3]) == point["measured_rate"]

    def test_tangent_end_to_end(self, tmp_path):
        """The command's tangent sweeps are those of studies.analyze under
        the same bottleneck sweep settings."""
        out = run_cli(
            "tangent", "--builtin", "fig2", "--beta-min", "20",
            "--beta-max", "30", "--beta-steps", "30", "--epsilon", "1e-7",
            "--support-tol", "1e-5", "--merge-tol", "1e-4",
            "--out", str(tmp_path / "tan"),
        )
        assert out.returncode == 0, out.stderr
        study = studies.analyze(bottleneck_four_symbol(), SweepConfig(
            beta_grid=np.geomspace(30.0, 20.0, 30), init="reverse",
            solver=SolverConfig(epsilon=1e-7), merge_tol=1e-4, support_tol=1e-5,
        ))
        assert len(study.tangents) == 1
        assert sorted(p.name for p in (tmp_path / "tan").iterdir()) == [
            "ib", "tangent_0",
        ]
        assert (tmp_path / "tan" / "ib" / "decoder_vs_beta.svg").exists()
        assert (tmp_path / "tan" / "tangent_0" / "rate_prediction.svg").exists()
        expected = write_sweep_csv(study.tangents[0].records, tmp_path / "expected.csv")
        written = tmp_path / "tan" / "tangent_0" / "sweep.csv"
        assert written.read_bytes() == expected.read_bytes()

    def test_tangent_without_transition_writes_the_sweep_alone(self, tmp_path):
        out = run_cli(
            "tangent", "--builtin", "fig2", "--beta-min", "40",
            "--beta-max", "60", "--beta-steps", "4", "--epsilon", "1e-7",
            "--support-tol", "1e-5", "--merge-tol", "1e-4",
            "--out", str(tmp_path / "tan"),
        )
        assert out.returncode == 0, out.stderr
        assert "no transitions detected" in out.stderr
        assert [p.name for p in (tmp_path / "tan").iterdir()] == ["ib"]

    def test_sweep_forward_policy_is_usage_error(self, tmp_path):
        out = run_cli("sweep", "--builtin", "fig1_like", "--beta-min", "1",
                      "--beta-max", "2", "--init", "forward",
                      "--out", str(tmp_path / "fwd"))
        assert out.returncode == 1
        assert "forward" in out.stderr

    def test_sweep_negative_seed_is_usage_error(self, tmp_path):
        out = run_cli("sweep", "--builtin", "fig1_like", "--beta-min", "1",
                      "--beta-max", "2", "--init", "dirichlet", "--seed", "-1",
                      "--out", str(tmp_path / "neg"))
        assert out.returncode == 1
        assert "seed must be a non-negative integer" in out.stderr
        assert not (tmp_path / "neg").exists()

    def test_sweep_nan_merge_tol_is_usage_error(self, tmp_path):
        out = run_cli("sweep", "--builtin", "fig2", "--beta-min", "1.5",
                      "--beta-max", "60", "--beta-steps", "6", "--init", "reverse",
                      "--merge-tol", "nan", "--out", str(tmp_path / "run"))
        assert out.returncode == 1
        assert "merge_tol must be finite and positive" in out.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("support_tol, warns", [("1e-10", True), ("1e-5", False)])
    def test_sweep_warns_when_support_tol_is_below_epsilon(self, tmp_path,
                                                           support_tol, warns):
        """fig2's own settings (epsilon 1e-7, support tol 1e-5) sit on the
        100 x epsilon line and must not warn."""
        out = run_cli("sweep", "--builtin", "fig2", "--beta-min", "40",
                      "--beta-max", "60", "--beta-steps", "3", "--init", "reverse",
                      "--epsilon", "1e-7", "--support-tol", support_tol,
                      "--merge-tol", "1e-4", "--out", str(tmp_path / "run"),
                      "--formats", "csv")
        assert out.returncode == 0, out.stderr
        assert ("--support-tol" in out.stderr) == warns

    def test_tangent_warns_at_default_support_tol(self, tmp_path):
        out = run_cli("tangent", "--builtin", "fig2", "--beta-min", "40",
                      "--beta-max", "60", "--beta-steps", "3",
                      "--out", str(tmp_path / "tan"))
        assert out.returncode == 0, out.stderr
        assert "warning: --support-tol 1e-10 is below 100 x --epsilon 1e-09" in out.stderr

    def test_tangent_rejects_rate_distortion_problem(self):
        out = run_cli("tangent", "--builtin", "fig1_like", "--beta-min", "1",
                      "--beta-max", "2", "--beta-steps", "3")
        assert out.returncode == 1
        assert "bottleneck" in out.stderr


def _failing_solve(*args, **kwargs):
    raise NumericalError("partition function vanished")


# Usage errors and exit codes, each run in-process from an empty directory:
# (argv, a replacement for rd.solve or None, exit code, stderr, and the files
# the run leaves, each with the problem it must load back to).
CLI_EXITS = {
    "sweep-without-beta-range": (
        ["sweep", "--builtin", "fig1_like"], None, 1,
        "error: --beta-min and --beta-max are required for sweeps\n", {}),
    "sweep-reversed-beta-range": (
        ["sweep", "--builtin", "fig1_like", "--beta-min", "2", "--beta-max", "1"], None, 1,
        "error: need 0 <= beta-min < beta-max\n", {}),
    "sweep-one-beta-step": (
        ["sweep", "--builtin", "fig1_like", "--beta-min", "1", "--beta-max", "2",
         "--beta-steps", "1"], None, 1, "error: --beta-steps must be at least 2\n", {}),
    "sweep-log-grid-from-zero": (
        ["sweep", "--builtin", "fig1_like", "--log-grid", "--beta-min", "0",
         "--beta-max", "2"], None, 1, "error: --log-grid needs beta-min > 0\n", {}),
    "sweep-unknown-format": (
        ["sweep", "--builtin", "fig1_like", "--beta-min", "1", "--beta-max", "2",
         "--formats", "csv,bogus"], None, 1, "error: unknown formats: ['bogus']\n", {}),
    "rate-study-bottleneck": (
        ["rate-study", "--builtin", "fig2", "--beta", "2"], None, 1,
        "error: rate-study applies to rate-distortion problems\n", {}),
    "rate-study-bad-epsilon": (
        ["rate-study", "--builtin", "binary_hamming", "--beta", "1",
         "--epsilons", "1e-6,x"], None, 1,
        "error: bad --epsilons: could not convert string to float: 'x'\n", {}),
    "spectrum-unconverged": (
        ["spectrum", "--builtin", "fig1_like", "--beta", "1", "--max-iters", "1"], None, 3,
        "warning: diagnostics taken at an unconverged point\n", {}),
    "numerical-failure": (
        ["solve", "--builtin", "fig1_like", "--beta", "1"], _failing_solve, 2,
        "numerical failure: partition function vanished\n", {}),
    "builtin-to-file": (
        ["builtin", "--name", "fig1_like", "--out", "p.json"], None, 0, "",
        {"p.json": planar_four_point()}),
}


@pytest.mark.parametrize("case", sorted(CLI_EXITS))
def test_cli_exit_code_and_message(case, monkeypatch, capsys, tmp_path):
    """Each run exits with its code and writes exactly its stderr line; no
    command that fails writes a report directory, the default one included."""
    argv, solve, code, stderr, files = CLI_EXITS[case]
    monkeypatch.chdir(tmp_path)
    if solve is not None:
        monkeypatch.setattr(rdspectral.rd, "solve", solve)
    try:
        exit_code = cli_main(argv)
    except SystemExit as exc:
        exit_code = exc.code
    assert exit_code == code
    assert capsys.readouterr().err == stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)
    for name, problem in files.items():
        assert load_problem(tmp_path / name) == problem


@pytest.mark.parametrize("text, reason", [
    ("[1, 2]", "expected a JSON object"),
    ('{"px": [1.0]}', "neither a rate-distortion nor a bottleneck problem"),
])
def test_unloadable_problem_file(text, reason, capsys, tmp_path):
    """load_problem names the file and what is wrong with it, and the CLI
    reports that as a usage error."""
    path = tmp_path / "p.json"
    path.write_text(text)
    with pytest.raises(ValueError) as error:
        load_problem(path)
    assert str(error.value) == f"{path}: {reason}"
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["solve", "--problem", str(path), "--beta", "1"])
    assert exit_info.value.code == 1
    assert capsys.readouterr().err == f"error: cannot load {path}: {path}: {reason}\n"


def test_chart_with_one_x_spans_it_by_half_a_unit():
    """Points that share one x would leave the x axis no width: it spans
    x +- 0.5 instead, and every point is still drawn."""
    series = [("scatter", [2.0, 2.0, 2.0, NAN], [1.0, 3.0, 2.0, 5.0], "")]
    assert svgplot._limits(series, log_x=False, log_y=False, diagonal=False)[:2] == (1.5, 2.5)
    left, right = svgplot._MARGIN[:2]
    middle = f"{left + (svgplot._WIDTH - left - right) / 2:.2f}"
    svg = svgplot.render("t", "x", "y", series)
    circles = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}circle")
    assert [c.get("cx") for c in circles] == [middle] * 3


# Hand-built panels whose inputs no sweep fixture reaches, with the SHA-256
# of each SVG, recorded from the Chart builder that render replaced: on a
# log x axis, one polyline through the points around a None it skips, a line
# with one visible point (drawn as a circle) and markers at x = -1, 0 and
# beyond the data; y ticks that cross zero, labelled >= 1e4 and < 1e-3; a
# scatter holding a NaN under the diagonal; and a log-log panel with no point.
HAND_BUILT_PANELS = {
    "log-x": (dict(title="log x", xlabel="beta", ylabel="y", series=[
        ("line", [1.0, 2.0, 3.0, 4.0], [0.1, None, 0.3, 0.4], "gap"),
        ("line", [-1.0, 0.5, 2.5], [0.2, NAN, 0.25], "one point"),
    ], vlines=[-1.0, 0.0, 2.0, 50.0], log_x=True),
        "37dd826455e2ddff5487a2752fc7f1fa9b9afdf1b975aaad94e9d423d68dedaf"),
    "zero-crossing": (dict(title="ticks", xlabel="x", ylabel="y", series=[
        ("line", [1e-4, 3e-4, 5e-4], [-2.2e4, 1e3, 3.1e4], "wide"),
    ]), "94bc44d7755909bf2b0330e67662652c036cbabb3e6263840cafd33f393bdb48"),
    "scatter-diagonal": (dict(title="rates", xlabel="predicted", ylabel="measured", series=[
        ("scatter", [0.5, 1.0, NAN, 2.0], [0.6, 0.9, 1.5, 2.4], ""),
    ], diagonal=True), "adf6032bdbeaf426c3427f02a47c03d9d6affa665bc58c16de385b399a4e2184"),
    "empty-log-log": (dict(title="empty", xlabel="x", ylabel="y", series=[
        ("line", [1.0, 2.0], [0.0, -1.0], "dead"),
    ], log_x=True, log_y=True),
        "065ef3066ab222887fb5e0369e176fd0200937fc46d357a6972f7ed608214157"),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT_PANELS))
def test_hand_built_chart_bytes_are_pinned(name):
    """Chart inputs the sweep digests never draw keep their bytes."""
    kwargs, digest = HAND_BUILT_PANELS[name]
    assert hashlib.sha256(svgplot.render(**kwargs).encode()).hexdigest() == digest


# Every command and its options, with the values of each choice option. A new
# option or value is a new knob to document and test; this list makes it
# visible in review.
CLI_SURFACE = {
    "builtin": ["--name", "--out"],
    "rate-study": ["--anchor-beta", "--beta", "--builtin", "--epsilons",
                   "--max-iters", "--out", "--problem"],
    "solve": ["--beta", "--builtin", "--epsilon", "--max-iters", "--norm=l1|linf",
              "--problem"],
    "spectrum": ["--beta", "--builtin", "--epsilon", "--max-iters", "--norm=l1|linf",
                 "--problem", "--zero-tol"],
    "study": ["--out"],
    "sweep": ["--beta-max", "--beta-min", "--beta-steps", "--builtin", "--epsilon",
              "--formats", "--init=uniform|dirichlet|reverse",
              "--log-grid/--linear-grid", "--max-iters", "--merge-tol",
              "--norm=l1|linf", "--out", "--problem", "--seed", "--support-tol"],
    "tangent": ["--beta-max", "--beta-min", "--beta-steps", "--builtin",
                "--epsilon", "--log-grid/--linear-grid", "--max-iters",
                "--merge-tol", "--norm=l1|linf", "--out", "--problem",
                "--support-tol"],
}


def _option_surface(option: click.Option) -> str:
    text = "/".join(option.opts + option.secondary_opts)
    if isinstance(option.type, click.Choice):
        text += "=" + "|".join(option.type.choices)
    return text


def test_cli_surface_is_pinned():
    surface = {
        name: sorted(
            _option_surface(param)
            for param in command.params
            if isinstance(param, click.Option)
        )
        for name, command in cli.commands.items()
    }
    assert surface == CLI_SURFACE
    assert sum(len(options) for options in surface.values()) == 50


# Every name the package exports and every field of its two configs, pinned
# for the same reason: each one is a public name or knob. Each has a caller
# outside the tests but seven. ab_step, ib_step and ib_decoder are the one-step
# maps the tests check the loops against. kl_divergence, mutual_information
# and relevant_information are the checked divergences whose unchecked kernel,
# weighted_divergence, scores every solve, and expected_distortion is the
# checked form of rd._distortion, which scores every solve too.
PACKAGE_SURFACE = [
    "BUILTIN_PROBLEMS", "CSV_HEADER", "FixedPointJacobian", "IbProblem",
    "IbSolution", "NumericalError", "RateStudyPoint", "RdProblem", "RdSolution",
    "SolverConfig", "SpectralReport", "SweepConfig", "SweepRecord",
    "TransitionReport", "ab_step", "as_channel", "as_distribution",
    "binary_hamming", "boltzmann_factors", "bottleneck_four_symbol",
    "builtin_problem", "decoder_classes", "detect_transitions", "dump_problem",
    "effective_cardinality", "eigen_spectrum", "emit_reports",
    "expected_distortion", "ib_decoder", "ib_distortion", "ib_solve", "ib_step",
    "identity_encoder_init", "jacobian", "kl_divergence", "load_problem",
    "mutual_information", "planar_four_point", "predicted_iterations",
    "rate_study", "relevant_information", "solve", "solve_batch", "sweep",
    "tangent_rd", "uniform_encoder_init", "uniform_init", "write_sweep_csv",
    "write_sweep_json",
]
# The parameters, with their defaults, of every function the package
# exports: a parameter added or removed is a knob, so it shows here too.
FUNCTION_PARAMETERS = [
    "ab_step(problem, marginal, beta)",
    "as_channel(rows, name='channel')",
    "as_distribution(p, name='p')",
    "binary_hamming(p=0.5)",
    "boltzmann_factors(problem, marginal, beta)",
    "bottleneck_four_symbol()",
    "builtin_problem(name)",
    "decoder_classes(solution, merge_tol=1e-06, zero_tol=1e-10)",
    "detect_transitions(records)",
    "dump_problem(problem, path)",
    "effective_cardinality(solution, merge_tol=1e-06, zero_tol=1e-10)",
    "eigen_spectrum(jac, zero_tol=1e-10)",
    "emit_reports(records, transitions, out_dir, formats=('csv', 'json', 'svg'))",
    "expected_distortion(problem, encoder)",
    "ib_decoder(problem, encoder)",
    "ib_distortion(problem, decoder)",
    "ib_solve(problem, beta, init_encoder=None, config=None)",
    "ib_step(problem, encoder, beta)",
    "identity_encoder_init(problem)",
    "jacobian(problem, marginal, beta, fixed_point_tol=1e-06)",
    "kl_divergence(p, q)",
    "load_problem(path)",
    "mutual_information(px, channel)",
    "planar_four_point()",
    "predicted_iterations(report, epsilon)",
    "rate_study(problem, beta, epsilons, anchor_beta=None, max_iterations=10000000)",
    "relevant_information(problem, marginal, decoder)",
    "solve(problem, beta, init=None, config=None)",
    "solve_batch(problem, betas, inits=None, config=None)",
    "sweep(problem, config)",
    "tangent_rd(problem, sol_minus, sol_plus, merge_tol=1e-06, dedup_tol=None, zero_tol=1e-10)",
    "uniform_encoder_init(problem)",
    "uniform_init(problem)",
    "write_sweep_csv(records, path)",
    "write_sweep_json(records, path)",
]
CONFIG_FIELDS = {
    "SolverConfig": ["epsilon", "norm", "max_iterations"],
    "SweepConfig": ["beta_grid", "init", "solver", "seed", "merge_tol",
                    "support_tol"],
}


def test_package_surface_is_pinned():
    exported = sorted(
        name for name, value in vars(rdspectral).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PACKAGE_SURFACE
    assert len(exported) == 49
    assert {
        name: [f.name for f in dataclasses.fields(getattr(rdspectral, name))]
        for name in CONFIG_FIELDS
    } == CONFIG_FIELDS


def _parameters(function) -> str:
    """function's parameters as its signature prints them, less annotations."""
    signature = inspect.signature(function)
    return str(signature.replace(
        parameters=[p.replace(annotation=p.empty) for p in signature.parameters.values()],
        return_annotation=signature.empty))


def test_function_parameters_are_pinned():
    assert [
        name + _parameters(value) for name, value in sorted(vars(rdspectral).items())
        if not name.startswith("_") and inspect.isfunction(value)
    ] == FUNCTION_PARAMETERS
