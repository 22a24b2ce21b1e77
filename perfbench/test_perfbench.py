"""Tests of the benchmark itself: every workload at a tiny size, the
reference check, the traced metrics and the command's output contract."""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import rdspectral
import spans
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_passes_checks_at_every_seed(name, tmp_path):
    workload = workloads.get(name, tiny=True)
    results = []
    for seed in (workloads.DEFAULT_SEED, 7):
        inputs = workloads.setup(workload, seed)
        result = workloads.run_pass(workload, inputs, tmp_path / str(seed))
        assert workloads.check_pass(workload, result) == (set(), [])
        results.append(result)
    # The seed relabels symbols and representatives: the work is unchanged.
    base, relabeled = (workloads.fingerprint(r) for r in results)
    assert relabeled["iterations"] == base["iterations"]
    assert relabeled["flank_iterations"] == base["flank_iterations"]


def _tiny_bottleneck(tmp_path):
    workload = workloads.get("bottleneck-anneal", tiny=True)
    inputs = workloads.setup(workload, workloads.DEFAULT_SEED)
    return workload, inputs, workloads.run_pass(workload, inputs, tmp_path)


@pytest.mark.parametrize("key, corrupt", [
    ("iterations", lambda v: [v[0] + 1] + v[1:]),
    ("flank_iterations", lambda v: v[:-1]),
    ("report_sha256", lambda v: "0" * 64),
])
def test_reference_mismatch_fails_every_point(tmp_path, key, corrupt):
    workload, _, result = _tiny_bottleneck(tmp_path)
    reference = workloads.fingerprint(result)
    assert result.flanks
    assert workloads.check_pass(workload, result, reference) == (set(), [])
    bad = dict(reference, **{key: corrupt(reference[key])})
    failed, messages = workloads.check_pass(workload, result, bad)
    assert failed == set(range(result.points))
    assert any(key in m for m in messages)


def test_bad_outputs_fail_their_points(tmp_path):
    workload, _, result = _tiny_bottleneck(tmp_path)
    result.records[3].converged = False
    result.records[5].marginal = result.records[5].marginal * 1.01
    result.records[10].effective_cardinality = 0
    result.flanks[0].spectrum.eigenvalues[-1] = 1.0 + 1e-6
    failed, messages = workloads.check_pass(workload, result)
    assert failed == {3, 5, 10, len(result.records)}
    assert len(messages) == 4
    expecting_more = replace(
        workload, transitions=len(result.transitions.intervals) + 1
    )
    failed, _ = workloads.check_pass(expecting_more, result)
    assert failed == set(range(result.points))


def test_traced_pass_accounts_for_its_wall_time(tmp_path):
    workload, inputs, _ = _tiny_bottleneck(tmp_path)
    original = rdspectral.rd.solve
    tracer = spans.Tracer(rdspectral)
    tracer.install()
    try:
        start = time.perf_counter()
        result = workloads.run_pass(workload, inputs, tmp_path)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert rdspectral.rd.solve is original
    metrics = spans.pass_metrics(tracer.spans, 0, wall)
    assert sum(spans.self_times(tracer.spans, 0)) + metrics["bench.self_s"] == (
        pytest.approx(wall)
    )
    assert metrics["ib.iterations"] + metrics["rd.iterations"] == result.iterations
    assert metrics["sweeps.points"] == len(result.records)
    assert metrics["rd.solve.calls"] == len(result.flanks)
    assert metrics["ib.tangent_rd.calls"] == len(result.transitions.intervals)
    assert metrics["sweeps.converged_ratio"] == 1.0


def _command(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd or HERE.parent, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, kind):
    done = _command("--workload", "bottleneck-anneal", "--tiny", "--seed", "3",
                    "--seconds", "0.5", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _command("--workload", "planar-cold", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
