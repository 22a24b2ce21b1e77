"""Benchmark for rdspectral: times whole workload passes and checks outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload planar-cold --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One process runs one workload. It repeats passes (sweep, transition
detection, follow-up, reports) one after another until --seconds have
passed, checks every pass's outputs and prints the metrics, one per line,
then a JSON object as the last line of standard output. With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1 untraced
and traced passes alternate and the metrics are the per-layer ones. The
exit code is non-zero when any check fails. See README.md next to this file.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One caller, one sweep at a time: the BLAS gets one thread, so numbers do
# not depend on how many cores a neighbour leaves free. Set before numpy
# is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOAD_NAMES = ("planar-cold", "bottleneck-anneal", "wide-anneal")
TRACED_SETUPS = 9
MIN_PASSES = 3

# name -> (unit, better) for every end-to-end metric an untraced run reports.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "iters_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_ratio": ("ratio", "higher"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs for a smoke test; no reference check")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's default-seed fingerprint")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"{blas.get('openblas configuration', '')}".strip(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "host": platform.node(),
        "git_sha": _git_sha(),
    }


def setup_probe(args) -> int:
    """Import the package and build the workload's inputs; print the time."""
    start = time.perf_counter()
    import workloads

    workloads.setup(workloads.get(args.workload, args.tiny), args.seed)
    print(repr(time.perf_counter() - start))
    return 0


def measure_setup(args) -> float:
    """Set-up time in a fresh interpreter, so every sample pays the import."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(args) -> int:
    import rdspectral
    import spans
    import workloads

    if args.write_reference and (args.tiny or args.seed != workloads.DEFAULT_SEED):
        print("--write-reference needs the full workload at the default seed",
              file=sys.stderr)
        return 2
    workload = workloads.get(args.workload, args.tiny)
    reference = None
    if not (args.tiny or args.write_reference):
        reference = json.loads((HERE / "reference.json").read_text())[workload.name]
        if args.seed != workloads.DEFAULT_SEED:
            # Relabeling keeps every iteration count but changes the bytes.
            del reference["report_sha256"]
    out = OUT / workload.name
    out.mkdir(parents=True, exist_ok=True)
    info = manifest(args)
    (out / "manifest.json").write_text(json.dumps(info, indent=1) + "\n")
    print("manifest " + json.dumps(info))

    setup_samples = []
    tracer = spans.Tracer(rdspectral)
    init_samples = []
    if args.trace:
        tracer.install()
        for _ in range(TRACED_SETUPS):
            first = len(tracer.spans)
            inputs = workloads.setup(workload, args.seed)
            init_samples.append(spans.setup_init_s(tracer.spans, first))
        tracer.uninstall()
    else:
        inputs = workloads.setup(workload, args.seed)

    # Warm-up on the tiny variant, so lazy imports and first-call set-up in
    # numpy and LAPACK are not charged to the first timed pass.
    tiny = workloads.get(workload.name, tiny=True)
    workloads.run_pass(tiny, workloads.setup(tiny, args.seed), out / "warmup")

    walls = {False: [], True: []}
    rates = []
    layer = []
    attempted = failed = 0
    messages = []
    digests = set()
    began = time.perf_counter()
    while True:
        if not args.trace:
            # One set-up sample per pass, so the samples span the same
            # stretch of time as the passes do.
            setup_samples.append(measure_setup(args))
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        first = len(tracer.spans)
        if traced:
            tracer.install()
        start = time.perf_counter()
        result = workloads.run_pass(workload, inputs, out / "reports")
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)

        digest, size = workloads.report_digest(result)
        digests.add(digest)
        bad, notes = workloads.check_pass(workload, result, reference)
        if len(digests) > 1:
            bad = set(range(result.points))
            notes.append(f"{workload.name}: reports differ between passes")
        attempted += result.points
        failed += len(bad)
        messages += notes
        rates.append(result.iterations / wall)
        if traced:
            metrics = spans.pass_metrics(tracer.spans, first, wall)
            metrics["reports.bytes"] = size
            metrics["reports.files"] = len(result.report_paths)
            layer.append(metrics)
        if args.write_reference:
            fingerprint = workloads.fingerprint(result)
        del result

        done = len(walls[False]) + len(walls[True])
        elapsed = time.perf_counter() - began
        typical = statistics.median(walls[False] + walls[True])
        if done >= MIN_PASSES + args.trace and elapsed + typical > args.seconds:
            break

    if args.write_reference and failed == 0:
        table = json.loads((HERE / "reference.json").read_text())
        table[workload.name] = fingerprint
        (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")

    if args.trace:
        tracer.write(out / "spans.json")
        values = {
            name: statistics.median(m[name] for m in layer) for name in layer[0]
        }
        values["rd.problem_init_s"] = statistics.median(init_samples)
        values["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False])
        )
        units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
        counts = {name: len(layer) for name in values}
        counts["rd.problem_init_s"] = len(init_samples)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls[False]),
            "iters_per_s": statistics.median(rates),
            "peak_rss_mb": peak,
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        counts = {"setup_s": len(setup_samples), "wall_s": len(walls[False]),
                  "iters_per_s": len(rates), "peak_rss_mb": 1, "pass_ratio": 1}

    print(f"{workload.name}: {attempted} points attempted, {failed} failed "
          f"(fail_ratio {failed / attempted:.6g}), seed {args.seed}")
    for traced, samples in walls.items():
        if samples:
            print(f"  {'traced' if traced else 'untraced'} pass seconds: "
                  + " ".join(f"{w:.4f}" for w in samples))
    for message in messages[:20]:
        print("FAIL " + message)
    for name, value in values.items():
        print(f"  {name:34s} {value:16.6g} {units[name]:8s} "
              f"median of {counts[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit code {done.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "rdspectral" / "__init__.py").is_file():
        print(f"rdspectral sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
