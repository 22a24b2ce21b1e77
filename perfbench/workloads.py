"""The benchmark's workloads: inputs built from a seed, one timed pass, and
the checks every pass's outputs must satisfy.

Every call into the package goes through the module attribute the package
itself calls through (``sweeps.sweep``, ``rd.solve``, ...), so the tracer in
``spans.py`` sees the benchmark's calls and the package's internal ones alike.

The seed relabels the source symbols and representatives of a fixed
instance instead of drawing a fresh one. Iteration counts near a transition
grow without bound as a grid point approaches it, so fresh draws or shifted
grids change the work of a pass by 10-20 % from seed to seed; a relabeling
gives the program different arrays while leaving the mathematical work the
same. The default seed is the identity relabeling.
"""

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from rdspectral import ib, rd, reports, sweeps
from rdspectral.problems import builtin_problem

DEFAULT_SEED = 0

SUPPORT_TOL = 1e-5
# Acceptance-suite bound: every eigenvalue lies in [-1e-8, 1 + 1e-8].
SPECTRUM_TOL = 1e-8
MASS_TOL = 1e-9
FIG2_MERGE_TOL = 1e-4
FIG2_DEDUP_TOL = 5e-3
FLANK_SOLVER = rd.SolverConfig(epsilon=1e-7)
WIDE_SIZE = 256


def _relabeling(seed: int, n: int, m: int):
    """Row and column permutations for a seed; the identity at the default."""
    if seed == DEFAULT_SEED:
        return np.arange(n), np.arange(m)
    rng = np.random.default_rng(seed)
    return rng.permutation(n), rng.permutation(m)


def planar_problem(seed: int, size: int) -> rd.RdProblem:
    base = builtin_problem("fig1_like")
    rows, cols = _relabeling(seed, base.n, base.m)
    return rd.RdProblem(px=base.px[rows], d=base.d[rows][:, cols])


def bottleneck_problem(seed: int, size: int) -> ib.IbProblem:
    base = builtin_problem("fig2")
    rows, cols = _relabeling(seed, base.n, base.ny)
    return ib.IbProblem(pxy=base.pxy[rows][:, cols])


def wide_problem(seed: int, size: int) -> rd.RdProblem:
    """px ~ Dirichlet(1) and d ~ U(0, 1), drawn once, then relabeled."""
    rng = np.random.default_rng(DEFAULT_SEED)
    px = rng.dirichlet(np.ones(size))
    d = rng.uniform(0.0, 1.0, (size, size))
    rows, cols = _relabeling(seed, size, size)
    return rd.RdProblem(px=px[rows], d=d[rows][:, cols])


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and the expectations its outputs must meet.

    size is the alphabet size handed to build (ignored by the builtins);
    transitions is the number of bracketed transitions every pass must
    report, or None where it is not fixed (the tiny smoke-test variants).
    """

    name: str
    why: str
    build: Callable[[int, int], object]
    grid: tuple
    init: str
    epsilon: float
    transitions: int | None
    size: int = 0
    merge_tol: float = ib.DEFAULT_MERGE_TOL
    tangent_flanks: bool = False

    def beta_grid(self) -> np.ndarray:
        hi, lo, points, stride = self.grid
        return np.geomspace(hi, lo, points)[::stride]


# grid = (first beta, last beta, points, stride): the sweep runs on every
# stride-th point of geomspace(first, last, points).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planar-cold",
            why="independent cold solves at m=4, overhead-bound rd.solve; "
                "the only workload batched lanes can speed up",
            build=planar_problem,
            # Every third point of the acceptance suite's 420-point grid, so
            # each record equals the acceptance fixture's record at its beta.
            grid=(50.0, 0.2, 420, 3),
            init="uniform",
            epsilon=1e-9,
            transitions=5,
        ),
        Workload(
            name="bottleneck-anneal",
            why="sequential reverse IB anneal plus tangent follow-up; "
                "ib_solve takes 99% and rd is almost never entered",
            build=bottleneck_problem,
            grid=(300.0, 1.0, 480, 1),
            init="reverse",
            epsilon=1e-7,
            transitions=3,
            merge_tol=FIG2_MERGE_TOL,
            tangent_flanks=True,
        ),
        Workload(
            name="wide-anneal",
            why="sequential reverse anneal at n=m=256: arithmetic-bound "
                "rd.solve, largest spectral share, reports and problem set-up",
            build=wide_problem,
            grid=(200.0, 2.0, 24, 1),
            init="reverse",
            epsilon=1e-9,
            transitions=23,
            size=WIDE_SIZE,
        ),
    )
}

# Small variants of each workload for smoke tests: same code paths, no fixed
# transition count and no stored reference.
TINY = {
    "planar-cold": dict(grid=(50.0, 0.2, 420, 35), transitions=None),
    "bottleneck-anneal": dict(grid=(300.0, 1.0, 60, 1), transitions=None),
    "wide-anneal": dict(grid=(200.0, 2.0, 4, 1), transitions=None, size=24),
}


def get(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    if tiny:
        workload = replace(workload, **TINY[name])
    return workload


@dataclass
class Inputs:
    problem: object
    config: sweeps.SweepConfig


def setup(workload: Workload, seed: int) -> Inputs:
    """Build the problem and sweep configuration a pass runs on."""
    return Inputs(
        problem=workload.build(seed, workload.size),
        config=sweeps.SweepConfig(
            beta_grid=workload.beta_grid(),
            init=workload.init,
            solver=rd.SolverConfig(epsilon=workload.epsilon),
            merge_tol=workload.merge_tol,
            support_tol=SUPPORT_TOL,
        ),
    )


@dataclass
class Flank:
    """A tangent problem solved at one flank of a bottleneck transition."""

    beta: float
    solution: rd.RdSolution
    spectrum: object


@dataclass
class PassResult:
    records: list
    transitions: object
    flanks: list
    report_paths: list

    @property
    def iterations(self) -> int:
        return sum(r.iterations for r in self.records) + sum(
            f.solution.iterations for f in self.flanks
        )

    @property
    def points(self) -> int:
        return len(self.records) + len(self.flanks)


def _class_marginal(problem, tangent, solution) -> np.ndarray:
    """Mass of each tangent representative at a bottleneck solution.

    Each live representative's mass goes to the tangent column closest to its
    own relevance-distortion column; that marginal is (to the solver's
    accuracy) a fixed point of the tangent problem at the same beta.
    """
    dist = ib.ib_distortion(problem, solution.decoder)
    q = np.zeros(tangent.m)
    for j in np.flatnonzero(solution.marginal > SUPPORT_TOL):
        nearest = np.abs(tangent.d - dist[:, [j]]).max(axis=0).argmin()
        q[nearest] += solution.marginal[j]
    return q / q.sum()


def tangent_flanks(problem, records, transitions) -> list:
    """Solve each transition's tangent problem at both flanking betas and
    take the spectrum there."""
    flanks = []
    for lo_idx, hi_idx in transitions.index_pairs:
        lo, hi = records[lo_idx].solution, records[hi_idx].solution
        tangent = ib.tangent_rd(
            problem, lo, hi, merge_tol=FIG2_MERGE_TOL,
            dedup_tol=FIG2_DEDUP_TOL, zero_tol=SUPPORT_TOL,
        )
        for side in (lo, hi):
            sol = rd.solve(
                tangent, side.beta,
                init=_class_marginal(problem, tangent, side), config=FLANK_SOLVER,
            )
            jac = sweeps.jacobian(
                tangent, sol.marginal, side.beta, fixed_point_tol=float("inf")
            )
            spectrum = sweeps.eigen_spectrum(jac, zero_tol=SUPPORT_TOL)
            flanks.append(Flank(beta=side.beta, solution=sol, spectrum=spectrum))
    return flanks


def run_pass(workload: Workload, inputs: Inputs, out_dir) -> PassResult:
    """One workload pass: sweep, transitions, follow-up and reports."""
    records = sweeps.sweep(inputs.problem, inputs.config)
    transitions = sweeps.detect_transitions(records)
    flanks = (
        tangent_flanks(inputs.problem, records, transitions)
        if workload.tangent_flanks else []
    )
    paths = reports.emit_reports(records, transitions, out_dir)
    return PassResult(records, transitions, flanks, paths)


def report_digest(result: PassResult) -> tuple[str, int]:
    """SHA-256 over the report files' names and bytes, and their total size."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(result.report_paths, key=lambda p: p.name):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        total += len(data)
    return digest.hexdigest(), total


def fingerprint(result: PassResult) -> dict:
    """What a reference stores: per-point iteration counts and report hash."""
    return {
        "iterations": [r.iterations for r in result.records],
        "flank_iterations": [f.solution.iterations for f in result.flanks],
        "report_sha256": report_digest(result)[0],
    }


def _bad_distribution(v) -> bool:
    v = np.asarray(v, dtype=float)
    return (
        not np.all(np.isfinite(v)) or np.any(v < 0) or abs(v.sum() - 1.0) > MASS_TOL
    )


def _bad_spectrum(eigenvalues) -> bool:
    ev = np.asarray(eigenvalues, dtype=float)
    return (
        not np.all(np.isfinite(ev))
        or ev.min() < -SPECTRUM_TOL
        or ev.max() > 1.0 + SPECTRUM_TOL
    )


def check_pass(workload: Workload, result: PassResult, reference=None):
    """Check one pass's outputs; return (failed point indices, messages).

    Points are the sweep records in ascending beta followed by the tangent
    flanks. A pass-level failure (transition count, reference mismatch)
    fails every point of the pass. Only the keys present in reference are
    compared.
    """
    failed = set()
    messages = []

    def fail(points, message):
        failed.update(points)
        messages.append(f"{workload.name}: {message}")

    points = [
        (f"record {i} (beta {r.beta:.6g})", r.converged, r.marginal, r.eigenvalues)
        for i, r in enumerate(result.records)
    ] + [
        (f"tangent flank at beta {f.beta:.6g}", f.solution.converged,
         f.solution.marginal, f.spectrum.eigenvalues)
        for f in result.flanks
    ]
    for i, (label, converged, marginal, eigenvalues) in enumerate(points):
        if not converged:
            fail([i], f"{label} did not converge")
        if _bad_distribution(marginal):
            fail([i], f"{label} marginal is not a distribution")
        if eigenvalues is not None and _bad_spectrum(eigenvalues):
            fail([i], f"{label} spectrum leaves [0, 1]")

    if workload.init == "reverse":
        # Reverse annealing pins dead representatives to zero, so the
        # topology can only shrink as beta falls.
        is_ib = result.records[0].effective_cardinality is not None
        sizes = [
            r.effective_cardinality if is_ib else r.support_size
            for r in result.records
        ]
        for i in range(1, len(sizes)):
            if sizes[i] < sizes[i - 1]:
                fail([i], f"record {i} (beta {result.records[i].beta:.6g}) "
                          f"topology grew from {sizes[i]} to {sizes[i - 1]} "
                          "under reverse annealing")

    everything = range(result.points)
    found = len(result.transitions.intervals)
    if workload.transitions is not None and found != workload.transitions:
        fail(everything, f"{found} transitions bracketed, expected "
                         f"{workload.transitions}")
    if reference is not None:
        got = fingerprint(result)
        for key in reference:
            if got[key] != reference[key]:
                fail(everything, f"{key} differs from the stored reference")
    return failed, messages
