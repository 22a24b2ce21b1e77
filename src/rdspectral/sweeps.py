"""Annealing sweeps over beta grids, transition detection and rate studies.

A sweep solves one problem at every point of a monotone beta grid under an
initialization policy and returns per-point records (always sorted by
ascending beta). Cold policies start every point afresh, so their points
do not depend on each other. Reverse annealing warm-starts each solve from
the previous converged state with sub-threshold coordinates pinned to exact
zero; it is inherently sequential.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import ib as ibmod
from . import rd as rdmod
from .ib import IbProblem
from .probability import DEFAULT_ZERO_TOL
from .rd import (NOT_SERIALIZED, JsonRecord, RdProblem, SolverConfig, _check_positive,
                 _check_tolerance, _read_only)
from .spectral import eigen_spectrum, jacobian, predicted_iterations

INIT_POLICIES = ("uniform", "dirichlet", "reverse")


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Grid, policy and solver settings for one sweep.

    support_tol is the mass threshold used when counting a record's support,
    reading its spectrum and flooring effective-cardinality classes. It
    defaults to DEFAULT_ZERO_TOL (1e-10), the fixed threshold below which
    reverse annealing pins a coordinate to zero, and is worth raising when
    the solver epsilon is loose, because a successive-iterate stopping rule
    leaves dying coordinates stranded at masses of order
    epsilon / (1 - decay rate). merge_tol, finite and positive, clusters
    decoder rows for bottleneck cardinality counts. seed, a non-negative
    integer, seeds the Dirichlet starts, so every sweep can be run again.
    solver must be a SolverConfig. The config keeps a read-only copy of the
    grid, and its fields cannot be assigned, so it stays as it was checked.
    """

    beta_grid: np.ndarray
    init: str = "uniform"
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    merge_tol: float = ibmod.DEFAULT_MERGE_TOL
    support_tol: float = DEFAULT_ZERO_TOL

    __eq__ = JsonRecord.__eq__

    def __post_init__(self):
        grid = _read_only(np.array(self.beta_grid, dtype=float))
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("beta grid needs at least two points")
        if not np.all((0 <= grid) & (grid < np.inf)):
            raise ValueError("beta grid values must be finite and non-negative")
        diffs = np.diff(grid)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("beta grid must be strictly monotone")
        if self.init not in INIT_POLICIES:
            raise ValueError(f"init must be one of {INIT_POLICIES}")
        if self.init == "reverse" and diffs[0] > 0:
            raise ValueError("reverse annealing requires a descending beta grid")
        if not isinstance(self.solver, SolverConfig):
            raise ValueError("solver must be a SolverConfig")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError("seed must be a non-negative integer")
        _check_positive(self.merge_tol, "merge_tol")
        _check_tolerance(self.support_tol, "support_tol")
        object.__setattr__(self, "beta_grid", grid)


@dataclass(eq=False)
class SweepRecord(JsonRecord):
    """One grid point of a sweep.

    effective_cardinality is None for rate-distortion sweeps; the spectral
    fields are NaN for bottleneck sweeps (the fixed-point Jacobian theory is
    a rate-distortion object; bottleneck transitions are analyzed through
    tangent problems instead). measured_rate is iterations per unit of
    -log epsilon. solution is the solver's output; an RdSolution derives
    its encoder on access, so a rate-distortion record holds O(m) floats.
    Neither it nor the eigenvalues are serialized.
    """

    beta: float
    iterations: int
    converged: bool
    support_size: int
    effective_cardinality: int | None
    lambda0: float
    lambda_max: float
    predicted_rate: float
    measured_rate: float
    marginal: np.ndarray
    rate: float
    distortion_or_info: float
    solution: object = field(default=None, metadata=NOT_SERIALIZED)
    eigenvalues: np.ndarray | None = field(default=None, metadata=NOT_SERIALIZED)


@dataclass(eq=False)
class TransitionReport(JsonRecord):
    """Grid intervals bracketing detected topological transitions.

    kind is "support" for rate-distortion sweeps and "effective_cardinality"
    for bottleneck sweeps. index_pairs holds the positions of the flanking
    records in the ascending record list and is not serialized.
    """

    kind: str
    intervals: list
    index_pairs: list = field(metadata=NOT_SERIALIZED)


def _snap(state: np.ndarray, marginal: np.ndarray) -> np.ndarray:
    """Zero the mass of every representative whose marginal is at or below
    DEFAULT_ZERO_TOL and renormalize along the last axis: a marginal, or
    each row of an encoder."""
    snapped = np.where(marginal > DEFAULT_ZERO_TOL, state, 0.0)
    total = snapped.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise rdmod.NumericalError("warm start lost all probability mass")
    return snapped / total


def _record(problem, beta, sol, config) -> SweepRecord:
    sup_tol = config.support_tol
    if isinstance(problem, RdProblem):
        # The record's spectral bookkeeping uses the same mass threshold as
        # its support count, so lambda0 reads the supported block even when
        # a loose epsilon has left dying coordinates stranded at tiny
        # positive masses.
        jac = jacobian(problem, sol.marginal, beta, fixed_point_tol=float("inf"))
        report = eigen_spectrum(jac, zero_tol=sup_tol)
        fields = dict(
            effective_cardinality=None,
            lambda0=report.lambda0,
            lambda_max=report.lambda_max,
            predicted_rate=report.predicted_rate,
            distortion_or_info=sol.distortion,
            eigenvalues=report.eigenvalues,
        )
    else:
        nan = float("nan")
        fields = dict(
            effective_cardinality=ibmod.effective_cardinality(
                sol, merge_tol=config.merge_tol, zero_tol=sup_tol
            ),
            lambda0=nan,
            lambda_max=nan,
            predicted_rate=nan,
            distortion_or_info=sol.relevant_info,
        )
    return SweepRecord(
        beta=float(beta),
        iterations=sol.iterations,
        converged=sol.converged,
        support_size=int(np.sum(sol.marginal > sup_tol)),
        measured_rate=sol.iterations / (-np.log(config.solver.epsilon)),
        marginal=sol.marginal,
        rate=sol.rate,
        solution=sol,
        **fields,
    )


def _solve(problem, beta, start, solver: SolverConfig):
    """One solve of either kind from start: a marginal or an encoder."""
    if isinstance(problem, RdProblem):
        return rdmod.solve(problem, beta, init=start, config=solver)
    return ibmod.ib_solve(problem, beta, init_encoder=start, config=solver)


def sweep(problem, config: SweepConfig) -> list[SweepRecord]:
    """Solve at every grid point under the configured policy.

    Works for both problem kinds: a rate-distortion solve starts from a
    marginal, a bottleneck solve from an encoder. The cold policies start
    every point from the uniform default or from a Dirichlet draw, drawn in
    grid order; their rate-distortion points run as the lanes of one
    rd.solve_batch call, with the same results as solving them one at a
    time. Reverse annealing opens beyond every expected transition, from
    the uniform marginal or the near-deterministic identity encoder, and
    pins sub-threshold coordinates to exact zero at each warm start, so the
    support shrinks cleanly along the descent. Records come back sorted by
    ascending beta whatever the execution order; non-convergence at a point
    flags that record and the sweep continues.
    """
    if not isinstance(problem, (RdProblem, IbProblem)):
        raise TypeError(f"cannot sweep a {type(problem).__name__}")
    grid, solver = config.beta_grid, config.solver
    is_rd = isinstance(problem, RdProblem)
    if config.init == "reverse":
        start = rdmod.uniform_init(problem) if is_rd else ibmod.identity_encoder_init(problem)
        solutions = []
        for beta in grid:
            if solutions:
                last = solutions[-1]
                start = _snap(last.marginal if is_rd else last.encoder, last.marginal)
            solutions.append(_solve(problem, beta, start, solver))
    else:
        rng = np.random.default_rng(config.seed)
        starts = [
            None if config.init == "uniform"
            else rng.dirichlet(np.ones(problem.m), size=None if is_rd else problem.n)
            for _ in grid
        ]
        if is_rd:
            solutions = rdmod.solve_batch(problem, grid, starts, solver)
        else:
            solutions = [_solve(problem, beta, s, solver) for beta, s in zip(grid, starts)]
    records = [_record(problem, beta, sol, config) for beta, sol in zip(grid, solutions)]
    records.sort(key=lambda r: r.beta)
    return records


def detect_transitions(records: list[SweepRecord]) -> TransitionReport:
    """Bracket every change of representation topology between grid points.

    Compares support size (rate-distortion) or effective cardinality
    (bottleneck) between consecutive converged records; unconverged records
    are skipped with a warning. Each reported interval spans one step of the
    surviving record sequence.
    """
    if not records:
        return TransitionReport(intervals=[], kind="support", index_pairs=[])
    betas = [r.beta for r in records]
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("records must be sorted by strictly ascending beta")
    is_ib = records[0].effective_cardinality is not None
    kind = "effective_cardinality" if is_ib else "support"

    usable = [i for i, r in enumerate(records) if r.converged]
    dropped = len(records) - len(usable)
    if dropped:
        warnings.warn(
            f"excluding {dropped} unconverged record(s) from transition detection",
            stacklevel=2,
        )
    intervals = []
    pairs = []
    for a, b in zip(usable, usable[1:]):
        va = records[a].effective_cardinality if is_ib else records[a].support_size
        vb = records[b].effective_cardinality if is_ib else records[b].support_size
        if va != vb:
            intervals.append((records[a].beta, records[b].beta))
            pairs.append((a, b))
    return TransitionReport(intervals=intervals, kind=kind, index_pairs=pairs)


@dataclass(eq=False)
class RateStudyPoint(JsonRecord):
    """Measured-vs-predicted convergence rate at one stopping accuracy."""

    epsilon: float
    iterations: int
    converged: bool
    measured_rate: float
    lambda0: float
    lambda_max: float
    predicted_rate: float


def rate_study(
    problem: RdProblem,
    beta: float,
    epsilons,
    anchor_beta: float | None = None,
    config: SolverConfig | None = None,
) -> list[RateStudyPoint]:
    """Compare measured iterations against the spectral rate prediction.

    Solves once at anchor_beta (default twice beta), then re-solves at beta
    from that warm start for each stopping accuracy, pairing the measured
    iterations per unit of -log eps with the prediction from the smallest
    positive eigenvalue at the solution, counting masses at or below
    DEFAULT_ZERO_TOL as dead. Stopping distances default to the
    L1 norm here, matching the norm the asymptotic rate statement is phrased
    in. At a critical point the prediction is +inf and the pairing is
    recorded as such. A reference solve that exhausts the budget raises
    ValueError, since its spectrum would not be the fixed point's.
    """
    if not 0 < beta < np.inf:
        raise ValueError(
            "rate study needs a finite beta > 0; the iteration is the identity at 0")
    epsilons = [float(e) for e in epsilons]
    if not epsilons or any(not 0 < e < 1 for e in epsilons):
        raise ValueError("epsilons must be a non-empty list of values in (0, 1)")
    if config is None:
        config = SolverConfig(norm="l1")
    if anchor_beta is None:
        anchor_beta = 2.0 * beta
    if not beta < anchor_beta < np.inf:
        raise ValueError(
            "anchor_beta must be finite and exceed beta (a reverse-annealing start)")

    anchor_cfg = replace(config, epsilon=1e-13)
    anchor = rdmod.solve(problem, anchor_beta, config=anchor_cfg)
    reference = rdmod.solve(problem, beta, init=anchor.marginal, config=anchor_cfg)
    if not reference.converged:
        raise ValueError(
            f"rate study reference solve at beta={beta!r} did not converge to "
            f"epsilon={anchor_cfg.epsilon:g} within {config.max_iterations} "
            "iterations; raise the budget or move beta off the transition"
        )
    jac = jacobian(problem, reference.marginal, beta, fixed_point_tol=float("inf"))
    report = eigen_spectrum(jac, zero_tol=DEFAULT_ZERO_TOL)

    points = []
    for eps in sorted(epsilons, reverse=True):
        run = rdmod.solve(
            problem, beta, init=anchor.marginal, config=replace(config, epsilon=eps)
        )
        predicted = predicted_iterations(report, eps) / (-np.log(eps))
        points.append(
            RateStudyPoint(
                epsilon=eps,
                iterations=run.iterations,
                converged=run.converged,
                measured_rate=run.iterations / (-np.log(eps)),
                lambda0=report.lambda0,
                lambda_max=report.lambda_max,
                predicted_rate=predicted,
            )
        )
    return points
