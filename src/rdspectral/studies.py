"""The paper's two figure studies, declared once: fig1 reverse-anneals the
planar four-point problem, fig2 the four-symbol bottleneck problem with a
tangent sweep across each transition it detects. The acceptance criteria
and the `study` command's reports are statements about these frozen sweeps;
the `tangent` command runs the same pipeline, `analyze`, on its own grid."""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ib import IbProblem, tangent_rd
from .problems import bottleneck_four_symbol, planar_four_point
from .rd import SolverConfig
from .reports import emit_reports
from .sweeps import SweepConfig, TransitionReport, detect_transitions, sweep

# Support counts sit well above the mass these accuracies strand on dying coordinates.
SUPPORT_TOL = 1e-5
FIG1 = SweepConfig(
    beta_grid=np.geomspace(50.0, 0.2, 420), init="reverse",
    solver=SolverConfig(epsilon=1e-9), support_tol=SUPPORT_TOL,
)
FIG2 = SweepConfig(
    beta_grid=np.geomspace(300.0, 1.0, 480), init="reverse",
    solver=SolverConfig(epsilon=1e-7), merge_tol=1e-4, support_tol=SUPPORT_TOL,
)
# A plus-side decoder class this close to a minus-side one is the same representative.
DEDUP_TOL = 5e-3
TANGENT_POINTS = 30
TANGENT_SOLVER = SolverConfig(epsilon=1e-10, max_iterations=2 * 10**6)

STUDIES = {"fig1": (planar_four_point, FIG1), "fig2": (bottleneck_four_symbol, FIG2)}


@dataclass
class StudyRun:
    """A sweep with its transitions and, for a bottleneck sweep, one tangent
    run per transition in the order of transitions.index_pairs."""

    problem: object
    records: list
    transitions: TransitionReport
    tangents: list["StudyRun"] = field(default_factory=list)


def tangent_run(problem: IbProblem, lo, hi, config: SweepConfig) -> StudyRun:
    """Reverse-sweep the tangent problem at the transition between the
    bottleneck solutions lo and hi, found by a sweep under config, from
    hi.beta down to lo.beta."""
    tol = config.support_tol
    tangent = tangent_rd(problem, lo, hi, merge_tol=config.merge_tol,
                         dedup_tol=DEDUP_TOL, zero_tol=tol)
    records = sweep(tangent, SweepConfig(
        beta_grid=np.geomspace(hi.beta, lo.beta, TANGENT_POINTS), init="reverse",
        solver=TANGENT_SOLVER, support_tol=tol,
    ))
    return StudyRun(tangent, records, detect_transitions(records))


def analyze(problem, config: SweepConfig) -> StudyRun:
    """Sweep problem under config and detect its transitions; for a
    bottleneck problem, also run the tangent follow-up at each transition."""
    records = sweep(problem, config)
    study = StudyRun(problem, records, detect_transitions(records))
    if isinstance(problem, IbProblem):
        study.tangents = [
            tangent_run(problem, records[lo].solution, records[hi].solution, config)
            for lo, hi in study.transitions.index_pairs
        ]
    return study


def run(name: str) -> StudyRun:
    """Run the study called name, a key of STUDIES."""
    build, config = STUDIES[name]
    return analyze(build(), config)


def write_reports(study: StudyRun, out_dir) -> list[Path]:
    """Write a rate-distortion study's reports into out_dir, a bottleneck
    study's into out_dir/ib and its k-th tangent run's into out_dir/tangent_k."""
    if not isinstance(study.problem, IbProblem):
        return emit_reports(study.records, study.transitions, out_dir)
    manifest = emit_reports(study.records, study.transitions, Path(out_dir, "ib"))
    for k, tangent in enumerate(study.tangents):
        manifest += write_reports(tangent, Path(out_dir, f"tangent_{k}"))
    return manifest
