"""Arimoto-Blahut solvers for finite rate-distortion and information-bottleneck
problems, with spectral diagnostics of the fixed-point iteration: residual
Jacobian, kernel bookkeeping across topological transitions, convergence-rate
prediction from the eigenvalue gap, and annealing sweep tooling that exposes
critical slowing down near transitions.
"""

from .ib import (
    IbProblem,
    IbSolution,
    decoder_classes,
    effective_cardinality,
    ib_decoder,
    ib_distortion,
    ib_solve,
    ib_step,
    identity_encoder_init,
    relevant_information,
    tangent_rd,
    uniform_encoder_init,
)
from .probability import (
    NumericalError,
    as_channel,
    as_distribution,
    kl_divergence,
    mutual_information,
)
from .problems import (
    BUILTIN_PROBLEMS,
    binary_hamming,
    bottleneck_four_symbol,
    builtin_problem,
    dump_problem,
    load_problem,
    planar_four_point,
)
from .rd import (
    RdProblem,
    RdSolution,
    SolverConfig,
    ab_step,
    boltzmann_factors,
    expected_distortion,
    solve,
    solve_batch,
    uniform_init,
)
from .reports import CSV_HEADER, emit_reports, write_sweep_csv, write_sweep_json
from .spectral import (
    FixedPointJacobian,
    SpectralReport,
    eigen_spectrum,
    jacobian,
    predicted_iterations,
)
from .sweeps import (
    RateStudyPoint,
    SweepConfig,
    SweepRecord,
    TransitionReport,
    detect_transitions,
    rate_study,
    sweep,
)

__version__ = "0.1.0"
