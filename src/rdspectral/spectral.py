"""Spectral diagnostics of the alternating iteration's fixed points.

The object of interest is the transposed Jacobian of the fixed-point
residual at a reproduction marginal q:

    A[i, j] = q(j) * sum_x px(x) exp(-beta (d(x,i) + d(x,j))) / Z(x)^2

A is similar to a Gram matrix via the diagonal scaling diag(q)^(1/2), so its
eigenvalues are real and non-negative; columns of zero-mass representatives
vanish, making the kernel dimension equal to the number of dead
representatives at a solution. The smallest positive eigenvalue lambda0
controls the local convergence factor 1 - lambda0 of the iteration, which is
what the predicted iteration counts below are built from.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .probability import DEFAULT_ZERO_TOL, NumericalError
from .rd import (
    NOT_SERIALIZED,
    JsonRecord,
    RdProblem,
    _check_tolerance,
    _read_only,
    boltzmann_factors,
)

# Eigenvalues of A below this are structurally impossible and indicate a
# numerical failure rather than roundoff.
NEGATIVE_EIGENVALUE_TOL = -1e-8


@dataclass(eq=False)
class FixedPointJacobian:
    """Transposed residual Jacobian evaluated at (marginal, beta).

    The formula only needs a marginal, not a fixed point, so diagnostics at
    arbitrary points are allowed; residual_linf records how far from
    stationarity the evaluation point was so downstream consumers can
    discount reports taken at poor points. factors holds the normalized
    Boltzmann weights a the matrix is built from, A = (a^T diag(px) a)
    diag(q); the spectrum works from them directly and never forms A. A
    dead column's factors may be inf: they enter only the dead
    representatives' rows of A, and since A's dead columns vanish, those
    rows leave the spectrum alone.
    """

    beta: float
    marginal: np.ndarray
    problem: RdProblem
    residual_linf: float
    factors: np.ndarray

    __eq__ = JsonRecord.__eq__


@dataclass(eq=False)
class SpectralReport(JsonRecord):
    """Eigenvalue summary of a FixedPointJacobian.

    eigenvalues are sorted ascending. One cut at zero_tol sets the rest:
    kernel_dim counts the dead representatives' exact zeros and the soft
    modes, the supported block's eigenvalues at or below zero_tol; lambda0
    is the block's next eigenvalue (NaN if none), lambda_max the contraction
    factor 1 - lambda0 and predicted_rate the iterations per unit of -log
    eps, +inf when at_criticality: a soft mode, or no eigenvalue above
    zero_tol. at_criticality is the one field not serialized.
    """

    beta: float
    eigenvalues: np.ndarray
    kernel_dim: int
    lambda0: float
    lambda_max: float
    predicted_rate: float
    at_criticality: bool = field(metadata=NOT_SERIALIZED)


def jacobian(
    problem: RdProblem,
    marginal,
    beta: float,
    fixed_point_tol: float = 1e-6,
) -> FixedPointJacobian:
    """Evaluate the transposed residual Jacobian directly.

    Uses the product form with explicit Boltzmann factors, which stays
    defined on zero-mass columns (the conditional-probability form does
    not). Warns when the evaluation point is not a fixed point to within
    fixed_point_tol, measured by the residual q(xhat) (1 - sum_x px(x)
    a(x, xhat)). fixed_point_tol must be non-negative; inf turns the warning
    off. A dead column's factor may overflow, as its mass keeps it out of
    the spectrum; its residual is exactly 0. The result keeps a read-only
    copy of the marginal, so a later write to the caller's array leaves it
    alone.
    """
    if not fixed_point_tol >= 0:
        raise ValueError("fixed_point_tol must be non-negative (inf skips the check)")
    marginal = _read_only(np.array(marginal, dtype=float))
    a = boltzmann_factors(problem, marginal, beta)
    live = marginal > 0
    with np.errstate(invalid="ignore"):
        residual = marginal * (1.0 - problem.px @ a)
    res = float(np.abs(np.where(live, residual, 0.0)).max())
    if res > fixed_point_tol:
        warnings.warn(
            f"Jacobian evaluated at a non-fixed point (residual {res:.3g}); "
            "spectral diagnostics there are only indicative",
            stacklevel=2,
        )
    return FixedPointJacobian(
        beta=float(beta),
        marginal=marginal,
        problem=problem,
        residual_linf=res,
        factors=a,
    )


def _support_gram(problem: RdProblem, marginal: np.ndarray, a, zero_tol) -> np.ndarray:
    """(C^(1/2) B)(C^(1/2) B)^T on the support, with C = diag(q) and
    B[xhat, x] = sqrt(px(x)) a(x, xhat): symmetric and similar to A there.
    The support's rows of a.T are copied once and scaled in place."""
    sup = marginal > zero_tol
    scaled = a.T[sup]
    scaled *= np.sqrt(problem.px)
    scaled *= np.sqrt(marginal[sup])[:, None]
    return scaled @ scaled.T


def eigen_spectrum(
    jac: FixedPointJacobian, zero_tol: float = DEFAULT_ZERO_TOL
) -> SpectralReport:
    """Eigenvalues of A via the symmetrizing similarity transform.

    Representatives at or below zero_tol contribute exact zero eigenvalues
    through the block structure of A; the supported block is diagonalized
    with a symmetric eigensolver, which guarantees a real spectrum in
    ascending order, and is cut once at zero_tol (SpectralReport). zero_tol
    must be a number in [0, 1).
    """
    _check_tolerance(zero_tol, "zero_tol")
    block = np.linalg.eigvalsh(_support_gram(jac.problem, jac.marginal, jac.factors, zero_tol))
    n_dead = jac.marginal.shape[0] - block.size
    if block.size and block.min() < NEGATIVE_EIGENVALUE_TOL:
        raise NumericalError(
            f"eigenvalue {block.min():.3g} below {NEGATIVE_EIGENVALUE_TOL}; "
            "the evaluation point is inconsistent with a fixed point"
        )
    soft = int(np.count_nonzero(block <= zero_tol))
    lambda0 = float(block[soft]) if soft < block.size else float("nan")
    lambda_max = 1.0 - lambda0
    at_criticality = soft > 0 or soft == block.size
    return SpectralReport(
        beta=jac.beta,
        eigenvalues=np.sort(np.concatenate([np.zeros(n_dead), block])),
        kernel_dim=n_dead + soft,
        lambda0=lambda0,
        lambda_max=lambda_max,
        predicted_rate=_iterations(1.0, lambda_max, at_criticality),
        at_criticality=at_criticality,
    )


def _iterations(log_accuracy, lambda_max, at_criticality):
    """Iterations to gain log_accuracy nats of accuracy at contraction factor
    lambda_max: +inf at criticality or when lambda_max rounds to 1 (a lambda0
    below about 1e-16), 0 when lambda_max <= 0."""
    if at_criticality or not lambda_max < 1.0:
        return float("inf")
    if lambda_max <= 0.0:
        return 0.0
    return log_accuracy / (-np.log(lambda_max))


def predicted_iterations(report: SpectralReport, epsilon: float) -> float:
    """Asymptotic iteration count (-log eps) / (-log lambda_max).

    Returns +inf at criticality (contraction factor 1) and 0 when the
    supported block is a single representative, which converges in one step.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    return float(_iterations(-np.log(epsilon), report.lambda_max, report.at_criticality))

