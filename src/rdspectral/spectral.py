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
    boltzmann_factors,
)

# Eigenvalues of A below this are structurally impossible and indicate a
# numerical failure rather than roundoff.
NEGATIVE_EIGENVALUE_TOL = -1e-8


@dataclass
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


@dataclass
class SpectralReport(JsonRecord):
    """Eigenvalue summary of a FixedPointJacobian.

    eigenvalues are sorted ascending; kernel_dim counts those below
    zero_tol. lambda0 is the smallest eigenvalue above zero_tol, lambda_max
    the matching contraction factor 1 - lambda0 of the iteration map, and
    predicted_rate the asymptotic iterations needed per unit of -log eps.
    at_criticality is set when a full-support point carries more kernel
    directions than its dead representatives explain, where the rate
    prediction degenerates to +inf. The last three fields are not serialized.
    """

    beta: float
    eigenvalues: np.ndarray
    kernel_dim: int
    lambda0: float
    lambda_max: float
    predicted_rate: float
    zero_tol: float = field(metadata=NOT_SERIALIZED)
    at_criticality: bool = field(metadata=NOT_SERIALIZED)
    residual_linf: float = field(metadata=NOT_SERIALIZED)


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
    a(x, xhat)). A dead column's factor may overflow, as its mass keeps it
    out of the spectrum; its residual is exactly 0.
    """
    marginal = np.asarray(marginal, dtype=float)
    a = boltzmann_factors(problem, marginal, beta)
    live = marginal > 0
    if not (np.isfinite(a) | ~live).all():
        raise NumericalError("Jacobian evaluation produced non-finite factors")
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
    B[xhat, x] = sqrt(px(x)) a(x, xhat): symmetric and similar to A there."""
    sup = marginal > zero_tol
    b_sup = a.T[sup] * np.sqrt(problem.px)
    scaled = np.sqrt(marginal[sup])[:, None] * b_sup
    return scaled @ scaled.T


def eigen_spectrum(
    jac: FixedPointJacobian, zero_tol: float = DEFAULT_ZERO_TOL
) -> SpectralReport:
    """Eigenvalues of A via the symmetrizing similarity transform.

    Representatives at or below zero_tol contribute exact zero eigenvalues
    through the block structure of A; the supported block is diagonalized
    with a symmetric eigensolver, which guarantees a real spectrum. zero_tol
    must be a number in [0, 1).
    """
    _check_tolerance(zero_tol, "zero_tol")
    marginal = jac.marginal
    m = marginal.shape[0]
    sup = marginal > zero_tol
    n_dead = int(m - sup.sum())
    if sup.any():
        gram = _support_gram(jac.problem, marginal, jac.factors, zero_tol)
        block = np.linalg.eigvalsh(gram)
    else:
        block = np.empty(0)
    if block.size and block.min() < NEGATIVE_EIGENVALUE_TOL:
        raise NumericalError(
            f"eigenvalue {block.min():.3g} below {NEGATIVE_EIGENVALUE_TOL}; "
            "the evaluation point is inconsistent with a fixed point"
        )
    eigenvalues = np.sort(np.concatenate([np.zeros(n_dead), block]))

    kernel_dim = int(np.sum(eigenvalues < zero_tol))
    positive = eigenvalues[eigenvalues > zero_tol]
    at_criticality = kernel_dim > n_dead
    if positive.size == 0:
        lambda0 = float("nan")
        lambda_max = float("nan")
        predicted_rate = float("inf")
        at_criticality = True
    else:
        lambda0 = float(positive.min())
        lambda_max = 1.0 - lambda0
        predicted_rate = _iterations(1.0, lambda_max, at_criticality)
    return SpectralReport(
        beta=jac.beta,
        eigenvalues=eigenvalues,
        kernel_dim=kernel_dim,
        lambda0=lambda0,
        lambda_max=lambda_max,
        predicted_rate=predicted_rate,
        zero_tol=zero_tol,
        at_criticality=at_criticality,
        residual_linf=jac.residual_linf,
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

