"""Independent computations of the fixed-point Jacobian and its spectrum,
used only to cross-check the production path in rdspectral.spectral."""

import numpy as np

from rdspectral import RdProblem, boltzmann_factors, residual
from rdspectral.probability import DEFAULT_ZERO_TOL
from rdspectral.spectral import FixedPointJacobian, _support_gram


def jacobian_product_form(problem: RdProblem, marginal, beta: float) -> np.ndarray:
    """The Jacobian matrix as the product of backward and forward channels.

    A = p(x | xhat) composed with p(xhat' | x), defined only where the
    marginal has full support.
    """
    marginal = np.asarray(marginal, dtype=float)
    if np.any(marginal <= 0):
        raise ValueError("the channel-product form needs a full-support marginal")
    a = boltzmann_factors(problem, marginal, beta)
    backward = (a * problem.px[:, None]).T      # rows: p(x | xhat)
    forward = marginal[None, :] * a             # rows: p(xhat' | x)
    return backward @ forward


def jacobian_finite_difference(
    problem: RdProblem, marginal, beta: float, step: float = 1e-6
) -> np.ndarray:
    """Transposed central-difference Jacobian of the residual map.

    Perturbs one coordinate at a time without renormalizing; the residual is
    a map on the ambient positive orthant, so no simplex projection is
    wanted here. The marginal must be strictly interior by more than step.
    """
    marginal = np.asarray(marginal, dtype=float)
    if not 0 < step <= 1e-3:
        raise ValueError("step must lie in (0, 1e-3]")
    if np.any(marginal <= step):
        raise ValueError("finite differences need an interior marginal (> step)")
    m = marginal.shape[0]
    grad = np.empty((m, m))
    for j in range(m):
        hi = marginal.copy()
        lo = marginal.copy()
        hi[j] += step
        lo[j] -= step
        grad[:, j] = (residual(problem, hi, beta) - residual(problem, lo, beta)) / (
            2 * step
        )
    return grad.T


def symmetrized_support_block(
    problem: RdProblem, marginal, beta: float, zero_tol: float = DEFAULT_ZERO_TOL
) -> np.ndarray:
    """The symmetric matrix that eigen_spectrum diagonalizes: similar to A
    restricted to the supported block."""
    marginal = np.asarray(marginal, dtype=float)
    return _support_gram(
        problem, marginal, boltzmann_factors(problem, marginal, beta), zero_tol
    )


def eigenvalues_nonsymmetric(jac: FixedPointJacobian) -> np.ndarray:
    """Eigenvalues of the dense matrix from a general eigensolver, sorted by
    real part."""
    ev = np.linalg.eigvals(jac.matrix)
    return ev[np.argsort(ev.real)]
