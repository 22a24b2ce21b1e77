"""Independent computations used only to cross-check the production paths:
the fixed-point Jacobian and its spectrum, the objectives the iterations
descend, and closed-form binary Hamming solutions. Also the random problem
draw and the CLI runner that several test modules share."""

import subprocess
import sys

import numpy as np

from rdspectral import (
    IbProblem,
    NumericalError,
    RdProblem,
    RdSolution,
    ab_step,
    boltzmann_factors,
    eigen_spectrum,
    expected_distortion,
    ib_decoder,
    ib_step,
    jacobian,
    mutual_information,
    relevant_information,
)
from rdspectral import rd as rdmod
from rdspectral.probability import DEFAULT_ZERO_TOL, TINY_MASS
from rdspectral.spectral import FixedPointJacobian, _support_gram


def random_problem(rng, n=None, m=None, fortran=False) -> RdProblem:
    """An n x m problem (each 2-6 when not given) with a Dirichlet px and
    uniform [0, 1) distortions, drawn from rng in that order; fortran
    stores d in column-major order."""
    n = n or int(rng.integers(2, 7))
    m = m or int(rng.integers(2, 7))
    px = rng.dirichlet(np.ones(n))
    d = rng.uniform(0, 1, size=(n, m))
    return RdProblem(px=px, d=np.asfortranarray(d) if fortran else d)


def run_cli(*args) -> subprocess.CompletedProcess:
    """The rdspectral CLI run in a child interpreter, its output captured."""
    return subprocess.run(
        [sys.executable, "-m", "rdspectral.cli", *args],
        capture_output=True,
        text=True,
    )


def entropy(p) -> float:
    """Shannon entropy -sum p log p in nats, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def binary_hamming_distortion(beta: float) -> float:
    """Distortion of the binary Hamming solution at a given beta."""
    return float(np.exp(-beta) / (1.0 + np.exp(-beta)))


def binary_hamming_rate(p: float, beta: float) -> float:
    """Rate of the binary Hamming solution: H(p) - H_b(D(beta)), in nats.

    Valid while D(beta) <= min(p, 1-p), i.e. above the support transition.
    """
    dd = binary_hamming_distortion(beta)
    if dd > min(p, 1.0 - p):
        raise ValueError("beta is below the support transition; rate is 0 there")

    def hb(x):
        return -x * np.log(x) - (1 - x) * np.log(1 - x) if 0 < x < 1 else 0.0

    return float(hb(p) - hb(dd))


def encoder_from_marginal(problem: RdProblem, marginal, beta: float) -> np.ndarray:
    """Boltzmann encoder rows p(xhat | x) induced by a reproduction marginal,
    op by op as a solve computes the encoder it scores: marginal times the
    normalized Boltzmann factors, sub-normal entries flushed, and exact
    zeros in dead columns even where their factor overflowed."""
    marginal = np.asarray(marginal, dtype=float)
    with np.errstate(invalid="ignore"):
        enc = marginal[None, :] * boltzmann_factors(problem, marginal, beta)
    return np.where((enc < TINY_MASS) | (marginal <= 0), 0.0, enc)


def factors_and_gap(problem: RdProblem, marginal, beta: float) -> tuple:
    """The normalized Boltzmann factors and Blahut's duality gap at a
    marginal, from the whole n x m array of shifted exponents, kept next to
    the factors: the log-space sum of the dead columns whose factor
    overflowed reads their exponents from it. Z is the product with the
    dead columns masked, whose bits a solve's Z has; every other operation
    is the one a solve scores with, so both results compare bit for bit."""
    marginal = np.asarray(marginal, dtype=float)
    dead = marginal <= 0
    shift = np.minimum.reduce(problem.d, axis=1, where=~dead, initial=np.inf, keepdims=True)
    exponents = np.subtract(problem.d, shift)
    exponents *= -beta
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = np.exp(exponents)
        z = np.where(dead, 0.0, a) @ marginal
        a /= z[:, None]
        sums = problem.px @ a
        lost = dead & ~np.isfinite(sums)
        if not lost.any():
            return a, float(np.log(sums.max()))
        terms = exponents[:, lost]
        terms += np.log(problem.px)[:, None]
        terms -= np.log(z)[:, None]
        top = terms.max(axis=0)
        terms -= top
        logs = top + np.log(np.exp(terms, out=terms).sum(axis=0))
    return a, float(max(np.log(sums[~lost].max()), logs.max()))


def residual(problem: RdProblem, marginal, beta: float) -> np.ndarray:
    """Fixed-point residual of the alternating step at a candidate marginal.

    Entry xhat is q(xhat) * (1 - sum_x px(x) a(x, xhat)) with a the
    normalized Boltzmann weights; zero exactly at fixed points, and the
    entries always sum to zero.
    """
    marginal = np.asarray(marginal, dtype=float)
    return marginal * (1.0 - problem.px @ boltzmann_factors(problem, marginal, beta))


def ab_iterates(problem: RdProblem, marginal, beta: float, count: int) -> list:
    """The marginal followed by its first count images under ab_step."""
    iterates = [np.asarray(marginal, dtype=float)]
    for _ in range(count):
        iterates.append(ab_step(problem, iterates[-1], beta))
    return iterates


def _distance(new, old, norm: str) -> float:
    """The stopping distance of two iterates, summed over a C-order flattening."""
    diff = np.abs(new - old).reshape(-1)
    return float(np.add.reduce(diff) if norm == "l1" else np.maximum.reduce(diff))


def block_of(iteration: int, budget: int = 10**7) -> tuple:
    """First and last step of the block of steps the BA and IB loops run
    between two stopping tests that holds the given iteration."""
    done = 0
    while True:
        last = done + rdmod._block_length(done, budget)
        if last >= iteration:
            return done + 1, last
        done = last


def unreplayed_calls(iterations: int, converged: bool, budget: int) -> int:
    """Map calls a single-lane solve makes when no block is run again: steps
    to the end of the block that holds its stopping iteration, or its whole
    budget."""
    return block_of(iterations, budget)[1] if converged else budget


def count_flushes(monkeypatch) -> list:
    """Have rd._flush count the masses in (0, TINY_MASS) that it sets to
    zero. Returns the one-item list that holds the count."""
    flush, flushed = rdmod._flush, [0]

    def counting(masses):
        flushed[0] += int(np.count_nonzero((masses > 0) & (masses < TINY_MASS)))
        return flush(masses)

    monkeypatch.setattr(rdmod, "_flush", counting)
    return flushed


def stepped_solve(problem: RdProblem, marginal, beta: float, config) -> tuple:
    """(marginal, iterations, converged) from repeated steps of the BA map
    under config's stopping rule, with a flush and a stopping test after
    every step.

    The map keeps the weights of the start, rows shifted over its support,
    as a solve does. ab_step shifts each row over the support of the
    marginal it is given, which rounds differently once a representative
    that is some row's minimum has been flushed."""
    q = np.asarray(marginal, dtype=float)
    expw = rdmod._iteration_weights(problem, q, beta)
    step = rdmod._ba_map(expw, problem.px, rdmod._BaBuffers(expw, q))
    for k in range(1, config.max_iterations + 1):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = rdmod._flush(step(q, 1)).copy()
        delta = _distance(new, q, config.norm)
        q = new
        if delta < config.epsilon:
            return q, k, True
    return q, config.max_iterations, False


def stepped_ib_solve(problem: IbProblem, encoder, beta: float, config) -> tuple:
    """(encoder, marginal, iterations, converged) from repeated ib_step calls
    under config's stopping rule, tested after every step, starting from the
    row-normalized C-ordered copy of encoder that ib_solve starts from."""
    enc = np.array(encoder, dtype=float)
    enc = enc / enc.sum(axis=1, keepdims=True)
    for k in range(1, config.max_iterations + 1):
        new, marginal, _ = ib_step(problem, enc, beta)
        delta = _distance(new, enc, config.norm)
        enc = new
        if delta < config.epsilon:
            return enc, marginal, k, True
    return enc, marginal, config.max_iterations, False


def lagrangian(problem: RdProblem, encoder, beta: float) -> float:
    """Rate plus beta times expected distortion for a given encoder.

    The rate term uses the marginal induced by the encoder itself, which is
    the minimizing choice, so this value is non-increasing along the
    alternating iteration.
    """
    encoder = np.asarray(encoder, dtype=float)
    return mutual_information(problem.px, encoder) + beta * expected_distortion(
        problem, encoder
    )


def ib_functional(problem: IbProblem, encoder, beta: float) -> float:
    """The bottleneck objective I(X;Xhat) - beta I(Xhat;Y) for an encoder."""
    encoder = np.asarray(encoder, dtype=float)
    marginal = problem.px @ encoder
    dec = ib_decoder(problem, encoder)
    return mutual_information(problem.px, encoder) - beta * relevant_information(
        problem, marginal, dec
    )


def decoder_reference(problem: IbProblem, encoder, marginal) -> np.ndarray:
    """Decoder rows of an encoder by Bayes' rule, op by op as the package
    computed them before the map was bound once per solve: the weighted
    encoder's product with p(y|x), divided by a zero-safe copy of the
    marginal (1 where it is 0), and py copied into the dead rows."""
    dead = np.logical_not(np.greater(marginal, 0.0))
    safe = marginal.copy()
    np.putmask(safe, dead, 1.0)
    decoder = (encoder * problem.px[:, None]).T.dot(problem.py_given_x)
    decoder = decoder / safe[:, None]
    np.copyto(decoder, problem.py, where=dead[:, None])
    return decoder


def relevance_reference(problem: IbProblem, decoder) -> np.ndarray:
    """KL(p(y|x) || decoder row) for every pair, from the elementwise terms
    blanked where p(y|x) = 0. The log of the decoder is laid out in C order
    whatever the decoder's layout, as the package's work array held it."""
    pygx, logp, pos = problem._kl_terms
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(pos, pygx * (logp - np.log(decoder, order="C")), 0.0)
    return kl.sum(axis=-1)


def ib_update_reference(problem: IbProblem, encoder, beta: float) -> tuple:
    """The bottleneck map on an encoder, op by op as the package computed it
    before the map was bound once per solve: the decoder of
    decoder_reference, the distortion of relevance_reference, the log of
    the zero-safe marginal as the logits' mass term and the dead logits
    filled with -inf. Every array is allocated by the expression that
    computes it.

    Returns (new_encoder, marginal, decoder); the marginal is the one the
    decoder was built from.
    """
    encoder = np.asarray(encoder, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        marginal = problem.px.dot(encoder)
        dead = np.logical_not(np.greater(marginal, 0.0))
        safe = marginal.copy()
        np.putmask(safe, dead, 1.0)
        decoder = decoder_reference(problem, encoder, marginal)
        dist = relevance_reference(problem, decoder)
        # 0 * inf = 0: at beta 0 every row's logits are the log marginal.
        logits = np.log(safe) - (dist * beta if beta else np.zeros_like(dist))
        np.copyto(logits, -np.inf, where=dead)
        new = np.exp(logits - logits.max(axis=1, keepdims=True))
        new = new / new.sum(axis=1, keepdims=True)
        np.putmask(new, new < TINY_MASS, 0.0)
    return new, marginal, decoder


def jacobian_matrix(jac: FixedPointJacobian) -> np.ndarray:
    """The dense matrix A = (a^T diag(px) a) diag(q) from the factors a."""
    a = jac.factors
    matrix = (a.T * jac.problem.px) @ a * jac.marginal[None, :]
    if not np.all(np.isfinite(matrix)):
        raise NumericalError("Jacobian evaluation produced non-finite entries")
    return matrix


def kernel_dimension_check(
    problem: RdProblem,
    solution: RdSolution,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> tuple[int, int, bool]:
    """Compare the kernel dimension of A with the count of dead representatives.

    At a solution these must satisfy kernel_dim = m - |support|; the result
    is returned as (kernel_dim, support_size, consistent) rather than
    raised, since an inconsistency is a finding about the solution.
    """
    jac = jacobian(problem, solution.marginal, solution.beta)
    report = eigen_spectrum(jac, zero_tol=zero_tol)
    support_size = int(np.sum(solution.marginal > zero_tol))
    consistent = report.kernel_dim == problem.m - support_size
    return report.kernel_dim, support_size, consistent


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
    ev = np.linalg.eigvals(jacobian_matrix(jac))
    return ev[np.argsort(ev.real)]
