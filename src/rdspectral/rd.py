"""Finite rate-distortion problems and the Arimoto-Blahut fixed point iteration.

The optimization variable is the reproduction marginal q over the
representation alphabet. One alternating-minimization step maps q to the
marginal induced by the Boltzmann encoder built from q, and solutions at a
given trade-off parameter beta are exactly the fixed points of that map.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .probability import (
    DEFAULT_ZERO_TOL,
    TINY_MASS,
    NumericalError,
    as_distribution,
    mutual_information,
)

DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_ITERATIONS = 10**7

# How often the iteration loop checks for NaN/Inf contamination.
_FINITE_CHECK_STRIDE = 512

_NORMS = {
    "l1": lambda v: float(np.abs(v).sum()),
    "linf": lambda v: float(np.abs(v).max()),
}


@dataclass(frozen=True)
class RdProblem:
    """A source distribution together with a finite distortion matrix.

    px[i] is the source mass of symbol i; d[i, j] >= 0 is the distortion of
    reproducing symbol i as representative j. Two representatives with
    identical distortion columns are rejected because every spectral
    statement downstream assumes distinguishable representatives.
    """

    px: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        px = as_distribution(self.px, name="px")
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != px.shape[0]:
            raise ValueError("d must be a matrix with one row per source symbol")
        if not np.all(np.isfinite(d)):
            raise ValueError("distortion entries must be finite")
        if np.any(d < 0):
            raise ValueError("distortion entries must be non-negative")
        for j in range(d.shape[1]):
            for k in range(j + 1, d.shape[1]):
                if np.array_equal(d[:, j], d[:, k]):
                    raise ValueError(
                        f"distortion columns {j} and {k} are identical; "
                        "merge the duplicate representatives first"
                    )
        object.__setattr__(self, "px", px)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.px.shape[0]

    @property
    def m(self) -> int:
        return self.d.shape[1]

    def to_json_dict(self) -> dict:
        return {"px": self.px.tolist(), "d": self.d.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RdProblem":
        try:
            return cls(px=np.asarray(obj["px"], dtype=float),
                       d=np.asarray(obj["d"], dtype=float))
        except KeyError as exc:
            raise ValueError(f"missing field {exc} in rate-distortion problem") from exc

    @classmethod
    def from_json(cls, text: str) -> "RdProblem":
        return cls.from_json_dict(json.loads(text))


@dataclass
class SolverConfig:
    """Stopping rule for the alternating iteration.

    Convergence is declared when the distance between successive marginals
    drops below epsilon under the chosen norm ("l1" or "linf"). zero_tol is
    the mass threshold used for support bookkeeping and for pinning
    coordinates to zero when annealing.
    """

    epsilon: float = DEFAULT_EPSILON
    norm: str = "linf"
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    zero_tol: float = DEFAULT_ZERO_TOL

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.norm not in _NORMS:
            raise ValueError(f"norm must be one of {sorted(_NORMS)}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    def distance(self, v) -> float:
        return _NORMS[self.norm](v)


@dataclass
class RdSolution:
    """Converged (or budget-exhausted) state of a single solve."""

    beta: float
    marginal: np.ndarray
    encoder: np.ndarray
    rate: float
    distortion: float
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "beta": self.beta,
            "marginal": self.marginal.tolist(),
            "encoder": self.encoder.tolist(),
            "rate": self.rate,
            "distortion": self.distortion,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _check_beta(beta: float) -> None:
    """Reject a trade-off parameter that is negative, infinite or NaN."""
    if not 0 <= beta < math.inf:
        raise ValueError("beta must be finite and non-negative")


def _shifted_weights(problem: RdProblem, marginal: np.ndarray, beta: float) -> np.ndarray:
    """Unnormalized weights exp(-beta (d(x, xhat) - shift(x))).

    Each row is shifted by its smallest d over the support of the marginal
    before exponentiating, so the partition function keeps at least one O(1)
    term at any beta and never underflows to zero.
    """
    _check_beta(beta)
    masked = np.where(marginal[None, :] > 0, problem.d, np.inf)
    shift = masked.min(axis=1, keepdims=True)
    if not np.all(np.isfinite(shift)):
        raise ValueError("marginal has no support")
    return np.exp(-beta * (problem.d - shift))


def _ba_update(expw: np.ndarray, px: np.ndarray, p: np.ndarray) -> np.ndarray:
    """One alternating step on shifted weights: the marginal induced by the
    Boltzmann encoder built from p, with sub-normal masses flushed to zero."""
    z = expw @ p
    if np.any(z <= 0):
        raise NumericalError("partition function vanished")
    newp = p * ((px / z) @ expw)
    newp[newp < TINY_MASS] = 0.0
    return newp


def boltzmann_factors(problem: RdProblem, marginal, beta: float) -> np.ndarray:
    """Normalized Boltzmann weights a[x, xhat] = exp(-beta d(x, xhat)) / Z(x)."""
    marginal = np.asarray(marginal, dtype=float)
    expw = _shifted_weights(problem, marginal, beta)
    z = expw @ marginal
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise NumericalError("partition function underflowed or overflowed")
    return expw / z[:, None]


def encoder_from_marginal(problem: RdProblem, marginal, beta: float) -> np.ndarray:
    """Boltzmann encoder rows p(xhat | x) induced by a reproduction marginal."""
    marginal = np.asarray(marginal, dtype=float)
    enc = marginal[None, :] * boltzmann_factors(problem, marginal, beta)
    return np.where(enc < TINY_MASS, 0.0, enc)


def marginal_from_encoder(problem: RdProblem, encoder) -> np.ndarray:
    """Reproduction marginal induced by an encoder: the px-average of its rows."""
    encoder = np.asarray(encoder, dtype=float)
    return problem.px @ encoder


def ab_step(problem: RdProblem, marginal, beta: float) -> np.ndarray:
    """One alternating step: encoder from the marginal, then its new marginal.

    Maps the simplex to itself and preserves exact zeros coordinatewise. It
    is the map solve iterates, with the same arithmetic.
    """
    marginal = np.asarray(marginal, dtype=float)
    return _ba_update(_shifted_weights(problem, marginal, beta), problem.px, marginal)


def residual(problem: RdProblem, marginal, beta: float) -> np.ndarray:
    """Fixed-point residual of the alternating step at a candidate marginal.

    Entry xhat is q(xhat) * (1 - sum_x px(x) a(x, xhat)) with a the
    normalized Boltzmann weights; zero exactly at fixed points, and the
    entries always sum to zero.
    """
    marginal = np.asarray(marginal, dtype=float)
    return _residual_from_factors(
        problem, marginal, boltzmann_factors(problem, marginal, beta)
    )


def _residual_from_factors(problem: RdProblem, marginal: np.ndarray, a) -> np.ndarray:
    return marginal * (1.0 - problem.px @ a)


def expected_distortion(problem: RdProblem, encoder) -> float:
    """Average distortion sum_{x,xhat} px(x) p(xhat|x) d(x,xhat)."""
    encoder = np.asarray(encoder, dtype=float)
    return float(problem.px @ (encoder * problem.d).sum(axis=1))


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


def uniform_init(problem: RdProblem) -> np.ndarray:
    return np.full(problem.m, 1.0 / problem.m)


def solve(
    problem: RdProblem,
    beta: float,
    init=None,
    config: SolverConfig | None = None,
    trace: list | None = None,
) -> RdSolution:
    """Iterate the alternating step from init until successive marginals are
    epsilon-close.

    Exhausting the iteration budget returns converged=False rather than
    raising; NaN/Inf contamination raises NumericalError. When trace is a
    list, every iterate (including the initial point) is appended to it.

    The initial marginal should be strictly positive wherever the solution
    is expected to live; zero coordinates are legitimate and stay exactly
    zero, which is what annealing warm starts rely on.
    """
    if config is None:
        config = SolverConfig()
    p = uniform_init(problem) if init is None else as_distribution(init, name="init")
    if p.shape[0] != problem.m:
        raise ValueError("init length does not match the representation alphabet")

    expw = _shifted_weights(problem, p, beta)
    px = problem.px

    if trace is not None:
        trace.append(p.copy())
    converged = False
    iterations = 0
    for k in range(1, config.max_iterations + 1):
        newp = _ba_update(expw, px, p)
        if trace is not None:
            trace.append(newp.copy())
        delta = config.distance(newp - p)
        p = newp
        iterations = k
        if k % _FINITE_CHECK_STRIDE == 0 and not np.all(np.isfinite(p)):
            raise NumericalError(f"non-finite marginal at iteration {k}")
        if delta < config.epsilon:
            converged = True
            break

    if not np.all(np.isfinite(p)):
        raise NumericalError("non-finite marginal at termination")
    encoder = encoder_from_marginal(problem, p, beta)
    return RdSolution(
        beta=float(beta),
        marginal=p,
        encoder=encoder,
        rate=mutual_information(px, encoder),
        distortion=expected_distortion(problem, encoder),
        iterations=iterations,
        converged=converged,
    )
