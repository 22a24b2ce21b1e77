"""Information bottleneck problems and the extended alternating iteration.

The bottleneck iteration carries three coupled objects: an encoder p(xhat|x),
its marginal, and a decoder p(y|xhat). Each step refreshes the decoder from
the current encoder, rebuilds the relevance distortion (a KL divergence to
the decoder rows), then applies the usual Boltzmann encoder and marginal
updates with that distortion. Convergence is measured on the encoder, since
the marginal alone does not determine a bottleneck solution.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .probability import (
    DEFAULT_ZERO_TOL,
    TINY_MASS,
    NumericalError,
    as_channel,
    as_distribution,
    kl_divergence,
    mutual_information,
)
from .rd import (
    _BLOCK,
    _NORMS,
    JsonRecord,
    RdProblem,
    SolverConfig,
    _aligned_rows,
    _block_length,
    _check_beta,
    _first_stops,
    _read_only,
)

DEFAULT_MERGE_TOL = 1e-6


@dataclass(frozen=True)
class IbProblem(JsonRecord):
    """Joint source-relevance distribution with a capped representation size.

    pxy[i, j] is the joint mass of (x=i, y=j). The x-marginal must be
    strictly positive and x must actually carry information about y;
    m representatives (default |X|, which is always enough) are optimized.
    The derived arrays (marginals, conditionals and the decoder-independent
    factors of the relevance distortion) are computed once and read-only;
    pxy is a read-only copy, so they cannot go stale.
    """

    pxy: np.ndarray
    m: int = 0

    def __post_init__(self):
        pxy = np.array(self.pxy, dtype=float)
        if pxy.ndim != 2 or pxy.size == 0:
            raise ValueError("pxy must be a non-empty 2-d matrix")
        if not np.all(np.isfinite(pxy)) or np.any(pxy < 0):
            raise ValueError("pxy entries must be finite and non-negative")
        total = pxy.sum()
        if total <= 0:
            raise ValueError("pxy is identically zero")
        if abs(total - 1.0) > 1e-12:
            pxy = pxy / total
        px = pxy.sum(axis=1)
        if np.any(px <= 0):
            raise ValueError("every source symbol must have positive mass")
        m = self.m if self.m else pxy.shape[0]
        if m < 1:
            raise ValueError("representation alphabet must be non-empty")
        object.__setattr__(self, "pxy", _read_only(pxy))
        object.__setattr__(self, "m", int(m))
        if self.relevant_information_ceiling() <= 1e-12:
            raise ValueError("x carries no information about y (I(X;Y) = 0)")

    @property
    def n(self) -> int:
        return self.pxy.shape[0]

    @property
    def ny(self) -> int:
        return self.pxy.shape[1]

    @cached_property
    def px(self) -> np.ndarray:
        return _read_only(self.pxy.sum(axis=1))

    @cached_property
    def py(self) -> np.ndarray:
        return _read_only(self.pxy.sum(axis=0))

    @cached_property
    def py_given_x(self) -> np.ndarray:
        return _read_only(self.pxy / self.px[:, None])

    @cached_property
    def _kl_terms(self) -> tuple:
        """(n, 1, ny) views of p(y|x), its log and its support mask: the
        factors of the relevance distortion that do not depend on the
        decoder."""
        pygx = self.py_given_x[:, None, :]
        with np.errstate(divide="ignore"):
            logp = np.log(pygx)
        return pygx, _read_only(logp), _read_only(pygx > 0)

    def relevant_information_ceiling(self) -> float:
        """I(X;Y), the most relevance any representation can retain."""
        return mutual_information(self.px, self.py_given_x)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "IbProblem":
        if "pxy" in obj:
            pxy = np.asarray(obj["pxy"], dtype=float)
        elif "px" in obj and "py_given_x" in obj:
            px = as_distribution(np.asarray(obj["px"], dtype=float), name="px")
            rows = as_channel(np.asarray(obj["py_given_x"], dtype=float),
                              name="py_given_x")
            pxy = px[:, None] * rows
        else:
            raise ValueError(
                "bottleneck problem needs either 'pxy' or 'px' + 'py_given_x'"
            )
        return cls(pxy=pxy, m=int(obj.get("m", 0)))


@dataclass
class IbSolution(JsonRecord):
    """State of a bottleneck solve: encoder, marginal, decoder and scores."""

    beta: float
    encoder: np.ndarray
    marginal: np.ndarray
    decoder: np.ndarray
    rate: float
    relevant_info: float
    iterations: int
    converged: bool


class _IbBuffers:
    """Work arrays of the bottleneck map for one problem and decoder count,
    written in place on every step.

    The relevance sums, the row masses and px @ encoder round according to
    their operands' memory layout, and the map's expressions give those
    operands a layout that follows the problem's arrays (a column-permuted
    pxy makes them Fortran-ordered). So the buffers copy the layouts of the
    same expressions evaluated once on stand-in values; encoder has the
    layout of the map's output.
    """

    def __init__(self, problem: IbProblem, m: int):
        n, ny = problem.n, problem.ny
        pygx, logp, pos = problem._kl_terms
        with np.errstate(invalid="ignore"):
            kl = np.where(pos, pygx * (logp - np.zeros((1, m, ny))), 0.0)
        dist = kl.sum(axis=-1)
        encoder = np.where(np.ones(m, dtype=bool), np.zeros(m) - dist, -np.inf)
        self.px_column = problem.px[:, None]
        # Where p(y|x) > 0 everywhere no relevance term needs blanking.
        self.blank = None if pos.all() else ~pos
        self.dead = np.empty(m, dtype=bool)
        self.safe = np.empty(m)
        self.dead_column = self.dead[:, None]
        self.safe_column = self.safe[:, None]
        self.log_safe = np.empty(m)
        self.dec = np.empty((m, ny))
        self.log_dec = np.empty((m, ny))
        self.kl = np.empty_like(kl)
        self.dist = np.empty_like(dist)
        self.row_max = np.empty(n)
        self.norms = np.empty(n)
        self.encoder = np.empty_like(encoder)
        self.weighted = np.empty_like(encoder)
        self.flush = np.empty_like(encoder, dtype=bool)
        self.marginal = np.empty(m)


def _check_marginal(marginal: np.ndarray) -> None:
    if marginal.sum() <= 0:
        raise ValueError("encoder induces an all-zero marginal")


def _decode(problem: IbProblem, encoder: np.ndarray, marginal: np.ndarray,
            buf: _IbBuffers) -> np.ndarray:
    """Decoder rows for an encoder and its marginal, written to buf.dec.

    buf.dead keeps the mask of representatives without mass, and buf.safe
    the zero-safe marginal the rows were divided by. The weighted encoder
    keeps the encoder's own layout.
    """
    dead = np.logical_not(np.greater(marginal, 0.0, out=buf.dead), out=buf.dead)
    np.copyto(buf.safe, marginal)
    np.putmask(buf.safe, dead, 1.0)
    weighted = buf.weighted if encoder.strides == buf.weighted.strides else None
    weighted = np.multiply(encoder, buf.px_column, out=weighted)
    dec = weighted.T.dot(problem.py_given_x, out=buf.dec)
    np.divide(dec, buf.safe_column, out=dec)
    np.copyto(dec, problem.py, where=buf.dead_column)
    return dec


def _relevance(problem: IbProblem, decoder: np.ndarray, buf: _IbBuffers) -> np.ndarray:
    """KL(p(y|x) || decoder row) for every pair, written to buf.dist; needs
    divide and invalid floating-point errors ignored."""
    pygx, logp, _ = problem._kl_terms
    kl = np.subtract(logp, np.log(decoder, out=buf.log_dec), out=buf.kl)
    np.multiply(pygx, kl, out=kl)
    if buf.blank is not None:
        np.copyto(kl, 0.0, where=buf.blank)
    return np.add.reduce(kl, axis=-1, out=buf.dist)


def _ib_update(problem: IbProblem, encoder: np.ndarray, marginal: np.ndarray,
               beta: float, buf: _IbBuffers, out: np.ndarray, marginal_out: np.ndarray):
    """The bottleneck map on an encoder and its marginal px @ encoder.

    Returns (new_encoder, new_marginal, decoder_used): the new encoder is
    out, which has the layout of buf.encoder, the new marginal is
    marginal_out, and the decoder is buf.dec; the new marginal is the one
    the next update takes. buf.norms keeps the row masses the new encoder
    was divided by; a row that lost all mass leaves NaN there and in the
    new encoder. Needs divide and invalid floating-point errors ignored.
    """
    dec = _decode(problem, encoder, marginal, buf)
    dist = _relevance(problem, dec, buf)
    np.log(buf.safe, out=buf.log_safe)
    logits = np.subtract(buf.log_safe, np.multiply(dist, beta, out=dist), out=out)
    np.copyto(logits, -np.inf, where=buf.dead)
    row_max = np.maximum.reduce(logits, axis=1, out=buf.row_max)
    new_encoder = np.exp(np.subtract(logits, row_max[:, None], out=logits), out=logits)
    norms = np.add.reduce(new_encoder, axis=1, out=buf.norms)
    np.divide(new_encoder, norms[:, None], out=new_encoder)
    np.less(new_encoder, TINY_MASS, out=buf.flush)
    np.putmask(new_encoder, buf.flush, 0.0)
    return new_encoder, problem.px.dot(new_encoder, out=marginal_out), dec


def _check_row_mass(buf: _IbBuffers) -> None:
    """Raise if some row of the last update kept no positive, finite mass;
    a NaN fails both tests."""
    norms = buf.norms
    if not (norms.min() > 0 and norms.max() < np.inf):
        raise NumericalError("encoder update lost all mass on some row")


def _check_encoder_shape(problem: IbProblem, encoder: np.ndarray) -> None:
    if encoder.shape != (problem.n, problem.m):
        raise ValueError("encoder shape does not match the problem")


def ib_decoder(problem: IbProblem, encoder, marginal=None) -> np.ndarray:
    """Decoder rows p(y | xhat) implied by an encoder via Bayes' rule.

    Rows of representatives with zero marginal mass are set to the global
    p(y): the vanishing-compression limit. That keeps the relevance
    distortion finite without contaminating anything that carries mass.
    """
    encoder = np.asarray(encoder, dtype=float)
    _check_encoder_shape(problem, encoder)
    if marginal is None:
        marginal = problem.px @ encoder
    marginal = np.asarray(marginal, dtype=float)
    _check_marginal(marginal)
    return _decode(problem, encoder, marginal, _IbBuffers(problem, problem.m))


def ib_distortion(problem: IbProblem, decoder) -> np.ndarray:
    """Relevance distortion matrix d[x, xhat] = KL(p(y|x) || decoder row xhat).

    Entries are +inf where a decoder row lacks mass that p(y|x) has;
    infinities propagate by design.
    """
    decoder = np.asarray(decoder, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _relevance(problem, decoder, _IbBuffers(problem, decoder.shape[0]))


def ib_step(problem: IbProblem, encoder, beta: float):
    """One bottleneck step: decoder, then encoder, then marginal.

    Returns (new_encoder, new_marginal, decoder_used). The encoder update is
    done in shifted log space, so large beta never overflows and exact zero
    marginal mass is preserved.
    """
    _check_beta(beta)
    encoder = np.asarray(encoder, dtype=float)
    _check_encoder_shape(problem, encoder)
    marginal = problem.px @ encoder
    _check_marginal(marginal)
    buf = _IbBuffers(problem, problem.m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = _ib_update(problem, encoder, marginal, beta, buf, buf.encoder, buf.marginal)
    _check_row_mass(buf)
    return step


def relevant_information(problem: IbProblem, marginal, decoder) -> float:
    """I(Xhat; Y) of a representation given its marginal and decoder rows."""
    marginal = np.asarray(marginal, dtype=float)
    decoder = np.asarray(decoder, dtype=float)
    py = problem.py
    total = 0.0
    for i in range(marginal.size):
        if marginal[i] > 0:
            total += marginal[i] * kl_divergence(decoder[i], py)
    return max(total, 0.0)


def uniform_encoder_init(problem: IbProblem) -> np.ndarray:
    """Equal blend of the uniform encoder and an identity pattern.

    The exactly uniform encoder is a fixed point of the iteration at every
    beta (all decoder rows coincide, so nothing ever breaks the tie), which
    makes it useless as a starting point. The identity-leaning blend is the
    deterministic tie-break that tracks the refined solution branch.
    """
    base = np.full((problem.n, problem.m), 1.0 / problem.m)
    enc = 0.5 * base + 0.5 * np.eye(problem.n, problem.m)
    return enc / enc.sum(axis=1, keepdims=True)


def identity_encoder_init(problem: IbProblem) -> np.ndarray:
    """Near-deterministic encoder mapping each source symbol to its own slot,
    with a 1e-6 leak to every other slot before normalization."""
    enc = np.full((problem.n, problem.m), 1e-6)
    for i in range(problem.n):
        enc[i, min(i, problem.m - 1)] = 1.0
    return enc / enc.sum(axis=1, keepdims=True)


def ib_solve(
    problem: IbProblem,
    beta: float,
    init_encoder=None,
    config: SolverConfig | None = None,
) -> IbSolution:
    """Iterate the bottleneck step until successive encoders are epsilon-close.

    The returned decoder is recomputed from the final encoder, so the
    decoder equation holds exactly for the stored triple. Non-convergence
    within the budget returns the encoder after max_iterations applications
    of ib_step, with converged=False.
    """
    if config is None:
        config = SolverConfig()
    _check_beta(beta)
    enc = (
        uniform_encoder_init(problem)
        if init_encoder is None
        else np.asarray(init_encoder, dtype=float).copy()
    )
    if enc.shape != (problem.n, problem.m):
        raise ValueError("init encoder shape does not match the problem")
    if not np.all(np.isfinite(enc)):
        raise ValueError("init encoder entries must be finite")
    if np.any(enc < 0):
        raise ValueError("init encoder has negative entries")
    sums = enc.sum(axis=1, keepdims=True)
    if np.any(sums <= 0):
        raise ValueError("init encoder has an all-zero row")
    enc = enc / sums
    marginal = problem.px @ enc

    buf = _IbBuffers(problem, problem.m)
    # Step b of a block writes encoders[b] and marginals[b]; row 0 holds the
    # block's start. The rows take the layout of the map's output.
    encoders = _aligned_rows(_BLOCK + 1, enc.shape, buf.encoder.strides)
    marginals = np.empty((_BLOCK + 1, problem.m))
    views = list(zip(encoders[1:], marginals[1:]))
    # An l1 distance sums each step's difference in C order, as the
    # flattened difference of two encoders always did; a maximum reads any
    # order.
    diff = np.empty((_BLOCK,) + enc.shape)
    flat = diff.reshape(_BLOCK, -1)
    delta = np.empty(_BLOCK)
    reduce, epsilon = _NORMS[config.norm].reduce, config.epsilon
    encoders[0], marginals[0] = enc, marginal
    converged = False
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while iterations < config.max_iterations:
            steps = _block_length(iterations, config.max_iterations)
            # The first step reads the block's start as it is: the caller's
            # layout in the first block, a row of encoders afterwards.
            new_enc, new_marginal = enc, marginal
            for out, marginal_out in views[:steps]:
                new_enc, new_marginal, _ = _ib_update(
                    problem, new_enc, new_marginal, beta, buf, out, marginal_out)
            np.subtract(encoders[1:steps + 1], encoders[:steps], out=diff[:steps])
            np.abs(diff[:steps], out=diff[:steps])
            reduce(flat[:steps], axis=-1, out=delta[:steps])
            stops = _first_stops(delta[:steps], epsilon)
            if stops is None:
                iterations += steps
                encoders[0], marginals[0] = new_enc, new_marginal
                enc, marginal = encoders[0], marginals[0]
                continue
            row = int(stops[0])
            if not delta[row] < epsilon:
                if row > 0:
                    enc, marginal = encoders[row], marginals[row]
                _ib_update(problem, enc, marginal, beta, buf,
                           encoders[row + 1], marginals[row + 1])
                _check_row_mass(buf)
                raise NumericalError(
                    f"non-finite encoder at iteration {iterations + row + 1}")
            iterations += row + 1
            converged = True
            enc, marginal = encoders[row + 1], marginals[row + 1]
            break
    enc, marginal = enc.copy(order="K"), marginal.copy()

    dec = ib_decoder(problem, enc, marginal)
    return IbSolution(
        beta=float(beta),
        encoder=enc,
        marginal=marginal,
        decoder=dec,
        rate=mutual_information(problem.px, enc),
        relevant_info=relevant_information(problem, marginal, dec),
        iterations=iterations,
        converged=converged,
    )


def decoder_classes(
    solution: IbSolution,
    merge_tol: float = DEFAULT_MERGE_TOL,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> list[np.ndarray]:
    """Distinct decoder rows among representatives that carry mass.

    Rows within merge_tol (sup norm) of an existing class representative are
    merged into it; classes are seeded in decreasing order of marginal mass,
    so each returned row is the decoder of its class's dominant
    representative. A NaN merge_tol would merge nothing, so it is rejected
    along with non-positive and infinite ones.
    """
    if not 0 < merge_tol < np.inf:
        raise ValueError("merge_tol must be finite and positive")
    reps: list[np.ndarray] = []
    order = np.argsort(-solution.marginal, kind="stable")
    for i in order:
        if solution.marginal[i] <= zero_tol:
            continue
        row = solution.decoder[i]
        if not any(np.abs(row - rep).max() <= merge_tol for rep in reps):
            reps.append(row.copy())
    return reps


def effective_cardinality(
    solution: IbSolution,
    merge_tol: float = DEFAULT_MERGE_TOL,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> int:
    """Number of distinct non-empty decoder distributions in a solution."""
    return len(decoder_classes(solution, merge_tol=merge_tol, zero_tol=zero_tol))


def tangent_rd(
    problem: IbProblem,
    sol_minus: IbSolution,
    sol_plus: IbSolution,
    merge_tol: float = DEFAULT_MERGE_TOL,
    dedup_tol: float | None = None,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> RdProblem:
    """Fixed-distortion problem whose curve touches the bottleneck curve.

    The representation alphabet is the union of the decoder classes of the
    two flanking solutions, with the plus-side copies of classes already
    present on the minus side dropped (they are the same representative seen
    through a small beta shift, and duplicated columns are degenerate).
    The distortion to each representative is the KL divergence from p(y|x)
    to that class's decoder row. Decoder zeros opposite positive p(y|x)
    would make the distortion infinite and are rejected.
    """
    if not (sol_minus.converged and sol_plus.converged):
        raise ValueError("tangent construction needs converged flanking solutions")
    if not sol_minus.beta < sol_plus.beta:
        raise ValueError("flanking solutions must satisfy beta_minus < beta_plus")
    if dedup_tol is None:
        dedup_tol = merge_tol
    reps_minus = decoder_classes(sol_minus, merge_tol=merge_tol, zero_tol=zero_tol)
    reps_plus = decoder_classes(sol_plus, merge_tol=merge_tol, zero_tol=zero_tol)
    columns = list(reps_minus)
    for row in reps_plus:
        if not any(np.abs(row - kept).max() <= dedup_tol for kept in columns):
            columns.append(row)
    d = ib_distortion(problem, np.stack(columns))
    if not np.all(np.isfinite(d)):
        raise ValueError(
            "tangent distortion has infinite entries; a flanking decoder row "
            "is missing mass where p(y|x) has some"
        )
    return RdProblem(px=problem.px, d=d)
