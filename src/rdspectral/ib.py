"""Information bottleneck problems and the extended alternating iteration.

The bottleneck iteration carries an encoder p(xhat|x). Each step takes its
marginal and its decoder p(y|xhat) from the current encoder, rebuilds the
relevance distortion (a KL divergence to the decoder rows), then applies the
usual Boltzmann encoder update with that distortion. Convergence is measured
on the encoder, since the marginal alone does not determine a bottleneck
solution.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .probability import (
    DEFAULT_ZERO_TOL,
    SIMPLEX_ATOL,
    NumericalError,
    as_channel,
    as_distribution,
    as_masses,
    weighted_divergence,
)
from .rd import (
    _BLOCK,
    JsonRecord,
    RdProblem,
    SolverConfig,
    _aligned_rows,
    _check_beta,
    _check_positive,
    _check_tolerance,
    _flush,
    _read_only,
    _run_blocks,
)

DEFAULT_MERGE_TOL = 1e-6
# The map's scalar operands as 0-d arrays, which ufuncs take without
# converting a Python float on every call.
_ZERO = _read_only(np.zeros(()))


@dataclass(frozen=True, eq=False)
class IbProblem(JsonRecord):
    """Joint source-relevance distribution with a capped representation size.

    pxy[i, j] is the joint mass of (x=i, y=j). The x-marginal must be
    strictly positive and x must actually carry information about y;
    m representatives are optimized; m is an integer, and 0, the default,
    means |X|, which is always enough.
    The derived arrays (marginals, conditionals and the decoder-independent
    factors of the relevance distortion) are computed once and read-only;
    pxy is a read-only copy, so they cannot go stale.
    """

    pxy: np.ndarray
    m: int = 0

    def __post_init__(self):
        pxy = as_masses(np.array(self.pxy, dtype=float), "pxy", 2)
        total = pxy.sum()
        if total <= 0:
            raise ValueError("pxy is identically zero")
        if abs(total - 1.0) > SIMPLEX_ATOL:
            pxy = pxy / total
        px = pxy.sum(axis=1)
        if np.any(px <= 0):
            raise ValueError("every source symbol must have positive mass")
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)):
            raise ValueError("m must be an integer")
        m = int(self.m) or pxy.shape[0]
        if m < 1:
            raise ValueError("representation alphabet must be non-empty")
        object.__setattr__(self, "pxy", _read_only(pxy))
        object.__setattr__(self, "m", m)
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
        return weighted_divergence(self.px, self.py_given_x, self.px @ self.py_given_x)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "IbProblem":
        if "pxy" in obj:
            pxy = obj["pxy"]
        elif "px" in obj and "py_given_x" in obj:
            px = as_distribution(obj["px"], name="px")
            rows = as_channel(obj["py_given_x"], name="py_given_x")
            pxy = px[:, None] * rows
        else:
            raise ValueError(
                "bottleneck problem needs either 'pxy' or 'px' + 'py_given_x'"
            )
        return cls(pxy=pxy, m=obj.get("m", 0))


@dataclass(eq=False)
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
    """Work arrays of the bottleneck map for one problem, written in place
    on every step, and the history of a block of steps.

    ib_step and ib_solve build one per call; ib_decoder and ib_distortion
    compute their one decoder or distortion without any. The relevance
    sums, the row masses and px @ encoder round according to their
    operands' memory layout, and the map's expressions give those
    operands a layout that follows the problem's arrays (a column-permuted
    pxy makes them Fortran-ordered). So the kl, dist and weighted buffers
    are those expressions themselves, evaluated once on stand-in values
    that every step overwrites before it reads them. rows holds the
    history, steps + 1 encoders with the layout of the map's output, each
    starting on a cache line: step b writes rows[b], and rows[0] holds the
    block's start. The map runs one lane.
    """

    lanes = 1

    def __init__(self, problem: IbProblem, steps: int = 1):
        n, m, ny = problem.n, problem.m, problem.ny
        pygx, logp, pos = problem._kl_terms
        with np.errstate(invalid="ignore"):
            self.kl = np.where(pos, pygx * (logp - np.zeros((1, m, ny))), 0.0)
        self.dist = self.kl.sum(axis=-1)
        self.weighted = np.where(np.ones(m, dtype=bool), np.zeros(m) - self.dist, -np.inf)
        # Where p(y|x) > 0 everywhere no relevance term needs blanking.
        self.blank = None if pos.all() else ~pos
        self.dead = np.empty(m, dtype=bool)
        self.marginal = np.empty(m)
        self.log_marginal = np.empty(m)
        self.dec = np.empty((m, ny))
        self.log_dec = np.empty((m, ny))
        self.row_max = np.empty(n)
        self.norms = np.empty(n)
        self.rows = _aligned_rows(steps + 1, self.weighted.shape, self.weighted.strides)

    def failure(self, lanes, k: int) -> NumericalError:
        """The error for step k, which left a non-finite encoder; norms holds
        that step's row masses. Raises at once for a row that lost all mass."""
        _check_row_mass(self)
        return NumericalError(f"non-finite encoder at iteration {k}")


def _decoder(problem: IbProblem, encoder: np.ndarray, marginal: np.ndarray) -> np.ndarray:
    """The decoder rows of an encoder whose marginal px @ encoder is given,
    as the map computes them: the px-weighted encoder, in the encoder's own
    layout, times p(y|x), divided by the marginal itself. A dead
    representative's row, 0 / 0 (or x / 0 where px * encoder underflowed),
    is then overwritten with py."""
    with np.errstate(divide="ignore", invalid="ignore"):
        decoder = (encoder * problem.px[:, None]).T.dot(problem.py_given_x)
        decoder /= marginal[:, None]
    np.copyto(decoder, problem.py, where=(marginal <= 0)[:, None])
    return decoder


def _ib_map(problem: IbProblem, beta: float, buf: _IbBuffers):
    """The bottleneck map at one beta, bound once to the problem's arrays and
    to buf: step(encoder, b) writes the new encoder to buf.rows[b] and
    returns that row, as the BA map's step(p, b) does (rd._ba_map).

    A step takes the marginal px @ encoder (kept in buf.marginal), the
    dead mask marginal <= 0 (buf.dead), the decoder (buf.dec, the
    operations of _decoder written into the buffers), the relevance
    distortion KL(p(y|x) || decoder row) (buf.dist), the logits
    log(marginal) - beta * dist, their row maxima, exp of the shifted
    logits, the row masses (buf.norms; a row that lost all mass leaves NaN
    there and in the new encoder) and their quotient. The step does not
    flush masses below TINY_MASS: ib_step flushes its result (rd._flush),
    and the block loop flushes only the rows that hold one
    (rd._run_block). A dead representative's logits need no fill:
    log 0 = -inf, and its distortion is KL(p(y|x) || py), which is finite,
    so they stay -inf at every beta. At beta 0 the map, chosen when it is
    bound, takes 0 * inf = 0 and skips the relevance distortion, so every
    encoder row is the marginal even where a decoder zero opposite
    p(y|x) > 0 makes that distortion infinite. Needs divide, invalid and
    overflow floating-point errors ignored.
    """
    px_dot, px_column = problem.px.dot, problem.px[:, None]
    pygx, py, (kl_pygx, logp, _) = problem.py_given_x, problem.py, problem._kl_terms
    rows, weighted, dec = list(buf.rows), buf.weighted, buf.dec
    marginal, log_marginal, dead = buf.marginal, buf.log_marginal, buf.dead
    log_dec, kl, dist, blank = buf.log_dec, buf.kl, buf.dist, buf.blank
    row_max, norms, strides = buf.row_max, buf.norms, weighted.strides
    marginal_column, dead_column = marginal[:, None], dead[:, None]
    row_max_column, norms_column = row_max[:, None], norms[:, None]
    # px spread over the encoder's shape spares the broadcast; an encoder of
    # another layout keeps the column, so numpy lays out its product as before.
    px_spread = np.empty_like(weighted)
    px_spread[...] = px_column
    log, exp, subtract, multiply = np.log, np.exp, np.subtract, np.multiply
    divide, less_equal, copyto = np.divide, np.less_equal, np.copyto
    max_reduce, add_reduce = np.maximum.reduce, np.add.reduce
    beta = np.array(beta, dtype=float)

    if beta:
        def scaled_relevance(decoder):
            terms = multiply(kl_pygx, subtract(logp, log(decoder, out=log_dec), out=kl), out=kl)
            if blank is not None:
                copyto(terms, _ZERO, where=blank)
            return multiply(add_reduce(terms, axis=-1, out=dist), beta, out=dist)
    else:
        dist.fill(0.0)

        def scaled_relevance(decoder):
            return dist

    def step(encoder, b):
        px_dot(encoder, out=marginal)
        less_equal(marginal, _ZERO, out=dead)
        if encoder.strides == strides:
            w = multiply(encoder, px_spread, out=weighted)
        else:
            w = multiply(encoder, px_column)
        decoder = divide(w.T.dot(pygx, out=dec), marginal_column, out=dec)
        copyto(decoder, py, where=dead_column)
        logits = subtract(log(marginal, out=log_marginal), scaled_relevance(decoder), out=rows[b])
        max_reduce(logits, axis=1, out=row_max)
        new = exp(subtract(logits, row_max_column, out=logits), out=logits)
        add_reduce(new, axis=1, out=norms)
        return divide(new, norms_column, out=new)

    return step


def _check_marginal(marginal: np.ndarray) -> None:
    if marginal.sum() <= 0:
        raise ValueError("encoder induces an all-zero marginal")


def _check_row_mass(buf: _IbBuffers) -> None:
    """Raise if some row of the last update kept no positive, finite mass;
    a NaN fails both tests."""
    norms = buf.norms
    if not (norms.min() > 0 and norms.max() < np.inf):
        raise NumericalError("encoder update lost all mass on some row")


def _checked_encoder(problem: IbProblem, encoder, name: str) -> np.ndarray:
    """The encoder as a float array, rejected unless it has the problem's
    shape, finite non-negative entries and some mass on every row."""
    encoder = np.asarray(encoder, dtype=float)
    if encoder.shape != (problem.n, problem.m):
        raise ValueError(f"{name} shape does not match the problem")
    as_masses(encoder, name, 2)
    if np.any(encoder.sum(axis=1) <= 0):
        raise ValueError(f"{name} has an all-zero row")
    return encoder


def ib_decoder(problem: IbProblem, encoder) -> np.ndarray:
    """Decoder rows p(y | xhat) implied by an encoder via Bayes' rule.

    Rows of representatives with zero marginal mass are set to the global
    p(y): the vanishing-compression limit. That keeps the relevance
    distortion finite without contaminating anything that carries mass.
    An encoder whose marginal px @ encoder underflows to all zeros is rejected.
    """
    encoder = _checked_encoder(problem, encoder, "encoder")
    marginal = problem.px @ encoder
    _check_marginal(marginal)
    return _decoder(problem, encoder, marginal)


def ib_distortion(problem: IbProblem, decoder) -> np.ndarray:
    """Relevance distortion matrix d[x, xhat] = KL(p(y|x) || decoder row xhat).

    Entries are +inf where a decoder row lacks mass that p(y|x) has;
    infinities propagate by design.
    """
    decoder = as_masses(decoder, "decoder", 2)
    if decoder.shape[1] != problem.ny:
        raise ValueError("decoder rows do not match the relevance alphabet")
    pygx, logp, pos = problem._kl_terms
    # The log is taken into a C-ordered array, as the map's log_dec buffer
    # holds it: the terms' layout, and so the bits of their sums, follow it.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_dec = np.log(decoder, out=np.empty(decoder.shape))
        return np.where(pos, pygx * (logp - log_dec), 0.0).sum(axis=-1)


def ib_step(problem: IbProblem, encoder, beta: float):
    """One bottleneck step: decoder, then encoder, then marginal.

    Returns (new_encoder, new_marginal, decoder_used). The encoder update is
    done in shifted log space, so large beta never overflows and exact zero
    marginal mass is preserved. The encoder is checked as ib_solve checks
    its init encoder, but not renormalized. Masses below TINY_MASS are
    flushed from the new encoder, as the block loop of ib_solve flushes a
    row.
    """
    _check_beta(beta)
    encoder = _checked_encoder(problem, encoder, "encoder")
    buf = _IbBuffers(problem)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        new_encoder = _flush(_ib_map(problem, beta, buf)(encoder, 1))
    _check_marginal(buf.marginal)
    _check_row_mass(buf)
    return new_encoder, problem.px.dot(new_encoder), buf.dec


def relevant_information(problem: IbProblem, marginal, decoder) -> float:
    """I(Xhat; Y) of a representation given its marginal and decoder rows."""
    marginal = as_masses(marginal, "marginal", 1)
    decoder = as_masses(decoder, "decoder", 2)
    if decoder.shape[0] != marginal.shape[0]:
        raise ValueError("decoder must have one row per marginal entry")
    if decoder.shape[1] != problem.ny:
        raise ValueError("decoder rows do not match the relevance alphabet")
    return weighted_divergence(marginal, decoder, problem.py)


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

    The bound map steps through rd._run_blocks into its buffers' history
    rows; the first step reads the normalized init encoder as it is.
    The returned decoder is recomputed from the final encoder by _decoder,
    so the decoder equation holds exactly for the stored triple; the
    encoder keeps the layout of the map's output, so that product rounds as
    it does inside the map's steps. Non-convergence within the budget
    returns the encoder after max_iterations applications of ib_step, with
    converged=False. The final marginal needs no check:
    each row of an encoder the map writes has largest entry 1 / norm, at
    least 1 / m, and px > 0.
    """
    if config is None:
        config = SolverConfig()
    _check_beta(beta)
    enc = uniform_encoder_init(problem) if init_encoder is None else init_encoder
    enc = _checked_encoder(problem, enc, "init encoder").copy()
    enc = enc / enc.sum(axis=1, keepdims=True)

    buf = _IbBuffers(problem, _BLOCK)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k, ends = _run_blocks(_ib_map(problem, beta, buf), enc, buf, config, 0)
    enc = buf.rows[0].copy(order="K")
    marginal = problem.px.dot(enc)
    dec = _decoder(problem, enc, marginal)
    return IbSolution(
        beta=float(beta),
        encoder=enc,
        marginal=marginal,
        decoder=dec,
        rate=weighted_divergence(problem.px, enc, marginal),
        relevant_info=weighted_divergence(marginal, dec, problem.py),
        iterations=ends.get(0, k),
        converged=bool(ends),
    )


def _distinct_rows(rows, tol: float, kept=()) -> list[np.ndarray]:
    """kept, then copies of the rows, in order, that lie further than tol
    in sup norm from every row kept before them."""
    kept = list(kept)
    for row in rows:
        if not any(np.abs(row - k).max() <= tol for k in kept):
            kept.append(row.copy())
    return kept


def decoder_classes(
    solution: IbSolution,
    merge_tol: float = DEFAULT_MERGE_TOL,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> list[np.ndarray]:
    """Distinct decoder rows among representatives that carry mass.

    Rows within merge_tol (sup norm) of an existing class representative are
    merged into it; classes are seeded in decreasing order of marginal mass,
    so each returned row is the decoder of its class's dominant
    representative. merge_tol must be finite and positive.
    """
    _check_positive(merge_tol, "merge_tol")
    _check_tolerance(zero_tol, "zero_tol")
    order = np.argsort(-solution.marginal, kind="stable")
    return _distinct_rows((solution.decoder[i] for i in order
                           if not solution.marginal[i] <= zero_tol), merge_tol)


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
    reps_minus = decoder_classes(sol_minus, merge_tol=merge_tol, zero_tol=zero_tol)
    reps_plus = decoder_classes(sol_plus, merge_tol=merge_tol, zero_tol=zero_tol)
    dedup_tol = merge_tol if dedup_tol is None else dedup_tol
    _check_positive(dedup_tol, "dedup_tol")
    d = ib_distortion(problem, np.stack(_distinct_rows(reps_plus, dedup_tol, reps_minus)))
    if not np.all(np.isfinite(d)):
        raise ValueError(
            "tangent distortion has infinite entries; a flanking decoder row "
            "is missing mass where p(y|x) has some"
        )
    return RdProblem(px=problem.px, d=d)
