"""Finite rate-distortion problems and the Arimoto-Blahut fixed point iteration.

The optimization variable is the reproduction marginal q over the
representation alphabet. One alternating-minimization step maps q to the
marginal induced by the Boltzmann encoder built from q, and solutions at a
given trade-off parameter beta are exactly the fixed points of that map.
"""

import math
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from .probability import (
    TINY_MASS,
    NumericalError,
    as_distribution,
    as_masses,
    weighted_divergence,
)

DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_ITERATIONS = 10**7

# Byte budget for one chunk of stacked weights in solve_batch; grids whose
# weight stack would exceed it run as several chunks one after another.
_LANE_CHUNK_BYTES = 8 * 2**20

# Bytes in a cache line: the BA loop's weights and work arrays start on one.
_CACHE_LINE = 64

# Most steps the BA and IB loops take between two stopping tests. Each
# step's iterate goes to its own row of a block history, and the distances
# of the whole block are taken at once; the first row that stops decides.
_BLOCK = 64

# A block holds at most one step per _BLOCK_GROWTH steps already taken, so
# the steps a solve runs past its stopping row stay below 1/_BLOCK_GROWTH
# of its work. Warm-started sweeps are mostly short solves: the IB steps of
# a reverse anneal on fig2 stop after a median of 4, and whole blocks of 64
# would run half again as many steps as they keep.
_BLOCK_GROWTH = 16

# The reduction over |difference| behind each stopping norm; along the last
# axis it gives one distance per lane.
_NORMS = {"l1": np.add, "linf": np.maximum}


# Field metadata that keeps a dataclass field out of its JSON form.
NOT_SERIALIZED = {"serialized": False}


@cache
def json_fields(cls) -> tuple:
    """Names of the serialized fields of a JsonRecord class, in declaration order."""
    return tuple(f.name for f in fields(cls) if f.metadata.get("serialized", True))


def _json_value(value):
    """value with arrays and tuples as lists, NaN as None and an infinity as
    "inf" or "-inf", which JSON cannot carry as numbers."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return _json_value(value.tolist())
    return value


def _same_value(a, b) -> bool:
    """a == b as one bool: arrays are equal when they have one shape and
    equal entries, lists and tuples when their items are, and NaN equals
    NaN, so two records of the same result compare equal."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and np.array_equal(a, b, equal_nan=True))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_value, a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return bool(a == b)


class JsonRecord:
    """Mixin for a dataclass whose JSON form is its fields in declaration
    order, less those declared with NOT_SERIALIZED metadata.

    Records compare equal field by field over the fields declared with
    compare=True (_same_value). The generated __eq__ compares field tuples,
    and an array comparison inside them has no truth value, so the
    dataclasses declare eq=False and use this one; SweepConfig and
    FixedPointJacobian, which are not records, borrow it. Records hold
    arrays and are not hashable.
    """

    def to_json_dict(self) -> dict:
        return {name: _json_value(getattr(self, name)) for name in json_fields(type(self))}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same_value(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self) if f.compare)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class RdProblem(JsonRecord):
    """A source distribution together with a finite distortion matrix.

    px[i] is the source mass of symbol i; d[i, j] >= 0 is the distortion of
    reproducing symbol i as representative j. Two representatives with
    identical distortion columns are rejected because every spectral
    statement downstream assumes distinguishable representatives; a d with
    no columns is rejected too, since it leaves nothing to reproduce. Both
    arrays are read-only copies, so the caller's arrays can change afterwards
    without changing the problem behind its validation.
    """

    px: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        px = np.array(as_distribution(self.px, name="px"))
        d = np.array(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != px.shape[0]:
            raise ValueError("d must be a matrix with one row per source symbol")
        if d.shape[1] == 0:
            raise ValueError("d needs at least one column (representative)")
        as_masses(d, "d", 2)
        pair = _duplicate_columns(d)
        if pair is not None:
            raise ValueError(
                f"distortion columns {pair[0]} and {pair[1]} are identical; "
                "merge the duplicate representatives first"
            )
        object.__setattr__(self, "px", _read_only(px))
        object.__setattr__(self, "d", _read_only(d))

    @property
    def n(self) -> int:
        return self.px.shape[0]

    @property
    def m(self) -> int:
        return self.d.shape[1]

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RdProblem":
        try:
            return cls(px=obj["px"], d=obj["d"])
        except KeyError as exc:
            raise ValueError(f"missing field {exc} in rate-distortion problem") from exc


def _duplicate_columns(d: np.ndarray):
    """The first pair j < k of identical columns of d, or None.

    A lexicographic sort of the columns puts identical ones next to each
    other, so one sort decides; the quadratic scan that names the first
    pair runs only when there is one. Both comparisons treat -0.0 and 0.0
    as equal.
    """
    ordered = d[:, np.lexsort(d)]
    if not (ordered[:, 1:] == ordered[:, :-1]).all(axis=0).any():
        return None
    for j in range(d.shape[1]):
        for k in range(j + 1, d.shape[1]):
            if np.array_equal(d[:, j], d[:, k]):
                return j, k


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule for the alternating iteration.

    Convergence is declared when the distance between successive iterates
    drops below epsilon under the chosen norm ("l1" or "linf"); a solve that
    reaches max_iterations first stops there with converged False. Mass
    thresholds are not solver settings: a sweep counts support at its own
    support_tol, and eigen_spectrum takes its zero_tol as an argument. The
    fields cannot be assigned, so a config stays as it was checked.
    """

    epsilon: float = DEFAULT_EPSILON
    norm: str = "linf"
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.norm not in _NORMS:
            raise ValueError(f"norm must be one of {sorted(_NORMS)}")
        if isinstance(self.max_iterations, bool) or not isinstance(
            self.max_iterations, (int, np.integer)
        ):
            raise ValueError("max_iterations must be an integer")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def _check_tolerance(value, name: str) -> None:
    """Reject a mass threshold that is not a finite number in [0, 1)."""
    if not 0 <= value < 1:
        raise ValueError(f"{name} must be finite and lie in [0, 1)")


def _check_positive(value, name: str) -> None:
    """Reject a merge tolerance that is NaN, infinite or not positive."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive")


@dataclass(eq=False)
class RdSolution(JsonRecord):
    """Converged (or budget-exhausted) state of a single solve.

    gap is Blahut's duality gap log max_j sum_x px(x) a(x, j), with a the
    normalized Boltzmann factors at the marginal: it is non-negative up to
    roundoff and zero exactly when the marginal is optimal at beta, so a
    converged solve on a metastable branch shows a positive gap.

    The encoder is a function of (problem, beta, marginal), so a solution
    keeps only those: encoder is derived on every read, by the arithmetic
    the solve scored rate and distortion with, and is not cached. A
    solution holds O(m) floats however large its problem, and its marginal
    is read-only, so every read derives the same encoder.
    """

    beta: float
    marginal: np.ndarray
    encoder: np.ndarray = field(init=False, repr=False, compare=False)
    rate: float
    distortion: float
    iterations: int
    converged: bool
    gap: float
    problem: RdProblem = field(repr=False, compare=False, metadata=NOT_SERIALIZED)


def _derived_encoder(solution: RdSolution) -> np.ndarray:
    """The Boltzmann encoder at a solution's marginal: the one _solution
    scored its rate and distortion with, bit for bit."""
    p = solution.marginal
    return _encoder_from_factors(p, boltzmann_factors(solution.problem, p, solution.beta))


RdSolution.encoder = property(_derived_encoder)


def _check_beta(beta: float) -> None:
    """Reject a trade-off parameter that is negative, infinite or NaN."""
    if not 0 <= beta < math.inf:
        raise ValueError("beta must be finite and non-negative")


def _checked_marginal(problem: RdProblem, marginal, beta: float) -> np.ndarray:
    """Check beta, and return the marginal as a float vector of masses with
    support, one per representative."""
    _check_beta(beta)
    marginal = as_masses(marginal, "marginal", 1)
    if marginal.shape[0] != problem.m:
        raise ValueError("marginal length does not match the representation alphabet")
    if not (marginal > 0).any():
        raise ValueError("marginal has no support")
    return marginal


def _row_shift(problem: RdProblem, dead: np.ndarray) -> np.ndarray:
    """Each row's smallest d over the columns that dead leaves live, as an
    (n, 1) column: a masked reduction, with no n x m array."""
    return np.minimum.reduce(problem.d, axis=1, where=~dead, initial=np.inf, keepdims=True)


def _shifted_exponents(problem: RdProblem, marginal: np.ndarray, beta: float, out=None):
    """Exponents -beta (d(x, xhat) - shift(x)) and the dead-column mask.

    Each row is shifted by its smallest d over the support of the marginal,
    so the partition function keeps at least one O(1) term at any beta and
    never underflows to zero. Callers have checked beta and the support.
    The exponents are the one n x m array made here, or are written to out
    (a view with d's strides): the scaling is done in place.
    """
    dead = marginal <= 0
    exponents = np.subtract(problem.d, _row_shift(problem, dead), out=out)
    exponents *= -beta
    return exponents, dead


def _iteration_weights(problem: RdProblem, marginal: np.ndarray, beta: float, out=None):
    """The shifted weights the BA map iterates: dead columns are exact zeros.

    A dead representative stays dead, and its column only ever meets its
    zero mass, so zeroing it changes no bit wherever its weight was finite;
    where it would overflow, it keeps inf * 0 = NaN out of the products.
    The weights are computed in out when it is given.
    """
    exponents, dead = _shifted_exponents(problem, marginal, beta, out)
    exponents[:, dead] = -np.inf
    return np.exp(exponents, out=exponents)


def _aligned_rows(count: int, shape, strides=None) -> np.ndarray:
    """count float arrays of one dense shape, stacked along a new first axis.

    Each row starts on a cache line: the first axis steps over whole lines,
    padding a row whose bytes do not fill its last one. malloc only promises
    16-byte alignment, so where an array starts depends on the heap's
    history, and OpenBLAS's matrix-vector products on a 256 x 256 matrix
    whose rows start part-way into a cache line run about a fifth slower,
    and vary more from run to run, than on an aligned one. strides give a
    row's layout and default to C order; they must describe a dense layout,
    such as a transpose's. Alignment changes no bit of the BLAS products;
    layout does, so a row copied from an array takes its strides.
    """
    shape = tuple(shape)
    if strides is None:
        strides = tuple(8 * math.prod(shape[i + 1:]) for i in range(len(shape)))
    line = _CACHE_LINE // 8
    step = -(-math.prod(shape) // line) * line
    raw = np.empty(count * step + line)
    start = (-raw.ctypes.data % _CACHE_LINE) // 8
    return np.ndarray((count,) + shape, buffer=raw, offset=8 * start,
                      strides=(8 * step,) + tuple(strides))


class _BaBuffers:
    """Work arrays of the BA map for one shape of weights and marginals, and
    the history of a block of steps.

    Written in place on every step: the partition function z and px / z,
    shaped (n,) for one lane and (lanes, n) for a stack. rows holds the
    history, one row per step shaped like the iterate, (m,) for one lane
    (lanes is 1) or (lanes, m): step b writes rows[b], and rows[0] holds
    the block's start. Every array the products touch starts on a cache
    line.
    """

    def __init__(self, expw: np.ndarray, p: np.ndarray, steps: int = 1):
        self.z, self.r = _aligned_rows(2, expw.shape[:-1])
        self.rows = _aligned_rows(steps + 1, p.shape)
        self.lanes = 1 if p.ndim == 1 else p.shape[0]

    def failure(self, lanes, k: int) -> NumericalError:
        """The error for step k, which left a non-finite marginal in lanes
        (indices into the stack); z holds that step's partition functions."""
        if (self.z.reshape(self.lanes, -1)[lanes] <= 0).any():
            return NumericalError("partition function vanished")
        return NumericalError(f"non-finite marginal at iteration {k}")


def _ba_map(expw: np.ndarray, px: np.ndarray, buf: _BaBuffers):
    """The BA map on shifted weights, bound once to them, to px and to buf:
    step(p, b) writes the marginal induced by the Boltzmann encoder built
    from p to buf.rows[b] and returns that row. It does not flush
    sub-normal masses; its callers do (_flush, _run_block).

    expw is one (n, m) weight matrix, or a (lanes, n, m) stack whose step
    reads buf.rows[b - 1], which must then hold p's values. np.matmul takes
    a stack's operands as (lanes, m, 1) columns of the rows, a (lanes, n, 1)
    column of z, a (lanes, 1, n) row of px / z and a (lanes, 1, m) row out,
    views all made here, once. buf.z keeps the partition function the step
    divided by: a vanishing one shows up as NaN in the result, which
    buf.failure diagnoses from buf.z. One lane's products go through ndarray.dot,
    which calls the BLAS matrix-vector product that @ calls, without the
    matmul dispatch; a stack's go through np.matmul, which reproduces each
    lane's product bit for bit. einsum or a broadcast multiply-and-sum would
    round differently and could move a stopping iteration.
    """
    z, r, rows = buf.z, buf.r, list(buf.rows)
    divide, multiply = np.divide, np.multiply
    if expw.ndim == 2:
        z_dot, r_dot = expw.dot, r.dot

        def step(p, b):
            z_dot(p, out=z)
            divide(px, z, out=r)
            new = r_dot(expw, out=rows[b])
            return multiply(p, new, out=new)

        return step

    matmul, z_column, r_row = np.matmul, z[:, :, None], r[:, None, :]
    columns = [row[:, :, None] for row in rows]
    outs = [row[:, None, :] for row in rows]

    def step(p, b):
        matmul(expw, columns[b - 1], out=z_column)
        divide(px, z, out=r)
        matmul(r_row, expw, out=outs[b])
        new = rows[b]
        return multiply(p, new, out=new)

    return step


def _flush(masses: np.ndarray) -> np.ndarray:
    """Set the masses below TINY_MASS to exact zero, in place, and return
    the array. Sub-normal masses would otherwise fabricate infinite
    divergences out of roundoff underflow. Both maps' steps leave this to
    their callers: ab_step and ib_step flush every step, and the block loop
    flushes only the rows that need it (_run_block)."""
    np.copyto(masses, 0.0, where=np.less(masses, TINY_MASS))
    return masses


def _run_block(step, start, rows: np.ndarray, steps: int) -> None:
    """Take a block's steps from start into rows[1..steps], each row what a
    step that flushed its result would have written.

    Sub-normal masses are rare, so the steps run unflushed, and afterwards
    the rows are searched for an entry in (0, TINY_MASS): there is one when
    more entries lie below TINY_MASS than are zero, as a NaN does neither.
    The masses are non-negative, so the flush changes no other entry (a
    start's -0.0 masses are made 0.0 before the first step). Every row
    before the first such row is what flushing steps would have written,
    since the flush did nothing there. That row is flushed in place and the
    rest of the block runs again from it, flushing after each step, so a
    block runs at most steps - 1 extra steps, and only when it flushes.
    """
    p = start
    for b in range(1, steps + 1):
        p = step(p, b)
    block = rows[1:steps + 1]
    if np.count_nonzero(np.less(block, TINY_MASS)) + np.count_nonzero(block) <= block.size:
        return
    hits = np.greater(block, 0.0) & np.less(block, TINY_MASS)
    row = 1 + int(hits.any(axis=tuple(range(1, block.ndim))).argmax())
    p = _flush(rows[row])
    for b in range(row + 1, steps + 1):
        p = _flush(step(p, b))


def _block_length(done: int, budget: int) -> int:
    """Steps in the next block of a solve that has taken done of its budget:
    one per _BLOCK_GROWTH steps done, at least one and at most _BLOCK, and
    never past the budget, so max_iterations holds exactly."""
    return min(_BLOCK, max(1, done // _BLOCK_GROWTH), budget - done)


def boltzmann_factors(problem: RdProblem, marginal, beta: float) -> np.ndarray:
    """Normalized Boltzmann weights a[x, xhat] = exp(-beta d(x, xhat)) / Z(x).

    Every column is kept, so a dead column's factor overflows to inf once
    beta times its distortion advantage over the support exceeds about 709,
    or its weight over Z exceeds the float range. A live factor never
    overflows: where one would, NumericalError is raised.
    """
    return _boltzmann(problem, _checked_marginal(problem, marginal, beta), beta)[0]


def _boltzmann(problem: RdProblem, marginal: np.ndarray, beta: float):
    """boltzmann_factors, with the dead-column mask and the partition
    function Z they were divided by. The factors are the one n x m array:
    the shifted exponents are exponentiated and divided in place.

    Only a dead column's weight can overflow. A finite weight times a dead
    column's exact-zero mass adds an exact zero, so Z from all the weights
    has the bits of Z from the live ones; where an overflowed weight makes
    it inf or NaN, Z is taken again with the dead columns set to zero in
    place, their weights kept aside in an n x k copy and put back. A
    row's largest live weight is exactly 1, so its largest live factor is
    exactly 1 / Z, and a Z whose reciprocal overflows raises as a
    non-positive or non-finite one does.
    """
    a, dead = _shifted_exponents(problem, marginal, beta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.exp(a, out=a)
        z = a @ marginal
        if not np.isfinite(z).all():
            kept = a[:, dead]
            a[:, dead] = 0.0
            z = a @ marginal
            a[:, dead] = kept
        if not np.all((z > 0) & np.isfinite(z) & np.isfinite(1.0 / z)):
            raise NumericalError("partition function underflowed or overflowed")
        a /= z[:, None]
    return a, dead, z


def _duality_gap(problem: RdProblem, beta: float, a: np.ndarray, dead: np.ndarray,
                 z: np.ndarray) -> float:
    """log max_j sum_x px(x) a(x, j), from the factors a and the partition
    function z that _boltzmann returns with the dead-column mask.

    A dead column whose factor overflowed sums to inf, or to NaN against a
    massless symbol; only such columns are summed again, in log space
    against the same support shift. Their exponents are made again, by the
    operations _shifted_exponents uses, in one n x k copy of d's lost
    columns, so every finite sum keeps its bits.
    """
    with np.errstate(invalid="ignore"):
        sums = problem.px @ a
    lost = dead & ~np.isfinite(sums)
    if not lost.any():
        return float(np.log(sums.max()))
    terms = problem.d[:, lost]
    terms -= _row_shift(problem, dead)
    terms *= -beta
    with np.errstate(divide="ignore"):
        terms += np.log(problem.px)[:, None]
    terms -= np.log(z)[:, None]
    top = terms.max(axis=0)
    terms -= top
    logs = top + np.log(np.exp(terms, out=terms).sum(axis=0))
    return float(max(np.log(sums[~lost].max()), logs.max()))


def _encoder_from_factors(marginal: np.ndarray, a: np.ndarray) -> np.ndarray:
    """marginal * a, written over the factors a and returned, with sub-normal
    entries flushed, and exact zeros in dead columns even where their factor
    has overflowed."""
    with np.errstate(invalid="ignore"):
        np.multiply(marginal[None, :], a, out=a)
    _flush(a)
    a[:, marginal <= 0] = 0.0
    return a


def ab_step(problem: RdProblem, marginal, beta: float) -> np.ndarray:
    """One alternating step: encoder from the marginal, then its new marginal.

    Maps the simplex to itself and preserves exact zeros coordinatewise. It
    flushes its result as the block loop flushes a row, and is the step a
    solve takes, with the same arithmetic, while every row's
    minimum-distortion representative is alive: it shifts each row over
    the support of the marginal it is given, and a solve keeps the weights
    of its start, so the two round differently once such a representative
    is flushed. It raises NumericalError where a mass near either end of
    the float range leaves the partition function or the result non-finite,
    or the result with no mass.
    """
    marginal = _checked_marginal(problem, marginal, beta)
    expw = _iteration_weights(problem, marginal, beta)
    buf = _BaBuffers(expw, marginal)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        new = _flush(_ba_map(expw, problem.px, buf)(marginal, 1))
    if not (np.isfinite(buf.z).all() and np.isfinite(new).all() and (new > 0).any()):
        raise NumericalError("BA step left the float range: non-finite or massless result")
    return new


def expected_distortion(problem: RdProblem, encoder) -> float:
    """Average distortion sum_{x,xhat} px(x) p(xhat|x) d(x,xhat), encoder shaped like d."""
    encoder = np.asarray(encoder, dtype=float)
    if encoder.shape != problem.d.shape:
        raise ValueError("encoder shape does not match the problem")
    return _distortion(problem.px, encoder * problem.d)


def _distortion(px: np.ndarray, products: np.ndarray) -> float:
    """px @ (row sums of products), products = encoder * d; the row sums
    follow products' layout, which decides their bits."""
    return float(px @ products.sum(axis=1))


def uniform_init(problem: RdProblem) -> np.ndarray:
    return np.full(problem.m, 1.0 / problem.m)


def _initial_marginal(problem: RdProblem, init) -> np.ndarray:
    """The start of a solve. Adding 0.0 turns a -0.0 mass into 0.0, as the
    flush after the first step did; the block loop only flushes positive
    sub-normals, and a -0.0 would stay -0.0 through every step."""
    p = uniform_init(problem) if init is None else as_distribution(init, name="init")
    if p.shape[0] != problem.m:
        raise ValueError("init length does not match the representation alphabet")
    return p + 0.0


def _run_blocks(step, start, buf, config: SolverConfig, k: int):
    """Run the alternating iteration from step k in blocks of steps, testing
    the stopping rule once per block, until some lane stops or the budget
    runs out.

    buf is the map's buffers: buf.rows is the block history, whose rows[0]
    the loop sets to start, and buf.lanes the number of lanes. step(p, b),
    as both maps step, takes one step from p, writes it to rows[b] and
    returns it, without flushing sub-normal masses; the first step reads
    start itself, and step b + 1 reads what step b returned. _block_length
    sets each block's length. _run_block takes a block's steps, then
    flushes the first row that holds a sub-normal mass and runs the rest of
    the block again from it, so every row is what a step that flushed its
    result would have written, and counts, marginals and report bytes are
    unchanged. Only then do one subtract, abs and reduce into the loop's
    diff and delta (rows of distances, one column per lane) give the
    block's distances; an l1 distance sums a lane's difference in C order.
    A lane stops at its first row below epsilon, or fails at its first
    non-finite row, which a vanishing partition function, a row that lost
    all mass or any other non-finite iterate makes NaN or inf; rows after
    that are never read, so a NaN there changes nothing. The first failing
    step is run again from its own start, so the map's buffers hold its
    state, and the loop raises buf.failure(lanes that failed there, its
    iteration).

    Returns (k, ends): k is the number of steps taken, and rows[0] holds
    each lane's latest iterate, which is its stopping one for a lane that
    stopped. ends maps each lane that stopped to its stopping iteration,
    and is empty when the budget ran out first.
    """
    rows, lanes = buf.rows, buf.lanes
    rows[0] = start
    reduce, epsilon = _NORMS[config.norm].reduce, config.epsilon
    diff, delta = np.empty(rows[1:].shape), np.empty((len(rows) - 1, lanes))
    while k < config.max_iterations:
        steps = _block_length(k, config.max_iterations)
        _run_block(step, start, rows, steps)
        d = np.subtract(rows[1:steps + 1], rows[:steps], out=diff[:steps])
        np.abs(d, out=d)
        dist = reduce(d.reshape(steps, lanes, -1), axis=-1, out=delta[:steps])
        if (np.minimum.reduce(dist, axis=None) >= epsilon
                and np.maximum.reduce(dist, axis=None) < np.inf):
            k += steps
            rows[0] = rows[steps]
            start = rows[0]
            continue
        # A NaN fails every comparison, so it stops a lane like an infinity.
        running = np.greater_equal(dist, epsilon) & np.less(dist, np.inf)
        stop = running.argmin(axis=0)
        at = np.flatnonzero(~running.all(axis=0))
        failed = at[~(dist[stop[at], at] < epsilon)]
        if failed.size:
            row = int(stop[failed].min())
            step(start if row == 0 else rows[row], row + 1)
            raise buf.failure(failed[stop[failed] == row], k + row + 1)
        if lanes == 1:
            rows[0] = rows[stop[0] + 1]
        else:
            rows[0] = rows[steps]
            for i in at:
                rows[0, i] = rows[stop[i] + 1, i]
        return k + steps, {int(i): k + int(stop[i]) + 1 for i in at}
    return k, {}


def _weight_stack(problem: RdProblem, betas, starts) -> np.ndarray:
    """Each lane's BA weights, computed one lane at a time in place in one
    (lanes, n, m) stack whose lanes each start on a cache line, so a lane
    needs no n x m temporary.

    Each lane has d's strides, which are those of the weights
    _iteration_weights computes from d: layout decides the products' bits.
    """
    stack = _aligned_rows(len(betas), problem.d.shape, problem.d.strides)
    for lane, p, beta in zip(stack, starts, betas):
        _iteration_weights(problem, p, beta, out=lane)
    return stack


def _iterate(expw: np.ndarray, px: np.ndarray, p: np.ndarray, config: SolverConfig):
    """Run the alternating iteration on a stack of independent lanes.

    expw is (lanes, n, m) and p is (lanes, m). Each lane stops on its own
    epsilon test (_run_blocks) and leaves in place: the lanes still running
    move forward in expw, and p keeps copies of their iterates, so later
    blocks run on the stack's prefix and the history of the earlier ones is
    freed. expw is the one weight array a chunk holds; the last lane runs on
    expw[0] and p[0], which is how a single solve runs from the start.
    Returns each lane's final marginal, iteration count and convergence
    flag; a budget that runs out ends every lane still running at
    max_iterations with converged False.
    """
    lanes = list(range(p.shape[0]))
    marginals, iterations, converged = ([None] * len(lanes) for _ in range(3))
    k = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while lanes:
            w, q = (expw, p) if len(lanes) > 1 else (expw[0], p[0])
            buf = _BaBuffers(w, q, _BLOCK)
            k, ends = _run_blocks(_ba_map(w, px, buf), q, buf, config, k)
            p = buf.rows[0].reshape(len(lanes), -1)
            leaving = ends or dict.fromkeys(range(len(lanes)), k)
            for i, end in leaving.items():
                marginals[lanes[i]] = p[i].copy()
                iterations[lanes[i]] = end
                converged[lanes[i]] = bool(ends)
            keep = [i for i in range(len(lanes)) if i not in leaving]
            lanes, p = [lanes[i] for i in keep], p[keep]
            # Slot i < j is free or already moved, so no lane is overwritten.
            for i, j in enumerate(keep):
                if i < j:
                    expw[i] = expw[j]
            expw = expw[:len(lanes)]
    return marginals, iterations, converged


def _solution(problem: RdProblem, beta, p: np.ndarray, iterations: int,
              converged: bool) -> RdSolution:
    """The solution at p, scored with one n x m array live: the gap is taken
    from the factors, the encoder is written over them and scores the rate,
    and the products encoder * d are written over the encoder to score the
    distortion."""
    a, dead, z = _boltzmann(problem, p, beta)
    gap = _duality_gap(problem, beta, a, dead, z)
    encoder = _encoder_from_factors(p, a)
    rate = weighted_divergence(problem.px, encoder, problem.px @ encoder)
    return RdSolution(
        beta=float(beta),
        marginal=_read_only(p),
        rate=rate,
        distortion=_distortion(problem.px, np.multiply(encoder, problem.d, out=encoder)),
        iterations=iterations,
        converged=converged,
        gap=gap,
        problem=problem,
    )


def solve(
    problem: RdProblem,
    beta: float,
    init=None,
    config: SolverConfig | None = None,
) -> RdSolution:
    """Iterate the alternating step from init until successive marginals are
    epsilon-close.

    Exhausting the iteration budget returns the marginal after
    max_iterations steps of the BA map on the start's weights, with
    converged=False, rather than raising; NaN/Inf contamination raises
    NumericalError. This is one lane of solve_batch.

    The initial marginal should be strictly positive wherever the solution
    is expected to live; zero coordinates are legitimate and stay exactly
    zero, which is what annealing warm starts rely on.
    """
    return solve_batch(problem, [beta], [init], config)[0]


def solve_batch(
    problem: RdProblem,
    betas,
    inits=None,
    config: SolverConfig | None = None,
) -> list[RdSolution]:
    """Independent solves of one problem at each beta, run as batched lanes.

    Lane i starts from inits[i] (uniform when inits is None) and gives the
    same solution, bit for bit, as solve(problem, betas[i], inits[i],
    config). The lanes advance together as one stacked iteration and each
    leaves the stack when it stops, so a grid pays the Python overhead of
    one iteration loop instead of one per point. Lanes run in chunks whose
    weight stack fits a fixed byte budget; lanes leave it in place, so it is
    the one weight array a chunk holds from start to finish. A
    NumericalError in any lane is raised from the batch.
    """
    if config is None:
        config = SolverConfig()
    betas = list(betas)
    if not betas:
        raise ValueError("betas must not be empty")
    for beta in betas:
        _check_beta(beta)
    if inits is None:
        inits = [None] * len(betas)
    else:
        inits = list(inits)
        if len(inits) != len(betas):
            raise ValueError("inits and betas must have the same length")
    starts = [_initial_marginal(problem, init) for init in inits]
    chunk = max(1, _LANE_CHUNK_BYTES // (8 * problem.n * problem.m))
    solutions = []
    for lo in range(0, len(betas), chunk):
        chunk_betas, chunk_starts = betas[lo:lo + chunk], starts[lo:lo + chunk]
        # The stack is passed on, not kept: it is freed when _iterate returns,
        # before the lanes are scored.
        lanes = _iterate(_weight_stack(problem, chunk_betas, chunk_starts), problem.px,
                         np.stack(chunk_starts), config)
        solutions += [
            _solution(problem, beta, *lane) for beta, lane in zip(chunk_betas, zip(*lanes))
        ]
    return solutions
