"""Probability vectors, stochastic matrices and information measures.

All quantities are in nats. Distributions are plain numpy arrays; the
constructors below validate and, where sensible, repair them. The
conventions 0*log(0) = 0 and p*log(p/0) = +inf are used throughout.
"""

import warnings

import numpy as np

# Absolute tolerance for "sums to one" checks. Inputs further off than this
# are renormalized with a warning rather than rejected, since long iterate
# chains accumulate rounding.
SIMPLEX_ATOL = 1e-12

# Mass at or below which a coordinate counts as dead: the threshold reverse
# annealing pins to exact zero, and the default for support counts and the
# spectral kernel.
DEFAULT_ZERO_TOL = 1e-10

# Smallest normal double. Iteration maps flush masses below this to exact
# zero: a denormal mass can underflow to 0 in one derived quantity but not
# another, which would fabricate infinite divergences out of roundoff.
TINY_MASS = float(np.finfo(float).tiny)


class NumericalError(RuntimeError):
    """A solver produced NaN/Inf or an otherwise impossible numeric state."""


def as_masses(a, name: str, ndim: int) -> np.ndarray:
    """a as a float array of ndim (1 or 2) dimensions, rejected unless it has
    entries, all finite and non-negative. It neither copies nor renormalizes."""
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"{name} must be a non-empty {ndim}-d {('vector', 'matrix')[ndim - 1]}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(a < 0):
        raise ValueError(f"{name} has negative entries")
    return a


def as_distribution(p, name: str = "p") -> np.ndarray:
    """Validate a probability vector, renormalizing with a warning if needed."""
    p = as_masses(p, name, 1)
    total = p.sum()
    if total <= 0:
        raise ValueError(f"{name} is identically zero")
    if abs(total - 1.0) > SIMPLEX_ATOL:
        warnings.warn(f"{name} sums to {total!r}; renormalizing", stacklevel=2)
        p = p / total
    return p


def as_channel(rows, name: str = "channel") -> np.ndarray:
    """Validate a row-stochastic matrix (one conditional distribution per row)."""
    rows = as_masses(rows, name, 2)
    sums = rows.sum(axis=1)
    if np.any(sums <= 0):
        raise ValueError(f"{name} has an all-zero row")
    if np.max(np.abs(sums - 1.0)) > SIMPLEX_ATOL:
        warnings.warn(f"{name} rows sum to {sums!r}; renormalizing", stacklevel=2)
        rows = rows / sums[:, None]
    return rows


def kl_divergence(p, q) -> float:
    """Relative entropy sum p log(p/q) in nats: weighted_divergence of the
    one row p, so clipped at 0.

    Returns +inf when the support of p is not contained in the support of q.
    """
    p = as_masses(p, "p", 1)
    q = as_masses(q, "q", 1)
    if p.shape != q.shape:
        raise ValueError("p and q must have the same length")
    return float(weighted_divergence(np.ones(1), p[None, :], q))


def weighted_divergence(weights, rows, target) -> float:
    """sum_i weights[i] * KL(rows[i] || target) over the positive weights,
    clipped at 0: roundoff can leave a tiny negative residue where every
    row is the target.

    Each row's divergence is a sum masked to the row's support; the
    target's log and zero mask are taken once for all rows. It checks no
    entries: solves score their own arrays with it, and the public names,
    kl_divergence among them, check theirs.
    """
    with np.errstate(divide="ignore"):
        log_target = np.log(target)
    dead = target <= 0
    total = 0.0
    for i in range(weights.size):
        if weights[i] > 0:
            mask = rows[i] > 0
            if dead[mask].any():
                kl = float("inf")
            else:
                r = rows[i][mask]
                kl = float(np.sum(r * (np.log(r) - log_target[mask])))
            total += weights[i] * kl
    return max(total, 0.0)


def mutual_information(px, channel) -> float:
    """Mutual information between an input with law px and a channel output.

    channel[i] is the conditional output distribution given input i. Computed
    as the px-average of KL(channel row || output marginal); never negative.
    """
    px = as_masses(px, "px", 1)
    channel = as_masses(channel, "channel", 2)
    if channel.shape[0] != px.shape[0]:
        raise ValueError("channel must have one row per input symbol")
    return weighted_divergence(px, channel, px @ channel)
