"""Builtin example problems and problem-file loading.

The planar four-point instance has two support paths. Its optimal curve
(uniform-start solves) has support {1} -> {1,3} -> {0,1,3} -> {0,1} ->
{0,1,2} -> all four, with transitions near beta 0.445, 2.62, 2.83, 4.9 and
17.2. A reverse-annealed sweep can only shrink the support, so below beta
2.83 it follows a metastable branch on which the support grows
1 -> 2 -> 3 -> 4 near beta 1.07, 4.9 and 17.2. Each transition slows the
iteration markedly. The four-symbol binary-relevance bottleneck instance
likewise passes through three effective-cardinality transitions (near beta
4.2, 19 and 25).
"""

import json
from pathlib import Path

import numpy as np

from .ib import IbProblem
from .rd import RdProblem

# Source weights and planar coordinates of the four-point instance. The
# representatives sit on the source points; squared distances are normalized
# by the largest one, so distortion entries live in [0, 1] with max exactly 1.
_PLANAR_PX = (0.4, 0.3, 0.2, 0.1)
_PLANAR_POINTS = (
    (2.5620, 0.1521),
    (1.0160, 0.9540),
    (0.3382, 1.8798),
    (2.3924, 0.9412),
)

# Binary-relevance bottleneck instance: heavily skewed source, y|x sliding
# uniformly from 0.2 to 0.8.
_BOTTLENECK_PX = (0.7, 0.1, 0.1, 0.1)
_BOTTLENECK_PY0 = (0.2, 0.4, 0.6, 0.8)


def planar_four_point() -> RdProblem:
    """Four planar source points with squared-Euclidean distortion."""
    pts = np.asarray(_PLANAR_POINTS, dtype=float)
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    return RdProblem(px=np.asarray(_PLANAR_PX), d=sq / sq.max())


def binary_hamming(p: float = 0.5) -> RdProblem:
    """Binary source with Hamming distortion; closed-form curve available."""
    if not 0 < p < 1:
        raise ValueError("source bias must lie in (0, 1)")
    return RdProblem(px=np.array([p, 1.0 - p]),
                     d=np.array([[0.0, 1.0], [1.0, 0.0]]))


def bottleneck_four_symbol() -> IbProblem:
    """Four-symbol source with a binary relevance variable."""
    px = np.asarray(_BOTTLENECK_PX, dtype=float)
    py0 = np.asarray(_BOTTLENECK_PY0, dtype=float)
    pygx = np.stack([py0, 1.0 - py0], axis=1)
    return IbProblem(pxy=px[:, None] * pygx)


BUILTIN_PROBLEMS = {
    "fig1_like": planar_four_point,
    "fig2": bottleneck_four_symbol,
    "binary_hamming": binary_hamming,
    "binary_hamming_skewed": lambda: binary_hamming(0.8),
}


def builtin_problem(name: str):
    """Look up a builtin problem by name; raises with the list on miss."""
    try:
        factory = BUILTIN_PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; choose from {sorted(BUILTIN_PROBLEMS)}"
        ) from None
    return factory()


def load_problem(path):
    """Read a problem from a JSON file, dispatching on its fields.

    Rate-distortion files carry {"px": [...], "d": [[...]]}; bottleneck
    files carry {"pxy": [[...]]} or {"px": [...], "py_given_x": [[...]]},
    with an optional representation size "m".
    """
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "d" in obj:
        return RdProblem.from_json_dict(obj)
    if "pxy" in obj or "py_given_x" in obj:
        return IbProblem.from_json_dict(obj)
    raise ValueError(f"{path}: neither a rate-distortion nor a bottleneck problem")


def dump_problem(problem, path) -> None:
    Path(path).write_text(json.dumps(problem.to_json_dict()) + "\n")
