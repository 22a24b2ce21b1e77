"""In-memory spans around the package's public functions, and the per-layer
metrics derived from them.

The tracer replaces each traced function, at the module attribute the
package calls it through, with a wrapper that records the call's start, end
and parent span. Nothing inside the package changes. Spans stay in memory
until the run ends. A span's self time is its duration minus the time its
child spans cover.
"""

import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass

# (owner inside the package, attribute, span name). The span name's prefix
# is the layer the time is charged to.
TRACED = (
    ("rd", "solve", "rd.solve"),
    ("rd.RdProblem", "__post_init__", "rd.problem_init"),
    ("ib", "ib_solve", "ib.ib_solve"),
    ("ib", "effective_cardinality", "ib.effective_cardinality"),
    ("ib", "tangent_rd", "ib.tangent_rd"),
    ("sweeps", "jacobian", "spectral.jacobian"),
    ("sweeps", "eigen_spectrum", "spectral.eigen_spectrum"),
    ("sweeps", "sweep", "sweeps.sweep"),
    ("sweeps", "detect_transitions", "sweeps.detect_transitions"),
    ("reports", "emit_reports", "reports.emit_reports"),
)
SOLVES = ("rd.solve", "ib.ib_solve")

# name -> (unit, better) for every per-layer metric a traced run reports.
LAYER_METRICS = {
    "rd.solve.calls": ("count", "lower"),
    "rd.solve.self_s": ("s", "lower"),
    "rd.iterations": ("count", "lower"),
    "rd.us_per_iter": ("us", "lower"),
    "rd.unconverged": ("count", "lower"),
    "rd.flops_per_iter": ("flop", "lower"),
    "rd.gflops": ("GFLOP/s", "higher"),
    "rd.problem_init_s": ("s", "lower"),
    "ib.ib_solve.calls": ("count", "lower"),
    "ib.ib_solve.self_s": ("s", "lower"),
    "ib.iterations": ("count", "lower"),
    "ib.us_per_iter": ("us", "lower"),
    "ib.unconverged": ("count", "lower"),
    "ib.effective_cardinality.self_s": ("s", "lower"),
    "ib.tangent_rd.calls": ("count", "lower"),
    "ib.tangent_rd.self_s": ("s", "lower"),
    "spectral.jacobian.calls": ("count", "lower"),
    "spectral.jacobian.self_s": ("s", "lower"),
    "spectral.eigen_spectrum.calls": ("count", "lower"),
    "spectral.eigen_spectrum.self_s": ("s", "lower"),
    "spectral.us_per_record": ("us", "lower"),
    "sweeps.sweep.self_s": ("s", "lower"),
    "sweeps.points": ("count", "higher"),
    "sweeps.converged_ratio": ("ratio", "higher"),
    "sweeps.detect_transitions.self_s": ("s", "lower"),
    "sweeps.point_ms.p50": ("ms", "lower"),
    "sweeps.point_ms.p90": ("ms", "lower"),
    "reports.emit_reports.self_s": ("s", "lower"),
    "reports.bytes": ("bytes", "lower"),
    "reports.files": ("count", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    iterations: int = 0
    converged: bool = True
    flops: int = 0


class Tracer:
    """Wraps the traced functions while installed and keeps every span."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved = []

    def install(self):
        for owner_path, attr, name in TRACED:
            owner = self.package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, stack[-1] if stack else -1, time.perf_counter())
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name in SOLVES:
                span.iterations = result.iterations
                span.converged = result.converged
            if name == "rd.solve":
                # Computed, not counted: one iteration is two n-by-m
                # matrix-vector products, 4*n*m flops.
                problem = args[0]
                span.flops = 4 * problem.n * problem.m * result.iterations
            return result

        return wrapper

    def write(self, path):
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def self_times(spans: list[Span], first: int) -> list[float]:
    """Self time of spans[first:], whose parents all lie in that slice."""
    own = [s.end - s.start for s in spans[first:]]
    for s in spans[first:]:
        if s.parent >= first:
            own[s.parent - first] -= s.end - s.start
    return own


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_metrics(spans: list[Span], first: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose spans are spans[first:]."""
    own = self_times(spans, first)
    window = spans[first:]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(window, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t

    def solves(name):
        return [s for s in window if s.name == name]

    rd_solves, ib_solves = solves("rd.solve"), solves("ib.ib_solve")
    rd_iters = sum(s.iterations for s in rd_solves)
    ib_iters = sum(s.iterations for s in ib_solves)
    rd_flops = sum(s.flops for s in rd_solves)
    rd_self = self_s.get("rd.solve", 0.0)
    ib_self = self_s.get("ib.ib_solve", 0.0)

    # A point runs from the start of its solve to the start of the next
    # solve of the same sweep, or to the end of the sweep for the last one.
    point_ms = []
    converged = 0
    for k, s in enumerate(window):
        if s.name != "sweeps.sweep":
            continue
        points = [p for p in window if p.name in SOLVES and p.parent == first + k]
        converged += sum(p.converged for p in points)
        bounds = [p.start for p in points] + [s.end]
        point_ms += [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
    points = len(point_ms)
    spectral_s = self_s.get("spectral.jacobian", 0.0) + self_s.get(
        "spectral.eigen_spectrum", 0.0
    )
    records = calls.get("spectral.jacobian", 0)
    top_level = sum(s.end - s.start for s in window if s.parent < first)
    return {
        "rd.solve.calls": len(rd_solves),
        "rd.solve.self_s": rd_self,
        "rd.iterations": rd_iters,
        "rd.us_per_iter": 1e6 * rd_self / rd_iters if rd_iters else 0.0,
        "rd.unconverged": sum(not s.converged for s in rd_solves),
        "rd.flops_per_iter": rd_flops / rd_iters if rd_iters else 0.0,
        "rd.gflops": 1e-9 * rd_flops / rd_self if rd_self else 0.0,
        "ib.ib_solve.calls": len(ib_solves),
        "ib.ib_solve.self_s": ib_self,
        "ib.iterations": ib_iters,
        "ib.us_per_iter": 1e6 * ib_self / ib_iters if ib_iters else 0.0,
        "ib.unconverged": sum(not s.converged for s in ib_solves),
        "ib.effective_cardinality.self_s": self_s.get("ib.effective_cardinality", 0.0),
        "ib.tangent_rd.calls": calls.get("ib.tangent_rd", 0),
        "ib.tangent_rd.self_s": self_s.get("ib.tangent_rd", 0.0),
        "spectral.jacobian.calls": records,
        "spectral.jacobian.self_s": self_s.get("spectral.jacobian", 0.0),
        "spectral.eigen_spectrum.calls": calls.get("spectral.eigen_spectrum", 0),
        "spectral.eigen_spectrum.self_s": self_s.get("spectral.eigen_spectrum", 0.0),
        "spectral.us_per_record": 1e6 * spectral_s / records if records else 0.0,
        "sweeps.sweep.self_s": self_s.get("sweeps.sweep", 0.0),
        "sweeps.points": points,
        "sweeps.converged_ratio": converged / points if points else 0.0,
        "sweeps.detect_transitions.self_s": self_s.get("sweeps.detect_transitions", 0.0),
        "sweeps.point_ms.p50": _percentile(point_ms, 50),
        "sweeps.point_ms.p90": _percentile(point_ms, 90),
        "reports.emit_reports.self_s": self_s.get("reports.emit_reports", 0.0),
        "bench.self_s": wall_s - top_level,
        "trace.wall_s": wall_s,
    }


def setup_init_s(spans: list[Span], first: int) -> float:
    """Time spent validating rate-distortion problems in spans[first:]."""
    return sum(s.end - s.start for s in spans[first:] if s.name == "rd.problem_init")
