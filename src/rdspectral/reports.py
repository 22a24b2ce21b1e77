"""Flat-file reporting for sweeps: CSV, JSON and SVG panels.

The CSV column order is fixed and the float formatting is deterministic, so
identical runs produce byte-identical files.
"""

import json
import math
from pathlib import Path

from .svgplot import Chart

# The keys of SweepRecord.to_json_dict in order, without the marginal.
CSV_HEADER = (
    "beta,iterations,converged,support_size,effective_cardinality,"
    "lambda0,lambda_max,predicted_rate,measured_rate,rate,distortion_or_info"
)
# The keys of RateStudyPoint.to_json_dict in order.
RATE_STUDY_CSV_HEADER = (
    "epsilon,iterations,converged,measured_rate,lambda0,lambda_max,predicted_rate"
)


def _csv_num(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _csv_row(row, keys) -> str:
    """One CSV line: the attributes of row named by keys, in order."""
    values = (getattr(row, key) for key in keys)
    return ",".join(
        ("true" if value else "false") if isinstance(value, bool) else _csv_num(value)
        for value in values
    )


def _write_csv(rows, header, path) -> Path:
    path = Path(path)
    keys = header.split(",")
    lines = [header] + [_csv_row(row, keys) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_sweep_csv(records, path) -> Path:
    return _write_csv(records, CSV_HEADER, path)


def write_rate_study_csv(points, path) -> Path:
    return _write_csv(points, RATE_STUDY_CSV_HEADER, path)


def _jsonable(obj):
    """Replace non-finite floats, which JSON cannot carry, by strings."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_sweep_json(records, path) -> Path:
    path = Path(path)
    payload = [_jsonable(r.to_json_dict()) for r in records]
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def write_transitions_json(report, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(_jsonable(report.to_json_dict()), indent=1) + "\n")
    return path


def _marginal_panel(records, transitions) -> str:
    chart = Chart(
        title="reproduction marginal vs beta",
        xlabel="beta",
        ylabel="mass",
        log_x=True,
    )
    m = len(records[0].marginal)
    betas = [r.beta for r in records]
    for j in range(m):
        chart.add_line(betas, [r.marginal[j] for r in records], label=f"q[{j}]")
    for lo, hi in transitions.intervals:
        chart.add_vline(0.5 * (lo + hi))
    return chart.render()


def _eigenvalue_panel(records, transitions) -> str:
    chart = Chart(
        title="eigenvalues of the fixed-point Jacobian vs beta",
        xlabel="beta",
        ylabel="eigenvalue",
        log_x=True,
    )
    betas = []
    spectra = []
    for r in records:
        if r.converged and r.eigenvalues is not None:
            betas.append(r.beta)
            spectra.append(r.eigenvalues)
    if spectra:
        m = len(spectra[0])
        for j in range(m):
            chart.add_line(betas, [s[j] for s in spectra], label=f"lambda[{j}]")
    for lo, hi in transitions.intervals:
        chart.add_vline(0.5 * (lo + hi))
    return chart.render()


def _iterations_panel(records, transitions) -> str:
    chart = Chart(
        title="iterations to convergence vs beta",
        xlabel="beta",
        ylabel="iterations",
        log_x=True,
        log_y=True,
    )
    chart.add_line(
        [r.beta for r in records], [max(r.iterations, 1) for r in records]
    )
    for lo, hi in transitions.intervals:
        chart.add_vline(0.5 * (lo + hi))
    return chart.render()


def _rate_panel(records) -> str:
    chart = Chart(
        title="measured vs predicted convergence rate",
        xlabel="predicted iterations per -log eps",
        ylabel="measured iterations per -log eps",
    )
    xs = []
    ys = []
    for r in records:
        if r.converged and math.isfinite(r.predicted_rate) and r.predicted_rate > 0:
            xs.append(r.predicted_rate)
            ys.append(r.measured_rate)
    chart.add_scatter(xs, ys)
    chart.add_identity_diagonal()
    return chart.render()


def _decoder_panel(records, transitions) -> str:
    chart = Chart(
        title="decoder p(y=0 | representative) vs beta",
        xlabel="beta",
        ylabel="p(y=0 | xhat)",
        log_x=True,
    )
    betas = [r.beta for r in records]
    m = len(records[0].marginal)
    for j in range(m):
        ys = []
        for r in records:
            sol = r.solution
            if sol is None or r.marginal[j] <= 1e-12:
                ys.append(None)
            else:
                ys.append(float(sol.decoder[j][0]))
        chart.add_line(betas, ys, label=f"xhat {j}")
    for lo, hi in transitions.intervals:
        chart.add_vline(0.5 * (lo + hi))
    return chart.render()


def emit_reports(records, transitions, out_dir, formats=("csv", "json", "svg")) -> list[Path]:
    """Write the requested report files and return the manifest of paths.

    formats is any subset of {"csv", "json", "svg"}; an empty selection
    writes nothing. SVG output renders the marginal, eigenvalue and
    iteration panels, the measured-vs-predicted scatter, and (for bottleneck
    sweeps) the decoder branches.
    """
    if not records:
        raise ValueError("no records to report")
    formats = tuple(formats)
    unknown = set(formats) - {"csv", "json", "svg"}
    if unknown:
        raise ValueError(f"unknown report formats: {sorted(unknown)}")
    out_dir = Path(out_dir)
    manifest: list[Path] = []
    if not formats:
        return manifest
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create report directory {out_dir}: {exc}") from exc

    is_ib = records[0].effective_cardinality is not None
    if "csv" in formats:
        manifest.append(write_sweep_csv(records, out_dir / "sweep.csv"))
    if "json" in formats:
        manifest.append(write_sweep_json(records, out_dir / "sweep.json"))
        manifest.append(
            write_transitions_json(transitions, out_dir / "transitions.json")
        )
    if "svg" in formats:
        panels = {
            "marginal_vs_beta.svg": _marginal_panel(records, transitions),
            "iterations_vs_beta.svg": _iterations_panel(records, transitions),
        }
        if is_ib:
            panels["decoder_vs_beta.svg"] = _decoder_panel(records, transitions)
        else:
            panels["eigenvalues_vs_beta.svg"] = _eigenvalue_panel(records, transitions)
            panels["rate_prediction.svg"] = _rate_panel(records)
        for name, svg in panels.items():
            path = out_dir / name
            path.write_text(svg)
            manifest.append(path)
    return manifest
