"""Flat-file reporting for sweeps: CSV, JSON and SVG panels.

The CSV column order is fixed and the float formatting is deterministic, so
identical runs produce byte-identical files.
"""

import json
import math
from pathlib import Path

from .rd import json_fields
from .svgplot import Chart
from .sweeps import RateStudyPoint, SweepRecord

REPORT_FORMATS = ("csv", "json", "svg")
# The serialized fields of each row type in order, the marginal left out.
CSV_HEADER = ",".join(k for k in json_fields(SweepRecord) if k != "marginal")
RATE_STUDY_CSV_HEADER = ",".join(json_fields(RateStudyPoint))


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


def _write_text(text, path) -> Path:
    path = Path(path)
    path.write_text(text)
    return path


def _write_csv(rows, header, path) -> Path:
    keys = header.split(",")
    lines = [header] + [_csv_row(row, keys) for row in rows]
    return _write_text("\n".join(lines) + "\n", path)


def write_sweep_csv(records, path) -> Path:
    return _write_csv(records, CSV_HEADER, path)


def write_rate_study_csv(points, path) -> Path:
    return _write_csv(points, RATE_STUDY_CSV_HEADER, path)


def _write_json(payload, path) -> Path:
    return _write_text(json.dumps(payload, indent=1) + "\n", path)


def write_sweep_json(records, path) -> Path:
    return _write_json([r.to_json_dict() for r in records], path)


def write_transitions_json(report, path) -> Path:
    return _write_json(report.to_json_dict(), path)


def _beta_panel(title, ylabel, transitions, records, rows, label="", log_y=False) -> str:
    """A panel over log beta with a dashed marker inside each transition
    bracket and one line per column of rows, one row per record; the j-th
    line is labelled label.format(j)."""
    chart = Chart(title=title, xlabel="beta", ylabel=ylabel, log_x=True, log_y=log_y)
    for lo, hi in transitions.intervals:
        chart.add_vline(0.5 * (lo + hi))
    betas = [r.beta for r in records]
    for j, column in enumerate(zip(*rows)):
        chart.add_line(betas, column, label=label.format(j))
    return chart.render()


def _rate_panel(records) -> str:
    chart = Chart(
        title="measured vs predicted convergence rate",
        xlabel="predicted iterations per -log eps",
        ylabel="measured iterations per -log eps",
    )
    rated = [r for r in records
             if r.converged and math.isfinite(r.predicted_rate) and r.predicted_rate > 0]
    chart.add_scatter([r.predicted_rate for r in rated], [r.measured_rate for r in rated])
    chart.add_identity_diagonal()
    return chart.render()


def _decoder_rows(records) -> list:
    """p(y=0 | representative) per representative of each record: None
    where the representative is dead, which leaves a gap in its line."""
    return [
        [None if r.solution is None or q <= 1e-12 else float(r.solution.decoder[j][0])
         for j, q in enumerate(r.marginal)]
        for r in records
    ]


def emit_reports(records, transitions, out_dir, formats=REPORT_FORMATS) -> list[Path]:
    """Write the requested report files and return the manifest of paths.

    formats is any subset of REPORT_FORMATS; an empty selection writes
    nothing. SVG output renders the marginal and iteration panels, then
    the eigenvalue panel and the measured-vs-predicted scatter, or for
    bottleneck sweeps the decoder branches. Each panel is written as soon
    as it is rendered, so one panel's text is held at a time.
    """
    if not records:
        raise ValueError("no records to report")
    formats = tuple(formats)
    unknown = set(formats) - set(REPORT_FORMATS)
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
        manifest.append(write_transitions_json(transitions, out_dir / "transitions.json"))
    if "svg" in formats:
        def panel(svg, name):
            manifest.append(_write_text(svg, out_dir / name))

        panel(_beta_panel("reproduction marginal vs beta", "mass", transitions, records,
                          [r.marginal for r in records], "q[{}]"), "marginal_vs_beta.svg")
        panel(_beta_panel("iterations to convergence vs beta", "iterations", transitions,
                          records, [[max(r.iterations, 1)] for r in records], log_y=True),
              "iterations_vs_beta.svg")
        if is_ib:
            panel(_beta_panel("decoder p(y=0 | representative) vs beta", "p(y=0 | xhat)",
                              transitions, records, _decoder_rows(records), "xhat {}"),
                  "decoder_vs_beta.svg")
        else:
            spectral = [r for r in records if r.converged and r.eigenvalues is not None]
            panel(_beta_panel("eigenvalues of the fixed-point Jacobian vs beta",
                              "eigenvalue", transitions, spectral,
                              [r.eigenvalues for r in spectral], "lambda[{}]"),
                  "eigenvalues_vs_beta.svg")
            panel(_rate_panel(records), "rate_prediction.svg")
    return manifest
