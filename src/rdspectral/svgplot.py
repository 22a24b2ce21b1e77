"""Small dependency-free SVG chart writer: render draws one panel.

It supports line and scatter series on linear or log axes, dashed vertical
markers, and basic tick labeling. Output is deterministic for identical
input, which the reporting layer relies on.
"""

import math

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)
_WIDTH, _HEIGHT = 640, 420
_MARGIN = (54, 16, 34, 46)  # left, right, top, bottom
# The axis range of a panel with no plottable point, indexed by log scale.
_EMPTY_SPAN = ((0.0, 1.0), (1.0, 10.0))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _fraction(v: float, lo: float, hi: float, log_scale: bool) -> float:
    """Where v lies along an axis from lo (0) to hi (1), linear or log."""
    if log_scale:
        v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
    return (v - lo) / (hi - lo)


def _text(x, y, anchor, size, body, attrs="") -> str:
    """A sans-serif <text> element; attrs holds any further attributes, each
    led by a space."""
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{attrs}>{body}</text>')


def _line(x1, y1, x2, y2, stroke, dash=None) -> str:
    """A <line> element, dashed at unit width when dash is given."""
    style = f' stroke-width="1" stroke-dasharray="{dash}"' if dash else ""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{style}/>'


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    a = abs(v)
    if a >= 1e4 or a < 1e-3:
        return f"{v:.0e}"
    if a >= 100:
        return f"{v:.0f}"
    return f"{v:.3g}"


def _plottable(x, y, log_x, log_y) -> bool:
    """A finite point, positive along each log axis."""
    if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
        return False
    return not (log_x and x <= 0 or log_y and y <= 0)


def _limits(series, log_x, log_y, diagonal):
    """The axis ranges (x0, x1, y0, y1) that hold every plottable point."""
    pts = [(x, y) for _, xs, ys, _ in series for x, y in zip(xs, ys)
           if _plottable(x, y, log_x, log_y)]
    if not pts:
        return (*_EMPTY_SPAN[log_x], *_EMPTY_SPAN[log_y])
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if diagonal:
        lo, hi = min(x0, y0), max(x1, y1)
        x0 = y0 = lo
        x1 = y1 = hi
    if x0 == x1:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5
    if not log_y and not diagonal:
        pad = 0.05 * (y1 - y0)
        y0, y1 = y0 - pad, y1 + pad
    return x0, x1, y0, y1


def _ticks(lo, hi, log_scale, count=5):
    if log_scale:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        step = max(1, (hi_e - lo_e) // count)
        return [10.0 ** e for e in range(lo_e, hi_e + 1, step)]
    span = hi - lo
    raw = span / count
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12 * abs(step):
        ticks.append(v)
        v += step
    return ticks


def render(title, xlabel, ylabel, series, vlines=(), log_x=False, log_y=False,
           diagonal=False) -> str:
    """One x-y panel as SVG text.

    series holds (kind, xs, ys, label) tuples, kind "line" or "scatter",
    and each label is a legend entry. A line joins its plottable points,
    skipping the rest, and draws fewer than two as circles.
    vlines are the x of dashed markers; diagonal draws y = x over a square
    range.
    """
    left, right, top, bottom = _MARGIN
    x0, x1, y0, y1 = _limits(series, log_x, log_y, diagonal)
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom
    axis_y = top + plot_h

    def tx(x):
        return left + _fraction(x, x0, x1, log_x) * plot_w

    def ty(y):
        return top + (1 - _fraction(y, y0, y1, log_y)) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        _text(f"{_WIDTH / 2:.1f}", top - 5, "middle", 13, title),
    ]
    for v in _ticks(x0, x1, log_x):
        if x0 <= v <= x1:
            px = _fmt(tx(v))
            out.append(_line(px, f"{axis_y:.1f}", px, f"{axis_y + 4:.1f}", "#333"))
            out.append(_text(px, f"{axis_y + 16:.1f}", "middle", 10, _tick_label(v)))
    for v in _ticks(y0, y1, log_y):
        if y0 <= v <= y1:
            py = ty(v)
            out.append(_line(left - 4, _fmt(py), left, _fmt(py), "#333"))
            out.append(_text(left - 7, f"{py + 3.5:.1f}", "end", 10, _tick_label(v)))
    out.append(_text(f"{left + plot_w / 2:.1f}", _HEIGHT - 6, "middle", 12, xlabel))
    cy = f"{top + plot_h / 2:.1f}"
    out.append(_text(14, cy, "middle", 12, ylabel, f' transform="rotate(-90 14 {cy})"'))
    for x in vlines:  # a log axis starts above 0, so x <= 0 is left out
        if x0 <= x <= x1:
            px = _fmt(tx(x))
            out.append(_line(px, top, px, f"{axis_y:.1f}", "#555", dash="5,4"))
    if diagonal:
        out.append(_line(_fmt(tx(x0)), _fmt(ty(y0)), _fmt(tx(x1)), _fmt(ty(y1)),
                         "#999", dash="3,3"))

    legend_y = top + 14
    for idx, (kind, xs, ys, label) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        # _limits spans every plottable point, so each of them is drawn.
        pts = [(_fmt(tx(x)), _fmt(ty(y))) for x, y in zip(xs, ys)
               if _plottable(x, y, log_x, log_y)]
        if kind == "line" and len(pts) >= 2:
            path = " ".join(f"{px},{py}" for px, py in pts)
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        else:
            out.extend(f'<circle cx="{px}" cy="{py}" r="2.2" fill="{color}"/>'
                       for px, py in pts)
        if label:
            out.append(_text(left + plot_w - 6, f"{legend_y:.1f}", "end", 10, label,
                             f' fill="{color}"'))
            legend_y += 13
    out.append("</svg>")
    return "\n".join(out) + "\n"
