"""Small dependency-free SVG chart writer.

Supports line and scatter series on linear or log axes, dashed vertical
markers, and basic tick labeling. Output is deterministic for identical
input, which the reporting layer relies on.
"""

import math

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    a = abs(v)
    if a >= 1e4 or a < 1e-3:
        return f"{v:.0e}"
    if a >= 100:
        return f"{v:.0f}"
    return f"{v:.3g}"


class Chart:
    """A single x-y panel accumulating series and markers before rendering."""

    width, height = 640, 420

    def __init__(self, title="", xlabel="", ylabel="", log_x=False, log_y=False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.log_x = log_x
        self.log_y = log_y
        self.series = []
        self.vlines = []
        self.diagonal = False
        self.margin = (54, 16, 34, 46)  # left, right, top, bottom

    def add_line(self, xs, ys, label=""):
        self.series.append(("line", list(xs), list(ys), label))

    def add_scatter(self, xs, ys, label=""):
        self.series.append(("scatter", list(xs), list(ys), label))

    def add_vline(self, x):
        self.vlines.append(x)

    def add_identity_diagonal(self):
        self.diagonal = True

    def _plottable(self, x, y) -> bool:
        """A finite point, positive along each log axis."""
        if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
            return False
        return not (self.log_x and x <= 0 or self.log_y and y <= 0)

    def _limits(self):
        pts = [(x, y) for _, xs, ys, _ in self.series for x, y in zip(xs, ys)
               if self._plottable(x, y)]
        if not pts:
            return (0.0, 1.0, 0.0, 1.0)
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if self.diagonal:
            lo, hi = min(x0, y0), max(x1, y1)
            x0 = y0 = lo
            x1 = y1 = hi
        if x0 == x1:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y0 == y1:
            y0, y1 = y0 - 0.5, y1 + 0.5
        if not self.log_y and not self.diagonal:
            pad = 0.05 * (y1 - y0)
            y0, y1 = y0 - pad, y1 + pad
        return x0, x1, y0, y1

    def _ticks(self, lo, hi, log_scale, count=5):
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

    def render(self) -> str:
        left, right, top, bottom = self.margin
        x0, x1, y0, y1 = self._limits()
        plot_w = self.width - left - right
        plot_h = self.height - top - bottom

        def tx(x):
            if self.log_x:
                f = (math.log10(x) - math.log10(x0)) / (math.log10(x1) - math.log10(x0))
            else:
                f = (x - x0) / (x1 - x0)
            return left + f * plot_w

        def ty(y):
            if self.log_y:
                f = (math.log10(y) - math.log10(y0)) / (math.log10(y1) - math.log10(y0))
            else:
                f = (y - y0) / (y1 - y0)
            return top + (1 - f) * plot_h

        def visible(x, y):
            return self._plottable(x, y) and x0 <= x <= x1 and y0 <= y <= y1

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">',
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>',
            f'<rect x="{left}" y="{top}" width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
            'fill="none" stroke="#333" stroke-width="1"/>',
        ]
        if self.title:
            out.append(
                f'<text x="{self.width / 2:.1f}" y="{top - 5}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="13">{self.title}</text>'
            )
        for v in self._ticks(x0, x1, self.log_x):
            if not (x0 <= v <= x1):
                continue
            px = tx(v)
            out.append(
                f'<line x1="{_fmt(px)}" y1="{top + plot_h:.1f}" x2="{_fmt(px)}" '
                f'y2="{top + plot_h + 4:.1f}" stroke="#333"/>'
            )
            out.append(
                f'<text x="{_fmt(px)}" y="{top + plot_h + 16:.1f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{_tick_label(v)}</text>'
            )
        for v in self._ticks(y0, y1, self.log_y):
            if not (y0 <= v <= y1):
                continue
            py = ty(v)
            out.append(
                f'<line x1="{left - 4}" y1="{_fmt(py)}" x2="{left}" y2="{_fmt(py)}" '
                'stroke="#333"/>'
            )
            out.append(
                f'<text x="{left - 7}" y="{py + 3.5:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{_tick_label(v)}</text>'
            )
        if self.xlabel:
            out.append(
                f'<text x="{left + plot_w / 2:.1f}" y="{self.height - 6}" '
                'text-anchor="middle" font-family="sans-serif" font-size="12">'
                f"{self.xlabel}</text>"
            )
        if self.ylabel:
            cx, cy = 14, top + plot_h / 2
            out.append(
                f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12" '
                f'transform="rotate(-90 {cx} {cy:.1f})">{self.ylabel}</text>'
            )
        for x in self.vlines:
            if not (x0 <= x <= x1) or (self.log_x and x <= 0):
                continue
            px = tx(x)
            out.append(
                f'<line x1="{_fmt(px)}" y1="{top}" x2="{_fmt(px)}" '
                f'y2="{top + plot_h:.1f}" stroke="#555" stroke-width="1" '
                'stroke-dasharray="5,4"/>'
            )
        if self.diagonal:
            out.append(
                f'<line x1="{_fmt(tx(x0))}" y1="{_fmt(ty(y0))}" x2="{_fmt(tx(x1))}" '
                f'y2="{_fmt(ty(y1))}" stroke="#999" stroke-width="1" '
                'stroke-dasharray="3,3"/>'
            )

        legend_y = top + 14
        for idx, (kind, xs, ys, label) in enumerate(self.series):
            color = _PALETTE[idx % len(_PALETTE)]
            pts = [(tx(x), ty(y)) for x, y in zip(xs, ys) if visible(x, y)]
            if kind == "line" and len(pts) >= 2:
                path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
                out.append(
                    f'<polyline points="{path}" fill="none" stroke="{color}" '
                    'stroke-width="1.5"/>'
                )
            else:
                for px, py in pts:
                    out.append(
                        f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.2" '
                        f'fill="{color}"/>'
                    )
            if label:
                lx = left + plot_w - 6
                out.append(
                    f'<text x="{lx}" y="{legend_y:.1f}" text-anchor="end" '
                    f'font-family="sans-serif" font-size="10" fill="{color}">'
                    f"{label}</text>"
                )
                legend_y += 13
        out.append("</svg>")
        return "\n".join(out) + "\n"
