"""Small self-contained SVG line plots, no plotting dependency.

Writes standalone .svg files with axes, nice-number ticks, optional log
x scale, error bars, and a legend.  Enough for run summaries; anything
fancier should use a real plotting library on the emitted CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_WIDTH, _HEIGHT = 720, 480
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")


@dataclass
class Series:
    """One plotted curve: arrays x and y, drawn as a line or as points."""

    x: list
    y: list
    label: str = ""
    mode: str = "line"
    yerr: list | None = field(default=None)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")
        if self.mode not in ("line", "points"):
            raise ValueError("mode must be 'line' or 'points'")
        if self.yerr is not None and len(self.yerr) != len(self.y):
            raise ValueError("one error bar per sample")


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        mid = lo
        pad = max(abs(mid) * 0.5, 1.0)
        lo, hi = mid - pad, mid + pad
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag + 1e-15 * mag)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:g}"


def _escape(text: str) -> str:
    """Element text with &, < and > escaped and quotes kept, as
    html.escape(text, quote=False) gives, without importing html."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot(
    path,
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
) -> str:
    """Write an SVG line plot of the series and return the path."""
    if not series:
        raise ValueError("need at least one series")
    xs = [float(v) for s in series for v in s.x]
    ys = [float(v) for s in series for v in s.y]
    for s in series:
        if s.yerr is not None:
            ys += [float(v) + float(e) for v, e in zip(s.y, s.yerr)]
            ys += [float(v) - float(e) for v, e in zip(s.y, s.yerr)]
    if not xs:
        raise ValueError("series carry no samples")
    if logx:
        if min(xs) <= 0.0:
            raise ValueError("log x scale needs positive x values")
        xs = [math.log10(v) for v in xs]

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if logx:
        x_ticks = list(range(math.floor(x_lo), math.ceil(x_hi) + 1))
        x_lo, x_hi = min(x_lo, x_ticks[0]), max(x_hi, x_ticks[-1])
    else:
        x_ticks = _nice_ticks(x_lo, x_hi)
        x_lo = min(x_lo, x_ticks[0])
        x_hi = max(x_hi, x_ticks[-1])
    y_ticks = _nice_ticks(y_lo, y_hi)
    y_lo = min(y_lo, y_ticks[0])
    y_hi = max(y_hi, y_ticks[-1])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    ml, mr, mt, mb = 64, 18, 34, 48
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def px(x: float) -> float:
        value = math.log10(x) if logx else x
        return ml + (value - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return mt + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14" fill="#222">{_escape(title)}</text>'
        )

    for tick in x_ticks:
        x = ml + (tick - x_lo) / (x_hi - x_lo) * pw
        label = _fmt(10.0**tick) if logx else _fmt(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{mt}" x2="{x:.1f}" y2="{mt + ph}" stroke="#e0e0e0"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{mt + ph + 16}" text-anchor="middle" fill="#444">{label}</text>'
        )
    for tick in y_ticks:
        y = py(tick)
        parts.append(
            f'<line x1="{ml}" y1="{y:.1f}" x2="{ml + pw}" y2="{y:.1f}" stroke="#e0e0e0"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{y + 4:.1f}" text-anchor="end" fill="#444">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>'
    )
    if xlabel:
        parts.append(
            f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'fill="#222">{_escape(xlabel)}</text>'
        )
    if ylabel:
        yc = mt + ph / 2
        parts.append(
            f'<text x="16" y="{yc:.1f}" text-anchor="middle" fill="#222" '
            f'transform="rotate(-90 16 {yc:.1f})">{_escape(ylabel)}</text>'
        )

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [(px(float(x)), py(float(y))) for x, y in zip(s.x, s.y)]
        if s.mode == "line" and len(pts) > 1:
            joined = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{joined}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        if s.yerr is not None:
            for (x, _), y0, err in zip(pts, s.y, s.yerr):
                y_top = py(float(y0) + float(err))
                y_bot = py(float(y0) - float(err))
                parts.append(
                    f'<line x1="{x:.2f}" y1="{y_top:.2f}" x2="{x:.2f}" y2="{y_bot:.2f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
                for yy in (y_top, y_bot):
                    parts.append(
                        f'<line x1="{x - 3:.2f}" y1="{yy:.2f}" x2="{x + 3:.2f}" y2="{yy:.2f}" '
                        f'stroke="{color}" stroke-width="1"/>'
                    )
        if s.mode == "points":
            for x, y in pts:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')

    legend_items = [(i, s.label) for i, s in enumerate(series) if s.label]
    for row, (i, label) in enumerate(legend_items):
        color = _PALETTE[i % len(_PALETTE)]
        y = mt + 14 + 16 * row
        parts.append(
            f'<line x1="{ml + pw - 120}" y1="{y - 4}" x2="{ml + pw - 100}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + pw - 94}" y="{y}" fill="#222">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return str(path)
