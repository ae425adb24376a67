"""Minimal self-contained SVG line plots (axes, polylines, min/max bands).

No external renderer: the file is assembled from a handful of SVG
primitives with deterministic number formatting, so identical data
produces identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50


@dataclass(frozen=True)
class Series:
    """One plotted estimator: mean line plus min/max band."""

    label: str
    xs: Sequence[float]
    mean: Sequence[float]
    lo: Sequence[float]
    hi: Sequence[float]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _bounds(series: Sequence[Series]) -> tuple[float, float, float, float]:
    xs = [x for s in series for x in s.xs]
    ys = [y for s in series for y in s.mean]
    ys += [y for s in series for y in s.lo]
    ys += [y for s in series for y in s.hi]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    return x_lo, x_hi, y_lo - pad, y_hi + pad


def write_line_plot(
    path,
    series: Sequence[Series],
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Write mean lines with min/max bands for each series of one or
    more points."""
    x_lo, x_hi, y_lo, y_hi = _bounds(series)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    parts.append(
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>'
    )
    # axes
    x0, y0 = px(x_lo), py(y_lo)
    x1, y1 = px(x_hi), py(y_hi)
    parts.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" y2="{y0:.1f}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x0:.1f}" y2="{y1:.1f}" stroke="black"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(
            f'<line x1="{tx:.1f}" y1="{y0:.1f}" x2="{tx:.1f}" y2="{y0 + 5:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{tx:.1f}" y="{y0 + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(
            f'<line x1="{x0 - 5:.1f}" y1="{ty:.1f}" x2="{x0:.1f}" y2="{ty:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.1f}" y="{ty + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    cy = (py(y_lo) + py(y_hi)) / 2
    parts.append(
        f'<text x="16" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {cy:.1f})">{y_label}</text>'
    )
    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        order = sorted(range(len(s.xs)), key=lambda i: s.xs[i])
        if len(s.xs) == 1:
            i = order[0]
            parts.append(
                f'<circle cx="{px(s.xs[i]):.1f}" cy="{py(s.mean[i]):.1f}" r="3" fill="{color}"/>'
            )
        else:
            band = [f"{px(s.xs[i]):.1f},{py(s.hi[i]):.1f}" for i in order]
            band += [f"{px(s.xs[i]):.1f},{py(s.lo[i]):.1f}" for i in reversed(order)]
            parts.append(
                f'<polygon points="{" ".join(band)}" fill="{color}" '
                f'fill-opacity="0.15" stroke="none"/>'
            )
            pts = " ".join(f"{px(s.xs[i]):.1f},{py(s.mean[i]):.1f}" for i in order)
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = MARGIN_T + 14 + 16 * k
        parts.append(
            f'<line x1="{WIDTH - 170}" y1="{ly - 4}" x2="{WIDTH - 150}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{WIDTH - 144}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{s.label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
