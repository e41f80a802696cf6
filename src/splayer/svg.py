"""Minimal hand-rolled SVG line plots (no plotting dependency)."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["polyline_plot"]

_WIDTH = 760
_HEIGHT = 480
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 50
_TICKS = 5
_HALF_MAX = math.nextafter(math.inf, 0.0) / 2  # the largest half whose double is finite


def _ticks(lo: float, hi: float) -> list[float]:
    if hi == lo:
        return [lo]
    # k / (_TICKS - 1) is exact, so this rounds as (hi - lo) * k / (_TICKS - 1)
    # and cannot overflow where hi - lo does not
    return [lo + (hi - lo) * (k / (_TICKS - 1)) for k in range(_TICKS)]


def _span(values: Sequence[float]) -> tuple[float, float]:
    # halved axis limits: halving is exact, so the plot is the same, and the span of
    # two finite halves cannot overflow; a flat series gets a span of at least 4 ulps
    lo, hi = min(values) / 2, max(values) / 2
    if hi == lo:
        pad = max(0.25, abs(lo) * 2.0**-50)
        lo, hi = max(lo - pad, -_HALF_MAX), min(hi + pad, _HALF_MAX)
    return lo, hi


def _fmt(value: float) -> str:
    if value == 0.0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.2e}"
    return f"{value:.4g}"


def polyline_plot(
    xs: Sequence[float],
    ys: Sequence[float],
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "y",
    markers: bool = False,
) -> str:
    """Render one series as an SVG document with linear axes."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("plot needs two sequences of equal length >= 2")
    if not all(math.isfinite(v) for v in list(xs) + list(ys)):
        raise ValueError("plot data must be finite")
    x_lo, x_hi = _span(xs)
    y_lo, y_hi = _span(ys)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(half: float) -> float:
        return _MARGIN_LEFT + (half - x_lo) / (x_hi - x_lo) * plot_w

    def py(half: float) -> float:
        return _MARGIN_TOP + (y_hi - half) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    axis_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(2 * tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{_MARGIN_LEFT}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN_LEFT - 9}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(2 * tick)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.1f})">{ylabel}</text>'
    )
    coords = " ".join(f"{px(x / 2):.2f},{py(y / 2):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f5fae" stroke-width="1.5"/>')
    if markers:
        for x, y in zip(xs, ys):
            cx, cy = px(x / 2), py(y / 2)
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="#1f5fae"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
