"""Minimal SVG emission for decomposition and ratio plots.

Hand-rolled rather than pulling in a plotting stack: the outputs must be
byte-identical across runs, diffable in tests, and free of timestamps or
library version strings. Coordinates are formatted with fixed precision.
"""
from __future__ import annotations

import numpy as np

PANEL_WIDTH = 720
PANEL_HEIGHT = 150
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 34
PANEL_GAP = 26
FONT = "font-family=\"sans-serif\""

_AXIS = "#888888"
_TEXT = "#333333"
_LINE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _value_span(values: np.ndarray) -> tuple[float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi == lo:
        pad = 1.0 if hi == 0.0 else abs(hi) * 0.05
    else:
        pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _panel(name: str, values: np.ndarray, x_left: str, x_right: str, top: float, color: str) -> list:
    n = len(values)
    lo, hi = _value_span(values)
    plot_w = PANEL_WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    bottom = top + PANEL_HEIGHT

    def sx(i: int) -> float:
        return MARGIN_LEFT + (plot_w * i / max(n - 1, 1))

    def sy(v: float) -> float:
        return bottom - PANEL_HEIGHT * (v - lo) / (hi - lo)

    parts = [
        f'<text x="{MARGIN_LEFT}" y="{_fmt(top - 6)}" {FONT} font-size="12" fill="{_TEXT}">{_esc(name)}</text>',
        f'<rect x="{MARGIN_LEFT}" y="{_fmt(top)}" width="{plot_w}" height="{PANEL_HEIGHT}" fill="none" stroke="{_AXIS}" stroke-width="1"/>',
        f'<text x="{MARGIN_LEFT - 6}" y="{_fmt(sy(hi) + 12)}" {FONT} font-size="10" fill="{_TEXT}" text-anchor="end">{_fmt(hi)}</text>',
        f'<text x="{MARGIN_LEFT - 6}" y="{_fmt(sy(lo))}" {FONT} font-size="10" fill="{_TEXT}" text-anchor="end">{_fmt(lo)}</text>',
        f'<text x="{MARGIN_LEFT}" y="{_fmt(bottom + 14)}" {FONT} font-size="10" fill="{_TEXT}">{_esc(x_left)}</text>',
        f'<text x="{PANEL_WIDTH - MARGIN_RIGHT}" y="{_fmt(bottom + 14)}" {FONT} font-size="10" fill="{_TEXT}" text-anchor="end">{_esc(x_right)}</text>',
    ]
    points = " ".join(f"{_fmt(sx(i))},{_fmt(sy(float(v)))}" for i, v in enumerate(values))
    if n == 1:
        parts.append(
            f'<circle cx="{_fmt(sx(0))}" cy="{_fmt(sy(float(values[0])))}" r="2.5" fill="{color}"/>'
        )
    else:
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    return parts


def line_panels(title: str, panels: list, x_left: str, x_right: str) -> str:
    """Stacked line panels sharing an x axis: panels is [(name, values), ...]."""
    if not panels:
        raise ValueError("need at least one panel")
    height = MARGIN_TOP + len(panels) * (PANEL_HEIGHT + PANEL_GAP) + 6
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_WIDTH}" height="{height}" viewBox="0 0 {PANEL_WIDTH} {height}">',
        f'<rect width="{PANEL_WIDTH}" height="{height}" fill="#ffffff"/>',
        f'<text x="{MARGIN_LEFT}" y="18" {FONT} font-size="14" fill="{_TEXT}">{_esc(title)}</text>',
    ]
    top = float(MARGIN_TOP)
    for i, (name, values) in enumerate(panels):
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError(f"panel {name!r} has no values")
        body.extend(_panel(name, arr, x_left, x_right, top, _LINE_COLORS[i % len(_LINE_COLORS)]))
        top += PANEL_HEIGHT + PANEL_GAP
    body.append("</svg>")
    return "\n".join(body) + "\n"


def quartiles(values) -> tuple[float, float, float] | None:
    """The 25th, 50th and 75th percentiles of values; None when there are none."""
    if len(values) == 0:
        return None
    q1, q2, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return float(q1), float(q2), float(q3)


def box_plot(title: str, groups: list, clip: float | None = None) -> str:
    """Box-and-whisker chart: groups is [(label, values), ...].

    Whiskers reach the most extreme points within 1.5 IQR of the box;
    points beyond are drawn as circles. With clip set, values above it are
    drawn at the clip line (the data itself is not modified).
    """
    if not groups:
        raise ValueError("need at least one group")
    width = 180 + 120 * len(groups)
    height = 300
    plot_top, plot_bottom = 40.0, 250.0

    drawn = []
    for label, values in groups:
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError(f"group {label!r} has no values")
        if clip is not None:
            arr = np.minimum(arr, clip)
        drawn.append((label, arr))

    lo = min(float(np.min(arr)) for _, arr in drawn)
    hi = max(float(np.max(arr)) for _, arr in drawn)
    if hi == lo:
        hi, lo = hi + 0.5, lo - 0.5
    pad = (hi - lo) * 0.05
    lo, hi = lo - pad, hi + pad

    def sy(v: float) -> float:
        return plot_bottom - (plot_bottom - plot_top) * (v - lo) / (hi - lo)

    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="20" y="22" {FONT} font-size="14" fill="{_TEXT}">{_esc(title)}</text>',
        f'<line x1="60" y1="{_fmt(plot_top)}" x2="60" y2="{_fmt(plot_bottom)}" stroke="{_AXIS}"/>',
        f'<text x="54" y="{_fmt(sy(hi) + 10)}" {FONT} font-size="10" fill="{_TEXT}" text-anchor="end">{_fmt(hi)}</text>',
        f'<text x="54" y="{_fmt(sy(lo))}" {FONT} font-size="10" fill="{_TEXT}" text-anchor="end">{_fmt(lo)}</text>',
    ]
    if clip is not None and lo <= clip <= hi:
        body.append(
            f'<line x1="60" y1="{_fmt(sy(clip))}" x2="{width - 20}" y2="{_fmt(sy(clip))}" '
            f'stroke="{_AXIS}" stroke-dasharray="4,3"/>'
        )

    for gi, (label, arr) in enumerate(drawn):
        cx = 120 + 120 * gi
        q1, q2, q3 = quartiles(arr)
        iqr = q3 - q1
        lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
        w_lo = float(np.min(inside)) if inside.size else q1
        w_hi = float(np.max(inside)) if inside.size else q3
        half = 32
        body.extend(
            [
                f'<line x1="{cx}" y1="{_fmt(sy(w_hi))}" x2="{cx}" y2="{_fmt(sy(q3))}" stroke="{_TEXT}"/>',
                f'<line x1="{cx}" y1="{_fmt(sy(q1))}" x2="{cx}" y2="{_fmt(sy(w_lo))}" stroke="{_TEXT}"/>',
                f'<line x1="{cx - 16}" y1="{_fmt(sy(w_hi))}" x2="{cx + 16}" y2="{_fmt(sy(w_hi))}" stroke="{_TEXT}"/>',
                f'<line x1="{cx - 16}" y1="{_fmt(sy(w_lo))}" x2="{cx + 16}" y2="{_fmt(sy(w_lo))}" stroke="{_TEXT}"/>',
                f'<rect x="{cx - half}" y="{_fmt(sy(q3))}" width="{2 * half}" height="{_fmt(max(sy(q1) - sy(q3), 0.5))}" '
                f'fill="#dce9f5" stroke="{_TEXT}"/>',
                f'<line x1="{cx - half}" y1="{_fmt(sy(q2))}" x2="{cx + half}" y2="{_fmt(sy(q2))}" '
                f'stroke="{_TEXT}" stroke-width="2"/>',
                f'<text x="{cx}" y="{_fmt(plot_bottom + 20)}" {FONT} font-size="11" fill="{_TEXT}" '
                f'text-anchor="middle">{_esc(label)}</text>',
            ]
        )
        for v in arr[(arr < lo_fence) | (arr > hi_fence)]:
            body.append(f'<circle cx="{cx}" cy="{_fmt(sy(float(v)))}" r="2" fill="{_TEXT}"/>')
    body.append("</svg>")
    return "\n".join(body) + "\n"
