"""Minimal deterministic SVG line charts.

Plots are pure views over already-written CSV data: the renderer takes the
same series that went into the CSV and emits a fixed-size polyline chart
with axis ticks. Hand-rolled so that byte content depends only on the data,
never on a plotting library's version or embedded metadata.
"""

from __future__ import annotations

import math
from typing import Sequence

WIDTH, HEIGHT = 720, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 30, 45
PALETTE = ("#1f6fb2", "#b2451f", "#3a8f3a", "#7a4fb2")

Series = tuple[str, Sequence[float], Sequence[float]]  # label, xs, ys


def _ticks(lo: float, hi: float) -> list[float]:
    """About six ticks, 1, 2 or 5 times 10**e apart, each rounded at the step's
    decimal place and kept if it lies on [lo, hi] and differs from the last."""
    if hi <= lo:
        return [lo]
    raw = max((hi - lo) / 6, math.ulp(0.0))
    e = max(math.floor(math.log10(raw)), -323)  # 10.0 ** -324 underflows to 0
    mag = 10.0 ** e
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    out: list[float] = []
    t = math.ceil(lo / step) * step
    while t - hi <= 1e-12 * step:  # t - hi: hi + 1e-12 * step may overflow to inf
        tick = round(t, max(0, 1 - e)) + 0.0  # + 0.0: a -0.0 tick would read "-0"
        if lo <= tick <= hi and (not out or tick != out[-1]):
            out.append(tick)
        t = max(t + step, math.nextafter(t, math.inf))  # a step below half an ulp of t
    return out


def _span(lo: float, hi: float) -> float:
    """Axis top: hi, or for one value lo, one unit above it (one ulp if a unit rounds away)."""
    return hi if hi != lo else max(lo + 1.0, math.nextafter(lo, math.inf))


def _tick_labels(ticks: list[float]) -> list[str]:
    """Each tick as :g, or with the fewest significant digits from 7 to 17
    that give the distinct ticks distinct labels (17 always does)."""
    for spec in ("g", *(f".{digits}g" for digits in range(7, 18))):
        labels = [format(tick, spec) for tick in ticks]
        if len(set(labels)) == len(ticks):
            break
    return labels


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x, y, size: int, text: str, anchor: str = "", extra: str = "") -> str:
    """One <text> element with its text escaped. The attributes come in a fixed order: x, y,
    the text-anchor if any, the font's family and size, then extra (the y label's transform)."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}"{extra}>'
            f"{_esc(text)}</text>")


def line_chart(series: Sequence[Series], title: str, x_label: str, y_label: str) -> str:
    """One or more line series on shared axes, as an SVG document string: the title, both
    axes' tick labels, a legend entry per series and both axis labels, each written by _text."""
    if not series or any(len(xs) != len(ys) or not xs for _, xs, ys in series):
        raise ValueError("every series needs equal-length, non-empty x and y")
    x_lo = min(min(xs) for _, xs, _ in series)
    x_hi = _span(x_lo, max(max(xs) for _, xs, _ in series))
    y_lo = min(0.0, min(min(ys) for _, _, ys in series))
    y_hi = _span(y_lo, max(max(ys) for _, _, ys in series))
    if not math.isfinite(x_hi - x_lo) or not math.isfinite(y_hi - y_lo):
        raise ValueError("an axis span exceeds the float range")

    def sx(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(v: float) -> float:
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    axis = "#444444"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(WIDTH // 2, 18, 14, title, "middle"),
    ]
    x_ticks = _ticks(x_lo, x_hi)
    for tick, label in zip(x_ticks, _tick_labels(x_ticks)):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="{axis}"/>'
        )
        parts.append(_text(f"{px:.2f}", HEIGHT - MARGIN_B + 18, 11, label, "middle"))
    y_ticks = _ticks(y_lo, y_hi)
    for tick, label in zip(y_ticks, _tick_labels(y_ticks)):
        py = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" y2="{py:.2f}" '
            f'stroke="{axis}"/>'
        )
        parts.append(_text(MARGIN_L - 8, f"{py + 4:.2f}", 11, label, "end"))
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="{axis}"/>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_T + 16 + 16 * i
        lx = WIDTH - MARGIN_R - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(_text(lx + 28, ly, 11, label))
    parts.append(_text(WIDTH // 2, HEIGHT - 8, 12, x_label, "middle"))
    parts.append(_text(14, HEIGHT // 2, 12, y_label, "middle",
                       f' transform="rotate(-90 14 {HEIGHT // 2})"'))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
