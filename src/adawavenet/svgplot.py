"""Minimal hand-rolled SVG line charts for reports and showcases."""
from __future__ import annotations

import numpy as np

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
WIDTH, HEIGHT = 720, 280


def line_chart(series: dict[str, np.ndarray], title: str = "",
               shade: tuple[int, int] | None = None) -> str:
    """Render named 1-D series as an SVG document string.

    ``shade`` marks an index interval (e.g. a masked region) with a grey band.
    """
    margin = 40
    pw, ph = WIDTH - 2 * margin, HEIGHT - 2 * margin
    all_vals = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0
    n = max(len(v) for v in series.values())

    def sx(i):
        return margin + pw * i / max(n - 1, 1)

    def sy(v):
        return margin + ph * (1.0 - (v - lo) / (hi - lo))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    if shade is not None:
        x0, x1 = sx(shade[0]), sx(shade[1])
        parts.append(f'<rect x="{x0:.1f}" y="{margin}" width="{x1 - x0:.1f}" '
                     f'height="{ph}" fill="#cccccc" fill-opacity="0.4"/>')
    parts.append(f'<rect x="{margin}" y="{margin}" width="{pw}" height="{ph}" '
                 'fill="none" stroke="#333" stroke-width="1"/>')
    if title:
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')
    for idx, (name, vals) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{sx(i):.1f},{sy(float(v)):.1f}" for i, v in enumerate(vals))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{margin + 6}" y="{margin + 16 + 16 * idx}" '
                     f'font-family="sans-serif" font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def save_chart(path: str, series: dict[str, np.ndarray], **kwargs):
    with open(path, "w") as fh:
        fh.write(line_chart(series, **kwargs))
