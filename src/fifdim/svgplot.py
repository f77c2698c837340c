"""Minimal SVG chart generation (no plotting dependency).

Fixed 1000x700 canvas with axes, tick labels and a legend; used for the
interpolant graph and the log-log box-count fit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["polyline_chart", "scatter_chart", "loglog_chart"]

WIDTH, HEIGHT = 1000, 700
MARGIN = 70
PLOT_W = WIDTH - 2 * MARGIN
PLOT_H = HEIGHT - 2 * MARGIN


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Canvas:
    def __init__(self, xlim, ylim, title=""):
        self.xlim = xlim
        self.ylim = ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        if title:
            self.parts.append(
                f'<text x="{WIDTH / 2}" y="30" text-anchor="middle" '
                f'font-size="18" font-family="sans-serif">{title}</text>'
            )
        self._legend_y = MARGIN + 10

    def tx(self, x):
        a, b = self.xlim
        return MARGIN + (x - a) / (b - a) * PLOT_W

    def ty(self, y):
        a, b = self.ylim
        return HEIGHT - MARGIN - (y - a) / (b - a) * PLOT_H

    def axes(self, xlabel="", ylabel=""):
        p = self.parts
        p.append(
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{PLOT_W}" height="{PLOT_H}" '
            'fill="none" stroke="black"/>'
        )
        for i in range(6):
            xv = self.xlim[0] + i * (self.xlim[1] - self.xlim[0]) / 5
            yv = self.ylim[0] + i * (self.ylim[1] - self.ylim[0]) / 5
            px, py = self.tx(xv), self.ty(yv)
            p.append(
                f'<line x1="{px:.1f}" y1="{HEIGHT - MARGIN}" x2="{px:.1f}" '
                f'y2="{HEIGHT - MARGIN + 6}" stroke="black"/>'
            )
            p.append(
                f'<text x="{px:.1f}" y="{HEIGHT - MARGIN + 22}" '
                f'text-anchor="middle" font-size="12" '
                f'font-family="sans-serif">{_fmt(xv)}</text>'
            )
            p.append(
                f'<line x1="{MARGIN - 6}" y1="{py:.1f}" x2="{MARGIN}" '
                f'y2="{py:.1f}" stroke="black"/>'
            )
            p.append(
                f'<text x="{MARGIN - 10}" y="{py + 4:.1f}" text-anchor="end" '
                f'font-size="12" font-family="sans-serif">{_fmt(yv)}</text>'
            )
        if xlabel:
            p.append(
                f'<text x="{WIDTH / 2}" y="{HEIGHT - 15}" text-anchor="middle" '
                f'font-size="14" font-family="sans-serif">{xlabel}</text>'
            )
        if ylabel:
            p.append(
                f'<text x="20" y="{HEIGHT / 2}" text-anchor="middle" '
                f'font-size="14" font-family="sans-serif" '
                f'transform="rotate(-90 20 {HEIGHT / 2})">{ylabel}</text>'
            )

    def polyline(self, xs, ys, color="steelblue", width=1.2):
        pts = " ".join(map("{:.2f},{:.2f}".format, self.tx(xs).tolist(),
                           self.ty(ys).tolist()))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>'
        )

    def line(self, x0, y0, x1, y1, color="black", dash=None, width=1.2):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{self.tx(x0):.2f}" y1="{self.ty(y0):.2f}" '
            f'x2="{self.tx(x1):.2f}" y2="{self.ty(y1):.2f}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>'
        )

    def dots(self, xs, ys, colors=None, radius=2.0, color="crimson"):
        circle = f'<circle cx="{{:.2f}}" cy="{{:.2f}}" r="{radius}" fill="{{}}"/>'
        self.parts += map(circle.format, self.tx(xs).tolist(),
                          self.ty(ys).tolist(), colors or [color] * len(xs))

    def legend(self, label, color, dash=None):
        y = self._legend_y
        self._legend_y += 20
        x = WIDTH - MARGIN - 180
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x}" y1="{y}" x2="{x + 30}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"{d}/>'
        )
        self.parts.append(
            f'<text x="{x + 38}" y="{y + 4}" font-size="13" '
            f'font-family="sans-serif">{label}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def _pad(lo, hi):
    span = hi - lo if hi > lo else 1.0
    return lo - 0.05 * span, hi + 0.05 * span


def polyline_chart(xs, ys, title="interpolant graph") -> str:
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    cv = _Canvas(_pad(xs.min(), xs.max()), _pad(ys.min(), ys.max()), title)
    cv.axes("x", "f*(x)")
    cv.polyline(xs, ys)
    cv.legend("f*", "steelblue")
    return cv.render()


def _heat_colors(t) -> list[str]:
    """Blue-to-red rgb() colours of the values t, clipped to [0, 1]."""
    t = np.clip(np.asarray(t, float), 0.0, 1.0)
    rgb = [255 * t, 80 * (1 - np.abs(2 * t - 1)), 255 * (1 - t)]
    return list(map("rgb({},{},{})".format, *np.array(rgb, int).tolist()))


def scatter_chart(pts, vals, title="interpolant on the gasket") -> str:
    pts = np.asarray(pts, float)
    vals = np.asarray(vals, float)
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo if hi > lo else 1.0
    colors = _heat_colors((vals - lo) / span)
    cv = _Canvas(
        _pad(pts[:, 0].min(), pts[:, 0].max()),
        _pad(pts[:, 1].min(), pts[:, 1].max()),
        title,
    )
    cv.axes("x", "y")
    cv.dots(pts[:, 0], pts[:, 1], colors=colors, radius=1.6)
    low, high = _heat_colors([0.0, 1.0])
    cv.legend(f"low = {_fmt(lo)}", low)
    cv.legend(f"high = {_fmt(hi)}", high)
    return cv.render()


def loglog_chart(entries, slope, best_lower=None, best_upper=None) -> str:
    """Box counts on log-log axes with the fitted slope and bound lines."""
    xs = np.array([math.log(1.0 / d) for _, d, _ in entries])
    ys = np.array([math.log(c) for _, _, c in entries])
    cv = _Canvas(
        _pad(xs.min(), xs.max()), _pad(ys.min(), ys.max()),
        "box-count scaling",
    )
    cv.axes("log(1/delta)", "log N_delta")
    coeff = np.polyfit(xs, ys, 1)
    x0, x1 = xs.min(), xs.max()
    cv.line(x0, coeff[0] * x0 + coeff[1], x1, coeff[0] * x1 + coeff[1],
            color="steelblue")
    cv.dots(xs, ys, radius=3.5)
    cv.legend(f"fit slope = {slope:.4f}", "steelblue")
    anchor = ys[0]
    if best_lower is not None:
        cv.line(x0, anchor, x1, anchor + best_lower * (x1 - x0),
                color="seagreen", dash="6 4")
        cv.legend(f"lower bound slope = {best_lower:.4f}", "seagreen", "6 4")
    if best_upper is not None:
        cv.line(x0, anchor, x1, anchor + best_upper * (x1 - x0),
                color="darkorange", dash="6 4")
        cv.legend(f"upper bound slope = {best_upper:.4f}", "darkorange", "6 4")
    return cv.render()
