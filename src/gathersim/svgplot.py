"""Minimal hand-rolled SVG emitters for sweep curves and region maps.

Deliberately dependency-free: artifacts are simple line charts and shaded
grids, and files must be reproducible byte-for-byte.
"""

from __future__ import annotations

from typing import Optional, Sequence


def _fmt(v: float) -> str:
    return f"{v:.2f}"


TICKS = 5  # per axis
MARGIN = 55  # around the plot rectangle


class _Plot:
    """An SVG canvas whose plot rectangle, inset by MARGIN, spans the data
    ranges of `xs` and `ys`; a range of one value is widened by 1."""

    def __init__(self, width: int, height: int, xs: Sequence[float], ys: Sequence[float]):
        self.width = width
        self.height = height
        self.parts: list[str] = []
        self.x0, self.x1 = min(xs), max(xs)
        self.y0, self.y1 = min(ys), max(ys)
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0

    def px(self, x: float) -> float:
        return MARGIN + (x - self.x0) / (self.x1 - self.x0) * (self.width - 2 * MARGIN)

    def py(self, y: float) -> float:
        return self.height - MARGIN - (y - self.y0) / (self.y1 - self.y0) * (self.height - 2 * MARGIN)

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def circle(self, cx, cy, r, fill, stroke="none"):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}" stroke="{stroke}"/>'
        )

    def text(self, x, y, s, size=12, anchor="start", rotate: Optional[float] = None):
        extra = "" if rotate is None else f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"'
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}"{extra}>{s}</text>'
        )

    def axes(self, xlabel: str, ylabel: str, title: str) -> None:
        """Both axes with TICKS evenly spaced labelled ticks each, the axis labels and the title."""
        m, w, h = MARGIN, self.width, self.height
        self.line(m, h - m, w - m, h - m)
        self.line(m, m, m, h - m)
        step = (self.x1 - self.x0) / (TICKS - 1)
        for tx in (self.x0 + i * step for i in range(TICKS)):
            px = self.px(tx)
            self.line(px, h - m, px, h - m + 4)
            self.text(px, h - m + 16, f"{tx:.3g}", size=10, anchor="middle")
        step = (self.y1 - self.y0) / (TICKS - 1)
        for ty in (self.y0 + i * step for i in range(TICKS)):
            py = self.py(ty)
            self.line(m - 4, py, m, py)
            self.text(m - 6, py + 3, f"{ty:.3g}", size=10, anchor="end")
        self.text(w / 2, h - 12, xlabel, anchor="middle")
        self.text(16, h / 2, ylabel, anchor="middle", rotate=-90.0)
        self.text(w / 2, 20, title, size=14, anchor="middle")

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


def line_chart(series: Sequence[tuple[str, str, Sequence[tuple[float, float]]]],
               xlabel: str, ylabel: str, title: str) -> str:
    """Render labelled (name, color, points) polylines with shared axes on a
    640 x 480 canvas."""
    xs = [p[0] for _, _, pts in series for p in pts]
    ys = [p[1] for _, _, pts in series for p in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    plot = _Plot(640, 480, xs, ys)
    plot.axes(xlabel, ylabel, title)
    for idx, (name, color, pts) in enumerate(series):
        if len(pts) >= 2:
            coords = " ".join(f"{_fmt(plot.px(x))},{_fmt(plot.py(y))}" for x, y in pts)
            plot.parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            plot.circle(plot.px(x), plot.py(y), 2.5, fill=color)
        plot.text(plot.width - 150, 30 + 16 * idx, name, size=11)
        plot.line(plot.width - 170, 26 + 16 * idx, plot.width - 155, 26 + 16 * idx, stroke=color, width=3)
    return plot.render()


def region_map(points, title: str) -> str:
    """Shade theory-advantageous cells; draw empirical verdicts as dots, on a
    560 x 520 canvas with x and y axes.

    Filled dot: empirically advantageous; open dot: not; gray dot: boundary
    cell (mean within two standard errors of zero).
    """
    xs = sorted({p.x for p in points})
    ys = sorted({p.y for p in points})
    plot = _Plot(560, 520, xs, ys)
    dx = (xs[1] - xs[0]) if len(xs) > 1 else 1.0
    dy = (ys[1] - ys[0]) if len(ys) > 1 else 1.0
    for p in points:
        if p.theory_advantage:
            x0, x1 = plot.px(p.x - dx / 2), plot.px(p.x + dx / 2)
            y0, y1 = plot.py(p.y + dy / 2), plot.py(p.y - dy / 2)
            plot.parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                              f'height="{_fmt(y1 - y0)}" fill="#7fb3d5" stroke="none" fill-opacity="0.6"/>')
    plot.axes("delay ratio x", "cost ratio y", title)
    for p in points:
        if p.empirical_mean is None:
            continue
        cx, cy = plot.px(p.x), plot.py(p.y)
        if p.boundary:
            plot.circle(cx, cy, 3, fill="#aaaaaa")
        elif p.empirical_advantage:
            plot.circle(cx, cy, 3, fill="#1a5276")
        else:
            plot.circle(cx, cy, 3, fill="white", stroke="#1a5276")
    return plot.render()
