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


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (TICKS - 1)
    return [lo + i * step for i in range(TICKS)]


class SvgCanvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def rect(self, x, y, w, h, fill="none", opacity=1.0):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}" stroke="none" fill-opacity="{opacity}"/>'
        )

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def circle(self, cx, cy, r, fill="black", stroke="none"):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}" stroke="{stroke}"/>'
        )

    def polyline(self, pts, stroke="black"):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'
        )

    def text(self, x, y, s, size=12, anchor="start", rotate: Optional[float] = None):
        extra = ""
        if rotate is not None:
            extra = f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"'
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}"{extra}>{s}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


class _Frame:
    """Maps data coordinates onto a plot rectangle with margins."""

    def __init__(self, canvas: SvgCanvas, x_range, y_range):
        self.canvas = canvas
        self.m = MARGIN
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0

    def px(self, x: float) -> float:
        w = self.canvas.width - 2 * self.m
        return self.m + (x - self.x0) / (self.x1 - self.x0) * w

    def py(self, y: float) -> float:
        h = self.canvas.height - 2 * self.m
        return self.canvas.height - self.m - (y - self.y0) / (self.y1 - self.y0) * h

    def axes(self, xlabel: str, ylabel: str, title: str) -> None:
        c = self.canvas
        c.line(self.m, c.height - self.m, c.width - self.m, c.height - self.m)
        c.line(self.m, self.m, self.m, c.height - self.m)
        for tx in _ticks(self.x0, self.x1):
            px = self.px(tx)
            c.line(px, c.height - self.m, px, c.height - self.m + 4)
            c.text(px, c.height - self.m + 16, f"{tx:.3g}", size=10, anchor="middle")
        for ty in _ticks(self.y0, self.y1):
            py = self.py(ty)
            c.line(self.m - 4, py, self.m, py)
            c.text(self.m - 6, py + 3, f"{ty:.3g}", size=10, anchor="end")
        c.text(c.width / 2, c.height - 12, xlabel, anchor="middle")
        c.text(16, c.height / 2, ylabel, anchor="middle", rotate=-90.0)
        c.text(c.width / 2, 20, title, size=14, anchor="middle")


def line_chart(
    series: Sequence[tuple[str, str, Sequence[tuple[float, float]]]],
    xlabel: str,
    ylabel: str,
    title: str,
) -> str:
    """Render labelled (name, color, points) polylines with shared axes on a
    640 x 480 canvas."""
    xs = [p[0] for _, _, pts in series for p in pts]
    ys = [p[1] for _, _, pts in series for p in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    canvas = SvgCanvas(640, 480)
    frame = _Frame(canvas, (min(xs), max(xs)), (min(ys), max(ys)))
    frame.axes(xlabel, ylabel, title)
    for idx, (name, color, pts) in enumerate(series):
        if len(pts) >= 2:
            canvas.polyline([(frame.px(x), frame.py(y)) for x, y in pts], stroke=color)
        for x, y in pts:
            canvas.circle(frame.px(x), frame.py(y), 2.5, fill=color)
        canvas.text(canvas.width - 150, 30 + 16 * idx, name, size=11)
        canvas.line(canvas.width - 170, 26 + 16 * idx, canvas.width - 155, 26 + 16 * idx,
                    stroke=color, width=3)
    return canvas.render()


def region_map(points, title: str) -> str:
    """Shade theory-advantageous cells; draw empirical verdicts as dots, on a
    560 x 520 canvas with x and y axes.

    Filled dot: empirically advantageous; open dot: not; gray dot: boundary
    cell (mean within two standard errors of zero).
    """
    xs = sorted({p.x for p in points})
    ys = sorted({p.y for p in points})
    canvas = SvgCanvas(560, 520)
    frame = _Frame(canvas, (min(xs), max(xs)), (min(ys), max(ys)))
    dx = (xs[1] - xs[0]) if len(xs) > 1 else 1.0
    dy = (ys[1] - ys[0]) if len(ys) > 1 else 1.0
    for p in points:
        if p.theory_advantage:
            x0 = frame.px(p.x - dx / 2)
            x1 = frame.px(p.x + dx / 2)
            y0 = frame.py(p.y + dy / 2)
            y1 = frame.py(p.y - dy / 2)
            canvas.rect(x0, y0, x1 - x0, y1 - y0, fill="#7fb3d5", opacity=0.6)
    frame.axes("delay ratio x", "cost ratio y", title)
    for p in points:
        if p.empirical_mean is None:
            continue
        cx, cy = frame.px(p.x), frame.py(p.y)
        if p.boundary:
            canvas.circle(cx, cy, 3, fill="#aaaaaa")
        elif p.empirical_advantage:
            canvas.circle(cx, cy, 3, fill="#1a5276")
        else:
            canvas.circle(cx, cy, 3, fill="white", stroke="#1a5276")
    return canvas.render()
