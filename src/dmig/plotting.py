"""Self-contained SVG scatter plots of metric pairs across epochs.

Renders one point per (epoch, attribute) for a chosen pair of metrics,
one color per attribute, with an optional dotted reference line at y=1
when DMIG is on the vertical axis. Past the eighth attribute the colors
repeat, and each further turn of the palette draws another marker shape.
Output is deterministic text: the same series and spec produce
byte-identical SVG. No rendering libraries are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SpecValidationError
from .metrics import MetricReport

__all__ = ["PlotSpec", "METRICS", "render_series_scatter"]

METRICS = ("mig", "dmig", "scc")

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#17becf",
)

# Marker outlines, as unit-radius polygons, of the palette's second,
# third and fourth turns; the first turn draws circles, with square
# legend swatches. From the 33rd attribute on, the markers repeat.
_SHAPES = (
    ((0.0, -1.0), (0.866, 0.5), (-0.866, 0.5)),
    ((0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)),
    ((0.0, 1.0), (0.866, -0.5), (-0.866, -0.5)),
)

_W, _H = 640, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 160, 40, 50


@dataclass(frozen=True)
class PlotSpec:
    """What to plot: metric on each axis, optional finite ranges."""

    x_metric: str
    y_metric: str
    x_range: tuple[float, float] | None = None
    y_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for m in (self.x_metric, self.y_metric):
            if m not in METRICS:
                raise SpecValidationError(
                    f"unknown metric {m!r}; choose from {', '.join(METRICS)}"
                )
        if self.x_metric == self.y_metric:
            raise SpecValidationError("x_metric and y_metric must differ")
        for rng, label in ((self.x_range, "x_range"), (self.y_range, "y_range")):
            if rng is None:
                continue
            if not all(math.isfinite(v) for v in rng):
                raise SpecValidationError(f"{label} must be finite, got {rng}")
            if not rng[0] < rng[1]:
                raise SpecValidationError(f"{label} must satisfy lo < hi")


def _auto_range(vals: list[float]) -> tuple[float, float]:
    if not vals:
        return (0.0, 1.0)
    lo, hi = min(vals), max(vals)
    if lo == hi:
        return (lo - 0.5, hi + 0.5)
    pad = 0.05 * (hi - lo)
    return (lo - pad, hi + pad)


def _axis(label: str, lo: float, hi: float, start: float, length: float):
    """The width of lo:hi and the map from a value to its pixel, length < 0 upwards."""
    width = hi - lo
    if not 0.0 < width < math.inf:  # 0 where a lone value's +-0.5 is absorbed
        raise SpecValidationError(f"the {label} axis range {lo!r}:{hi!r} has width {width!r}")
    return width, lambda v: start + (v - lo) / width * length


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _line(x1, y1, x2, y2, stroke: str = "black", extra: str = "") -> str:
    """An SVG line between two points given as formatted coordinates."""
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="1"{extra}/>')


def _text(x, y, size: int, body: str, anchor: str = "", extra: str = "") -> str:
    """An SVG label at a point given as formatted coordinates."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}" font-size="{size}"{anchor} '
            f'font-family="sans-serif"{extra}>{body}</text>')


def _polygon(shape, cx: float, cy: float, r: float, paint: str) -> str:
    points = " ".join(f"{_fmt(cx + r * u)},{_fmt(cy + r * v)}" for u, v in shape)
    return f'<polygon points="{points}" {paint}/>'


def _style(i: int) -> tuple[str, int]:
    """The colour of the i-th attribute, and which turn of the palette it is in."""
    return PALETTE[i % len(PALETTE)], i // len(PALETTE) % (len(_SHAPES) + 1)


def _marker(i: int, x: float, y: float) -> str:
    """The plot marker of the i-th attribute, centred on (x, y)."""
    color, turn = _style(i)
    paint = f'fill="{color}" fill-opacity="0.8"'
    if turn == 0:
        return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" {paint}/>'
    return _polygon(_SHAPES[turn - 1], x, y, 5.0, paint)


def _swatch(i: int, x: int, y: int) -> str:
    """The legend swatch of the i-th attribute, in the 12x12 box at (x, y)."""
    color, turn = _style(i)
    if turn == 0:
        return f'<rect x="{x}" y="{y}" width="12" height="12" fill="{color}"/>'
    return _polygon(_SHAPES[turn - 1], x + 6, y + 6, 6.0, f'fill="{color}"')


def render_series_scatter(
    series: list[tuple[int, MetricReport]], spec: PlotSpec
) -> str:
    """Render an epoch series as an SVG scatter plot string."""
    if len(series) < 2:
        raise SpecValidationError(
            f"plotting needs a series with >= 2 epochs, got {len(series)}"
        )

    def metric(rec, which: str) -> float:
        v = getattr(rec, which)
        return math.nan if v is None else float(v)

    # Each attribute's points, keyed by name in first-seen order.
    pts: dict[str, list[tuple[float, float]]] = {}
    skipped = 0
    for _, report in series:
        for rec in report.per_attribute:
            if rec.name is None:
                raise SpecValidationError("unusable attribute name None")
            x = metric(rec, spec.x_metric)
            y = metric(rec, spec.y_metric)
            attr_pts = pts.setdefault(rec.name, [])
            if math.isfinite(x) and math.isfinite(y):
                attr_pts.append((x, y))
            else:
                skipped += 1

    xs = [p[0] for series_pts in pts.values() for p in series_pts]
    ys = [p[1] for series_pts in pts.values() for p in series_pts]
    x_lo, x_hi = spec.x_range if spec.x_range else _auto_range(xs)
    y_lo, y_hi = spec.y_range if spec.y_range else _auto_range(ys)

    px_w = _W - _LEFT - _RIGHT
    px_h = _H - _TOP - _BOTTOM
    x_w, sx = _axis("x", x_lo, x_hi, _LEFT, px_w)
    y_w, sy = _axis("y", y_lo, y_hi, _TOP + px_h, -px_h)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]
    if skipped:
        out.append(f"<!-- skipped {skipped} non-finite points -->")

    # axes
    base = _TOP + px_h
    out.append(_line(_LEFT, base, _LEFT + px_w, base))
    out.append(_line(_LEFT, _TOP, _LEFT, base))
    for i in range(5):
        fx = x_lo + x_w * i / 4
        fy = y_lo + y_w * i / 4
        tx = _fmt(sx(fx))
        ty = sy(fy)
        out.append(_line(tx, base, tx, base + 5))
        out.append(_text(tx, base + 20, 11, f"{fx:.4g}", "middle"))
        out.append(_line(_LEFT - 5, _fmt(ty), _LEFT, _fmt(ty)))
        out.append(_text(_LEFT - 8, _fmt(ty + 4), 11, f"{fy:.4g}", "end"))
    mid_y = f"{_TOP + px_h / 2:.2f}"
    out.append(_text(f"{_LEFT + px_w / 2:.2f}", _H - 12, 13, spec.x_metric.upper(), "middle"))
    out.append(_text(18, mid_y, 13, spec.y_metric.upper(), "middle",
                     f' transform="rotate(-90 18 {mid_y})"'))

    # reference line at the ideal DMIG value
    if spec.y_metric == "dmig" and y_lo < 1.0 < y_hi:
        ry = sy(1.0)
        out.append(_line(_LEFT, _fmt(ry), _LEFT + px_w, _fmt(ry), "#555555",
                         ' stroke-dasharray="4,3"'))
        out.append(_text(_LEFT + px_w - 4, _fmt(ry - 5), 10, "y=1", "end", ' fill="#555555"'))

    for i, attr_pts in enumerate(pts.values()):
        out.extend(_marker(i, sx(x), sy(y)) for x, y in attr_pts)

    # legend
    lx = _LEFT + px_w + 18
    for i, name in enumerate(pts):
        ly = _TOP + 10 + 20 * i
        # A name may hold any printable character but " ", "," and "=".
        label = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out += [_swatch(i, lx, ly), _text(lx + 18, ly + 10, 12, f"a{label}")]

    out.append("</svg>")
    return "\n".join(out) + "\n"
