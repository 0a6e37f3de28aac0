"""Self-contained SVG scatter plots of metric pairs across epochs.

Renders one point per (epoch, attribute) for a chosen pair of metrics,
one color per attribute, with an optional dotted reference line at y=1
when DMIG is on the vertical axis. Output is deterministic text: the
same series and spec produce byte-identical SVG. No rendering libraries
are involved.
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


def _fmt(v: float) -> str:
    return f"{v:.2f}"


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

    def sx(v: float) -> float:
        return _LEFT + (v - x_lo) / (x_hi - x_lo) * px_w

    def sy(v: float) -> float:
        return _TOP + px_h - (v - y_lo) / (y_hi - y_lo) * px_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]
    if skipped:
        out.append(f"<!-- skipped {skipped} non-finite points -->")

    # axes
    out.append(
        f'<line x1="{_LEFT}" y1="{_TOP + px_h}" x2="{_LEFT + px_w}" '
        f'y2="{_TOP + px_h}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_TOP + px_h}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        tx = sx(fx)
        ty = sy(fy)
        out.append(
            f'<line x1="{_fmt(tx)}" y1="{_TOP + px_h}" x2="{_fmt(tx)}" '
            f'y2="{_TOP + px_h + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(tx)}" y="{_TOP + px_h + 20}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{fx:.4g}</text>'
        )
        out.append(
            f'<line x1="{_LEFT - 5}" y1="{_fmt(ty)}" x2="{_LEFT}" '
            f'y2="{_fmt(ty)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_LEFT - 8}" y="{_fmt(ty + 4)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{fy:.4g}</text>'
        )
    out.append(
        f'<text x="{_LEFT + px_w / 2:.2f}" y="{_H - 12}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">{spec.x_metric.upper()}</text>'
    )
    out.append(
        f'<text x="18" y="{_TOP + px_h / 2:.2f}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 18 {_TOP + px_h / 2:.2f})">'
        f"{spec.y_metric.upper()}</text>"
    )

    # reference line at the ideal DMIG value
    if spec.y_metric == "dmig" and y_lo < 1.0 < y_hi:
        ry = sy(1.0)
        out.append(
            f'<line x1="{_LEFT}" y1="{_fmt(ry)}" x2="{_LEFT + px_w}" '
            f'y2="{_fmt(ry)}" stroke="#555555" stroke-width="1" '
            f'stroke-dasharray="4,3"/>'
        )
        out.append(
            f'<text x="{_LEFT + px_w - 4}" y="{_fmt(ry - 5)}" font-size="10" '
            f'text-anchor="end" font-family="sans-serif" fill="#555555">y=1</text>'
        )

    for i, attr_pts in enumerate(pts.values()):
        color = PALETTE[i % len(PALETTE)]
        for x, y in attr_pts:
            out.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="4" '
                f'fill="{color}" fill-opacity="0.8"/>'
            )

    # legend
    lx = _LEFT + px_w + 18
    for i, name in enumerate(pts):
        color = PALETTE[i % len(PALETTE)]
        ly = _TOP + 10 + 20 * i
        out.append(
            f'<rect x="{lx}" y="{ly}" width="12" height="12" fill="{color}"/>'
        )
        out.append(
            f'<text x="{lx + 18}" y="{ly + 10}" font-size="12" '
            f'font-family="sans-serif">a{name}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
