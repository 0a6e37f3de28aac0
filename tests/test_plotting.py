"""Plot spec validation, and how series points are grouped and marked by attribute.

The SVG bytes of real series are frozen through the CLI (test_cli.py);
those move whenever an estimator does. The SVG bytes of a hand-built
series are frozen here, so they guard the SVG writer alone. Run this
module as a script to write those two files again when the drawing
changes on purpose.
"""

import math
import re
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

from dmig import (
    AttributeMetrics,
    EstimatorConfig,
    MetricReport,
    PlotSpec,
    SpecValidationError,
    render_series_scatter,
)


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"x_metric": "entropy"}, "unknown metric 'entropy'"),
        ({"y_metric": "mi"}, "unknown metric 'mi'"),
        ({"x_range": (1.0, 1.0)}, "x_range must satisfy lo < hi"),
        ({"y_range": (2.0, 1.0)}, "y_range must satisfy lo < hi"),
        ({"y_range": (0.0, float("inf"))}, "y_range must be finite"),
        ({"x_range": (float("-inf"), 0.0)}, "x_range must be finite"),
        ({"x_range": (0.0, float("nan"))}, "x_range must be finite"),
    ],
)
def test_invalid_spec_rejected(kw, match):
    with pytest.raises(SpecValidationError, match=match):
        PlotSpec(**{"x_metric": "scc", "y_metric": "dmig", **kw})


def report(*points: tuple[str, float, float]) -> MetricReport:
    per = tuple(
        AttributeMetrics(
            name=name, mig=mig, dmig=dmig, scc=None, top_dim=0, runner_up_dim=None,
            branch="unregularized", denominator=1.0, flags=frozenset(),
        )
        for name, mig, dmig in points
    )
    return MetricReport(
        per_attribute=per, mean_mig=0.0, mean_dmig=0.0,
        config_echo=EstimatorConfig(), dataset_digest="0",
    )


SPEC = PlotSpec(x_metric="mig", y_metric="dmig", x_range=(0.0, 1.0), y_range=(0.0, 2.0))


def test_points_follow_attribute_names_across_epochs():
    # Epoch 1 lists q before p, and epoch 2 holds only p.
    epochs = [
        [("p", 0.1, 0.2), ("q", 0.7, 0.8)],
        [("q", 0.9, 0.1), ("p", 0.3, 0.4)],
        [("p", 0.5, 0.6)],
    ]
    spec = PlotSpec(x_metric="mig", y_metric="dmig", x_range=(0.0, 1.0), y_range=(0.0, 1.0))

    def circles(svg):
        return re.findall(r'<circle cx="(\S+)" cy="(\S+)" r="4" fill="(#\w+)"', svg)

    svg = render_series_scatter([(t, report(*pts)) for t, pts in enumerate(epochs)], spec)
    legend = re.findall(r'fill="(#\w+)"/>\n<text [^>]*>a(\w+)</text>', svg)
    assert [name for _, name in legend] == ["p", "q"]
    for color, name in legend:
        # The fixed ranges put a point at the same place when drawn alone.
        alone = [(t, report(*(p for p in pts if p[0] == name))) for t, pts in enumerate(epochs)]
        expected = sorted((x, y) for x, y, _ in circles(render_series_scatter(alone, spec)))
        assert sorted((x, y) for x, y, c in circles(svg) if c == color) == expected
    assert len(circles(svg)) == 5


def shape_and_fill(element):
    """An SVG marker or swatch without its position: tag, outline, fill."""
    tag = element[1:element.index(" ")]
    fill = re.search(r'fill="(#\w+)"', element).group(1)
    points = re.search(r'points="([^"]*)"', element)
    if not points:
        return tag, (), fill
    xy = [tuple(map(float, p.split(","))) for p in points.group(1).split()]
    x0, y0 = xy[0]
    return tag, tuple((round(x - x0, 1), round(y - y0, 1)) for x, y in xy), fill


def test_ninth_attribute_gets_its_own_marker():
    # 17 attributes: the palette's 8 colours turn twice, and each turn
    # draws its own shape, in the plot and in the legend.
    names = [f"n{i}" for i in range(17)]
    epochs = [[(name, 0.05 * i, 0.05 * i + t) for i, name in enumerate(names)] for t in (0, 1)]
    svg = render_series_scatter([(t, report(*pts)) for t, pts in enumerate(epochs)], SPEC)
    legend = re.findall(r"(<(?:rect|polygon) [^>]*/>)\n<text [^>]*>a(\w+)</text>", svg)
    assert [name for _, name in legend] == names
    assert len({shape_and_fill(swatch) for swatch, _ in legend}) == 17
    # Each attribute's two points share one marker, unlike any other's.
    drawn = [shape_and_fill(m) for m in re.findall(r"<(?:circle|polygon) [^>]*opacity[^>]*/>", svg)]
    assert len(drawn) == 34 and len(set(drawn)) == 17
    assert shape_and_fill(legend[8][0]) != shape_and_fill(legend[0][0])


def test_nameless_records_rejected():
    nameless = [(None, 0.1, 0.2), (None, 0.3, 0.4)]
    series = [(t, report(*nameless)) for t in (0, 1)]
    with pytest.raises(SpecValidationError, match="unusable attribute name None"):
        render_series_scatter(series, SPEC)


def test_legend_escapes_markup_in_names():
    # The series reader accepts these names, and the SVG must still parse.
    series = [(t, report(("p<q", 0.1, 0.2), ("r&s", 0.3, 0.4 + t))) for t in (0, 1)]
    root = ElementTree.fromstring(render_series_scatter(series, SPEC))
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[-2:] == ["ap<q", "ar&s"]


def test_all_points_non_finite_still_plots():
    # No finite point leaves no value to range an axis over.
    series = [(t, report(("p", math.nan, math.inf), ("q", -math.inf, 0.5))) for t in (0, 1)]
    svg = render_series_scatter(series, PlotSpec(x_metric="mig", y_metric="dmig"))
    ElementTree.fromstring(svg)
    assert "<!-- skipped 4 non-finite points -->" in svg
    assert "nan" not in svg and "inf" not in svg


GOLDEN = Path(__file__).parent / "golden"


def hand_series():
    """3 epochs of 10 attributes, written out by hand rather than estimated.

    Ten attributes take the palette into its second turn (triangles), two
    names need escaping, and attribute n5 has no finite DMIG or SCC at
    epoch 1, so each plot below skips one point. DMIG straddles 1.
    """
    names = ["p<q", "r&s"] + [f"n{i}" for i in range(2, 10)]
    epochs = []
    for t in range(3):
        per = []
        for i, name in enumerate(names):
            bad = (t, i) == (1, 5)
            per.append(AttributeMetrics(
                name=name, mig=0.05 * i + 0.1 * t, dmig=math.nan if bad else 0.3 + 0.09 * i + 0.2 * t,
                scc=None if bad else 0.95 - 0.07 * i - 0.05 * t, top_dim=i, runner_up_dim=None,
                branch="unregularized", denominator=1.0, flags=frozenset(),
            ))
        epochs.append((t, MetricReport(
            per_attribute=tuple(per), mean_mig=0.0, mean_dmig=0.0,
            config_echo=EstimatorConfig(), dataset_digest="0",
        )))
    return epochs


HAND_SVGS = {
    "hand_mig_dmig.svg": PlotSpec("mig", "dmig"),
    "hand_scc_mig_fixed.svg": PlotSpec("scc", "mig", x_range=(0.0, 1.0), y_range=(-0.5, 1.5)),
}


@pytest.mark.parametrize("name", sorted(HAND_SVGS))
def test_hand_built_svg_bytes_frozen(name):
    svg = render_series_scatter(hand_series(), HAND_SVGS[name])
    assert svg.encode() == (GOLDEN / name).read_bytes()


def test_hand_built_svgs_cover_the_writer():
    mig_dmig, scc_mig = (render_series_scatter(hand_series(), HAND_SVGS[name])
                         for name in sorted(HAND_SVGS))
    for svg in (mig_dmig, scc_mig):
        assert "<!-- skipped 1 non-finite points -->" in svg
        assert "ap&lt;q" in svg and "ar&amp;s" in svg
        assert svg.count("<polygon ") == 2 * 3 + 2    # n8 and n9: 3 markers and a swatch each
    assert 'stroke-dasharray="4,3"' in mig_dmig
    assert "stroke-dasharray" not in scc_mig


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, spec in HAND_SVGS.items():
        (GOLDEN / name).write_bytes(render_series_scatter(hand_series(), spec).encode())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
