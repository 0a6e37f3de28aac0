"""Plot spec validation, and how series points are grouped and marked by attribute.

The SVG bytes of real series are frozen through the CLI (test_cli.py).
"""

import re
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
