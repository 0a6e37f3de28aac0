"""Plot spec validation and the grouping of series points by attribute.

The SVG bytes of real series are frozen through the CLI (test_cli.py).
"""

import re

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
