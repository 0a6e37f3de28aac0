"""Plot spec validation (rendering is covered through the CLI)."""

import pytest

from dmig import PlotSpec, SpecValidationError


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
