"""Tests for the spacetime heat-map rendering (the graphics monitor as
an SVG figure)."""

from __future__ import annotations

import pytest

from repro.experiments.svg import svg_spacetime
from repro.oracle.config import SimConfig
from repro.scenario import Scenario


def sample_run():
    cfg = SimConfig(seed=1, sample_interval=40.0, sample_per_pe=True)
    return Scenario("fib:11", "grid:5x5", "cwn", config=cfg).run()


class TestSvgSpacetime:
    def test_valid_svg_document(self):
        res = sample_run()
        svg = svg_spacetime(
            [(s.time, s.per_pe) for s in res.samples],
            title="fib(11) cwn",
            completion=res.completion_time,
        )
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "fib(11) cwn" in svg
        assert "blue = idle" in svg and "red = busy" in svg

    def test_one_cell_per_pe_per_sample(self):
        res = sample_run()
        series = [(s.time, s.per_pe) for s in res.samples]
        svg = svg_spacetime(series)
        # one background rect + one rect per (sample, PE) cell
        assert svg.count("<rect") == 1 + len(series) * 25

    def test_color_extremes(self):
        # all-idle row renders pure blue, all-busy pure red
        svg = svg_spacetime([(0.0, (0.0, 1.0))])
        assert "#2980ff" in svg or "#29" in svg  # blue family for idle
        assert "#ff3929" in svg or 'fill="#ff' in svg  # red family for busy

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            svg_spacetime([])
        with pytest.raises(ValueError):
            svg_spacetime([(0.0, ())])
        with pytest.raises(ValueError):
            svg_spacetime([(0.0, (0.5,)), (1.0, (0.5, 0.5))])

    def test_utilization_clamped(self):
        # values outside [0,1] must not produce broken colors
        svg = svg_spacetime([(0.0, (-0.5, 1.5))])
        assert "#" in svg
        for token in svg.split('fill="')[1:]:
            color = token[: token.index('"')]
            if color.startswith("#"):
                assert len(color) == 7
