import csv
import io
import math
import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epigrowth import data_io, plotting


def oracle_data_csv(series: list) -> bytes:
    """The chart's data CSV built one day and one value at a time, as the
    writer once did: ``plotting.chart`` must match it byte for byte."""
    all_days = sorted({d for _, days, _ in series for d in days})
    lookup = [{d: repr(float(values[i])) for i, d in enumerate(days)} for _, days, values in series]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date"] + [name for name, _, _ in series])
    for d in all_days:
        writer.writerow([date.fromordinal(d).isoformat()] + [m.get(d, "") for m in lookup])
    return buf.getvalue().encode()


def oracle_polyline_points(series: list) -> list:
    """Each series' polyline ``points``, one ``sx``/``sy`` call per point, as
    the renderer once built them."""
    x_min = min(days[0] for _, days, _ in series)
    x_max = max(days[-1] for _, days, _ in series)
    x_span = max(x_max - x_min, 1)
    y_min = min(float(min(values)) for _, _, values in series)
    y_max = max(float(max(values)) for _, _, values in series)
    ticks = plotting._nice_ticks(y_min, y_max)
    y_min = min(y_min, ticks[0])
    y_max = max(y_max, ticks[-1])
    if y_max == y_min:  # the next double up, where 1 is below y_min's resolution
        y_max = max(y_min + 1.0, math.nextafter(y_min, math.inf))
    plot_w = plotting.WIDTH - plotting.MARGIN_L - plotting.MARGIN_R
    plot_h = plotting.HEIGHT - plotting.MARGIN_T - plotting.MARGIN_B

    def sx(d: int) -> float:
        return plotting.MARGIN_L + plot_w * (d - x_min) / x_span

    def sy(v: float) -> float:
        return plotting.MARGIN_T + plot_h * (1.0 - (v - y_min) / (y_max - y_min))

    return [" ".join(f"{sx(d):.2f},{sy(float(values[k])):.2f}" for k, d in enumerate(days))
            for _, days, values in series]


def polyline_points(svg: str) -> list:
    return re.findall(r'<polyline points="([^"]*)"', svg)


def days_from(first: date, n: int) -> range:
    return range(first.toordinal(), first.toordinal() + n)


def axis_of(series: list) -> tuple:
    return plotting.value_axis([values for _, _, values in series])


def assert_chart_matches_oracle(series, tmp_path):
    assert plotting.chart(series, "Y", tmp_path, axis_of(series)) == ["Y.svg", "Y_data.csv"]
    assert (tmp_path / "Y_data.csv").read_bytes() == oracle_data_csv(series)
    assert polyline_points((tmp_path / "Y.svg").read_text()) == oracle_polyline_points(series)


class TestChartBytes:
    @pytest.mark.parametrize("var", ["Y", "I", "p"])
    def test_baselines(self, tmp_path, baselines, var):
        # the two baselines start on different days, so the later one is padded
        series = [(t.scenario_name, t.days, t.columns()[var]) for t in baselines[:2]]
        assert_chart_matches_oracle(series, tmp_path)

    def test_different_first_and_last_days(self, tmp_path, baselines):
        t = baselines[1]
        series = [("middle", t.days[40:90], t.Y[40:90]),
                  ("early", t.days[:60], t.Y[:60]),
                  ("late", t.days[70:120], t.Y[70:120]),
                  ("early-too", t.days[:60], t.C[:60])]
        assert_chart_matches_oracle(series, tmp_path)

    def test_days_no_series_covers_are_skipped(self, tmp_path, baselines):
        t = baselines[1]
        series = [("late", t.days[50:60], t.Y[50:60]), ("early", t.days[:10], t.Y[:10]),
                  ("touching", t.days[10:20], t.Y[10:20])]
        assert_chart_matches_oracle(series, tmp_path)
        assert len((tmp_path / "Y_data.csv").read_text().splitlines()) == 1 + 30

    def test_run_name_needing_csv_quotes(self, tmp_path):
        series = [('a,"b"', days_from(date(2020, 1, 1), 3), np.array([1.0, 2.0, 3.0])),
                  ("plain", days_from(date(2020, 1, 2), 3), np.array([0.5, 0.25, 0.125]))]
        assert_chart_matches_oracle(series, tmp_path)
        assert (tmp_path / "Y_data.csv").read_text().splitlines()[0] == 'date,"a,""b""",plain'

    @pytest.mark.parametrize("values", [
        [-0.0, 5e-324, 1e308, 0.1, 2.2250738585072014e-308],
        [-1e308, -0.0, 5e-324, -0.1],
    ], ids=["positive-extremes", "negative-extremes"])
    def test_extreme_values(self, tmp_path, values):
        series = [("x", days_from(date(2021, 2, 27), len(values)), np.array(values)),
                  ("y", days_from(date(2021, 2, 28), 2), np.array(values[:2]))]
        assert_chart_matches_oracle(series, tmp_path)

    def test_largest_finite_values_in_data_csv(self, tmp_path):
        # the chart's y range would overflow here, so only the CSV is written
        values = np.array([-0.0, 5e-324, 1.7e308, -1.7e308])
        series = [("x", days_from(date(2021, 2, 27), 4), values),
                  ("y", days_from(date(2021, 3, 1), 1), values[3:])]
        data_io.write_columns(series, tmp_path / "x.csv")
        assert (tmp_path / "x.csv").read_bytes() == oracle_data_csv(series)
        assert (tmp_path / "x.csv").read_text().splitlines()[1:] == [
            "2021-02-27,-0.0,", "2021-02-28,5e-324,", "2021-03-01,1.7e+308,-1.7e+308",
            "2021-03-02,-1.7e+308,"]


# finite values with -0.0, subnormals and magnitudes near the largest double
# drawn often, each of which the coordinate arithmetic must carry as before
CHART_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
)


@st.composite
def chart_series(draw) -> list:
    """1 to 3 series, each starting where the one before overlaps, touches
    or leaves a gap after the last one's days."""
    first = date(2020, 2, 27).toordinal() + draw(st.integers(0, 400))
    days = range(first, first + draw(st.integers(1, 30)))
    series = []
    for k in range(draw(st.integers(1, 3))):
        if k:
            start = {"overlapping": days.start + draw(st.integers(0, len(days) - 1)),
                     "touching": days.stop,
                     "disjoint": days.stop + draw(st.integers(1, 400))}[
                draw(st.sampled_from(["overlapping", "touching", "disjoint"]))]
            days = range(start, start + draw(st.integers(1, 30)))
        values = np.array(draw(st.lists(CHART_VALUES, min_size=len(days), max_size=len(days))))
        series.append((f"s{k}", days, values))
    return series


class TestPolylines:
    @given(series=chart_series())
    # one value, so large that y_min + 1 is y_min: the axis ends at the next double up
    @example(series=[("s0", days_from(date(2020, 2, 27), 1), np.array([3.6710311671743647e+230]))])
    @settings(max_examples=300, deadline=None)
    def test_polylines_match_oracle(self, series):
        # a RuntimeWarning from the array arithmetic fails the test
        try:
            axis = axis_of(series)
        except ValueError:  # no axis holds these values; the chart is refused
            return
        assert polyline_points(plotting.render_svg(series, "Y", axis)) == oracle_polyline_points(series)

    def test_coordinates_on_rounding_ties(self):
        # values from 0.7 to 1.3 give the axis [0.6000000000000001, 1.4],
        # whose rounding shows a change in the order of the operations; each
        # value between puts its y coordinate exactly on a tie of the
        # two-decimal rounding (k + 1/8, k + 3/8, ...), where one ulp either
        # way changes the digits, so only the same floats print the same points
        ticks = plotting._nice_ticks(0.7, 1.3)
        y_min, y_span = ticks[0], ticks[-1] - ticks[0]
        plot_h = plotting.HEIGHT - plotting.MARGIN_T - plotting.MARGIN_B

        def sy(v: float) -> float:
            return plotting.MARGIN_T + plot_h * (1.0 - (v - y_min) / y_span)

        values = [0.7, 1.3]
        for j in range(8 * 100 + 1, 8 * 428, 2):
            tie = j / 8
            v = y_min + y_span * (1.0 - (tie - plotting.MARGIN_T) / plot_h)
            v -= 8 * math.ulp(v)
            for _ in range(17):
                if sy(v) == tie:
                    values.append(v)
                    break
                v = math.nextafter(v, math.inf)
        assert len(values) > 500 and 0.7 <= min(values) and max(values) <= 1.3
        series = [("ties", days_from(date(2020, 1, 1), len(values)), np.array(values))]
        assert polyline_points(plotting.render_svg(series, "Y", axis_of(series))) == oracle_polyline_points(series)

    @pytest.mark.parametrize("offset", [None, 1234], ids=["one-series", "offset-start"])
    @pytest.mark.parametrize("n", [1, 3997, 4383, 14955])
    def test_long_day_ranges(self, n, offset):
        # day spans as long as the shipped runs' horizons, with a second
        # series whose first day is not the chart's first day
        values = np.linspace(-1.0, 3.0, n)
        series = [("a", days_from(date(2020, 2, 27), n), values)]
        if offset is not None:
            series.append(("b", days_from(date(2020, 2, 27) + timedelta(days=offset), n), values[::-1]))
        assert polyline_points(plotting.render_svg(series, "Y", axis_of(series))) == oracle_polyline_points(series)


def tick_labels(svg: str) -> list:
    return re.findall(r'text-anchor="end">([^<]*)</text>', svg)


class TestTickLabels:
    def assert_fewest_distinct_digits(self, series):
        axis = axis_of(series)
        labels = tick_labels(plotting.render_svg(series, "Y", axis))
        assert len(labels) == len(axis[2]) > 1 and len(set(labels)) == len(labels)
        digits = next(d for d in range(6, 18) if labels == [f"{v:.{d}g}" for v in axis[2]])
        if digits > 6:
            fewer = [f"{v:.{digits - 1}g}" for v in axis[2]]
            assert len(set(fewer)) < len(fewer)
        return labels

    def test_one_row_trajectory(self, baselines):
        # a one-day run's axis spans 2 around a value near 3.4e11, whose
        # ticks all read the same at 6 digits
        t = baselines[1]
        series = [(t.scenario_name, t.days[:1], t.Y[:1])]
        labels = self.assert_fewest_distinct_digits(series)
        assert all(len(label.replace(".", "")) > 6 for label in labels)

    def test_two_near_constant_values(self):
        series = [("run", days_from(date(2020, 1, 1), 2), np.array([1.0, 1.0 + 4e-9]))]
        labels = self.assert_fewest_distinct_digits(series)
        assert labels[0] == "1" and len(labels[1]) > 8

    def test_six_digits_where_they_differ(self, baselines):
        t = baselines[1]
        series = [(t.scenario_name, t.days, t.Y)]
        assert tick_labels(plotting.render_svg(series, "Y", axis_of(series))) == [
            f"{v:.6g}" for v in axis_of(series)[2]]

    @given(lo=st.floats(-1e300, 1e300), width=st.floats(0.0, 1e300))
    @settings(max_examples=200, deadline=None)
    def test_labels_always_distinct(self, lo, width):
        ticks = plotting._nice_ticks(lo, lo + width)
        labels = plotting.tick_labels(ticks)
        assert len(set(labels)) == len(labels) == len(ticks)


class TestIsoDates:
    @pytest.mark.parametrize("first,last", [
        (date.min, date(1, 3, 1)), (date(9999, 11, 30), date.max), (date(2000, 2, 27), date(2000, 3, 2)),
        (date(1900, 2, 27), date(1900, 3, 2)), (date(2020, 2, 28), date(2020, 3, 1)),
        (date(2019, 12, 30), date(2020, 1, 2)), (date(2020, 1, 1), date(2020, 1, 1)),
    ])
    def test_matches_isoformat(self, first, last):
        days = range(first.toordinal(), last.toordinal() + 1)
        assert data_io.iso_dates(days) == tuple(date.fromordinal(d).isoformat() for d in days)


class TestNiceTicks:
    @pytest.mark.parametrize("lo,hi", [(1e17, 1e17), (1e17, 1e17 + 16), (1e10, 1e10 + 1e-7),
                                       (0.0, 5e-324), (0.0, 3e-323), (-1e-323, 0.0), (5e-324, 5e-324),
                                       (9.0564628776883e+95, 9.0564628776883e+95),
                                       (-8.833998718706033e-307, -8.833998718706031e-307)])
    def test_near_constant_values_end(self, lo, hi):
        # the step can be below the values' resolution, where v += step
        # leaves v as it is: the ticks still end, each once
        ticks = plotting._nice_ticks(lo, hi)
        assert ticks and ticks == sorted(set(ticks))
        series = [("run", days_from(date(2020, 1, 1), 2), np.array([lo, hi]))]
        svg = plotting.render_svg(series, "Y", axis_of(series))
        assert "nan" not in svg and "inf" not in svg

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (0.0, 1.7e308), (-8e307, 8e307),
                                       (1.7976931348623157e308, 1.7976931348623157e308)])
    def test_axis_past_largest_double_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="wider than the largest double"):
            plotting._nice_ticks(lo, hi)

    def test_widest_finite_axis(self):
        ticks = plotting._nice_ticks(0.0, 1.5e308)
        assert ticks == [0.0, 5e307, 1e308, 1.5e308]
