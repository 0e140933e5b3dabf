import csv
import dataclasses
import json
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epigrowth import data_io
from epigrowth.data_io import DataFormatError, DatasetManifest
from epigrowth.params import ModelParams, default_params
from epigrowth.scenarios import Trajectory
from tests.conftest import DATA_DIR


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def oracle_trajectory_csv(trajectory: Trajectory) -> bytes:
    """The trajectory CSV formatted one value at a time, as the writer
    once did: the reference ``write_trajectory`` must match byte for byte."""
    lines = [",".join(data_io.TRAJECTORY_HEADER)]
    cols = trajectory.columns()
    series = [cols[name] for name in data_io.TRAJECTORY_HEADER[1:]]
    for i, day in enumerate(trajectory.dates):
        lines.append(day.isoformat() + "," + ",".join(repr(float(s[i])) for s in series))
    return ("\n".join(lines) + "\n").encode()


def trajectory_of(columns: dict, first_day: date, name: str = "t") -> Trajectory:
    n = len(next(iter(columns.values())))
    start = first_day.toordinal()
    return Trajectory(scenario_name=name, days=range(start, start + n), welfare=0.0, **columns)


@st.composite
def written_trajectories(draw, rows=st.integers(1, 50)):
    """Trajectories of any finite values from 2020-02-28 on, across a leap day."""
    n = draw(rows)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    columns = {name: np.array(draw(st.lists(finite, min_size=n, max_size=n)))
               for name in data_io.TRAJECTORY_HEADER[1:]}
    return trajectory_of(columns, date(2020, 2, 28))


def write_trajectory_file(tmp_path_factory, trajectory: Trajectory):
    path = tmp_path_factory.mktemp("prop") / "t.csv"
    data_io.write_trajectory(trajectory, path)
    return path


def assert_bit_equal(loaded: Trajectory, trajectory: Trajectory) -> None:
    assert loaded.days == trajectory.days
    for name, col in trajectory.columns().items():
        assert loaded.columns()[name].tobytes() == np.asarray(col, dtype=float).tobytes(), name


# -0.0, the smallest subnormal and the largest finite magnitudes, each of
# which a lossy or sign-dropping formatter would change
EXTREMES = [-0.0, 5e-324, 1.7e308, -1.7e308, 2.2250738585072014e-308, 0.1]


class TestManifest:
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="unknown dataset kind"):
            DatasetManifest(path=tmp_path / "x.csv", kind="weather")


class TestLoadAnnualSeries:
    def test_two_row_file(self, tmp_path):
        path = write(tmp_path, "pop.csv", "year,value\n1960,3.03e9\n1961,3.07e9\n")
        series = data_io.load_annual_series(DatasetManifest(path=path, kind="population"))
        assert len(series) == 2
        assert series.value_at(1961) == pytest.approx(3.07e9)

    def test_duplicate_year_names_the_year(self, tmp_path):
        path = write(tmp_path, "pop.csv", "year,value\n1960,1\n1960,2\n")
        with pytest.raises(DataFormatError, match="duplicate year 1960"):
            data_io.load_annual_series(DatasetManifest(path=path, kind="population"))

    def test_non_numeric_cell_names_the_row(self, tmp_path):
        path = write(tmp_path, "pop.csv", "year,value\n1960,1\n1961,abc\n")
        with pytest.raises(DataFormatError, match="row 3"):
            data_io.load_annual_series(DatasetManifest(path=path, kind="population"))

    def test_missing_column_reported(self, tmp_path):
        path = write(tmp_path, "pop.csv", "year,population\n1960,1\n")
        with pytest.raises(DataFormatError, match="missing columns"):
            data_io.load_annual_series(DatasetManifest(path=path, kind="population"))

    def test_rows_come_back_sorted_by_year(self, tmp_path):
        path = write(tmp_path, "pop.csv", "year,value\n1961,3.07e9\n1960,3.03e9\n")
        series = data_io.load_annual_series(DatasetManifest(path=path, kind="population"))
        assert list(series.years) == [1960, 1961]
        assert list(series.values) == [3.03e9, 3.07e9]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            data_io.load_annual_series(DatasetManifest(path=tmp_path / "nope.csv", kind="gdp"))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_file_row_and_column(self, tmp_path, cell):
        lines = (DATA_DIR / "world_gdp.csv").read_text().splitlines()
        lines[4] = lines[4].split(",")[0] + "," + cell
        path = write(tmp_path, "world_gdp.csv", "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=r"world_gdp\.csv: row 5: non-finite 'value'"):
            data_io.load_annual_series(DatasetManifest(path=path, kind="gdp"))


class TestLoadCaseSeries:
    HEADER = "date,confirmed,recovered,deaths\n"

    def test_downward_correction_repaired_and_reported(self, tmp_path):
        path = write(
            tmp_path, "cases.csv",
            self.HEADER + "2020-01-22,100,10,1\n2020-01-23,90,12,1\n2020-01-24,120,13,2\n",
        )
        series, repairs = data_io.load_case_series(DatasetManifest(path=path, kind="cases"))
        assert repairs == {"confirmed": 1, "recovered": 0, "deaths": 0}
        assert list(series.confirmed) == [100.0, 100.0, 120.0]
        assert np.all(np.diff(series.confirmed) >= 0)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "cases.csv", self.HEADER)
        with pytest.raises(DataFormatError, match="no data rows"):
            data_io.load_case_series(DatasetManifest(path=path, kind="cases"))

    def test_unparseable_date_names_the_row(self, tmp_path):
        path = write(tmp_path, "cases.csv", self.HEADER + "22/01/2020,1,0,0\n")
        with pytest.raises(DataFormatError, match="row 2"):
            data_io.load_case_series(DatasetManifest(path=path, kind="cases"))

    @pytest.mark.parametrize("cell", ["20200123", "2020-W04-4"], ids=["basic", "week"])
    def test_other_iso_spellings_name_the_row(self, tmp_path, cell):
        # Python 3.11 widened date.fromisoformat to both spellings of
        # 2020-01-23; they fail alike on every version
        path = write(tmp_path, "cases.csv", self.HEADER + f"2020-01-22,1,0,0\n{cell},2,0,0\n")
        with pytest.raises(DataFormatError) as err:
            data_io.load_case_series(DatasetManifest(path=path, kind="cases"))
        assert str(err.value) == f"{path}: row 3: unparseable date '{cell}'"

    def test_rows_come_back_sorted_by_date(self, tmp_path):
        path = write(tmp_path, "cases.csv",
                     self.HEADER + "2020-01-23,120,13,2\n2020-01-22,100,10,1\n")
        series, _ = data_io.load_case_series(DatasetManifest(path=path, kind="cases"))
        assert series.dates == [date(2020, 1, 22), date(2020, 1, 23)]
        assert list(series.confirmed) == [100.0, 120.0]

    def test_fixture_active_cases_spot_check(self):
        manifest = DatasetManifest(path=DATA_DIR / "global_cases.csv", kind="cases")
        series, repairs = data_io.load_case_series(manifest)
        with open(manifest.path) as fh:
            rows = list(csv.DictReader(fh))
        for i in (0, len(rows) // 2, len(rows) - 1):
            expected = float(rows[i]["confirmed"]) - float(rows[i]["recovered"]) - float(rows[i]["deaths"])
            assert series.active()[i] == pytest.approx(expected)
        assert sum(repairs.values()) == 0


# each dataset kind -> its shipped file and its loader
LOADERS = {
    "population": ("world_population.csv", data_io.load_annual_series),
    "gdp": ("world_gdp.csv", data_io.load_annual_series),
    "gcf": ("world_gcf.csv", data_io.load_annual_series),
    "cases": ("global_cases.csv", data_io.load_case_series),
    "tradeoff-panel": ("tradeoff_panel.csv", data_io.load_tradeoff_panel),
}


class TestLoaderContract:
    """Every column of every dataset kind, the key column included: a bad
    cell in the shipped file's row 5 is rejected with the file, the row
    and the column."""

    @pytest.mark.parametrize("cell", ["abc", "inf"], ids=["non-numeric", "non-finite"])
    @pytest.mark.parametrize("kind,column", [
        (kind, column) for kind, columns in data_io.KIND_COLUMNS.items() for column in columns])
    def test_bad_cell_names_file_row_and_column(self, tmp_path, kind, column, cell):
        name, load = LOADERS[kind]
        with open(DATA_DIR / name, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        rows[3][column] = cell
        path = tmp_path / name
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=reader.fieldnames, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        with pytest.raises(DataFormatError) as err:
            load(DatasetManifest(path=path, kind=kind))
        message = str(err.value)
        assert message.startswith(f"{path}: row 5: ")
        assert column in message and repr(cell) in message


class TestLoadTradeoffPanel:
    def test_rows_keep_the_file_order(self, tmp_path):
        # the fit sums in row order, so sorting the rows could change its last bits
        path = write(tmp_path, "panel.csv",
                     "country,gdp_shortfall_pct,infection_reduction_pct\nA,3.5,70\nB,1.25,20\n")
        shortfall, reduction = data_io.load_tradeoff_panel(DatasetManifest(path=path, kind="tradeoff-panel"))
        assert shortfall.tolist() == [3.5, 1.25] and reduction.tolist() == [70.0, 20.0]


class TestTrajectoryRoundTrip:
    def test_write_read_bit_equal(self, tmp_path, baselines):
        trajectory = baselines[1]
        path = tmp_path / "ni.csv"
        data_io.write_trajectory(trajectory, path)
        loaded = data_io.read_trajectory(path)
        assert loaded.dates == trajectory.dates
        for name, col in trajectory.columns().items():
            assert np.array_equal(loaded.columns()[name], np.asarray(col, dtype=float)), name

    def test_one_day_trajectory_is_two_lines(self, tmp_path, baselines):
        trajectory = baselines[0]
        t0 = type(trajectory)(
            scenario_name="one-day",
            days=trajectory.days[:1],
            **{k: v[:1] for k, v in trajectory.columns().items()},
            welfare=0.0,
        )
        path = tmp_path / "one.csv"
        data_io.write_trajectory(t0, path)
        assert path.read_text().count("\n") == 2

    def test_final_deaths_match_published_total(self, tmp_path, baselines):
        path = tmp_path / "ni.csv"
        data_io.write_trajectory(baselines[1], path)
        loaded = data_io.read_trajectory(path)
        assert abs(loaded.D[-1] / 1.75e9 - 1.0) <= 0.15

    def test_wrong_header_rejected(self, tmp_path):
        path = write(tmp_path, "bad.csv", "date,N\n2020-01-01,1\n")
        with pytest.raises(DataFormatError, match="header"):
            data_io.read_trajectory(path)

    def test_non_finite_value_names_row_and_column(self, tmp_path):
        header = ",".join(data_io.TRAJECTORY_HEADER)
        good = "2020-01-01," + ",".join(["1.0"] * 11)
        bad = "2020-01-02,1.0,1.0,nan," + ",".join(["1.0"] * 8)
        path = write(tmp_path, "t.csv", "\n".join([header, good, bad]) + "\n")
        with pytest.raises(DataFormatError, match="row 3: non-finite 'I'"):
            data_io.read_trajectory(path)

    @pytest.mark.parametrize("days,row", [
        (["2020-01-01", "2020-01-02", "2020-01-04"], 4),  # a gap
        (["2020-01-01", "2020-01-02", "2020-01-02"], 4),  # a repeated day
        (["2020-01-02", "2020-01-01"], 3),  # reversed order
    ])
    def test_rows_not_consecutive_days_rejected(self, tmp_path, days, row):
        header = ",".join(data_io.TRAJECTORY_HEADER)
        lines = [day + "," + ",".join(["1.0"] * 11) for day in days]
        path = write(tmp_path, "t.csv", "\n".join([header, *lines]) + "\n")
        with pytest.raises(DataFormatError, match=f"row {row}: date {days[row - 2]} does not follow"):
            data_io.read_trajectory(path)


class TestTrajectoryBytes:
    @pytest.mark.parametrize("which", [0, 1], ids=["no-pandemic", "no-intervention"])
    def test_baselines_match_oracle(self, tmp_path, baselines, which):
        path = tmp_path / "t.csv"
        data_io.write_trajectory(baselines[which], path)
        assert path.read_bytes() == oracle_trajectory_csv(baselines[which])

    def test_extreme_values_match_oracle(self, tmp_path):
        columns = {name: np.roll(np.array(EXTREMES), k)
                   for k, name in enumerate(data_io.TRAJECTORY_HEADER[1:])}
        trajectory = trajectory_of(columns, date(1999, 12, 30))
        path = tmp_path / "t.csv"
        data_io.write_trajectory(trajectory, path)
        assert path.read_bytes() == oracle_trajectory_csv(trajectory)
        fields = path.read_text().splitlines()[1].split(",")
        assert {"-0.0", "5e-324", "1.7e+308", "-1.7e+308"} <= set(fields)

    @pytest.mark.parametrize("length", [3, 6])
    def test_column_of_another_length_rejected(self, length):
        # zipped with the days, a shorter column once cut every output
        # written from the trajectory to its length
        columns = {name: np.ones(5) for name in data_io.TRAJECTORY_HEADER[1:]}
        columns["C"] = np.ones(length)
        with pytest.raises(ValueError, match=f"column 'C' holds {length} values for 5 days"):
            trajectory_of(columns, date(2020, 1, 1))

    @given(trajectory=written_trajectories())
    @settings(max_examples=60, deadline=None)
    def test_write_then_read_is_bit_exact(self, tmp_path_factory, trajectory):
        path = write_trajectory_file(tmp_path_factory, trajectory)
        assert path.read_bytes() == oracle_trajectory_csv(trajectory)
        assert_bit_equal(data_io.read_trajectory(path), trajectory)


class TestReadTrajectoryErrors:
    """Each malformed trajectory CSV is rejected with the file, the row and
    what is wrong with it."""

    HEADER = ",".join(data_io.TRAJECTORY_HEADER)

    def rows(self, *cells):
        """Three consecutive well-formed rows, with ``cells`` (a list of
        fields or None) in place of the second one."""
        good = [["2020-01-01"] + ["1.0"] * 11, ["2020-01-02"] + ["2.0"] * 11,
                ["2020-01-03"] + ["3.0"] * 11]
        if cells:
            good[1] = list(cells)
        return "\n".join([self.HEADER] + [",".join(r) for r in good]) + "\n"

    def test_wrong_field_count_names_file_and_row(self, tmp_path):
        path = write(tmp_path, "short.csv", self.rows("2020-01-02", *["2.0"] * 10))
        with pytest.raises(DataFormatError, match=r"short\.csv: row 3: expected 12 fields$"):
            data_io.read_trajectory(path)

    def test_non_numeric_value_names_file_row_and_value(self, tmp_path):
        path = write(tmp_path, "text.csv", self.rows("2020-01-02", "2.0", "abc", *["2.0"] * 9))
        with pytest.raises(DataFormatError,
                           match=r"text\.csv: row 3: non-numeric 'S' value 'abc'$"):
            data_io.read_trajectory(path)

    def test_unparseable_date_names_file_row_and_date(self, tmp_path):
        path = write(tmp_path, "when.csv", self.rows("2020/01/02", *["2.0"] * 11))
        with pytest.raises(DataFormatError,
                           match=r"when\.csv: row 3: Invalid isoformat string: '2020/01/02'$"):
            data_io.read_trajectory(path)

    @pytest.mark.parametrize("days", [("20200101", "20200102"), ("2020-W01-3", "2020-W01-4")],
                             ids=["basic", "week"])
    def test_other_iso_spellings_rejected(self, tmp_path, days):
        # Python 3.11 widened date.fromisoformat to both spellings of
        # 2020-01-01 and 2020-01-02; they fail alike on every version
        lines = [self.HEADER] + [day + ",1.0" * 11 for day in days]
        path = write(tmp_path, "when.csv", "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            data_io.read_trajectory(path)
        assert str(err.value) == f"{path}: row 2: Invalid isoformat string: '{days[0]}'"

    def test_long_date_cell_is_cut(self, tmp_path):
        cell = "2020-01-02" + "0" * 200
        path = write(tmp_path, "when.csv", self.rows(cell, *["2.0"] * 11))
        with pytest.raises(DataFormatError) as err:
            data_io.read_trajectory(path)
        assert str(err.value) == f"{path}: row 3: Invalid isoformat string: {repr(cell)[:80]}..."

    def test_header_without_rows_names_the_file(self, tmp_path):
        path = write(tmp_path, "empty.csv", self.HEADER + "\n")
        with pytest.raises(DataFormatError, match=r"empty\.csv: no data rows$"):
            data_io.read_trajectory(path)

    def test_well_formed_rows_load(self, tmp_path):
        loaded = data_io.read_trajectory(write(tmp_path, "ok.csv", self.rows()))
        assert loaded.dates == [date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3)]
        assert loaded.Y.tolist() == [1.0, 2.0, 3.0]


def edited(lines, r, edit):
    """``lines`` with the cells of line ``r`` replaced by ``edit(cells)``."""
    return lines[:r] + [",".join(edit(lines[r].split(",")))] + lines[r + 1:]


def put(c, cell):
    """An edit that sets cell ``c`` to ``cell(old cell)``."""
    return lambda cells: cells[:c] + [cell(cells[c])] + cells[c + 1:]


def joined(lines, end="\n"):
    return "".join(line + end for line in lines)


def dated(lines, r, day: str):
    """``lines`` with line ``r`` dated ``day``."""
    return edited(lines, r, put(0, lambda _: day))


def day_later(line: str) -> str:
    return (date.fromisoformat(line[:10]) + timedelta(days=1)).isoformat() + line[10:]


def other_row(r):
    """A data line next to line ``r`` of a file of four data lines."""
    return r - 1 if r > 1 else r + 1


# each change to the lines of a written trajectory CSV of four rows, given
# a data line r and a column c, -> the changed file's text; a lone
# surrogate is written as the byte it escapes
MUTATIONS = {
    "field-dropped": lambda lines, r, c: joined(edited(lines, r, lambda cells: cells[:c] + cells[c + 1:])),
    "field-added": lambda lines, r, c: joined(edited(lines, r, lambda cells: cells[:c] + ["1.0"] + cells[c:])),
    "blank-line": lambda lines, r, c: joined(lines[:r] + [""] + lines[r:]),
    "no-final-newline": lambda lines, r, c: "\n".join(lines),
    "crlf": lambda lines, r, c: joined(lines, "\r\n"),
    "cr": lambda lines, r, c: joined(lines, "\r"),
    "cr-in-line": lambda lines, r, c: joined(edited(lines, r, put(c, lambda cell: cell + "\r"))),
    "bom": lambda lines, r, c: "\ufeff" + joined(lines),
    "quoted-cell": lambda lines, r, c: joined(edited(lines, r, put(c, lambda cell: f'"{cell}"'))),
    "underscore": lambda lines, r, c: joined(edited(lines, r, put(c, lambda _: "1_000"))),
    "padded": lambda lines, r, c: joined(edited(lines, r, put(c, lambda cell: f" {cell} "))),
    "separator-padded": lambda lines, r, c: joined(edited(lines, r, put(c, lambda cell: cell + "\x1c"))),
    "nan": lambda lines, r, c: joined(edited(lines, r, put(c, lambda _: "nan"))),
    "inf": lambda lines, r, c: joined(edited(lines, r, put(c, lambda _: "inf"))),
    "empty-cell": lambda lines, r, c: joined(edited(lines, r, put(c, lambda _: ""))),
    "gap": lambda lines, r, c: joined(lines[:max(r, 2)] + list(map(day_later, lines[max(r, 2):]))),
    "repeated-day": lambda lines, r, c: joined(dated(lines, r, lines[other_row(r)][:10])),
    "reversed-days": lambda lines, r, c: joined(
        dated(dated(lines, r, lines[other_row(r)][:10]), other_row(r), lines[r][:10])),
    "slashed-date": lambda lines, r, c: joined(dated(lines, r, "2020/01/02")),
    "big-quoted-field": lambda lines, r, c: joined(
        edited(lines, r, put(c, lambda _: '"' + "x" * 200_000 + '"'))),
    "not-utf-8": lambda lines, r, c: joined(edited(lines, r, put(c, lambda cell: cell + "\udcff"))),
    # past the first 8 KB, where a reader that decodes in chunks would
    # count the row from another byte offset
    "not-utf-8-late": lambda lines, r, c: joined(
        edited(lines, r, put(c, lambda cell: " " * 9000 + cell + "\udcff"))),
    "basic-date": lambda lines, r, c: joined(dated(lines, r, lines[r][:10].replace("-", ""))),
    "week-date": lambda lines, r, c: joined(
        dated(lines, r, date.fromisoformat(lines[r][:10]).strftime("%G-W%V-%u"))),
}


def line_r(r):
    return {r + 1}


def first_line(r):
    return {1}


# each mutation -> the rule that the changed file's error names (for a
# changed cell: in a date cell and in a number cell; None where the file
# still loads with the written bits), and the rows, given the data line r,
# one of which it names (the header is row 1)
EXPECTED = {
    "field-dropped": ("expected 12 fields", line_r),
    "field-added": ("expected 12 fields", line_r),
    "blank-line": ("expected 12 fields", line_r),
    "no-final-newline": (None, None),
    "crlf": ("unexpected byte b'\\r'", first_line),
    "cr": ("unexpected byte b'\\r'", first_line),
    "cr-in-line": ("unexpected byte b'\\r'", line_r),
    "bom": ("unexpected byte b'\\xef'", first_line),
    "quoted-cell": (("Invalid isoformat string", "non-numeric"), line_r),
    "underscore": (("Invalid isoformat string", "non-numeric"), line_r),
    "padded": (("Invalid isoformat string", None), line_r),
    "separator-padded": ("unexpected byte b'\\x1c'", line_r),
    "nan": (("Invalid isoformat string", "non-finite"), line_r),
    "inf": (("Invalid isoformat string", "non-finite"), line_r),
    "empty-cell": (("Invalid isoformat string", "non-numeric"), line_r),
    "gap": ("does not follow", lambda r: {max(r, 2) + 1}),
    "repeated-day": ("does not follow", lambda r: {r + 1, other_row(r) + 1}),
    "reversed-days": ("does not follow", lambda r: {r + 1, other_row(r) + 1}),
    "slashed-date": ("Invalid isoformat string", line_r),
    "big-quoted-field": (("Invalid isoformat string", "non-numeric"), line_r),
    "not-utf-8": ("unexpected byte b'\\xff'", line_r),
    "not-utf-8-late": ("unexpected byte b'\\xff'", line_r),
    "basic-date": ("Invalid isoformat string", line_r),
    "week-date": ("Invalid isoformat string", line_r),
}


class TestMutatedFiles:
    """A written file changed by each of ``MUTATIONS`` either loads with the
    written bits or is one error naming the file, the changed line and the
    rule it breaks."""

    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    @given(trajectory=written_trajectories(rows=st.just(4)), r=st.integers(1, 4), c=st.integers(0, 11))
    @settings(max_examples=15, deadline=None)
    def test_loads_the_written_bits_or_names_the_line(self, tmp_path_factory, kind, trajectory, r, c):
        path = write_trajectory_file(tmp_path_factory, trajectory)
        lines = path.read_text().splitlines()
        path.write_bytes(MUTATIONS[kind](lines, r, c).encode("utf-8", "surrogateescape"))
        rule, rows = EXPECTED[kind]
        if isinstance(rule, tuple):
            rule = rule[c > 0]
        if rule is None:
            assert_bit_equal(data_io.read_trajectory(path), trajectory)
            return
        with pytest.raises(DataFormatError) as err:
            data_io.read_trajectory(path)
        message = str(err.value)
        assert "\n" not in message and rule in message
        assert any(message.startswith(f"{path}: row {row}: ") for row in rows(r)), message


class TestWriteTable:
    def test_quoted_fields_and_missing_keys_round_trip(self, tmp_path):
        rows = [
            {"scenario": "a", "error": "expected a fraction in [0, 1), got 1.2"},
            {"scenario": 'say "b"', "total_deaths": 3.5},
        ]
        path = tmp_path / "table.csv"
        data_io.write_table(rows, path)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert back == [
            {"scenario": "a", "error": "expected a fraction in [0, 1), got 1.2", "total_deaths": ""},
            {"scenario": 'say "b"', "error": "", "total_deaths": "3.5"},
        ]


class TestParamsDocument:
    def test_round_trip_with_provenance(self, tmp_path):
        params = default_params()
        path = tmp_path / "params.json"
        data_io.write_json({**params.to_dict(), "provenance": {"source": "test"}}, path)
        assert data_io.read_params(path) == params
        assert json.loads(path.read_text())["provenance"] == {"source": "test"}

    @pytest.mark.parametrize("field,value", [("a1", float("nan")), ("beta_daily", "0.9998"),
                                             pytest.param("u", 10 ** 400, id="u-huge")])
    def test_malformed_value_names_the_field(self, tmp_path, field, value):
        doc = {**default_params().to_dict(), field: value}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=rf"ModelParams\.{field}\b"):
            data_io.read_params(path)

    @pytest.mark.parametrize("field", ["euler_tol", "bisection_rel_tol", "max_bisection_iter", "b0"])
    def test_missing_field_named(self, tmp_path, field):
        # every field is required: the solver settings have no default in
        # code, so a document without one is refused, not silently filled
        doc = default_params().to_dict()
        del doc[field]
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as exc:
            data_io.read_params(path)
        assert str(exc.value) == f"{path}: missing keys [{field!r}]"
        assert all(f.default is f.default_factory is dataclasses.MISSING for f in dataclasses.fields(ModelParams))

    def test_unknown_field_rejected(self, tmp_path):
        doc = default_params().to_dict()
        doc["bogus"] = 1
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="bogus"):
            data_io.read_params(path)


class TestJsonObjectReader:
    READERS = {"params": data_io.read_params, "config": data_io.load_config}

    @pytest.mark.parametrize("what", sorted(READERS))
    def test_top_level_list_names_the_file(self, tmp_path, what):
        path = write(tmp_path, "doc.json", "[1, 2]")
        with pytest.raises(DataFormatError, match=r"doc\.json: top-level JSON value must be an object"):
            self.READERS[what](path)

    @pytest.mark.parametrize("what", sorted(READERS))
    def test_invalid_json_names_the_file(self, tmp_path, what):
        path = write(tmp_path, "doc.json", '{"a": 1,}')
        with pytest.raises(DataFormatError, match=r"doc\.json: invalid JSON"):
            self.READERS[what](path)

    @pytest.mark.parametrize("what", sorted(READERS))
    def test_missing_file_names_its_role(self, tmp_path, what):
        with pytest.raises(DataFormatError, match=rf"{what} file not found: .*nope\.json"):
            self.READERS[what](tmp_path / "nope.json")


class TestConfig:
    def test_defaults_document_matches_published_values(self):
        config = data_io.load_config()
        assert config.params == default_params()
        assert config.params.b0 == 2.041e-11 and config.params.alpha == 0.3
        assert config.params.u == 5722.078 and config.params.h == 0.147
        scenario = config.scenario("no-pandemic")
        assert scenario.K0 == 2.775e14
        assert scenario.A0 == 1.880
        assert scenario.start_date == date(2019, 1, 1)
        ni = config.scenario("no-intervention")
        assert ni.N0 == 7.718e9 and ni.I0 == 510 and ni.R0 == 28 and ni.D0 == 17
        assert ni.K0 == 2.827e14 and ni.A0 == 1.906

    def test_empty_object_keeps_defaults(self, tmp_path):
        path = write(tmp_path, "cfg.json", "{}")
        assert data_io.load_config(path).params == default_params()

    def test_misspelled_key_named_with_path(self, tmp_path):
        path = write(tmp_path, "cfg.json", json.dumps({"sweeps": {"duration": {"weekz": [4]}}}))
        with pytest.raises(DataFormatError, match=r"config.sweeps.duration.'weekz'"):
            data_io.load_config(path)

    def test_top_level_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "cfg.json", json.dumps({"parms": {}}))
        with pytest.raises(DataFormatError, match="parms"):
            data_io.load_config(path)

    def test_override_merges_deeply(self, tmp_path):
        path = write(tmp_path, "cfg.json", json.dumps(
            {"scenarios": {"no-pandemic": {"horizon": "2055-12-31"}}}
        ))
        config = data_io.load_config(path)
        assert config.scenario("no-pandemic").horizon == date(2055, 12, 31)
        assert config.scenario("no-pandemic").K0 == 2.775e14  # untouched default

    def test_new_scenario_with_schedule(self, tmp_path):
        body = {
            "scenarios": {
                "mild-policy": {
                    "start_date": "2020-01-22", "n0": 7.718e9, "i0": 510, "r0": 28, "d0": 17,
                    "a0": 1.906, "k0": 2.827e14,
                    "end_of_interest": "2030-12-31", "horizon": "2060-12-31",
                    "schedule": {"start_date": "2020-03-12", "intensity": 0.05, "duration_weeks": 26},
                }
            }
        }
        config = data_io.load_config(write(tmp_path, "cfg.json", json.dumps(body)))
        scenario = config.scenario("mild-policy")
        assert scenario.schedule.intensity_p == 0.05
        assert scenario.schedule.duration_days == 182

    def test_schedule_missing_key_named_with_path(self, tmp_path):
        raw = {**data_io.default_config()["scenarios"]["no-intervention"],
               "schedule": {"start_date": "2020-03-12", "duration_weeks": 26}}
        path = write(tmp_path, "cfg.json", json.dumps({"scenarios": {"mild-policy": raw}}))
        with pytest.raises(DataFormatError,
                           match=r"config\.scenarios\.mild-policy\.schedule: missing keys \['intensity'\]"):
            data_io.load_config(path)

    def test_sweep_grids_parsed_on_load(self):
        sweeps = data_io.load_config().sweeps
        assert sweeps["start"].values[0] == date(2020, 4, 9)
        assert sweeps["start"].fixed == {"intensity": 0.1, "duration_weeks": 26}
        assert sweeps["intensity"].values == [0.05, 0.15, 0.25]
        assert sweeps["intensity"].fixed == {"start_date": date(2020, 3, 12), "duration_weeks": 26}
        assert sweeps["duration"].values == [4, 28, 52, 76]
        assert sweeps["duration"].fixed == {"start_date": date(2020, 3, 12), "intensity": 0.1}

    def test_unknown_scenario_lookup_lists_known(self):
        config = data_io.load_config()
        with pytest.raises(KeyError, match="no-pandemic"):
            config.scenario("unknown-name")

    def test_config_document_round_trip(self, tmp_path):
        path = write(tmp_path, "full.json", json.dumps(data_io.default_config()))
        reloaded = data_io.load_config(path)
        assert reloaded == data_io.load_config()
