import csv
import json
from datetime import date

import numpy as np
import pytest

from epigrowth import data_io
from epigrowth.data_io import DataFormatError, DatasetManifest
from epigrowth.params import default_params
from tests.conftest import DATA_DIR


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


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

    def test_fixture_active_cases_spot_check(self):
        manifest = DatasetManifest(path=DATA_DIR / "global_cases.csv", kind="cases")
        series, repairs = data_io.load_case_series(manifest)
        with open(manifest.path) as fh:
            rows = list(csv.DictReader(fh))
        for i in (0, len(rows) // 2, len(rows) - 1):
            expected = float(rows[i]["confirmed"]) - float(rows[i]["recovered"]) - float(rows[i]["deaths"])
            assert series.active()[i] == pytest.approx(expected)
        assert sum(repairs.values()) == 0


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
            params_digest="",
            dates=trajectory.dates[:1],
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


class TestParamsDocument:
    def test_round_trip_with_provenance(self, tmp_path):
        params = default_params()
        path = tmp_path / "params.json"
        data_io.write_params(params, path, provenance={"source": "test"})
        assert data_io.read_params(path) == params
        assert json.loads(path.read_text())["provenance"] == {"source": "test"}

    @pytest.mark.parametrize("field,value", [("a1", float("nan")), ("beta_daily", "0.9998")])
    def test_malformed_value_names_the_field(self, tmp_path, field, value):
        doc = {**default_params().to_dict(), field: value}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=rf"ModelParams\.{field}\b"):
            data_io.read_params(path)

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
        scenario = config.scenario("no-pandemic")
        assert scenario.K0 == 2.775e14
        assert scenario.A0 == 1.880
        assert scenario.start_date == date(2019, 1, 1)
        ni = config.scenario("no-intervention")
        assert ni.N0 == 7.718e9 and ni.I0 == 510 and ni.R0 == 28 and ni.D0 == 17
        assert ni.b0 == 2.041e-11 and ni.K0 == 2.827e14 and ni.A0 == 1.906

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
                    "b0": 2.041e-11, "a0": 1.906, "k0": 2.827e14,
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
