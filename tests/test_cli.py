import csv
import json

import numpy as np
import pytest

from epigrowth import data_io, scenarios
from epigrowth.cli import main
from epigrowth.params import default_params
from tests.conftest import DATA_DIR


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    """Configuration with shortened horizons so CLI runs stay quick; the
    reporting window is shortened alongside."""
    body = {
        "scenarios": {
            "no-pandemic": {"end_of_interest": "2025-12-31", "horizon": "2035-12-31"},
            "no-intervention": {"end_of_interest": "2025-12-31", "horizon": "2035-12-31"},
        },
        "backtest": {"end_year": 2000, "horizon": "2020-12-31"},
    }
    path = tmp_path_factory.mktemp("cfg") / "fast.json"
    path.write_text(json.dumps(body))
    return str(path)


@pytest.fixture(scope="module")
def calibrate_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("calibrate") / "params.json"
    code = main(["calibrate", "--data", str(DATA_DIR), "--out", str(out)])
    assert code == 0
    return out


class TestCalibrate:
    def test_writes_params_close_to_published(self, calibrate_out):
        params = data_io.read_params(calibrate_out)
        ref = default_params()
        assert params.b0 == pytest.approx(ref.b0, rel=5e-3)
        assert params.g_daily == pytest.approx(ref.g_daily, rel=0.02)
        assert params.log_q1 == pytest.approx(ref.log_q1, rel=1e-6)

    def test_writes_regression_report(self, calibrate_out):
        report = json.loads(calibrate_out.with_name("params_report.json").read_text())
        assert report["population_fit"]["n_obs"] == 58
        assert report["tradeoff_fit"]["n_obs"] == 45
        assert "std_errors" in report["mortality_fit"]

    def test_missing_data_dir_lists_datasets(self, tmp_path, capsys):
        code = main(["calibrate", "--data", str(tmp_path), "--out", str(tmp_path / "p.json")])
        assert code == 1
        assert "missing datasets" in capsys.readouterr().err

    def test_unwritable_output_fails(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        out = blocker / "params.json"  # parent is a file
        code = main(["calibrate", "--data", str(DATA_DIR), "--out", str(out)])
        assert code == 1

    def test_data_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EPIGROWTH_DATA_DIR", str(DATA_DIR))
        out = tmp_path / "params.json"
        assert main(["calibrate", "--out", str(out)]) == 0
        assert out.exists()


class TestSimulate:
    def test_no_pandemic_zero_deaths(self, tmp_path, fast_config):
        out = tmp_path / "np"
        code = main(["simulate", "--scenario", "no-pandemic", "--out", str(out),
                     "--config", fast_config])
        assert code == 0
        trajectory = data_io.read_trajectory(out / "no-pandemic_trajectory.csv")
        assert np.all(trajectory.D == 0.0)
        metrics = json.loads((out / "no-pandemic_metrics.json").read_text())
        assert metrics["total_deaths"] == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "no-pandemic_trajectory.csv" in manifest["files"]

    def test_no_intervention_death_toll(self, tmp_path, fast_config):
        out = tmp_path / "ni"
        code = main(["simulate", "--scenario", "no-intervention", "--out", str(out),
                     "--config", fast_config])
        assert code == 0
        metrics = json.loads((out / "no-intervention_metrics.json").read_text())
        assert abs(metrics["total_deaths"] / 1.75e9 - 1.0) <= 0.15
        assert metrics["peak_date"].startswith("2020-06")

    def test_unknown_scenario_lists_known(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "mystery", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "no-pandemic" in err and "no-intervention" in err

    def test_scenario_file(self, tmp_path, fast_config):
        scenario_file = tmp_path / "custom.json"
        scenario_file.write_text(json.dumps({
            "name": "custom-policy",
            "start_date": "2020-01-22", "n0": 7.718e9, "i0": 510, "r0": 28, "d0": 17,
            "b0": 2.041e-11, "a0": 1.906, "k0": 2.827e14,
            "end_of_interest": "2023-12-31", "horizon": "2030-12-31",
            "schedule": {"start_date": "2020-05-21", "intensity": 0.1, "duration_weeks": 26},
        }))
        out = tmp_path / "custom"
        code = main(["simulate", "--scenario", str(scenario_file), "--out", str(out),
                     "--config", fast_config])
        assert code == 0
        assert (out / "custom-policy_trajectory.csv").exists()


class TestScenarioFile:
    def write_scenario(self, tmp_path, text):
        path = tmp_path / "custom.json"
        path.write_text(text)
        return path

    def simulate(self, path, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def test_top_level_list_names_the_file(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, "[1, 2]")
        code, err = self.simulate(path, tmp_path, capsys)
        assert code == 1
        assert f"{path}: top-level JSON value must be an object" in err

    def test_invalid_json_names_the_file(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, '{"name": "x",')
        code, err = self.simulate(path, tmp_path, capsys)
        assert code == 1
        assert f"{path}: invalid JSON" in err

    def test_schedule_missing_key_named_with_path(self, tmp_path, capsys):
        raw = {**data_io.default_config()["scenarios"]["no-intervention"],
               "schedule": {"start_date": "2020-05-21", "duration_weeks": 26}}
        path = self.write_scenario(tmp_path, json.dumps(raw))
        code, err = self.simulate(path, tmp_path, capsys)
        assert code == 1
        assert f"{path}.schedule: missing keys ['intensity']" in err

    def test_params_top_level_list_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text("[1, 2]")
        code = main(["simulate", "--scenario", "no-pandemic", "--params", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{path}: top-level JSON value must be an object" in capsys.readouterr().err


# malformed sweep grids: (axis, config "sweeps" override or None, --values
# text or None, the key the error must name)
MALFORMED_GRIDS = [
    ("intensity", {"intensity": {"values": [5, 15]}}, None, "config.sweeps.intensity.values[0]"),
    ("intensity", {"intensity": {"values": ["0.05"]}}, None, "config.sweeps.intensity.values[0]"),
    ("duration", {"duration": {"weeks": [4.5]}}, None, "config.sweeps.duration.weeks[0]"),
    ("duration", {"duration": {"weeks": [True]}}, None, "config.sweeps.duration.weeks[0]"),
    ("duration", {"duration": {"weeks": [4, -4]}}, None, "config.sweeps.duration.weeks[1]"),
    ("start", {"start": {"intensity": "0.1"}}, None, "config.sweeps.start.intensity"),
    ("start", {"start": {"dates": "2020-05-21"}}, None, "config.sweeps.start.dates"),
    ("duration", {"duration": {"weeks": []}}, None, "config.sweeps.duration.weeks"),
    ("start", {"start": {"dates": ["2020-05-21", "2020-05-21"]}}, None, "config.sweeps.start.dates[1]"),
    ("intensity", None, "5,15", "--values[0]"),
    ("intensity", None, "0.05,five", "--values[1]"),
    ("intensity", None, "nan", "--values[0]"),
    ("duration", None, "4.5", "--values[0]"),
    ("duration", None, "true", "--values[0]"),
    ("duration", None, "4,-4", "--values[1]"),
    ("start", None, "2020-05-21,2020-13-01", "--values[1]"),
    ("start", None, ",", "--values"),
    ("duration", None, "4,8,4", "--values[2]"),
    ("intensity", None, "0.05,0.050001", "--values[1]"),
]


class TestMalformedGrid:
    @pytest.mark.parametrize("axis,sweeps,values,key", MALFORMED_GRIDS)
    def test_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys, axis, sweeps, values, key):
        def no_solve(*args, **kwargs):
            raise AssertionError("a scenario was solved before the grid was checked")

        monkeypatch.setattr(scenarios, "run_scenario", no_solve)
        out = tmp_path / "out"
        argv = ["sweep", "--axis", axis, "--out", str(out)]
        if sweeps is not None:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"sweeps": sweeps}))
            argv += ["--config", str(config)]
        if values is not None:
            argv += ["--values", values]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not out.exists()


class TestSweep:
    def test_duration_sweep_outputs(self, tmp_path, fast_config):
        out = tmp_path / "sweep"
        code = main(["sweep", "--axis", "duration", "--values", "4,16", "--out", str(out),
                     "--config", fast_config])
        assert code == 0
        rows = list(csv.DictReader(open(out / "comparison.csv")))
        names = [r["scenario"] for r in rows]
        assert names == ["no-intervention", "duration-004wk", "duration-016wk"]
        for name in ("I.svg", "I_data.csv", "D.svg", "Y.svg", "C.svg"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert "comparison.csv" in manifest["files"]

    def test_reproducible_byte_identical(self, tmp_path, fast_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["sweep", "--axis", "duration", "--values", "4", "--out", str(out),
                         "--config", fast_config]) == 0
        for name in ("comparison.csv", "I.svg", "I_data.csv", "duration-004wk_trajectory.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_empty_values_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--axis", "duration", "--values", "", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_intensity_values_must_be_fractions(self, tmp_path, capsys):
        code = main(["sweep", "--axis", "intensity", "--values", "5,15",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "0.05" in capsys.readouterr().err

    def test_single_value_sweep(self, tmp_path, fast_config):
        out = tmp_path / "single"
        code = main(["sweep", "--axis", "start", "--values", "2020-05-21", "--out", str(out),
                     "--config", fast_config])
        assert code == 0
        rows = list(csv.DictReader(open(out / "comparison.csv")))
        assert len(rows) == 2  # no-intervention reference plus the single run


class TestBacktestCommand:
    def test_report_and_table(self, tmp_path, fast_config):
        out = tmp_path / "bt"
        code = main(["backtest", "--observed", str(DATA_DIR), "--out", str(out),
                     "--config", fast_config])
        assert code == 0
        report = json.loads((out / "backtest_report.json").read_text())
        assert report["within_tolerance"] is True
        assert report["start_year"] == 1990 and report["end_year"] == 2000
        rows = list(csv.DictReader(open(out / "backtest_table.csv")))
        assert len(rows) == 11

    def test_missing_observed_dataset(self, tmp_path, capsys):
        code = main(["backtest", "--observed", str(tmp_path), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "missing observed dataset" in capsys.readouterr().err


@pytest.fixture(scope="module")
def two_trajectories(tmp_path_factory, fast_config):
    out = tmp_path_factory.mktemp("trajs")
    for name in ("no-pandemic", "no-intervention"):
        assert main(["simulate", "--scenario", name, "--out", str(out),
                     "--config", fast_config]) == 0
    return [out / "no-pandemic_trajectory.csv", out / "no-intervention_trajectory.csv"]


class TestReport:
    def test_plots_and_data(self, tmp_path, two_trajectories):
        out = tmp_path / "plots"
        code = main(["report", *map(str, two_trajectories), "--variables", "Y,I", "--out", str(out)])
        assert code == 0
        assert (out / "Y.svg").exists() and (out / "I.svg").exists()
        svg = (out / "Y.svg").read_text()
        assert "epigrowth-svg/1" in svg
        assert svg.count("<polyline") == 2  # one line per trajectory

    def test_plot_data_is_column_passthrough(self, tmp_path, two_trajectories):
        out = tmp_path / "plots"
        assert main(["report", str(two_trajectories[1]), "--variables", "D", "--out", str(out)]) == 0
        trajectory = data_io.read_trajectory(two_trajectories[1])
        rows = list(csv.DictReader(open(out / "D_data.csv")))
        assert len(rows) == len(trajectory.dates)
        got = np.array([float(r["no-intervention_trajectory"]) for r in rows])
        assert np.array_equal(got, trajectory.D)

    def test_unknown_variable_names_valid_columns(self, tmp_path, two_trajectories, capsys):
        code = main(["report", str(two_trajectories[0]), "--variables", "Q",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'Q'" in err and "'Y'" in err

    def test_no_variables_rejected(self, tmp_path, two_trajectories, capsys):
        code = main(["report", str(two_trajectories[0]), "--variables", "",
                     "--out", str(tmp_path / "x")])
        assert code == 1
