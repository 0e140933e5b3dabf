import csv
import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import epigrowth
from epigrowth import data_io, plotting, scenarios
from epigrowth.cli import main
from epigrowth.params import default_params, shown
from tests.conftest import DATA_DIR

HUGE = 10 ** 400  # a JSON integer beyond the float range


def csv_rows(path) -> list:
    """The rows of the CSV file at ``path``, as dicts."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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

    def test_unwritable_output_fails(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        out = blocker / "params.json"  # parent is a file
        code = main(["calibrate", "--data", str(DATA_DIR), "--out", str(out)])
        assert code == 1

    def test_assumed_values_come_from_the_config(self, tmp_path):
        # alpha, u, h and the solver settings are the config's params; a
        # calibration without --config writes the shipped u, 5722.078
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"params": {"u": 1000.0, "h": 0.5, "euler_tol": 1e-7}}))
        out = tmp_path / "params.json"
        assert main(["calibrate", "--data", str(DATA_DIR), "--out", str(out), "--config", str(config)]) == 0
        params = data_io.read_params(out)
        assert (params.u, params.h, params.euler_tol) == (1000.0, 0.5, 1e-7)
        assert params.alpha == default_params().alpha

    @pytest.mark.parametrize("name,value", [("delta_daily", 2e-4), ("beta_daily", 0.9997)])
    def test_daily_rate_override_written_to_the_bundle(self, tmp_path, name, value):
        # the daily rates are assumed, as u and h are: the config's value
        # is the bundle's, and the report lists it
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"params": {name: value}}))
        out = tmp_path / "params.json"
        assert main(["calibrate", "--data", str(DATA_DIR), "--out", str(out), "--config", str(config)]) == 0
        assert getattr(data_io.read_params(out), name) == value
        report = json.loads(out.with_name("params_report.json").read_text())
        assert report["assumed"][name] == value

    def test_report_flag_retired(self, tmp_path, capsys):
        # the report always goes beside --out, as <stem>_report.json
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--data", str(DATA_DIR), "--out", str(tmp_path / "params.json"),
                  "--report", str(tmp_path / "report.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --report" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_data_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EPIGROWTH_DATA_DIR", str(DATA_DIR))
        out = tmp_path / "params.json"
        assert main(["calibrate", "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("option,name", [("--out", "global_cases.csv"), ("report", "params_report.json")])
    def test_output_on_a_dataset_rejected(self, tmp_path, capsys, option, name):
        # the report goes beside --out as <stem>_report.json, so it meets a
        # dataset of that name: here the GDP series, renamed by the config
        data = tmp_path / "data"
        data.mkdir()
        for source in DATA_DIR.glob("*.csv"):
            (data / source.name).write_bytes(source.read_bytes())
        (data / "world_gdp.csv").rename(data / "params_report.json")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"data": {"gdp": "params_report.json"}}))
        datasets = {path: path.read_bytes() for path in data.iterdir()}
        out = data / ".." / "data" / ("params.json" if option == "report" else name)  # spelt another way
        target = out.with_name(name)
        assert main(["calibrate", "--data", str(data), "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: output {target} would overwrite the input {data / name}\n"
        assert {path: path.read_bytes() for path in data.iterdir()} == datasets
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "data"]

    def test_bundle_that_breaks_a_rule_not_written(self, tmp_path, capsys):
        # a convex trade-off panel, reduction = 0.2 * shortfall**2, fits
        # q2 = 2 (to 7e-16), which every command that loads params refuses
        data = tmp_path / "data"
        data.mkdir()
        for source in DATA_DIR.glob("*.csv"):
            (data / source.name).write_bytes(source.read_bytes())
        shortfalls = [1.0 + 0.5 * k for k in range(29)]
        (data / "tradeoff_panel.csv").write_text(
            "country,week_start,gdp_shortfall_pct,infection_reduction_pct\n"
            + "".join(f"France,{(date(2020, 3, 2) + timedelta(weeks=k)).isoformat()},{x!r},{0.2 * x * x!r}\n"
                      for k, x in enumerate(shortfalls)))
        assert main(["calibrate", "--data", str(data), "--out", str(tmp_path / "params.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {data}: ModelParams.q2 must lie in (0, 1), got 1.99")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["data"]


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

    def test_params_b0_reaches_the_run(self, tmp_path, fast_config):
        # every run takes its infection rate from the params: 1e-9, 49 times
        # the shipped rate, changes the no-intervention trajectory
        params_file = tmp_path / "params.json"
        data_io.write_json({**default_params().to_dict(), "b0": 1e-9}, params_file)
        paths = {}
        for name, extra in (("default", []), ("fast-spread", ["--params", str(params_file)])):
            out = tmp_path / name
            assert main(["simulate", "--scenario", "no-intervention", "--out", str(out),
                         "--config", fast_config, *extra]) == 0
            paths[name] = out / "no-intervention_trajectory.csv"
        assert paths["default"].read_bytes() != paths["fast-spread"].read_bytes()
        default, fast = (data_io.read_trajectory(path) for path in paths.values())
        assert fast.D[-1] > default.D[-1]

    @pytest.mark.parametrize("passes", [1, 2])
    def test_plan_that_misses_the_terminal_target_refused(self, tmp_path, capsys, passes):
        # too few search passes to reach the target: the solver returns the
        # feasibility probe's near-zero consumption, 11.9 targets of capital
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"params": {"max_bisection_iter": passes}}))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", "no-pandemic", "--out", str(out), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: scenario 'no-pandemic': terminal capital 9.62789e+15 misses its target "
                              "7.45093e+14 by 11.9 of it, more than 1e-09")
        assert list(out.iterdir()) == []

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
            "a0": 1.906, "k0": 2.827e14,
            "end_of_interest": "2023-12-31", "horizon": "2030-12-31",
            "schedule": {"start_date": "2020-05-21", "intensity": 0.1, "duration_weeks": 26},
        }))
        out = tmp_path / "custom"
        code = main(["simulate", "--scenario", str(scenario_file), "--out", str(out),
                     "--config", fast_config])
        assert code == 0
        assert (out / "custom-policy_trajectory.csv").exists()


class TestSimulateReference:
    def test_baseline_is_its_own_reference_only_when_it_is_the_configured_one(
            self, tmp_path, monkeypatch, fast_config):
        # the shipped no-pandemic scenario with K0 halved is measured against
        # the configured baseline under its own name as under any other
        solves, run_scenario = [], scenarios.run_scenario

        def counted(scenario, params):
            solves.append(scenario.name)
            return run_scenario(scenario, params)

        monkeypatch.setattr(scenarios, "run_scenario", counted)
        assert main(["simulate", "--scenario", "no-pandemic", "--config", fast_config,
                     "--out", str(tmp_path / "shipped")]) == 0
        assert solves == ["no-pandemic"]
        shipped = data_io.load_config(fast_config).scenario(scenarios.NO_PANDEMIC)
        raw = {**data_io.default_config()["scenarios"]["no-pandemic"], "k0": shipped.K0 / 2,
               "end_of_interest": shipped.end_of_interest.isoformat(), "horizon": shipped.horizon.isoformat()}
        metrics = {}
        for name in ("no-pandemic", "halved-capital"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"name": name, **raw}))
            solves.clear()
            assert main(["simulate", "--scenario", str(path), "--config", fast_config,
                         "--out", str(tmp_path / name)]) == 0
            assert solves == [name, "no-pandemic"]
            metrics[name] = json.loads((tmp_path / name / f"{name}_metrics.json").read_text())
            assert metrics[name].pop("scenario") == name
        assert metrics["no-pandemic"] == metrics["halved-capital"]
        assert metrics["no-pandemic"]["max_output_drop_pct"] > 10.0
        assert all(ratio < 1.0 for ratio in metrics["no-pandemic"]["output_ratio_at"].values())


class TestOutputOnAnInput:
    """simulate, sweep and backtest refuse to write over a file they read,
    before any solve: one error line naming both paths, the input's bytes
    unchanged and nothing written."""

    COMMANDS = {
        "simulate": ["simulate", "--scenario", "no-intervention"],
        "sweep": ["sweep", "--axis", "duration", "--values", "4"],
        "backtest": ["backtest", "--data", str(DATA_DIR)],
    }

    @pytest.mark.parametrize("command,option,name", [
        ("simulate", "--config", "manifest.json"),
        ("simulate", "--params", "no-intervention_metrics.json"),
        ("simulate", "--scenario", "custom_trajectory.csv"),
        ("sweep", "--config", "duration-004wk_trajectory.csv"),
        ("sweep", "--params", "comparison.json"),
        ("sweep", "--params", "C_data.csv"),
        ("backtest", "--config", "manifest.json"),
        ("backtest", "--params", "backtest_report.json"),
    ])
    def test_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys, fast_config, command, option, name):
        def no_solve(*args, **kwargs):
            raise AssertionError("a scenario was solved before the outputs were checked")

        monkeypatch.setattr(scenarios, "run_scenario", no_solve)
        out = tmp_path / "out"
        out.mkdir()
        path = out / name
        argv = [*self.COMMANDS[command], "--out", str(out)]
        if option == "--config":
            path.write_text(Path(fast_config).read_text())
        else:
            argv += ["--config", fast_config]
        if option == "--params":
            data_io.write_json(default_params().to_dict(), path)
        if option == "--scenario":
            path.write_text(json.dumps({**data_io.default_config()["scenarios"]["no-intervention"], "name": "custom"}))
            argv[2] = str(path)
        else:
            argv += [option, str(path)]
        written = path.read_bytes()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: output {path} would overwrite the input {path}\n"
        assert path.read_bytes() == written and [p.name for p in out.iterdir()] == [name]

    def test_backtest_dataset_rejected(self, tmp_path, capsys):
        # a dataset the config names like a backtest output
        data = tmp_path / "data"
        data.mkdir()
        for source in DATA_DIR.glob("*.csv"):
            (data / source.name).write_bytes(source.read_bytes())
        (data / "world_gdp.csv").rename(data / "backtest_table.csv")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"data": {"gdp": "backtest_table.csv"}}))
        datasets = {path: path.read_bytes() for path in data.iterdir()}
        assert main(["backtest", "--data", str(data), "--config", str(config), "--out", str(data)]) == 1
        path = data / "backtest_table.csv"
        assert capsys.readouterr().err == f"error: output {path} would overwrite the input {path}\n"
        assert {path: path.read_bytes() for path in data.iterdir()} == datasets


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

    def test_number_beyond_float_range_named_with_path(self, tmp_path, capsys):
        raw = {**data_io.default_config()["scenarios"]["no-intervention"], "n0": HUGE}
        path = self.write_scenario(tmp_path, json.dumps(raw))
        code, err = self.simulate(path, tmp_path, capsys)
        assert code == 1
        assert err.startswith(f"error: {path}.n0: expected a finite number")

    def test_b0_key_rejected(self, tmp_path, capsys):
        # the infection rate is a params field, not a scenario setting
        raw = {**data_io.default_config()["scenarios"]["no-intervention"], "b0": 2.041e-11}
        path = self.write_scenario(tmp_path, json.dumps(raw))
        code, err = self.simulate(path, tmp_path, capsys)
        assert code == 1
        assert err == f"error: unknown configuration key {path}.'b0'\n"

    def test_params_top_level_list_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text("[1, 2]")
        code = main(["simulate", "--scenario", "no-pandemic", "--params", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{path}: top-level JSON value must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "", ".", ".."])
    def test_name_that_leaves_out_is_rejected(self, tmp_path, capsys, name):
        raw = {**data_io.default_config()["scenarios"]["no-intervention"], "name": name}
        path = self.write_scenario(tmp_path, json.dumps(raw))
        out = tmp_path / "o" / "inner"
        code = main(["simulate", "--scenario", str(path), "--out", str(out)])
        assert code == 1
        assert f"{path}.name: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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
    pytest.param("intensity", None, str(HUGE), "--values[0]", id="intensity-None-huge---values[0]"),
    ("duration", None, "4.5", "--values[0]"),
    ("duration", None, "true", "--values[0]"),
    ("duration", None, "4,-4", "--values[1]"),
    pytest.param("duration", None, str(HUGE), "--values[0]", id="duration-None-huge---values[0]"),
    ("duration", None, f"4,{timedelta.max.days // 7 + 1}", "--values[1]"),
    pytest.param("duration", {"duration": {"weeks": [4, HUGE]}}, None, "config.sweeps.duration.weeks[1]",
                 id="duration-huge-config.sweeps.duration.weeks[1]"),
    ("start", None, "2020-05-21,2020-13-01", "--values[1]"),
    ("start", None, "2020-05-21,2020-W22-4", "--values[1]"),
    ("start", None, "20200521", "--values[0]"),
    ("start", {"start": {"dates": ["2020-05-21", "20200528"]}}, None, "config.sweeps.start.dates[1]"),
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


class TestEchoedValue:
    """An error echoes at most 80 characters of the value it rejects."""

    def test_digits_int_refuses_stay_text(self, tmp_path, capsys):
        # int() refuses more than 4,300 digits, and float() reads them as inf
        nines = "9" * 5000
        assert main(["sweep", "--axis", "duration", "--values", nines, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --values[0]: ") and f"got '{'9' * 79}..." in err
        assert "inf" not in err

    def test_value_nested_too_deeply_for_repr(self):
        deep = []
        for _ in range(100_000):
            deep = [deep]
        assert shown(deep) == "[" * 7 + "..." + "]" * 7  # reprlib's six levels, then an elided one
        assert shown("x" * 100) == "'" + "x" * 79 + "..."

    @pytest.mark.parametrize("argv,config,key", [
        (["sweep", "--axis", "duration", "--values", "9" * 400], None, "--values[0]"),
        (["simulate", "--scenario", "no-pandemic"], '{"params": ' + "[" * 980 + "]" * 980 + "}", "config.params"),
    ], ids=["400-digit-values-item", "params-nested-980-deep"])
    def test_one_short_line_naming_the_key(self, tmp_path, argv, config, key):
        # in a fresh process: under pytest's deeper stack, JSON nested 980
        # deep is already too deep to read
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        src = str(Path(epigrowth.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "epigrowth.cli", *argv, "--out", str(tmp_path / "out")],
                             capture_output=True, env=env, timeout=120)
        assert run.returncode == 1
        assert run.stderr.count(b"\n") == 1 and run.stderr.startswith(f"error: {key}: ".encode())
        assert len(run.stderr) <= 200
        assert not (tmp_path / "out").exists()


# config values checked at load: (config override, the dotted key the error names)
MALFORMED_CONFIG_VALUES = [
    ({"backtest": {"start_year": "1990x"}}, "config.backtest.start_year"),
    ({"backtest": {"start_year": 1990.5}}, "config.backtest.start_year"),
    ({"backtest": {"tolerance": "abc"}}, "config.backtest.tolerance"),
    ({"data": {"population_fit_years": [2018]}}, "config.data.population_fit_years"),
    ({"data": {"gdp": 5}}, "config.data.gdp"),
    ({"data": {"case_population": "x"}}, "config.data.case_population"),
    ({"backtest": {"end_year": 0}}, "config.backtest.end_year"),
    ({"data": {"population_fit_years": [1960, "2018"]}}, "config.data.population_fit_years[1]"),
]


class TestMalformedConfigValue:
    @pytest.mark.parametrize("command", ["calibrate", "backtest"])
    @pytest.mark.parametrize("override,key", MALFORMED_CONFIG_VALUES)
    def test_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys, command, override, key):
        def no_solve(*args, **kwargs):
            raise AssertionError("a scenario was solved before the config was checked")

        monkeypatch.setattr(scenarios, "run_scenario", no_solve)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(override))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out / "params.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {key}: ")
        assert not out.exists()


# malformed config documents: (config override, how the one error line
# starts after "error: ")
MALFORMED_CONFIGS = [
    ({"params": {"betta_daily": 0.9998}}, "unknown configuration key config.params.'betta_daily'"),
    ({"params": 5}, "config.params: expected an object"),
    ({"scenarios": [1]}, "config.scenarios: expected an object"),
    ({"metrics": {"output_ratio_dates": 5}}, "config.metrics.output_ratio_dates: expected a list"),
    ({"metrics": {"output_ratio_dates": "2030-12-31"}}, "config.metrics.output_ratio_dates: expected a list"),
    ({"metrics": {"output_ratio_dates": ["20301231"]}},
     "config.metrics.output_ratio_dates[0]: unparseable date '20301231'"),
    ({"backtest": {"horizon": "2060-W52-7"}}, "config.backtest.horizon: unparseable date '2060-W52-7'"),
    ({"scenarios": {"no-intervention": {"start_date": "2020-W04-3"}}},
     "config.scenarios.no-intervention.start_date: unparseable date '2020-W04-3'"),
    ({"params": {"u": HUGE}}, "config.params: ModelParams.u: expected a finite number"),
    ({"scenarios": {"no-pandemic": {"n0": HUGE}}}, "config.scenarios.no-pandemic.n0: expected a finite number"),
    ({"sweeps": {"intensity": {"values": [HUGE]}}}, "config.sweeps.intensity.values[0]: expected a fraction"),
    ({"data": {"population_fit_years": [2018, 1960]}}, "config.data.population_fit_years: expected"),
    ({"backtest": {"end_year": 1980}}, "config.backtest.end_year: expected"),
    ({"backtest": {"horizon": "2005-01-01"}}, "config.backtest.horizon: expected"),
    ({"data": {"case_population": -5}}, "config.data.case_population: expected"),
    ({"scenarios": {"no-intervention": {"b0": 2.041e-11}}},
     "unknown configuration key config.scenarios.no-intervention.'b0'"),
    ({"params": {"q2": 1.5}}, "config.params: ModelParams.q2 must lie in (0, 1), got 1.5"),
    ({"params": {"max_bisection_iter": -1}}, "config.params: ModelParams.max_bisection_iter must be >= 1, got -1"),
]
COMMANDS = {
    "simulate": ["simulate", "--scenario", "no-intervention"],
    "sweep": ["sweep", "--axis", "intensity"],
    "calibrate": ["calibrate", "--data", str(DATA_DIR)],
    "backtest": ["backtest", "--data", str(DATA_DIR)],
}


class TestMalformedConfig:
    """Every malformed config document is one error line naming its key,
    whatever command loads it, before anything is solved or written."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("override,message", MALFORMED_CONFIGS)
    def test_one_line_naming_the_key(self, tmp_path, monkeypatch, capsys, command, override, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("a scenario was solved before the config was checked")

        monkeypatch.setattr(scenarios, "run_scenario", no_solve)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(override))
        out = tmp_path / "out"
        target = out / "params.json" if command == "calibrate" else out
        assert main([*COMMANDS[command], "--config", str(config), "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--config", "--params", "--scenario"])
    def test_json_nested_too_deeply_names_the_file(self, tmp_path, monkeypatch, capsys, option):
        def no_solve(*args, **kwargs):
            raise AssertionError("a scenario was solved before the file was checked")

        monkeypatch.setattr(scenarios, "run_scenario", no_solve)
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "out"
        # a repeated --scenario overrides the first
        assert main(["simulate", "--scenario", "no-pandemic", "--out", str(out), option, str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: JSON nested too deeply to read\n"
        assert not out.exists()

    # each JSON option's document with a key given twice, the later value valid
    @pytest.mark.parametrize("option,key,text", [
        ("--config", "b0", '{"params": {"b0": 1e-11, "b0": 2.041e-11}}'),
        ("--params", "b0", '{"b0": 1e-11, ' + json.dumps(default_params().to_dict())[1:]),
        ("--scenario", "i0", '{"i0": 1, ' + json.dumps(data_io.default_config()["scenarios"]["no-intervention"])[1:]),
    ], ids=["config", "params", "scenario"])
    def test_repeated_key_names_the_file_and_key(self, tmp_path, monkeypatch, capsys, option, key, text):
        def no_solve(*args, **kwargs):
            raise AssertionError("a scenario was solved before the file was checked")

        monkeypatch.setattr(scenarios, "run_scenario", no_solve)
        path = tmp_path / "repeated.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", "no-pandemic", "--out", str(out), option, str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: invalid JSON: duplicate key '{key}'\n"
        assert not out.exists()


# bytes appended to an input CSV -> what the error must say for a dataset,
# which the csv module splits, and for a trajectory, whose reader takes only
# ASCII lines of 11 commas and names the line that the bytes start
UNREADABLE_TAILS = {"not-utf-8": (b"\xff", "can't decode byte 0xff", "unexpected byte b'\\xff'"),
                    "field-over-limit": (b'"' + b"x" * 200_000, "field larger than field limit",
                                         "expected 12 fields")}


class TestUnreadableInput:
    """A byte that is not UTF-8, or a field over the csv module's size
    limit, in an input CSV is a one-line error naming the file; for a
    trajectory CSV, also its line."""

    def assert_named(self, capsys, code, path, what):
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: ") and what in err

    @pytest.mark.parametrize("kind", sorted(UNREADABLE_TAILS))
    def test_dataset(self, tmp_path, capsys, kind):
        tail, what, _ = UNREADABLE_TAILS[kind]
        data = tmp_path / "data"
        data.mkdir()
        for source in DATA_DIR.glob("*.csv"):
            (data / source.name).write_bytes(source.read_bytes())
        gcf = data / "world_gcf.csv"
        gcf.write_bytes(gcf.read_bytes() + tail)
        code = main(["calibrate", "--data", str(data), "--out", str(tmp_path / "params.json")])
        self.assert_named(capsys, code, gcf, what)

    @pytest.mark.parametrize("kind", sorted(UNREADABLE_TAILS))
    def test_trajectory(self, tmp_path, capsys, two_trajectories, kind):
        tail, _, what = UNREADABLE_TAILS[kind]
        written = two_trajectories[0].read_bytes()
        tail_row = written.count(b"\n") + 1
        path = tmp_path / "t.csv"
        path.write_bytes(written + tail)
        code = main(["report", str(path), "--variables", "Y", "--out", str(tmp_path / "plots")])
        self.assert_named(capsys, code, f"{path}: row {tail_row}", what)


class TestSweep:
    def test_duration_sweep_outputs(self, tmp_path, fast_config):
        out = tmp_path / "sweep"
        code = main(["sweep", "--axis", "duration", "--values", "4,16", "--out", str(out),
                     "--config", fast_config])
        assert code == 0
        rows = csv_rows(out / "comparison.csv")
        names = [r["scenario"] for r in rows]
        assert names == ["no-intervention", "duration-004wk", "duration-016wk"]
        for name in ("I.svg", "I_data.csv", "D.svg", "Y.svg", "C.svg"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert "comparison.csv" in manifest["files"]

    def test_config_settings_reach_the_rows(self, tmp_path, fast_config):
        # the grid's fixed settings and the ratio dates come from --config;
        # a ratio date after the shortened window gets no column
        body = json.loads(Path(fast_config).read_text())
        body["sweeps"] = {"duration": {"intensity": 0.2, "start_date": "2020-04-01"}}
        body["metrics"] = {"output_ratio_dates": ["2024-06-30", "2030-12-31"]}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(body))
        out = tmp_path / "sweep"
        assert main(["sweep", "--axis", "duration", "--values", "4", "--out", str(out),
                     "--config", str(config)]) == 0
        base, member = csv_rows(out / "comparison.csv")
        assert (member["scenario"], member["intensity"], member["policy_start"]) == (
            "duration-004wk", "0.2", "2020-04-01")
        assert [key for key in member if key.startswith("output_ratio_")] == ["output_ratio_2024-06-30"]
        assert base["output_ratio_2024-06-30"] != "" and member["output_ratio_2024-06-30"] != ""

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
        rows = csv_rows(out / "comparison.csv")
        assert len(rows) == 2  # no-intervention reference plus the single run

    def test_policy_start_outside_run_fills_its_row_error(self, tmp_path, fast_config):
        out = tmp_path / "late"
        code = main(["sweep", "--axis", "start", "--values", "2020-05-21,2070-01-01",
                     "--out", str(out), "--config", fast_config])
        assert code == 0
        rows = {r["scenario"]: r for r in csv_rows(out / "comparison.csv")}
        assert rows["start-2020-05-21"]["error"] == ""
        late = rows["start-2070-01-01"]
        assert late["error"].startswith("Scenario.schedule.start_date")
        assert late["total_deaths"] == ""
        assert not (out / "start-2070-01-01_trajectory.csv").exists()

    def test_every_member_failing_writes_no_manifest(self, tmp_path, capsys, fast_config):
        out = tmp_path / "late"
        code = main(["sweep", "--axis", "start", "--values", "2070-01-01",
                     "--out", str(out), "--config", fast_config])
        assert code == 1
        err = capsys.readouterr().err
        assert "error in start-2070-01-01: Scenario.schedule.start_date" in err
        assert "every sweep member failed" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys, jobs):
        def no_solve(*args, **kwargs):
            raise AssertionError("a scenario was solved before --jobs was checked")

        monkeypatch.setattr(scenarios, "run_scenario", no_solve)
        out = tmp_path / "out"
        assert main(["sweep", "--axis", "duration", "--values", "4", "--jobs", jobs,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --jobs")
        assert not out.exists()

    def test_parallel_sweep_solves_nothing_in_parent(self, tmp_path, monkeypatch, fast_config):
        parent, solve = os.getpid(), scenarios.run_scenario

        def workers_only(*args, **kwargs):
            if os.getpid() == parent:
                raise AssertionError("a run was solved in the parent process")
            return solve(*args, **kwargs)

        monkeypatch.setattr(scenarios, "run_scenario", workers_only)
        assert main(["sweep", "--axis", "duration", "--values", "4,8", "--jobs", "2",
                     "--out", str(tmp_path / "out"), "--config", fast_config]) == 0

    def test_parallel_sweep_writes_nothing_in_parent(self, tmp_path, monkeypatch, fast_config):
        parent = os.getpid()

        def workers_only(fn):
            def wrapper(*args, **kwargs):
                if os.getpid() == parent:
                    raise AssertionError(f"{fn.__name__} ran in the parent process")
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(data_io, "write_trajectory", workers_only(data_io.write_trajectory))
        monkeypatch.setattr(plotting, "chart", workers_only(plotting.chart))
        out = tmp_path / "out"
        assert main(["sweep", "--axis", "duration", "--values", "4,8", "--jobs", "2",
                     "--out", str(out), "--config", fast_config]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name in ("duration-004wk_trajectory.csv", "duration-008wk_trajectory.csv",
                     "I.svg", "I_data.csv", "C.svg", "C_data.csv"):
            assert name in manifest["files"] and (out / name).is_file(), name

    def test_jobs_do_not_change_any_file(self, tmp_path, fast_config):
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in ("1", "2")}
        for jobs, out in outs.items():
            assert main(["sweep", "--axis", "duration", "--values", "4,8", "--jobs", jobs,
                         "--out", str(out), "--config", fast_config]) == 0
        names = sorted(path.name for path in outs["1"].iterdir())
        assert "manifest.json" in names
        assert names == sorted(path.name for path in outs["2"].iterdir())
        for name in names:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_baseline_is_named(self, tmp_path, capsys, jobs):
        horizons = {"end_of_interest": "2025-12-31", "horizon": "2035-12-31"}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenarios": {
            "no-pandemic": {**horizons, "n0": 1e15},  # outside the model's domain on day 1
            "no-intervention": horizons,
        }}))
        out = tmp_path / "out"
        assert main(["sweep", "--axis", "duration", "--values", "4,8", "--jobs", jobs,
                     "--out", str(out), "--config", str(config)]) == 1
        assert "'no-pandemic'" in capsys.readouterr().err
        # member CSVs may be written before the failed baseline is seen; the
        # missing manifest marks the directory incomplete
        assert not (out / "manifest.json").exists()


class TestBacktestCommand:
    def test_report_and_table(self, tmp_path, fast_config):
        out = tmp_path / "bt"
        code = main(["backtest", "--data", str(DATA_DIR), "--out", str(out),
                     "--config", fast_config])
        assert code == 0
        report = json.loads((out / "backtest_report.json").read_text())
        assert report["within_tolerance"] is True
        assert report["start_year"] == 1990 and report["end_year"] == 2000
        rows = csv_rows(out / "backtest_table.csv")
        assert len(rows) == 11

    def test_data_dir_from_environment(self, tmp_path, monkeypatch, fast_config):
        monkeypatch.setenv("EPIGROWTH_DATA_DIR", str(DATA_DIR))
        out = tmp_path / "bt"
        assert main(["backtest", "--out", str(out), "--config", fast_config]) == 0
        assert (out / "manifest.json").exists()

    def test_observed_flag_retired(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--observed", str(DATA_DIR), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --observed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestMissingDatasets:
    """calibrate and backtest stop with one error line naming every missing
    dataset they read, before any dataset is loaded or anything written."""

    FILES = {key: data_io.load_config().data[key] for key in data_io.DATASETS}
    READS = {"calibrate": list(data_io.DATASETS), "backtest": ["population", "gdp", "gcf"]}

    @pytest.mark.parametrize("present", [(), ("population",), ("cases", "tradeoff")])
    @pytest.mark.parametrize("command", ["calibrate", "backtest"])
    def test_one_line_naming_each_missing_path(self, tmp_path, monkeypatch, capsys, command, present):
        def no_load(*args, **kwargs):
            raise AssertionError("a dataset was loaded before the directory was checked")

        for attr in ("load_annual_series", "load_case_series", "load_tradeoff_panel"):
            monkeypatch.setattr(data_io, attr, no_load)
        data = tmp_path / "data"
        data.mkdir()
        for key in present:
            (data / self.FILES[key]).write_bytes((DATA_DIR / self.FILES[key]).read_bytes())
        out = tmp_path / "out"
        target = out / "params.json" if command == "calibrate" else out
        assert main([command, "--data", str(data), "--out", str(target)]) == 1
        missing = [str(data / self.FILES[key]) for key in self.READS[command] if key not in present]
        assert capsys.readouterr().err == f"error: missing datasets: {missing}\n"
        assert not out.exists()


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
        rows = csv_rows(out / "D_data.csv")
        assert len(rows) == len(trajectory.dates)
        got = np.array([float(r["no-intervention_trajectory"]) for r in rows])
        assert np.array_equal(got, trajectory.D)

    def test_svg_text_is_escaped(self, tmp_path, two_trajectories):
        named = tmp_path / "R&D<1>.csv"
        named.write_bytes(two_trajectories[1].read_bytes())
        out = tmp_path / "plots"
        assert main(["report", str(named), "--variables", "I", "--out", str(out)]) == 0
        doc = minidom.parse(str(out / "I.svg"))
        texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
        assert "R&D<1>" in texts

    def test_unknown_variable_names_valid_columns(self, tmp_path, two_trajectories, capsys):
        code = main(["report", str(two_trajectories[0]), "--variables", "Q",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'Q'" in err and "'Y'" in err

    def test_repeated_variable_rejected_before_writing(self, tmp_path, two_trajectories, capsys):
        out = tmp_path / "x"
        code = main(["report", str(two_trajectories[0]), "--variables", "Y,I,Y", "--out", str(out)])
        assert code == 1
        assert "variable 'Y' is named more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variables,message", [
        ("Q", "unknown variable 'Q'; valid variables: ['A', 'C', 'D', 'H', 'I', 'K', 'N', 'R', 'S', 'Y', 'p']"),
        ("Y,I,Y", "variable 'Y' is named more than once"),
    ], ids=["unknown", "repeated"])
    def test_variables_checked_before_any_read(self, tmp_path, capsys, monkeypatch, variables, message):
        def no_read(path, scenario_name=None):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(data_io, "read_trajectory", no_read)
        missing = tmp_path / "missing.csv"
        code = main(["report", str(missing), "--variables", variables, "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {missing}: {message}\n"

    @pytest.mark.parametrize("name", ["Y.svg", "Y_data.csv", "manifest.json"])
    def test_output_on_an_input_rejected(self, tmp_path, two_trajectories, capsys, name):
        out = tmp_path / "plots"
        out.mkdir()
        written = two_trajectories[0].read_bytes()
        path = out / name
        path.write_bytes(written)
        code = main(["report", str(two_trajectories[1]), str(path), "--variables", "I,Y", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: output {out / name} would overwrite the input {path}\n"
        assert path.read_bytes() == written and [p.name for p in out.iterdir()] == [name]

    def test_no_variables_rejected(self, tmp_path, two_trajectories, capsys):
        code = main(["report", str(two_trajectories[0]), "--variables", "",
                     "--out", str(tmp_path / "x")])
        assert code == 1

    def report_y(self, tmp_path, low, high):
        """``report`` of I and Y from a CSV whose Y column holds ``low`` and
        ``high``; the exit code, the CSV's path and the output directory."""
        rows = [["2020-01-0%d" % day] + ["1.0"] * 11 for day in (1, 2, 3)]
        rows[0][data_io.TRAJECTORY_HEADER.index("Y")] = rows[1][data_io.TRAJECTORY_HEADER.index("Y")] = repr(low)
        rows[2][data_io.TRAJECTORY_HEADER.index("Y")] = repr(high)
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(map(",".join, [data_io.TRAJECTORY_HEADER, *rows])) + "\n")
        out = tmp_path / "plots"
        return main(["report", str(path), "--variables", "I,Y", "--out", str(out)]), path, out

    def assert_axis_too_wide_rejected(self, tmp_path, capsys, low, high):
        """report exits 1 with a one-line error naming the file and the
        variable, and writes nothing."""
        code, path, out = self.report_y(tmp_path, low, high)
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: variable 'Y' of wide: ")
        assert "wider than the largest double" in err
        assert not out.exists()

    def test_value_span_past_largest_double_rejected(self, tmp_path, capsys):
        # the span hi - lo overflows to inf
        self.assert_axis_too_wide_rejected(tmp_path, capsys, -1e308, 1e308)

    def test_ticks_past_largest_double_rejected(self, tmp_path, capsys):
        # the span is finite, but the ticks rounded out around it are not
        self.assert_axis_too_wide_rejected(tmp_path, capsys, 0.0, 1.7e308)

    def test_value_span_below_smallest_step_charted(self, tmp_path):
        # a fifth of the span is below 1e-323, where the tick step's power
        # of ten underflows to 0
        code, _, out = self.report_y(tmp_path, 0.0, 3e-323)
        assert code == 0
        svg = (out / "Y.svg").read_text()
        assert "nan" not in svg and "inf" not in svg
