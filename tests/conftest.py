import dataclasses
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from epigrowth import data_io, scenarios
from epigrowth.params import default_params

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def params():
    return default_params()


@pytest.fixture(scope="session")
def config():
    return data_io.load_config()


@pytest.fixture(scope="session")
def baselines(params):
    """(no-pandemic, no-intervention) trajectories plus the wall time of the
    no-intervention run."""
    no_pandemic = scenarios.run_scenario(scenarios.no_pandemic_scenario(), params)
    t0 = time.perf_counter()
    no_intervention = scenarios.run_scenario(scenarios.no_intervention_scenario(), params)
    elapsed = time.perf_counter() - t0
    return no_pandemic, no_intervention, elapsed


@pytest.fixture(scope="session")
def run_sweep(params, config):
    """``scenarios.sweep`` as ``epigrowth sweep`` runs it: the configured
    grid for ``axis`` with its values replaced, against the configured
    baselines unless ``base`` or ``reference`` is given, at the configured
    ratio dates.  Returns the members' runs."""
    def run(axis, values, *, params=params, base=None, reference=None, jobs=1, out_dir=None):
        grid = dataclasses.replace(config.sweeps[axis], values=values)
        _, runs = scenarios.sweep(
            params, axis, grid, reference or config.scenario(scenarios.NO_PANDEMIC),
            base or config.scenario(scenarios.NO_INTERVENTION), config.ratio_dates(),
            jobs=jobs, out_dir=out_dir)
        return runs[1:]
    return run


@pytest.fixture(scope="session")
def start_date_sweep(run_sweep):
    return run_sweep("start", [date(2020, 4, 9), date(2020, 5, 21), date(2020, 7, 2)])


@pytest.fixture(scope="session")
def intensity_sweep(run_sweep):
    return run_sweep("intensity", [0.05, 0.15, 0.25])


@pytest.fixture(scope="session")
def duration_sweep(run_sweep):
    return run_sweep("duration", [4, 28, 52, 76])


@pytest.fixture(scope="session")
def inflection_start_sweep(baselines, run_sweep):
    """The inflection day of active infections in the no-intervention run,
    and the deaths by start date of the configured start grid's policy
    started on each day from a week before it to a week after."""
    no_intervention = baselines[1]
    inflection = no_intervention.day(int(np.argmax(np.diff(no_intervention.I))))
    runs = run_sweep("start", [inflection + timedelta(days=k) for k in range(-7, 8)])
    return inflection, {run.scenario.schedule.start_date: run.metrics.total_deaths for run in runs}


@pytest.fixture(scope="session")
def datasets(config):
    manifests = data_io.data_manifests(DATA_DIR, config)
    population = data_io.load_annual_series(manifests["population"])
    gdp = data_io.load_annual_series(manifests["gdp"])
    gcf = data_io.load_annual_series(manifests["gcf"])
    cases, repairs = data_io.load_case_series(manifests["cases"])
    shortfall, reduction = data_io.load_tradeoff_panel(manifests["tradeoff"])
    return {
        "population": population,
        "gdp": gdp,
        "gcf": gcf,
        "cases": cases,
        "case_repairs": repairs,
        "tradeoff_shortfall": shortfall,
        "tradeoff_reduction": reduction,
    }


@pytest.fixture(scope="session")
def calibrated(datasets, config):
    from epigrowth import calibration

    return calibration.calibrate(
        datasets["population"],
        datasets["gdp"],
        datasets["gcf"],
        datasets["cases"],
        datasets["tradeoff_shortfall"],
        datasets["tradeoff_reduction"],
        case_population=float(config.data["case_population"]),
        constants=calibration.CalibrationConstants(
            population_fit_years=config.data["population_fit_years"], assumed=config.params),
    )


@pytest.fixture(scope="session")
def backtest_window(config):
    """``scenarios.backtest``'s window keywords, from the shipped config."""
    return {key: config.backtest[key] for key in ("start_year", "end_year", "horizon")}


@pytest.fixture(scope="session")
def backtest_result(params, datasets, backtest_window):
    return scenarios.backtest(params, datasets["population"], datasets["gdp"], datasets["gcf"], **backtest_window)
