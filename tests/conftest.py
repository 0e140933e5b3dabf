import time
from datetime import date
from pathlib import Path

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
def start_date_sweep(params, baselines):
    reference = baselines[0]
    return scenarios.sweep_start_dates(
        params,
        [date(2020, 4, 9), date(2020, 5, 21), date(2020, 7, 2)],
        reference=reference,
        ratio_dates=[date(2030, 12, 31)],
    )


@pytest.fixture(scope="session")
def intensity_sweep(params, baselines):
    reference = baselines[0]
    return scenarios.sweep_intensity(
        params, [0.05, 0.15, 0.25], reference=reference, ratio_dates=[date(2030, 12, 31)]
    )


@pytest.fixture(scope="session")
def duration_sweep(params, baselines):
    reference = baselines[0]
    return scenarios.sweep_duration(
        params, [4, 28, 52, 76], reference=reference, ratio_dates=[date(2030, 12, 31)]
    )


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
def backtest_result(params, datasets):
    return scenarios.backtest(params, datasets["population"], datasets["gdp"], datasets["gcf"])
