#!/usr/bin/env python3
"""Regenerate the committed datasets under data/.

The fixtures are synthetic reconstructions of the public sources they
mimic (World Bank annual indicators, a JHU-style global case snapshot, a
weekly GDP-shortfall panel).  Each file is generated so that the
calibration pipeline recovers the published headline statistics:

  * population:  no-intercept OLS of N[t+1] on (N[t], N[t]^2) returns
                 (1.028, -2.282e-12) exactly (noise is projected off the
                 realized design matrix),
  * investment:  perpetual-inventory imputation with the package's
                 steady-state initialisation lands the 2019 stock on the
                 anchor value,
  * output:      the TFP trend fit returns g_daily = 3.55e-5 exactly,
  * cases:       the 75th-percentile infection rate and median recovery
                 rate hit 2.041e-11 and 0.02099 (up to integer rounding
                 of the counts), and the mortality regression returns
                 (12.561, 0.717),
  * trade-off:   the log-log fit returns (3.677, 0.238) exactly.

Run from the repository root:  python scripts/make_fixtures.py
"""

import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from epigrowth import calibration

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

POP_A1, POP_A2 = 1.028, -2.282e-12
POP_1960 = 3.032160e9
POP_YEARS = (1960, 2018)

K_2019_ANCHOR = 2.72e14
# the annual depreciation rate the committed data/ files were generated
# with; the model's own rate is the config's delta_daily
DELTA_ANNUAL = 0.0446
GCF_YEARS = (1970, 2018)

G_DAILY = 3.55e-5
G_ANNUAL = (1.0 + G_DAILY) ** 365 - 1.0
A_2019 = 1.880
GDP_YEARS = (1990, 2018)

CASE_START = date(2020, 1, 22)
CASE_DAYS = 106  # through 2020-05-06
CASE_N0 = 7.718e9
B_Q75 = 2.041e-11
R_MEDIAN = 0.02099
LOG_K1, K2 = 12.561, 0.717
LOG_Q1, Q2 = 3.677, 0.238


def project_off(noise: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Residual of noise after regressing it on the design columns."""
    X = np.atleast_2d(design)
    if X.shape[0] != len(noise):
        X = X.T
    beta, *_ = np.linalg.lstsq(X, noise, rcond=None)
    return noise - X @ beta


def gen_population(rng) -> calibration.AnnualSeries:
    """Logistic growth with innovations orthogonal to the autoregression
    design, found by fixed-point iteration (the design depends on the
    realized series)."""
    n = POP_YEARS[1] - POP_YEARS[0] + 1
    w = rng.normal(0.0, 4.8e6, size=n - 1)
    u = w.copy()
    series = None
    for _ in range(8):
        N = np.empty(n)
        N[0] = POP_1960
        for t in range(n - 1):
            N[t + 1] = POP_A1 * N[t] + POP_A2 * N[t] ** 2 + u[t]
        design = np.column_stack([N[:-1], N[:-1] ** 2])
        u = project_off(w, design)
        series = N
    years = np.arange(POP_YEARS[0], POP_YEARS[1] + 1)
    out = calibration.AnnualSeries(years, series)
    a1, a2 = calibration.population_fit_report(out).coefficients
    assert abs(a1 / POP_A1 - 1.0) < 1e-9 and abs(a2 / POP_A2 - 1.0) < 1e-9, (a1, a2)
    return out


def gen_gcf(rng) -> calibration.AnnualSeries:
    """Investment series whose perpetual-inventory stock (package
    initialisation rule) hits the 2019 anchor exactly."""
    years = np.arange(GCF_YEARS[0], GCF_YEARS[1] + 1)
    n = len(years)
    # capital growth easing from 4.2% to 2.6% a year over the sample
    gamma = np.linspace(0.042, 0.026, n)
    K = np.empty(n + 1)  # stocks for 1970..2019
    K[-1] = K_2019_ANCHOR
    for i in range(n - 1, -1, -1):
        K[i] = K[i + 1] / (1.0 + gamma[i])
    gcf = K[1:] - (1.0 - DELTA_ANNUAL) * K[:-1]
    gcf *= 1.0 + rng.normal(0.0, 0.02, size=n)
    series = calibration.AnnualSeries(years, gcf)
    imputed = calibration.impute_capital(
        series, DELTA_ANNUAL, calibration.steady_state_k_init(series, DELTA_ANNUAL)
    )
    scale = K_2019_ANCHOR / imputed.value_at(2019)
    series = calibration.AnnualSeries(years, gcf * scale)
    imputed = calibration.impute_capital(
        series, DELTA_ANNUAL, calibration.steady_state_k_init(series, DELTA_ANNUAL)
    )
    assert abs(imputed.value_at(2019) / K_2019_ANCHOR - 1.0) < 1e-12
    return series


def gen_gdp(rng, population, gcf) -> calibration.AnnualSeries:
    """Cobb-Douglas output from the imputed stock and fixture population,
    with a TFP path whose trend fit returns the target growth exactly."""
    capital = calibration.impute_capital(
        gcf, DELTA_ANNUAL, calibration.steady_state_k_init(gcf, DELTA_ANNUAL)
    )
    years = np.arange(GDP_YEARS[0], GDP_YEARS[1] + 1)
    noise = project_off(
        rng.normal(0.0, 0.005, size=len(years)),
        np.column_stack([np.ones(len(years)), years.astype(float)]),
    )
    a_2018 = A_2019 / (1.0 + G_ANNUAL)
    A = a_2018 * (1.0 + G_ANNUAL) ** (years - 2018) * np.exp(noise)
    K = np.array([capital.value_at(y) for y in years])
    N = np.array([population.value_at(y) for y in years])
    gdp = A * K ** 0.3 * N ** 0.7 * 365.0
    series = calibration.AnnualSeries(years, gdp)
    _, g_daily = calibration.estimate_tfp(series, capital, population, 0.3)
    assert abs(g_daily / G_DAILY - 1.0) < 1e-9, g_daily
    return series


def gen_cases(rng):
    """Integer cumulative counts integrated from a declining infection-rate
    path, a stable recovery rate, and the log-log mortality response."""
    n_rates = CASE_DAYS - 1
    t = np.arange(n_rates)
    # transmission cools from ~20%/day growth to ~1%/day as interventions bite
    b = 3.0e-11 * np.exp(-1.95 * (t / n_rates) ** 1.35) * np.exp(rng.normal(0.0, 0.10, n_rates))
    b *= B_Q75 / np.quantile(b, 0.75)
    r = np.clip(0.021 * np.exp(rng.normal(0.0, 0.18, n_rates)), 5e-3, 0.08)
    r *= R_MEDIAN / np.median(r)
    m_noise = project_off(rng.normal(0.0, 0.55, n_rates), np.column_stack([np.ones(n_rates), np.log(b)]))
    m = np.exp(LOG_K1 + K2 * np.log(b) + m_noise)

    conf, rec, dead, N = 555.0, 28.0, 17.0, CASE_N0
    a1, a2 = calibration.to_daily(POP_A1, POP_A2)
    rows = [(CASE_START, conf, rec, dead)]
    for k in range(n_rates):
        I = conf - rec - dead
        S = N - I - rec
        new_conf = b[k] * S * I
        new_rec = r[k] * I
        new_dead = m[k] * I
        conf += new_conf
        rec += new_rec
        dead += new_dead
        N = a1 * N + a2 * N * N - new_dead
        rows.append((CASE_START + timedelta(days=k + 1), conf, rec, dead))
    return [(d, round(c), round(rv), round(dv)) for d, c, rv, dv in rows]


def gen_tradeoff(rng):
    """Weekly five-country panel; the log-log fit is exact by construction."""
    countries = ["France", "Germany", "Italy", "Spain", "United Kingdom"]
    weeks = [date(2020, 3, 2) + timedelta(weeks=k) for k in range(9)]
    for attempt in range(1000):
        shortfall = []
        for ci in range(len(countries)):
            ramp = np.linspace(1.5 + 0.5 * ci, 11.0 + 1.2 * ci, len(weeks))
            shortfall.append(ramp * np.exp(rng.normal(0.0, 0.15, len(weeks))))
        x = np.concatenate(shortfall)
        noise = project_off(
            rng.normal(0.0, 0.32, len(x)), np.column_stack([np.ones(len(x)), np.log(x)])
        )
        y = np.exp(LOG_Q1 + Q2 * np.log(x) + noise)
        if y.max() < 95.0 and y.min() > 10.0 and x.max() < 25.0:
            rows = []
            idx = 0
            for ci, country in enumerate(countries):
                for wi, week in enumerate(weeks):
                    rows.append((country, week, x[idx], y[idx]))
                    idx += 1
            log_q1, q2 = calibration.loglog_fit(x, y)[0].coefficients
            assert abs(log_q1 - LOG_Q1) < 1e-9 and abs(q2 - Q2) < 1e-9
            return rows
    raise RuntimeError("no acceptable trade-off panel draw found")


def write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")


def main() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    rng = np.random.default_rng(20200506)

    population = gen_population(rng)
    write_csv(
        DATA_DIR / "world_population.csv",
        ["year", "value"],
        [(int(y), repr(float(v))) for y, v in zip(population.years, population.values)],
    )

    gcf = gen_gcf(rng)
    write_csv(
        DATA_DIR / "world_gcf.csv",
        ["year", "value"],
        [(int(y), repr(float(v))) for y, v in zip(gcf.years, gcf.values)],
    )

    gdp = gen_gdp(rng, population, gcf)
    write_csv(
        DATA_DIR / "world_gdp.csv",
        ["year", "value"],
        [(int(y), repr(float(v))) for y, v in zip(gdp.years, gdp.values)],
    )

    cases = gen_cases(rng)
    write_csv(
        DATA_DIR / "global_cases.csv",
        ["date", "confirmed", "recovered", "deaths"],
        [(d.isoformat(), int(c), int(r), int(dv)) for d, c, r, dv in cases],
    )

    tradeoff = gen_tradeoff(rng)
    write_csv(
        DATA_DIR / "tradeoff_panel.csv",
        ["country", "week_start", "gdp_shortfall_pct", "infection_reduction_pct"],
        [(c, w.isoformat(), repr(float(x)), repr(float(y))) for c, w, x, y in tradeoff],
    )

    # summary of what the calibration recovers from the written files
    rates = calibration.extract_epi_rates(
        calibration.CaseSeries(
            dates=[row[0] for row in cases],
            confirmed=np.array([row[1] for row in cases], dtype=float),
            recovered=np.array([row[2] for row in cases], dtype=float),
            deaths=np.array([row[3] for row in cases], dtype=float),
        ),
        *calibration.to_daily(POP_A1, POP_A2),
        CASE_N0,
    )
    print(f"  b q75     = {calibration.quantile(rates.b, 0.75):.6e} (target {B_Q75:.6e})")
    print(f"  r median  = {calibration.quantile(rates.r, 0.5):.6f} (target {R_MEDIAN})")
    mfit, dropped = calibration.loglog_fit(rates.b, rates.m)
    print(f"  mortality = ({mfit.coefficients[0]:.4f}, {mfit.coefficients[1]:.4f}) "
          f"(target ({LOG_K1}, {K2})), dropped {dropped}")


if __name__ == "__main__":
    main()
