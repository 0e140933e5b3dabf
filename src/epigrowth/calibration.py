"""Parameter estimation: population growth, capital imputation, TFP,
epidemic rate extraction, and the mortality and policy trade-off fits.

Every estimated quantity flows into a ModelParams bundle; everything
assumed rather than estimated comes from one params bundle (the
configuration's, through CalibrationConstants): the daily depreciation
fraction, which also drives the capital imputation at its annual
equivalent, the daily discount factor, the capital elasticity, the
hospital cost and admission share, and the solver settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .params import (
    DAYS_PER_YEAR,
    ModelParams,
    annual_depreciation,
    annual_to_daily_growth,
    default_params,
)

# quantile of the extracted daily infection rates taken as b0
INFECTION_RATE_QUANTILE = 0.75
# years after the first over which investment's trend growth is averaged
K_INIT_LOOKAHEAD_YEARS = 10


@dataclass(frozen=True)
class AnnualSeries:
    """Annual observations, strictly increasing years."""

    years: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        years = np.asarray(self.years, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if len(years) != len(values):
            raise ValueError("years and values must have equal length")
        if len(years) and np.any(np.diff(years) <= 0):
            raise ValueError("years must be strictly increasing")
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.years)

    def window(self, first_year: int, last_year: int) -> "AnnualSeries":
        mask = (self.years >= first_year) & (self.years <= last_year)
        return AnnualSeries(self.years[mask], self.values[mask])

    def require_contiguous(self) -> None:
        if len(self.years) > 1 and np.any(np.diff(self.years) != 1):
            gap = int(self.years[np.argmax(np.diff(self.years) != 1)])
            raise ValueError(f"series has a gap after year {gap}")

    def value_at(self, year: int) -> float:
        idx = np.where(self.years == year)[0]
        if len(idx) == 0:
            raise KeyError(f"no observation for year {year}")
        return float(self.values[idx[0]])


@dataclass(frozen=True)
class CaseSeries:
    """Daily cumulative confirmed / recovered / deceased counts."""

    dates: list
    confirmed: np.ndarray
    recovered: np.ndarray
    deaths: np.ndarray

    def __post_init__(self):
        n = len(self.dates)
        for name in ("confirmed", "recovered", "deaths"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if len(arr) != n:
                raise ValueError(f"{name} has length {len(arr)}, expected {n}")
            if np.any(np.diff(arr) < 0):
                raise ValueError(f"cumulative column {name} must be nondecreasing")
            object.__setattr__(self, name, arr)
        for i in range(1, n):
            if (self.dates[i] - self.dates[i - 1]).days != 1:
                raise ValueError(f"dates must be consecutive days, gap before {self.dates[i]}")
        if np.any(self.active() < 0):
            raise ValueError("active cases (confirmed - recovered - deaths) must be >= 0")

    def __len__(self) -> int:
        return len(self.dates)

    def active(self) -> np.ndarray:
        return self.confirmed - self.recovered - self.deaths


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    std_errors: np.ndarray
    r_squared: float
    n_obs: int


def ols(design, response, intercept: bool = False) -> OlsFit:
    """Least squares via numpy lstsq, with classical standard errors; a
    design whose rank, as lstsq finds it, is below its column count is an
    error.

    With an intercept the R-squared is centered, otherwise uncentered.
    """
    X = np.atleast_2d(np.asarray(design, dtype=float))
    if X.shape[0] == 1 and X.shape[1] > 1 and len(np.asarray(response)) > 1:
        X = X.T
    y = np.asarray(response, dtype=float)
    if intercept:
        X = np.column_stack([np.ones(len(y)), X])
    n, k = X.shape
    if n < k:
        raise ValueError(f"need at least as many rows ({n}) as columns ({k})")
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < k:
        raise ValueError("design matrix is rank deficient")
    resid = y - X @ coef
    rss = float(resid @ resid)
    df = n - k
    if df > 0:
        sigma2 = rss / df
        cov = sigma2 * np.linalg.inv(X.T @ X)
        std_errors = np.sqrt(np.diag(cov))
    else:
        std_errors = np.full(k, np.nan)
    if intercept:
        tss = float(np.sum((y - y.mean()) ** 2))
    else:
        tss = float(y @ y)
    r_squared = 1.0 - rss / tss if tss > 0 else (1.0 if rss == 0 else 0.0)
    return OlsFit(coefficients=coef, std_errors=std_errors, r_squared=r_squared, n_obs=n)


def quantile(series, q: float) -> float:
    """Linear-interpolation quantile of a nonempty series."""
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take the quantile of an empty series")
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    return float(np.quantile(arr, q))


def to_daily(a1_y: float, a2_y: float) -> tuple[float, float]:
    """Annual logistic growth coefficients scaled to daily resolution."""
    return 1.0 + (a1_y - 1.0) / DAYS_PER_YEAR, a2_y / DAYS_PER_YEAR


def population_fit_report(series: AnnualSeries) -> OlsFit:
    """No-intercept least squares of next-year population on (N, N**2),
    with its regression table; a rank-deficient design is an error."""
    if len(series) < 3:
        raise ValueError(f"need at least 3 years of data, got {len(series)}")
    series.require_contiguous()
    N = series.values
    return ols(np.column_stack([N[:-1], N[:-1] ** 2]), N[1:], intercept=False)


def steady_state_k_init(gcf: AnnualSeries, delta_annual: float) -> float:
    """Initial stock heuristic: first-year investment over (delta + trend
    growth of investment across the first decade)."""
    gcf.require_contiguous()
    head = gcf.values[: min(K_INIT_LOOKAHEAD_YEARS + 1, len(gcf))]
    growth = float(np.mean(head[1:] / head[:-1] - 1.0)) if len(head) > 1 else 0.0
    denom = delta_annual + growth
    if denom <= 0:
        raise ValueError("depreciation plus investment growth must be positive")
    return float(gcf.values[0]) / denom


def impute_capital(gcf: AnnualSeries, delta_annual: float, k_init: float) -> AnnualSeries:
    """Perpetual inventory: K[y+1] = (1 - delta)*K[y] + GCF[y].

    The returned series starts at the first investment year (stock k_init)
    and extends one year past the last investment observation.
    """
    if k_init <= 0:
        raise ValueError(f"k_init must be > 0, got {k_init!r}")
    gcf.require_contiguous()
    K = np.empty(len(gcf) + 1)
    K[0] = k_init
    for i, inv in enumerate(gcf.values):
        K[i + 1] = (1.0 - delta_annual) * K[i] + inv
    years = np.arange(gcf.years[0], gcf.years[-1] + 2)
    return AnnualSeries(years, K)


def estimate_tfp(
    gdp: AnnualSeries, capital: AnnualSeries, pop: AnnualSeries, alpha: float
) -> tuple[AnnualSeries, float]:
    """Residual TFP levels and their trend growth rate, at daily scale.

    A[y] = (GDP[y]/365) / (K[y]**alpha * N[y]**(1-alpha)); annual GDP is
    converted to a daily flow so the level matches the daily production
    function.  The growth rate comes from a log-linear trend fit.
    """
    common = np.intersect1d(np.intersect1d(gdp.years, capital.years), pop.years)
    if len(common) < 2:
        raise ValueError("gdp, capital and population series share fewer than 2 years")
    y0, y1 = int(common[0]), int(common[-1])
    g_w, k_w, n_w = gdp.window(y0, y1), capital.window(y0, y1), pop.window(y0, y1)
    if not (len(g_w) == len(k_w) == len(n_w) == len(common)):
        raise ValueError("series are misaligned over their common year range")
    A = (g_w.values / DAYS_PER_YEAR) / (k_w.values ** alpha * n_w.values ** (1.0 - alpha))
    fit = ols(common.astype(float), np.log(A), intercept=True)
    g_annual = float(np.exp(fit.coefficients[1]) - 1.0)
    return AnnualSeries(common, A), annual_to_daily_growth(g_annual)


def capital_and_tfp(pop: AnnualSeries, gdp: AnnualSeries, gcf: AnnualSeries, params: ModelParams) -> tuple:
    """The initial stock, the capital series imputed from it at the annual
    equivalent of ``params.delta_daily``, and the TFP levels and their
    daily growth rate at ``params.alpha``: (k_init, capital, tfp, g_daily)."""
    delta_annual = annual_depreciation(params.delta_daily)
    k_init = steady_state_k_init(gcf, delta_annual)
    capital = impute_capital(gcf, delta_annual, k_init)
    return (k_init, capital, *estimate_tfp(gdp, capital, pop, params.alpha))


@dataclass(frozen=True)
class ExtractedRates:
    """Daily epidemic rates backed out of a cumulative case series."""

    dates: list
    b: np.ndarray
    r: np.ndarray
    m: np.ndarray
    skipped_dates: list = field(default_factory=list)


def extract_epi_rates(cases: CaseSeries, a1: float, a2: float, N0: float) -> ExtractedRates:
    """Invert the daily transition equations for (b, r, m).

    r and m are recovery and death increments over active cases; b solves
    the infection transition, with susceptibles taken as the modelled
    population (logistic growth with daily coefficients a1 and a2, net of
    observed deaths) minus active and recovered cases.  Days with no active
    cases are skipped and reported.
    """
    if len(cases) < 2:
        raise ValueError("need at least two days of case data")
    I = cases.active()
    n = len(cases)
    N = np.empty(n)
    N[0] = N0
    for t in range(n - 1):
        N[t + 1] = a1 * N[t] + a2 * N[t] ** 2 - (cases.deaths[t + 1] - cases.deaths[t])
    S = N - I - cases.recovered

    dates, bs, rs, ms, skipped = [], [], [], [], []
    for t in range(n - 1):
        if I[t] <= 0:
            skipped.append(cases.dates[t])
            continue
        if S[t] <= 0:
            raise ValueError(f"nonpositive susceptible population on {cases.dates[t]}")
        r_t = (cases.recovered[t + 1] - cases.recovered[t]) / I[t]
        m_t = (cases.deaths[t + 1] - cases.deaths[t]) / I[t]
        b_t = (I[t + 1] - (1.0 - r_t - m_t) * I[t]) / (S[t] * I[t])
        dates.append(cases.dates[t])
        rs.append(r_t)
        ms.append(m_t)
        bs.append(b_t)
    return ExtractedRates(
        dates=dates, b=np.array(bs), r=np.array(rs), m=np.array(ms), skipped_dates=skipped
    )


def loglog_fit(x, y) -> tuple[OlsFit, int]:
    """OLS of ln(y) on ln(x), dropping nonpositive pairs; returns the fit
    and how many observations were dropped."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    dropped = int(len(x) - keep.sum())
    if keep.sum() < 3:
        raise ValueError(f"need at least 3 positive pairs, got {int(keep.sum())}")
    fit = ols(np.log(x[keep]), np.log(y[keep]), intercept=True)
    return fit, dropped


@dataclass(frozen=True)
class CalibrationConstants:
    """The calibration's settings: the years of the population fit, and
    ``assumed``, which supplies every params field that ``calibrate`` does
    not estimate.
    """

    population_fit_years: tuple[int, int]
    assumed: ModelParams = field(default_factory=default_params)


def calibrate(
    population: AnnualSeries,
    gdp: AnnualSeries,
    gcf: AnnualSeries,
    cases: CaseSeries,
    tradeoff_shortfall_pct,
    tradeoff_reduction_pct,
    case_population: float,
    constants: CalibrationConstants,
) -> tuple[ModelParams, dict]:
    """Run every estimation step and assemble the parameter bundle:
    ``constants.assumed`` with the estimates replaced.  The capital stock
    is imputed at the annual equivalent of its ``delta_daily``, and the
    report lists the assumed values used.  A bundle that breaks a
    ``ModelParams`` rule, such as a convex trade-off fit (q2 >= 1), is a
    ValueError naming the field.

    Returns the params plus a report dict holding the regression tables and
    intermediate values (JSON-serialisable).
    """
    c = constants
    pop_fit = population_fit_report(population.window(*c.population_fit_years))
    a1_y, a2_y = (float(v) for v in pop_fit.coefficients)
    a1, a2 = to_daily(a1_y, a2_y)

    k_init, capital, tfp_series, g_daily = capital_and_tfp(population, gdp, gcf, c.assumed)

    rates = extract_epi_rates(cases, a1, a2, case_population)
    b0 = quantile(rates.b, INFECTION_RATE_QUANTILE)
    r = quantile(rates.r, 0.5)
    mortality_fit, mortality_dropped = loglog_fit(rates.b, rates.m)
    tradeoff_fit, tradeoff_dropped = loglog_fit(tradeoff_shortfall_pct, tradeoff_reduction_pct)

    params = replace(
        c.assumed,
        a1=a1,
        a2=a2,
        g_daily=g_daily,
        r=r,
        b0=b0,
        log_k1=float(mortality_fit.coefficients[0]),
        k2=float(mortality_fit.coefficients[1]),
        log_q1=float(tradeoff_fit.coefficients[0]),
        q2=float(tradeoff_fit.coefficients[1]),
    )

    def _table(fit: OlsFit, names: list) -> dict:
        return {
            "coefficients": dict(zip(names, (float(v) for v in fit.coefficients))),
            "std_errors": dict(zip(names, (float(v) for v in fit.std_errors))),
            "r_squared": float(fit.r_squared),
            "n_obs": int(fit.n_obs),
        }

    report = {
        "population_fit": _table(pop_fit, ["N_prev", "N_prev_squared"])
        | {"annual_coefficients": {"a1": a1_y, "a2": a2_y}},
        "capital_imputation": {
            "k_init": k_init,
            "first_year": int(capital.years[0]),
            "last_year": int(capital.years[-1]),
            "final_stock": float(capital.values[-1]),
        },
        "tfp": {
            "g_daily": g_daily,
            "g_annual": float((1.0 + g_daily) ** DAYS_PER_YEAR - 1.0),
            "first_level": float(tfp_series.values[0]),
            "last_level": float(tfp_series.values[-1]),
        },
        "epidemic_rates": {
            "b0": b0,
            "r": r,
            "n_days": len(rates.dates),
            "n_skipped": len(rates.skipped_dates),
        },
        "mortality_fit": _table(mortality_fit, ["constant", "ln_infection_rate"])
        | {"n_dropped": mortality_dropped},
        "tradeoff_fit": _table(tradeoff_fit, ["constant", "ln_gdp_shortfall_pct"])
        | {"n_dropped": tradeoff_dropped},
        "assumed": {name: getattr(c.assumed, name)
                    for name in ("delta_daily", "beta_daily", "alpha", "u", "h")},
    }
    return params, report
