import dataclasses
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epigrowth import calibration as cal
from epigrowth.epidemic import EpiRates, EpiState, epi_step
from epigrowth.params import default_params


class TestOls:
    def test_exact_proportionality(self):
        fit = cal.ols(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0, 4.0, 6.0, 8.0]))
        assert fit.coefficients[0] == pytest.approx(2.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_response_with_intercept(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fit = cal.ols(x, np.full(4, 3.0), intercept=True)
        assert fit.coefficients[0] == pytest.approx(3.0, abs=1e-12)
        assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-12)

    def test_rank_deficiency_reported(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(ValueError, match="rank deficient"):
            cal.ols(X, np.arange(5.0))

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            cal.ols(np.ones((2, 3)), np.ones(2))

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(10, 40),
        k=st.integers(1, 4),
        intercept=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_normal_equations_oracle(self, seed, n, k, intercept):
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, 1.0, size=(n, k))
        beta = rng.normal(0.0, 2.0, size=k + (1 if intercept else 0))
        design = np.column_stack([np.ones(n), X]) if intercept else X
        y = design @ beta + rng.normal(0.0, 0.1, size=n)

        fit = cal.ols(X, y, intercept=intercept)

        # brute-force normal equations, the independent route
        coef_oracle = np.linalg.inv(design.T @ design) @ (design.T @ y)
        resid = y - design @ coef_oracle
        sigma2 = resid @ resid / (n - design.shape[1])
        se_oracle = np.sqrt(np.diag(sigma2 * np.linalg.inv(design.T @ design)))

        np.testing.assert_allclose(fit.coefficients, coef_oracle, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(fit.std_errors, se_oracle, rtol=1e-8, atol=1e-10)


class TestQuantile:
    def test_median(self):
        assert cal.quantile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_linear_interpolation(self):
        assert cal.quantile([1.0, 3.0], 0.75) == pytest.approx(2.5)

    def test_singleton(self):
        assert cal.quantile([5.0], 0.9) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cal.quantile([], 0.5)


class TestToDaily:
    def test_published_coefficients(self):
        a1, a2 = cal.to_daily(1.028, -2.282e-12)
        assert a1 == pytest.approx(1.0000767123287671, rel=1e-15)
        assert a2 == pytest.approx(-6.252054794520548e-15, rel=1e-15)

    def test_zero_growth(self):
        assert cal.to_daily(1.0, 0.0) == (1.0, 0.0)

    def test_linear_scaling(self):
        a1, a2 = cal.to_daily(1.365, 0.0)
        assert a1 == pytest.approx(1.001, rel=1e-12)
        assert a2 == 0.0


class TestFitPopulation:
    def synthetic(self, a1, a2, n0=3.0e9, years=40):
        values = [n0]
        for _ in range(years - 1):
            values.append(a1 * values[-1] + a2 * values[-1] ** 2)
        return cal.AnnualSeries(np.arange(1960, 1960 + years), np.array(values))

    def test_recovers_exact_logistic(self):
        series = self.synthetic(1.03, -2e-12)
        a1, a2 = cal.population_fit_report(series).coefficients
        assert a1 == pytest.approx(1.03, rel=1e-9)
        assert a2 == pytest.approx(-2e-12, rel=1e-9)

    def test_constant_population_rejected(self):
        series = cal.AnnualSeries(np.arange(2000, 2010), np.full(10, 5e9))
        with pytest.raises(ValueError, match="rank deficient"):
            cal.population_fit_report(series)

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            cal.population_fit_report(cal.AnnualSeries(np.array([2000, 2001]), np.array([1.0, 2.0])))

    def test_year_gap_rejected(self):
        series = cal.AnnualSeries(np.array([2000, 2001, 2003, 2004]), np.ones(4))
        with pytest.raises(ValueError, match="gap"):
            cal.population_fit_report(series)

    def test_fixture_reproduces_published_coefficients(self, datasets, config):
        window = datasets["population"].window(*config.data["population_fit_years"])
        fit = cal.population_fit_report(window)
        a1, a2 = fit.coefficients
        # three significant figures
        assert abs(a1 - 1.028) < 5e-4
        assert abs(a2 - (-2.282e-12)) < 5e-16
        assert fit.n_obs == 58
        assert fit.r_squared > 0.999


class TestImputeCapital:
    def test_pure_depreciation(self):
        gcf = cal.AnnualSeries(np.array([2000, 2001]), np.zeros(2))
        K = cal.impute_capital(gcf, 0.1, 100.0)
        np.testing.assert_allclose(K.values, [100.0, 90.0, 81.0])

    def test_replacement_investment_keeps_stock_constant(self):
        gcf = cal.AnnualSeries(np.arange(2000, 2005), np.full(5, 10.0))
        K = cal.impute_capital(gcf, 0.1, 100.0)
        np.testing.assert_allclose(K.values, 100.0)

    def test_recursion_identity_exact(self):
        rng = np.random.default_rng(3)
        gcf = cal.AnnualSeries(np.arange(1990, 2020), rng.uniform(1.0, 5.0, 30))
        K = cal.impute_capital(gcf, 0.0446, 42.0)
        for i in range(30):
            assert K.values[i + 1] == (1 - 0.0446) * K.values[i] + gcf.values[i]

    def test_nonpositive_initial_stock_rejected(self):
        gcf = cal.AnnualSeries(np.array([2000]), np.array([1.0]))
        with pytest.raises(ValueError):
            cal.impute_capital(gcf, 0.1, 0.0)

    def test_fixture_final_stock_in_published_window(self, datasets):
        gcf = datasets["gcf"]
        k_init = cal.steady_state_k_init(gcf, 0.0446)
        K = cal.impute_capital(gcf, 0.0446, k_init)
        assert 0.95 * 2.775e14 <= K.value_at(2019) <= 1.05 * 2.827e14


class TestEstimateTfp:
    def build(self, g_annual, years=29, noise=None):
        yrs = np.arange(1990, 1990 + years)
        K = 1e14 * 1.03 ** (yrs - 1990)
        N = 5e9 * 1.012 ** (yrs - 1990)
        A = 1.3 * (1 + g_annual) ** (yrs - 1990)
        if noise is not None:
            A = A * np.exp(noise)
        gdp = A * K ** 0.3 * N ** 0.7 * 365.0
        return (cal.AnnualSeries(yrs, gdp), cal.AnnualSeries(yrs, K), cal.AnnualSeries(yrs, N))

    def test_synthetic_round_trip(self):
        gdp, K, N = self.build(0.013)
        A, g_daily = cal.estimate_tfp(gdp, K, N, 0.3)
        assert g_daily == pytest.approx(3.55e-5, rel=0.02)
        assert A.values[0] == pytest.approx(1.3, rel=1e-9)

    def test_constant_inputs_give_zero_growth(self):
        gdp, K, N = self.build(0.0)
        _, g_daily = cal.estimate_tfp(gdp, K, N, 0.3)
        assert g_daily == pytest.approx(0.0, abs=1e-15)

    def test_scale_equivariance(self):
        gdp, K, N = self.build(0.013)
        doubled = cal.AnnualSeries(gdp.years, gdp.values * 2.0)
        A1, _ = cal.estimate_tfp(gdp, K, N, 0.3)
        A2, _ = cal.estimate_tfp(doubled, K, N, 0.3)
        np.testing.assert_allclose(A2.values, 2.0 * A1.values, rtol=1e-12)

    def test_misaligned_series_rejected(self):
        gdp, K, N = self.build(0.013)
        K_far = cal.AnnualSeries(np.arange(1900, 1905), np.ones(5))
        with pytest.raises(ValueError):
            cal.estimate_tfp(gdp, K_far, N, 0.3)

    def test_fixture_recovers_daily_growth(self, datasets):
        gcf = datasets["gcf"]
        K = cal.impute_capital(gcf, 0.0446, cal.steady_state_k_init(gcf, 0.0446))
        _, g_daily = cal.estimate_tfp(datasets["gdp"], K, datasets["population"], 0.3)
        assert g_daily == pytest.approx(3.55e-5, rel=0.02)


class TestExtractEpiRates:
    def test_round_trip_through_epidemic_step(self, params):
        pop = dataclasses.replace(params, a1=1.00005, a2=-1e-15)
        rates = EpiRates(b=2e-11, r=0.021, m=0.006)
        state = EpiState(date=date(2020, 1, 22), N=7.7e9, S=7.7e9 - 1000.0, I=1000.0, R=0.0, D=0.0)
        states = [state]
        for _ in range(60):
            state = epi_step(state, rates, pop)
            states.append(state)
        cases = cal.CaseSeries(
            dates=[s.date for s in states],
            confirmed=np.array([s.I + s.R + s.D for s in states]),
            recovered=np.array([s.R for s in states]),
            deaths=np.array([s.D for s in states]),
        )
        out = cal.extract_epi_rates(cases, pop.a1, pop.a2, N0=7.7e9)
        assert not out.skipped_dates
        np.testing.assert_allclose(out.b, 2e-11, rtol=1e-9)
        np.testing.assert_allclose(out.r, 0.021, rtol=1e-9)
        np.testing.assert_allclose(out.m, 0.006, rtol=1e-9)

    def test_recovery_rate_is_increment_over_active(self):
        cases = cal.CaseSeries(
            dates=[date(2020, 3, 1), date(2020, 3, 2)],
            confirmed=np.array([150.0, 160.0]),
            recovered=np.array([40.0, 42.1]),
            deaths=np.array([10.0, 10.0]),
        )
        out = cal.extract_epi_rates(cases, 1.0, 0.0, N0=1e6)
        assert out.r[0] == pytest.approx(2.1 / 100.0)

    def test_days_without_active_cases_skipped(self):
        cases = cal.CaseSeries(
            dates=[date(2020, 3, 1) + timedelta(days=k) for k in range(3)],
            confirmed=np.array([10.0, 10.0, 10.0]),
            recovered=np.array([5.0, 10.0, 10.0]),
            deaths=np.array([0.0, 0.0, 0.0]),
        )
        out = cal.extract_epi_rates(cases, 1.0, 0.0, N0=1e6)
        assert out.skipped_dates == [date(2020, 3, 2)]
        assert len(out.b) == 1

    def test_fixture_quantiles_match_published_rates(self, datasets, params):
        out = cal.extract_epi_rates(datasets["cases"], params.a1, params.a2, N0=7.718e9)
        assert cal.quantile(out.b, 0.75) == pytest.approx(2.041e-11, rel=5e-3)
        assert cal.quantile(out.r, 0.5) == pytest.approx(0.02099, rel=5e-3)


class TestLogLogFits:
    def test_mortality_synthetic_exact(self):
        b = np.geomspace(1e-12, 1e-10, 30)
        m = math.e ** 10 * b ** 0.5
        log_k1, k2 = cal.loglog_fit(b, m)[0].coefficients
        assert log_k1 == pytest.approx(10.0, rel=1e-9)
        assert k2 == pytest.approx(0.5, rel=1e-9)

    def test_degenerate_regressor_rejected(self):
        with pytest.raises(ValueError, match="rank deficient"):
            cal.loglog_fit(np.full(10, 2e-11), np.full(10, 6e-3))

    def test_nonpositive_pairs_dropped(self):
        b = np.array([1e-11, 2e-11, 0.0, 3e-11, -1e-12])
        m = np.exp(12.0 + 0.7 * np.log(np.abs(b) + 1e-300))
        fit, dropped = cal.loglog_fit(b, m)
        assert dropped == 2
        assert fit.n_obs == 3

    def test_too_few_positive_pairs(self):
        with pytest.raises(ValueError, match="positive pairs"):
            cal.loglog_fit(np.array([1e-11, 2e-11]), np.array([1e-3, 2e-3]))

    def test_mortality_fixture_reproduces_published_fit(self, datasets, params):
        out = cal.extract_epi_rates(datasets["cases"], params.a1, params.a2, N0=7.718e9)
        log_k1, k2 = cal.loglog_fit(out.b, out.m)[0].coefficients
        assert log_k1 == pytest.approx(12.561, rel=0.10)
        assert k2 == pytest.approx(0.717, rel=0.10)
        # the reconstruction is much closer than the acceptance tolerance
        assert log_k1 == pytest.approx(12.561, rel=0.02)
        assert k2 == pytest.approx(0.717, rel=0.02)

    def test_tradeoff_synthetic_exact(self):
        x = np.linspace(1.0, 20.0, 25)
        y = math.e ** 3 * x ** 0.3
        log_q1, q2 = cal.loglog_fit(x, y)[0].coefficients
        assert log_q1 == pytest.approx(3.0, rel=1e-9)
        assert q2 == pytest.approx(0.3, rel=1e-9)

    def test_tradeoff_single_observation_rejected(self):
        with pytest.raises(ValueError):
            cal.loglog_fit(np.array([5.0]), np.array([58.0]))

    def test_tradeoff_fixture_exact(self, datasets):
        log_q1, q2 = cal.loglog_fit(datasets["tradeoff_shortfall"], datasets["tradeoff_reduction"])[0].coefficients
        assert log_q1 == pytest.approx(3.677, rel=1e-6)
        assert q2 == pytest.approx(0.238, rel=1e-6)


class TestDailyConversionInverses:
    def test_depreciation(self, params):
        assert (1 - params.delta_daily) ** 365 == pytest.approx(1 - 0.0446, rel=1e-12)

    def test_discounting(self, params):
        assert params.beta_daily ** 365 == pytest.approx(1 / 1.08, rel=1e-12)

    def test_shipped_daily_rates_are_the_published_annual_rates_converted(self, params):
        # the paper's 4.46% depreciation and 8% discount rate, compounded
        # daily; the config is their only source, so they agree bit for bit
        assert params.delta_daily == 1.0 - (1.0 - 0.0446) ** (1.0 / 365)
        assert params.beta_daily == (1.0 + 0.08) ** (-1.0 / 365)

    def test_annual_depreciation_inverts_the_daily_conversion(self, params):
        from epigrowth.params import annual_depreciation

        assert annual_depreciation(params.delta_daily) == pytest.approx(0.0446, rel=1e-12)

    def test_growth(self):
        from epigrowth.params import annual_to_daily_growth

        g_daily = annual_to_daily_growth(0.013)
        assert (1 + g_daily) ** 365 == pytest.approx(1.013, rel=1e-12)

    def test_population_scaling_formulas_verbatim(self):
        a1, a2 = cal.to_daily(1.028, -2.282e-12)
        assert a1 == 1 + (1.028 - 1) / 365
        assert a2 == -2.282e-12 / 365


class TestCalibrateEndToEnd:
    def test_reproduces_published_parameter_table(self, calibrated):
        params, report = calibrated
        ref = default_params()
        assert params.a1 == pytest.approx(ref.a1, rel=1e-12)
        assert params.a2 == pytest.approx(ref.a2, rel=1e-9)
        assert params.g_daily == pytest.approx(ref.g_daily, rel=0.02)
        assert params.r == pytest.approx(ref.r, rel=5e-3)
        assert params.b0 == pytest.approx(ref.b0, rel=5e-3)
        assert params.log_k1 == pytest.approx(ref.log_k1, rel=0.10)
        assert params.k2 == pytest.approx(ref.k2, rel=0.10)
        assert params.log_q1 == pytest.approx(ref.log_q1, rel=1e-6)
        assert params.q2 == pytest.approx(ref.q2, rel=1e-6)
        assert params.delta_daily == ref.delta_daily
        assert params.beta_daily == ref.beta_daily
        # the assumed values are the config's, which ship the published ones
        assert (params.alpha, params.u, params.h) == (0.3, 5722.078, 0.147)

    @pytest.mark.parametrize("name,value", [("delta_daily", 2e-4), ("beta_daily", 0.9997)])
    def test_daily_rate_override_reaches_the_bundle(self, name, value, datasets, config):
        from dataclasses import replace

        from epigrowth.params import annual_depreciation

        constants = cal.CalibrationConstants(
            population_fit_years=config.data["population_fit_years"],
            assumed=replace(config.params, **{name: value}),
        )
        params, report = cal.calibrate(
            datasets["population"], datasets["gdp"], datasets["gcf"], datasets["cases"],
            datasets["tradeoff_shortfall"], datasets["tradeoff_reduction"],
            case_population=float(config.data["case_population"]), constants=constants,
        )
        assert getattr(params, name) == value
        assert report["assumed"][name] == value
        # the capital stock is imputed at the annual equivalent of the
        # bundle's delta_daily, whichever of the two was overridden
        k_init = cal.steady_state_k_init(datasets["gcf"], annual_depreciation(params.delta_daily))
        assert report["capital_imputation"]["k_init"] == k_init

    def test_report_lists_the_assumed_values(self, calibrated, config):
        _, report = calibrated
        assert report["assumed"] == {name: getattr(config.params, name)
                                     for name in ("delta_daily", "beta_daily", "alpha", "u", "h")}

    def test_report_tables_complete(self, calibrated):
        _, report = calibrated
        assert report["population_fit"]["n_obs"] == 58
        assert report["tradeoff_fit"]["n_obs"] == 45
        assert report["mortality_fit"]["n_obs"] >= 100
        assert report["capital_imputation"]["final_stock"] > 0
        for table in ("population_fit", "mortality_fit", "tradeoff_fit"):
            assert set(report[table]) >= {"coefficients", "std_errors", "r_squared", "n_obs"}
