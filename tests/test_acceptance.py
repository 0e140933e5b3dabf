"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import dataclasses
from datetime import date, timedelta

import numpy as np

from epigrowth import calibration as cal
from epigrowth import scenarios
from epigrowth.epidemic import policy_to_infection_reduction, run_days
from epigrowth.params import default_params


def criterion(number: str, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {label}: {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


class TestCriterion1TradeoffReproduction:
    def test_policy_curve_matches_published_reductions(self):
        model = dataclasses.replace(default_params(), log_q1=3.677, q2=0.238)
        at5 = policy_to_infection_reduction(5.0, model)
        at10 = policy_to_infection_reduction(10.0, model)
        criterion(
            "1", "trade-off reproduction",
            55.0 <= at5 <= 62.0 and 65.0 <= at10 <= 72.0,
            f"reduction(5%)={at5:.2f} in [55,62], reduction(10%)={at10:.2f} in [65,72]",
        )


class TestCriterion2NoInterventionScenario:
    def test_death_toll(self, baselines):
        _, ni, _ = baselines
        deaths = float(ni.D[-1] - ni.D[0])
        criterion(
            "2a", "no-intervention death toll",
            abs(deaths / 1.75e9 - 1.0) <= 0.15,
            f"total deaths {deaths:.4e} within 15% of 1.75e9",
        )

    def test_peak_timing(self, baselines):
        np_traj, ni, _ = baselines
        metrics = scenarios.summarize(ni, np_traj, ratio_dates=[date(2030, 12, 31)])
        mid_june = date(2020, 6, 15)
        window = timedelta(days=21)
        criterion(
            "2b", "peak of active infections",
            mid_june - window <= metrics.peak_date <= mid_june + window,
            f"peak {metrics.peak_date.isoformat()} within 3 weeks of {mid_june.isoformat()}",
        )

    def test_production_drop(self, baselines):
        np_traj, ni, _ = baselines
        metrics = scenarios.summarize(ni, np_traj, ratio_dates=[date(2030, 12, 31)])
        criterion(
            "2c", "maximum production drop",
            abs(metrics.max_output_drop_pct - 45.0) <= 10.0,
            f"max drop {metrics.max_output_drop_pct:.1f}% within 45% +/- 10pp",
        )

    def test_long_run_output_gap(self, baselines):
        np_traj, ni, _ = baselines
        metrics = scenarios.summarize(ni, np_traj, ratio_dates=[date(2030, 12, 31)])
        gap_pct = (1.0 - metrics.output_ratio_at["2030-12-31"]) * 100.0
        criterion(
            "2d", "2030 output gap",
            15.0 <= gap_pct <= 30.0,
            f"2030 output {gap_pct:.1f}% below no-pandemic, target 20-25% +/- 5pp",
        )

    def test_runtime(self, baselines):
        _, _, elapsed = baselines
        criterion(
            "2e", "runtime",
            elapsed < 60.0,
            f"full 2020-2060 no-intervention run took {elapsed:.1f}s (< 60s)",
        )


class TestCriterion3OrdinalFindings:
    def test_start_date_ordering(self, start_date_sweep):
        deaths = {r.scenario.name: r.metrics.total_deaths for r in start_date_sweep}
        best = min(deaths, key=deaths.get)
        criterion(
            "3a", "preferred start date",
            best == "start-2020-05-21",
            f"deaths by start date {{{', '.join(f'{k}: {v:.3e}' for k, v in sorted(deaths.items()))}}},"
            f" minimum at {best}",
        )

    def test_start_at_the_inflection_beats_a_week_either_side(self, inflection_start_sweep):
        # The abstract puts the best start where active infections grow at
        # their highest rate: the inflection day of the no-intervention run
        # (measured 2020-05-31, deaths 9.7065e8 from it against 1.00560e9 a
        # week before and 1.00479e9 a week after, at 10% for 26 weeks)
        inflection, deaths = inflection_start_sweep
        week = timedelta(days=7)
        before, on, after = deaths[inflection - week], deaths[inflection], deaths[inflection + week]
        criterion(
            "3a-inflection", "a start on the inflection day of active infections",
            on < min(before, after),
            f"inflection {inflection.isoformat()}; deaths {on:.5e} from it, {before:.5e} a week"
            f" before, {after:.5e} a week after",
        )

    def test_start_at_the_inflection_beats_every_day_within_a_week(self, inflection_start_sweep):
        # On a daily grid the minimum falls on the inflection day itself
        # (measured 9.70651e8, against 9.71609e8 on 2020-05-30 and 9.71216e8
        # on 2020-06-01)
        inflection, deaths = inflection_start_sweep
        others = {day: d for day, d in deaths.items() if day != inflection}
        nearest = min(others, key=others.get)
        criterion(
            "3a-daily", "a start on the inflection day beats every daily start within a week",
            deaths[inflection] < others[nearest],
            f"inflection {inflection.isoformat()}; deaths {deaths[inflection]:.6e} from it, "
            f"next lowest {others[nearest]:.6e} from {nearest.isoformat()}",
        )

    def test_intensity_near_indifference(self, intensity_sweep):
        deaths = [r.metrics.total_deaths for r in intensity_sweep]
        spread = (max(deaths) - min(deaths)) / min(deaths)
        criterion(
            "3b", "intensity near-indifference",
            spread <= 0.10,
            f"final death totals across {{5,15,25}}% within {spread:.1%} of each other (<= 10%)",
        )

    def test_duration_strictly_reduces_deaths(self, params, duration_sweep):
        # The paper's duration finding: the intervention should last until
        # after the peak established by the reduced infection rate.  That
        # peak, t*, is the active-infection peak of the same intervention
        # held through the horizon.  A window that closes before t* only
        # delays the wave (and births during the delay can enlarge it), so
        # every window that outlasts t* must have strictly fewer deaths than
        # every window that does not.
        template = duration_sweep[0].scenario
        held_schedule = dataclasses.replace(
            template.schedule,
            duration_days=(template.horizon - template.schedule.start_date).days + 1,
        )
        held = scenarios.run_scenario(
            dataclasses.replace(template, name="duration-held", schedule=held_schedule), params
        )
        t_star = held.dates[int(np.argmax(held.I))]

        deaths = [r.metrics.total_deaths for r in duration_sweep]
        weeks = [r.scenario.schedule.duration_days // 7 for r in duration_sweep]
        ends = [
            r.scenario.schedule.start_date + timedelta(days=r.scenario.schedule.duration_days)
            for r in duration_sweep
        ]
        outlasting = [d for d, end in zip(deaths, ends) if end > t_star]
        short = [d for d, end in zip(deaths, ends) if end <= t_star]
        criterion(
            "3c", "windows outlasting the reduced-rate peak strictly reduce deaths",
            bool(outlasting) and bool(short) and max(outlasting) < min(short),
            f"reduced-rate peak {t_star.isoformat()}; deaths by duration (window end) "
            + ", ".join(
                f"{w}wk ({end.isoformat()}): {d:.4e}" for w, end, d in zip(weeks, ends, deaths)
            )
            + f"; {len(outlasting)} window(s) outlast the peak, {len(short)} do not",
        )


class TestCriterion4CalibrationGoldens:
    def test_population_fit(self, datasets, config):
        window = datasets["population"].window(*config.data["population_fit_years"])
        a1, a2 = cal.population_fit_report(window).coefficients
        criterion(
            "4a", "population growth fit",
            abs(a1 - 1.028) < 5e-4 and abs(a2 - (-2.282e-12)) < 5e-16,
            f"(a1, a2) = ({a1:.6f}, {a2:.6e}) vs (1.028, -2.282e-12) to 3 significant figures",
        )

    def test_mortality_fit(self, datasets, params):
        rates = cal.extract_epi_rates(datasets["cases"], params.a1, params.a2, N0=7.718e9)
        log_k1, k2 = cal.loglog_fit(rates.b, rates.m)[0].coefficients
        ok = abs(log_k1 / 12.561 - 1.0) <= 0.10 and abs(k2 / 0.717 - 1.0) <= 0.10
        criterion(
            "4b", "mortality model fit",
            ok,
            f"(log_k1, k2) = ({log_k1:.3f}, {k2:.3f}) within 10% of (12.561, 0.717)",
        )

    def test_tfp_growth_round_trip(self):
        years = np.arange(1990, 2019)
        K = 1e14 * 1.03 ** (years - 1990)
        N = 5e9 * 1.012 ** (years - 1990)
        A = 1.3 * 1.013 ** (years - 1990)
        gdp = cal.AnnualSeries(years, A * K ** 0.3 * N ** 0.7 * 365.0)
        _, g_daily = cal.estimate_tfp(
            gdp, cal.AnnualSeries(years, K), cal.AnnualSeries(years, N), 0.3
        )
        criterion(
            "4c", "TFP growth synthetic round trip",
            abs(g_daily / 3.55e-5 - 1.0) <= 0.02,
            f"g_daily = {g_daily:.4e} within 2% of 3.55e-5",
        )


class TestCriterion5PropertySuites:
    def test_conservation_on_all_trajectories(self, baselines, duration_sweep):
        worst = 0.0
        trajectories = [baselines[0], baselines[1]] + [r.trajectory for r in duration_sweep]
        for t in trajectories:
            gap = t.N - (t.S + t.I + t.R)
            drift = np.max(np.abs(gap - gap[0])) / max(t.N[0], 1.0)
            worst = max(worst, drift)
        criterion(
            "5a", "population conservation",
            worst <= 1e-6,
            f"max relative drift of N-(S+I+R) across runs {worst:.2e} (<= 1e-6)",
        )

    def test_euler_residuals_interior(self, baselines, params):
        worst = 0.0
        for t in (baselines[0], baselines[1]):
            cpc = t.C / t.N
            mpk = (params.alpha * (1 - t.p[1:]) * t.A[1:] * t.K[1:] ** (params.alpha - 1)
                   * (t.S + t.R)[1:] ** (1 - params.alpha))
            resid = np.abs(cpc[1:] / cpc[:-1] / (params.beta_daily * (1 - params.delta_daily + mpk)) - 1.0)
            worst = max(worst, float(np.max(resid)))
        criterion(
            "5b", "planner Euler residuals",
            worst < 1e-6,
            f"max interior residual {worst:.2e} (< 1e-6)",
        )

    def test_welfare_dominance(self, baselines, params):
        t = baselines[1]
        W = t.welfare
        beta = params.beta_daily
        rng = np.random.default_rng(42)
        checked, violations = 0, 0
        while checked < 100:
            i = int(rng.integers(0, len(t.dates) - 2))
            eps = float(rng.uniform(-0.02, 0.02))
            if eps == 0.0:
                continue
            C_i = t.C[i] * (1 + eps)
            K_next = (1 - params.delta_daily) * t.K[i] + t.Y[i] - C_i - t.H[i]
            if K_next <= 0:
                continue
            Y_next = ((1 - t.p[i + 1]) * t.A[i + 1] * K_next ** params.alpha
                      * (t.S + t.R)[i + 1] ** (1 - params.alpha))
            K_after = t.K[i + 2] if i + 2 < len(t.K) else None
            if K_after is None:
                continue
            C_next = (1 - params.delta_daily) * K_next + Y_next - t.H[i + 1] - K_after
            if C_next <= 0:
                continue
            delta_W = (beta ** i * t.N[i] * (np.log(C_i) - np.log(t.C[i]))
                       + beta ** (i + 1) * t.N[i + 1] * (np.log(C_next) - np.log(t.C[i + 1])))
            checked += 1
            if delta_W > 1e-9 * abs(W):
                violations += 1
        criterion(
            "5c", "welfare dominance",
            violations == 0,
            f"{checked} random feasible perturbations, {violations} welfare improvements",
        )

    def test_rate_extraction_round_trip(self, params):
        b, r, m = 2.041e-11, 0.02099, 6.17e-3
        _, _, I, R, D, _ = run_days((7.718e9, 7.718e9 - 510.0, 510.0, 0.0, 0.0), [(81, b, m)], r,
                                    params.a1, params.a2)
        cases = cal.CaseSeries(
            dates=[date(2020, 1, 22) + timedelta(days=k) for k in range(81)],
            confirmed=I + R + D,
            recovered=R,
            deaths=D,
        )
        out = cal.extract_epi_rates(cases, params.a1, params.a2, N0=7.718e9)
        err = max(
            np.max(np.abs(out.b / b - 1)),
            np.max(np.abs(out.r / r - 1)),
            np.max(np.abs(out.m / m - 1)),
        )
        criterion(
            "5d", "rate extraction round trip",
            err <= 1e-9,
            f"max relative error across (b, r, m) {err:.2e} (<= 1e-9)",
        )

    def test_ols_against_normal_equations(self):
        rng = np.random.default_rng(2024)
        X = rng.normal(size=(60, 3))
        y = X @ np.array([1.5, -2.0, 0.5]) + 3.0 + rng.normal(0.0, 0.2, 60)
        fit = cal.ols(X, y, intercept=True)
        design = np.column_stack([np.ones(60), X])
        oracle = np.linalg.inv(design.T @ design) @ design.T @ y
        err = float(np.max(np.abs(fit.coefficients - oracle)))
        criterion(
            "5e", "least squares vs normal-equations oracle",
            err <= 1e-8,
            f"max coefficient difference {err:.2e} (<= 1e-8)",
        )

    def test_policy_noop_equivalence(self, params, config, baselines):
        schedule = scenarios.PolicySchedule(date(2020, 3, 12), 0.0, 182)
        run = scenarios.run_scenario(
            dataclasses.replace(config.scenario(scenarios.NO_INTERVENTION), schedule=schedule, name="noop"), params
        )
        identical = all(
            np.array_equal(run.columns()[name], baselines[1].columns()[name])
            for name in run.columns()
        )
        criterion(
            "5f", "policy no-op equivalence",
            identical,
            "zero-intensity schedule reproduces the no-intervention run exactly",
        )

    def test_determinism_across_parallel_runs(self, config, run_sweep, tmp_path):
        base = dataclasses.replace(
            config.scenario(scenarios.NO_INTERVENTION),
            end_of_interest=date(2022, 12, 31), horizon=date(2024, 12, 31), name="det",
        )
        written = {}
        for jobs in (1, 2):
            out_dir = tmp_path / f"jobs-{jobs}"
            out_dir.mkdir()
            run_sweep("duration", [4, 8], base=base, reference=base, jobs=jobs, out_dir=out_dir)
            written[jobs] = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        identical = len(written[1]) == 2 and written[1] == written[2]
        criterion(
            "5g", "determinism across parallel runs",
            identical,
            "serial and two-process sweeps write byte-identical trajectories",
        )


class TestCriterion6Backtest:
    def test_annual_gdp_within_tolerance(self, backtest_result):
        _, report = backtest_result
        errs = {row["year"]: row["gdp_relative_error"] for row in report["rows"]}
        worst_year = max(errs, key=lambda y: abs(errs[y]))
        criterion(
            "6", "1990-2010 backtest",
            all(abs(e) <= 0.10 for e in errs.values()),
            f"simulated GDP within 10% of observed every year; "
            f"worst {errs[worst_year]:+.2%} in {worst_year}",
        )
