import dataclasses
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epigrowth import scenarios
from epigrowth.epidemic import (
    MortalityModel,
    PopGrowthParams,
    TradeoffModel,
    effective_rates,
    epi_step,
    policy_to_infection_reduction,
)
from epigrowth.params import DataFormatError, ModelParams, default_config
from epigrowth.planner import InfeasiblePlanError
from epigrowth.scenarios import (
    BacktestData,
    PolicySchedule,
    Scenario,
    backtest,
    no_intervention_scenario,
    no_pandemic_scenario,
    run_scenario,
    summarize,
    sweep,
    sweep_duration,
    sweep_intensity,
    sweep_start_dates,
    _epidemic_pass,
)


def short_scenario(schedule=None, name="short", **changes):
    """No-intervention initial conditions with a reduced horizon, for tests
    that exercise mechanics rather than published numbers."""
    return no_intervention_scenario(
        schedule=schedule, name=name,
        end_of_interest=date(2022, 12, 31), horizon=date(2024, 12, 31), **changes,
    )


class TestNoPandemic:
    def test_no_infections_no_deaths(self, baselines):
        trajectory = baselines[0]
        assert np.all(trajectory.I == 0.0)
        assert np.all(trajectory.D == 0.0)
        assert trajectory.S[0] == trajectory.N[0]

    def test_steady_growth(self, baselines):
        trajectory = baselines[0]
        y2020 = trajectory.Y[trajectory.index_of(date(2020, 1, 22))]
        y2030 = trajectory.Y[trajectory.index_of(date(2030, 12, 31))]
        assert y2030 > y2020
        assert trajectory.N[-1] > trajectory.N[0]


class TestPolicyNoOpEquivalence:
    def test_zero_intensity_matches_no_intervention_exactly(self, params, baselines):
        schedule = PolicySchedule(start_date=date(2020, 3, 12), intensity_p=0.0, duration_days=182)
        run = run_scenario(no_intervention_scenario(schedule=schedule, name="noop"), params)
        reference = baselines[1]
        for name, col in run.columns().items():
            assert np.array_equal(col, reference.columns()[name]), name

    def test_zero_duration_matches_no_intervention_exactly(self, params, baselines):
        schedule = PolicySchedule(start_date=date(2020, 3, 12), intensity_p=0.10, duration_days=0)
        run = run_scenario(no_intervention_scenario(schedule=schedule, name="noop"), params)
        reference = baselines[1]
        for name, col in run.columns().items():
            assert np.array_equal(col, reference.columns()[name]), name


class TestDecoupling:
    def test_epidemic_path_ignores_economic_parameters(self, params):
        scenario = short_scenario()
        base = _epidemic_pass(scenario, params)
        richer = dataclasses.replace(params, beta_daily=0.9999, g_daily=1e-4)
        other_k = dataclasses.replace(scenario, K0=scenario.K0 * 2.0, A0=scenario.A0 * 1.5)
        alt = _epidemic_pass(other_k, richer)
        for a, b in zip(base[1:7], alt[1:7]):  # N, S, I, R, D, b
            assert np.array_equal(a, b)


class TestEpidemicKernel:
    def test_pass_matches_checked_daily_steps(self, params):
        # reference: the public, checked epi_step applied day by day
        schedule = PolicySchedule(start_date=date(2020, 3, 12), intensity_p=0.10, duration_days=182)
        scenario = short_scenario(schedule=schedule)
        dates, N, S, I, R, D, b, p, F = _epidemic_pass(scenario, params)
        mm = MortalityModel(log_k1=params.log_k1, k2=params.k2)
        pop = PopGrowthParams(a1=params.a1, a2=params.a2)
        reduction = policy_to_infection_reduction(10.0, TradeoffModel(log_q1=params.log_q1, q2=params.q2))
        end = schedule.start_date + timedelta(days=schedule.duration_days)
        state = scenario.initial_epi_state()
        for t, day in enumerate(dates):
            assert state.date == day
            assert (state.N, state.S, state.I, state.R, state.D) == (N[t], S[t], I[t], R[t], D[t]), day
            active = schedule.start_date <= day < end
            rates = effective_rates(scenario.b0, reduction if active else 0.0, mm, params.r)
            assert (b[t], p[t]) == (rates.b, 0.10 if active else 0.0), day
            assert F[t] == min(rates.b * state.S * state.I, state.S), day
            if t < len(dates) - 1:
                state = epi_step(state, rates, pop)


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self, params):
        scenario = short_scenario()
        one = run_scenario(scenario, params)
        two = run_scenario(scenario, params)
        for name, col in one.columns().items():
            assert np.array_equal(col, two.columns()[name]), name
        assert one.welfare == two.welfare

    def test_parallel_sweep_matches_serial(self, params):
        base = short_scenario()
        serial = sweep_duration(params, [4, 8], base=base, reference=run_scenario(base, params))
        parallel = sweep_duration(params, [4, 8], base=base, jobs=2,
                                  reference=run_scenario(base, params))
        for a, b in zip(serial, parallel):
            assert a.scenario.name == b.scenario.name
            assert np.array_equal(a.trajectory.D, b.trajectory.D)
            assert a.metrics.total_deaths == b.metrics.total_deaths
            assert a.metrics.welfare == b.metrics.welfare


class TestSummarize:
    def test_self_comparison(self, baselines):
        trajectory = baselines[1]
        metrics = summarize(trajectory, trajectory)
        assert metrics.max_output_drop_pct == pytest.approx(0.0, abs=1e-12)
        assert all(v == pytest.approx(1.0) for v in metrics.output_ratio_at.values())

    def test_total_deaths_is_terminal_minus_initial(self, baselines):
        trajectory = baselines[1]
        metrics = summarize(trajectory, baselines[0])
        assert metrics.total_deaths == trajectory.D[-1] - trajectory.D[0]

    def test_disjoint_ranges_rejected(self, params, baselines):
        early = run_scenario(
            no_pandemic_scenario(end_of_interest=date(2019, 6, 1), horizon=date(2019, 12, 31)),
            params,
        )
        late = baselines[1]  # starts 2020-01-22
        with pytest.raises(ValueError, match="overlap"):
            summarize(late, early)

    def test_ratio_date_outside_range_rejected(self, baselines):
        with pytest.raises(ValueError, match="outside"):
            summarize(baselines[1], baselines[0], ratio_dates=[date(2031, 6, 1)])


class TestSweeps:
    def test_start_july_matches_no_intervention_until_policy_begins(self, params, baselines, start_date_sweep):
        run = next(r for r in start_date_sweep if r.scenario.name == "start-2020-07-02")
        reference = baselines[1]
        cut = reference.index_of(date(2020, 7, 2))
        np.testing.assert_array_equal(run.trajectory.I[:cut], reference.I[:cut])
        np.testing.assert_array_equal(run.trajectory.D[:cut], reference.D[:cut])

    def test_may_start_minimizes_deaths(self, start_date_sweep):
        deaths = {r.scenario.name: r.metrics.total_deaths for r in start_date_sweep}
        assert min(deaths, key=deaths.get) == "start-2020-05-21"

    def test_start_after_extinction_changes_only_consumption(self, params, baselines):
        runs = sweep_start_dates(params, [date(2024, 1, 1)], reference=baselines[0])
        run = runs[0]
        reference = summarize(baselines[1], baselines[0])
        assert run.metrics.total_deaths == pytest.approx(reference.total_deaths, rel=1e-12)
        assert run.metrics.peak_date == reference.peak_date
        # the production shortfall still binds, so consumption and welfare move
        assert run.metrics.welfare < reference.welfare

    def test_intensity_window_shape(self, intensity_sweep):
        run = next(r for r in intensity_sweep if r.scenario.name == "intensity-00.0500")
        t = run.trajectory
        active = t.p > 0
        assert t.p.max() == 0.05
        assert int(active.sum()) == 182
        first = t.dates[int(np.argmax(active))]
        assert first == date(2020, 3, 12)
        # half-open window: the end day itself is inactive
        assert t.p[t.index_of(date(2020, 9, 9))] == 0.05
        assert t.p[t.index_of(date(2020, 9, 10))] == 0.0

    def test_intensity_delays_peak_but_deaths_similar(self, baselines, intensity_sweep):
        reference_peak = summarize(baselines[1], baselines[0]).peak_date
        deaths = []
        for run in intensity_sweep:
            assert run.metrics.peak_date > reference_peak
            deaths.append(run.metrics.total_deaths)
        assert (max(deaths) - min(deaths)) / min(deaths) < 0.10
        peaks = [r.metrics.peak_date for r in intensity_sweep]
        assert peaks == sorted(peaks)  # higher intensity pushes the wave later

    def test_full_coverage_duration_has_lowest_peak(self, duration_sweep):
        peaks = [r.metrics.peak_active_infections for r in duration_sweep]
        assert peaks[-1] == min(peaks)
        assert peaks[-1] < 0.5 * peaks[0]

    def test_duration_tail_strictly_reduces_deaths(self, duration_sweep):
        deaths = [r.metrics.total_deaths for r in duration_sweep]
        # 28 -> 52 -> 76 weeks: the 52-week window (ending 2021-03-11)
        # stops short of the reduced-rate peak (2021-04-15) yet already cuts
        # deaths; the 76-week window outlasts that peak and saves lives
        # dramatically
        assert deaths[1] > deaths[2] > deaths[3]
        assert deaths[3] < 0.65 * deaths[0]

    def test_duration_strictly_reduces_deaths_without_births(self, params):
        # With births off (a1 = 1, a2 = 0, the no-growth case), a delayed
        # wave gains no new susceptibles, so every longer window saves lives,
        # the 4 -> 28 week step included.  With births on, 28 weeks lands
        # 0.16% above 4 weeks.
        no_births = dataclasses.replace(params, a1=1.0, a2=0.0)
        runs = sweep_duration(no_births, [4, 28, 52, 76])
        deaths = [r.metrics.total_deaths for r in runs]
        assert all(a > b for a, b in zip(deaths, deaths[1:])), deaths

    def test_per_run_errors_collected_not_fatal(self, params):
        base = short_scenario()
        reference = run_scenario(base, params)
        runs = sweep_intensity(params, [0.05, 1.2], base=base, reference=reference,
                               start_date=date(2020, 3, 12))
        by_name = {r.scenario.name: r for r in runs}
        good = by_name["intensity-00.0500"]
        bad = by_name["intensity-01.2000"]
        assert good.error is None and good.metrics is not None
        assert bad.error is not None and bad.trajectory is None

    def test_fixed_settings_default_to_shipped_config(self, params):
        base = short_scenario()
        reference = run_scenario(base, params)
        shipped = default_config()["sweeps"]["duration"]
        default, = sweep_duration(params, [4], base=base, reference=reference)
        assert default.scenario.schedule == PolicySchedule(
            date.fromisoformat(shipped["start_date"]), shipped["intensity"], 28)
        given, = sweep_duration(params, [4], base=base, reference=reference, intensity=0.2)
        assert given.scenario.schedule == PolicySchedule(
            date.fromisoformat(shipped["start_date"]), 0.2, 28)

    def test_results_ordered_by_scenario_key(self, params):
        base = short_scenario()
        reference = run_scenario(base, params)
        runs = sweep_duration(params, [12, 4, 8], base=base, reference=reference)
        names = [r.scenario.name for r in runs]
        assert names == sorted(names)


class TestBacktest:
    def test_fit_within_tolerance_each_year(self, backtest_result):
        _, report = backtest_result
        assert report["max_abs_gdp_error"] <= 0.10
        assert len(report["rows"]) == 21
        assert not report["systematic_drift"]

    def test_zero_growth_control_flags_drift(self, params, datasets):
        observed = BacktestData(
            population=datasets["population"], gdp=datasets["gdp"], gcf=datasets["gcf"]
        )
        slow = dataclasses.replace(params, g_daily=0.0)
        _, report = backtest(slow, observed)
        assert report["systematic_drift"]
        assert report["mean_gdp_error"] < -0.05

    def test_empty_observed_series_rejected(self, params, datasets):
        import numpy as np
        from epigrowth.calibration import AnnualSeries

        empty = BacktestData(
            population=datasets["population"],
            gdp=AnnualSeries(np.array([], dtype=int), np.array([])),
            gcf=datasets["gcf"],
        )
        with pytest.raises(ValueError, match="empty"):
            backtest(params, empty)


class TestInfeasibility:
    def test_ruinous_hospital_costs_reported_with_scenario_context(self, params):
        ruinous = dataclasses.replace(params, u=1e30)
        with pytest.raises(InfeasiblePlanError) as err:
            run_scenario(short_scenario(name="ruinous"), ruinous)
        assert "ruinous" in str(err.value)
        assert err.value.day is not None


class TestScenarioValidation:
    def test_horizon_must_exceed_end_of_interest(self, params):
        with pytest.raises(ValueError, match="horizon"):
            run_scenario(
                no_intervention_scenario(end_of_interest=date(2030, 12, 31),
                                         horizon=date(2030, 12, 31)),
                params,
            )

    def test_invalid_schedule_rejected(self, params):
        schedule = PolicySchedule(start_date=date(2020, 3, 12), intensity_p=1.5, duration_days=7)
        with pytest.raises(ValueError, match="intensity"):
            run_scenario(short_scenario(schedule=schedule), params)

    def test_finite_schedule_required(self, params):
        schedule = PolicySchedule(start_date=date(2020, 3, 12), intensity_p=float("nan"), duration_days=7)
        with pytest.raises(ValueError, match="intensity_p"):
            run_scenario(short_scenario(schedule=schedule), params)

    def test_unknown_sweep_axis_rejected(self, params):
        with pytest.raises(ValueError, match="axis"):
            sweep(params, "weather", [1])


class TestDomainAndTolerance:
    def test_population_collapse_is_a_domain_error(self, params):
        # births off and a strongly negative logistic term: N turns
        # negative on the first simulated step
        collapsing = dataclasses.replace(params, a1=1.0, a2=-1e-9)
        with pytest.raises(ValueError, match="below zero on 2020-01-23"):
            run_scenario(short_scenario(), collapsing)

    def test_euler_tolerance_enforced(self, params):
        strict = dataclasses.replace(params, euler_tol=1e-18)
        with pytest.raises(RuntimeError, match=r"'strict'.*Euler residual.*euler_tol 1e-18"):
            run_scenario(short_scenario(name="strict"), strict)


BAD_NUMBERS = st.sampled_from([float("nan"), float("inf"), float("-inf"), "0.3"])
PARAM_FIELDS = [f.name for f in dataclasses.fields(ModelParams)]
SCENARIO_FIELDS = ["N0", "I0", "R0", "D0", "b0", "A0", "K0"]


class TestMalformedNumbers:
    """A non-finite or non-numeric value anywhere in the model's inputs is
    rejected with an error naming it, before any day is simulated."""

    @given(field=st.sampled_from(PARAM_FIELDS), bad=BAD_NUMBERS)
    @settings(max_examples=60, deadline=None)
    def test_model_params_field(self, params, field, bad):
        broken = dataclasses.replace(params, **{field: bad})
        with pytest.raises(ValueError, match=rf"ModelParams\.{field}\b"):
            run_scenario(short_scenario(), broken)
        doc = {**params.to_dict(), field: bad}
        with pytest.raises(ValueError, match=rf"ModelParams\.{field}\b"):
            ModelParams.from_dict(doc)

    @given(field=st.sampled_from(SCENARIO_FIELDS), bad=BAD_NUMBERS)
    @settings(max_examples=40, deadline=None)
    def test_scenario_field(self, params, field, bad):
        with pytest.raises(ValueError, match=rf"Scenario\.{field}\b"):
            run_scenario(short_scenario(**{field: bad}), params)
        raw = {**default_config()["scenarios"]["no-intervention"], field.lower(): bad}
        with pytest.raises(DataFormatError, match=rf"\.{field.lower()}\b"):
            Scenario.from_dict("broken", raw, "scenarios.broken")
