import dataclasses
import pickle
import random
import re
from datetime import date, timedelta
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epigrowth import data_io, scenarios
from epigrowth.epidemic import effective_rates, mortality, policy_to_infection_reduction
from epigrowth.params import DataFormatError, ModelParams, default_config, default_params
from epigrowth.planner import InfeasiblePlanError, PlannerInputs
from epigrowth.scenarios import (
    PolicySchedule,
    Scenario,
    NO_INTERVENTION,
    NO_PANDEMIC,
    backtest,
    process_map,
    run_scenario,
    summarize,
    SweepGrid,
    sweep_members,
    _epidemic_pass,
    _run_sweep_member,
)


def short_scenario(schedule=None, name="short", **changes):
    """No-intervention initial conditions with a reduced horizon, for tests
    that exercise mechanics rather than published numbers."""
    return dataclasses.replace(
        data_io.load_config().scenario(NO_INTERVENTION), schedule=schedule, name=name,
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
    def test_zero_intensity_matches_no_intervention_exactly(self, params, config, baselines):
        schedule = PolicySchedule(start_date=date(2020, 3, 12), intensity_p=0.0, duration_days=182)
        run = run_scenario(dataclasses.replace(config.scenario(NO_INTERVENTION), schedule=schedule, name="noop"),
                           params)
        reference = baselines[1]
        for name, col in run.columns().items():
            assert np.array_equal(col, reference.columns()[name]), name

    def test_zero_duration_matches_no_intervention_exactly(self, params, config, baselines):
        schedule = PolicySchedule(start_date=date(2020, 3, 12), intensity_p=0.10, duration_days=0)
        run = run_scenario(dataclasses.replace(config.scenario(NO_INTERVENTION), schedule=schedule, name="noop"),
                           params)
        reference = baselines[1]
        for name, col in run.columns().items():
            assert np.array_equal(col, reference.columns()[name]), name


class TestTrajectoryPickle:
    def test_round_trip(self, baselines):
        trajectory = baselines[1]
        data = pickle.dumps(trajectory)
        assert b"datetime" not in data  # the days travel as one range
        back = pickle.loads(data)
        assert back.dates == trajectory.dates
        assert type(back.dates) is list and all(type(day) is date for day in back.dates)
        for name, col in trajectory.columns().items():
            assert np.array_equal(back.columns()[name], col), name
        assert (back.scenario_name, back.welfare) == (trajectory.scenario_name, trajectory.welfare)


class TestDecoupling:
    def test_epidemic_path_ignores_economic_parameters(self, params):
        scenario = short_scenario()
        base = _epidemic_pass(scenario, params)
        richer = dataclasses.replace(params, beta_daily=0.9999, g_daily=1e-4)
        other_k = dataclasses.replace(scenario, K0=scenario.K0 * 2.0, A0=scenario.A0 * 1.5)
        alt = _epidemic_pass(other_k, richer)
        for a, b in zip(base[1:6], alt[1:6]):  # N, S, I, R, D
            assert np.array_equal(a, b)


class TestHorizon:
    """``run_scenario``'s claim that the solver horizon, decades past the
    reported window, cannot distort it: moved from 2060 out to 2070 and
    2080, window C moves by 5.5e-9 to 8.6e-7 relative, K by at most 2.0e-6."""

    @pytest.mark.parametrize("year", [2070, 2080])
    @pytest.mark.parametrize("which", [0, 1], ids=["no-pandemic", "no-intervention"])
    def test_window_barely_moves(self, params, config, baselines, which, year):
        reference = baselines[which]
        scenario = config.scenario((NO_PANDEMIC, NO_INTERVENTION)[which])
        moved = run_scenario(dataclasses.replace(scenario, horizon=date(year, 12, 31)), params)
        assert moved.days == reference.days
        for name in ("C", "K", "Y"):
            gap = np.max(np.abs(getattr(moved, name) / getattr(reference, name) - 1.0))
            assert gap <= 1e-5, name
        for name in ("N", "S", "I", "R", "D"):
            assert getattr(moved, name).tobytes() == getattr(reference, name).tobytes(), name

    def test_columns_own_only_the_reported_days(self, params, config, baselines):
        # a kept trajectory must not pin the horizon's paths through views
        schedule = PolicySchedule(start_date=date(2020, 3, 12), intensity_p=0.1, duration_days=84)
        no_intervention = config.scenario(NO_INTERVENTION)
        intervention = dataclasses.replace(no_intervention, schedule=schedule, name="lockdown")
        runs = [(config.scenario(NO_PANDEMIC), baselines[0]), (no_intervention, baselines[1]),
                (intervention, run_scenario(intervention, params))]
        for scenario, trajectory in runs:
            n = (scenario.end_of_interest - scenario.start_date).days + 1
            for name, column in trajectory.columns().items():
                assert column.base is None and column.shape == (n,), (scenario.name, name)


def oracle_epidemic_pass(scenario: Scenario, params: ModelParams):
    """The epidemic pass as it once ran: one ``_transition`` call per day
    with the day's rates looked up in a dict, and the states transposed
    by ``zip(*states)`` at the end.  ``_epidemic_pass`` must match it bit
    for bit."""

    def _transition(N, S, I, R, D, b, r, m, a1, a2):
        births = (a1 - 1.0) * N + a2 * N * N
        infections = min(b * S * I, S)
        recoveries = r * I
        deaths = m * I
        return infections, (
            N + births - deaths,
            S + births - infections,
            I + infections - recoveries - deaths,
            R + recoveries,
            D + deaths,
        )

    T = scenario.n_days()
    base_rates = active_rates = effective_rates(params, 0.0)
    in_window = np.zeros(T, dtype=bool)
    intensity = 0.0
    schedule = scenario.schedule
    if schedule is not None and schedule.intensity_p > 0:
        intensity = schedule.intensity_p
        reduction = policy_to_infection_reduction(intensity * 100.0, params)
        active_rates = effective_rates(params, reduction)
        first = (schedule.start_date - scenario.start_date).days
        days = np.arange(T)
        in_window = (days >= first) & (days < first + schedule.duration_days)

    rates = {False: base_rates, True: active_rates}
    r, a1, a2 = params.r, params.a1, params.a2
    # the deceased D0 are not in the living population N0
    state = (scenario.N0, scenario.N0 - scenario.I0 - scenario.R0, scenario.I0, scenario.R0, scenario.D0)
    states, F = [], []
    for on in in_window.tolist():
        b_t, m_t = rates[on]
        states.append(state)
        infections, state = _transition(*state, b_t, r, m_t, a1, a2)
        F.append(infections)
    N, S, I, R, D = (np.array(column) for column in zip(*states))
    first_day = scenario.start_date.toordinal()
    days = range(first_day, first_day + T)

    outside = np.flatnonzero(~((S >= 0.0) & (N >= 0.0)))
    if outside.size:
        raise ValueError(
            f"population shrank below zero on {date.fromordinal(days[outside[0]]).isoformat()}; "
            "state outside the model's domain"
        )
    p = np.where(in_window, intensity, 0.0)
    return days, N, S, I, R, D, p, np.array(F)


def oracle_cases() -> list:
    """(scenario, params changes) for the epidemic-pass oracle: both
    baselines, 12 seeded interventions, the window and horizon edge cases,
    and last the clamp case, whose infection rate makes the clamp bind."""
    rng = random.Random(0)
    first = date(2020, 3, 1)
    config = data_io.load_config()
    no_intervention = config.scenario(NO_INTERVENTION)
    seeded = [dataclasses.replace(
        no_intervention, name=f"seeded-{i}",
        schedule=PolicySchedule(first + timedelta(days=rng.randrange(184)),
                                rng.randint(20, 300) / 1000, rng.randint(4, 104) * 7))
        for i in range(12)]
    start = no_intervention.start_date

    def window(day, weeks, p=0.1):
        return PolicySchedule(day, p, weeks * 7)

    cases = [
        config.scenario(NO_PANDEMIC), no_intervention, *seeded,
        short_scenario(window(start, 26), name="from-day-0"),
        short_scenario(window(date(2024, 12, 1), 104), name="past-the-horizon"),
        short_scenario(window(date(2024, 12, 31), 1), name="on-the-last-day"),
        short_scenario(window(date(2020, 3, 12), 0), name="zero-duration"),
        short_scenario(window(date(2020, 3, 12), 26, 0.0), name="zero-intensity"),
        # the shortest run a Scenario allows: start, end of interest, horizon
        *(dataclasses.replace(no_intervention, schedule=window(start + timedelta(days=lag), 1), name=name,
                              end_of_interest=start + timedelta(days=1), horizon=start + timedelta(days=2))
          for name, lag in (("three-days", 0), ("three-days-window-on-day-2", 2))),
    ]
    return [(scenario, {}) for scenario in cases] + [
        (short_scenario(window(date(2020, 3, 12), 26), name="clamp"), {"b0": 1e-8})]


class TestEpidemicPassOracle:
    @pytest.mark.parametrize("scenario,changes", oracle_cases(),
                             ids=[scenario.name for scenario, _ in oracle_cases()])
    def test_matches_oracle_bitwise(self, scenario, changes, params):
        params = dataclasses.replace(params, **changes)
        new = _epidemic_pass(scenario, params)
        old = oracle_epidemic_pass(scenario, params)
        assert new[0] == old[0]
        for name, a, b in zip(("N", "S", "I", "R", "D", "p", "F"), new[1:], old[1:]):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    def test_clamp_binds_in_the_clamp_case(self, params):
        clamp, changes = oracle_cases()[-1]
        _, N, S, I, R, D, p, F = _epidemic_pass(clamp, dataclasses.replace(params, **changes))
        assert np.any(F == S)


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self, params):
        scenario = short_scenario()
        one = run_scenario(scenario, params)
        two = run_scenario(scenario, params)
        for name, col in one.columns().items():
            assert np.array_equal(col, two.columns()[name]), name
        assert one.welfare == two.welfare

    def test_parallel_sweep_matches_serial(self, run_sweep):
        base = short_scenario()
        serial = run_sweep("duration", [4, 8], base=base, reference=base)
        parallel = run_sweep("duration", [4, 8], base=base, reference=base, jobs=2)
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

    def test_disjoint_ranges_rejected(self, params, config, baselines):
        early = run_scenario(
            dataclasses.replace(config.scenario(NO_PANDEMIC), end_of_interest=date(2019, 6, 1),
                                horizon=date(2019, 12, 31)),
            params,
        )
        late = baselines[1]  # starts 2020-01-22
        with pytest.raises(ValueError, match="overlap"):
            summarize(late, early)

    def test_uncovered_ratio_date_dropped(self, baselines):
        # both runs cover 2020-01-22 to 2030-12-31
        covered, uncovered = date(2024, 6, 30), [date(2019, 6, 30), date(2031, 6, 1)]
        metrics = summarize(baselines[1], baselines[0], ratio_dates=[uncovered[0], covered, uncovered[1]])
        assert list(metrics.output_ratio_at) == ["2024-06-30"]
        # with no covered date the ratio is taken on the last common day
        assert summarize(baselines[1], baselines[0], ratio_dates=uncovered) == summarize(baselines[1], baselines[0])


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

    def test_start_after_extinction_changes_only_consumption(self, baselines, run_sweep):
        runs = run_sweep("start", [date(2024, 1, 1)])
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

    def test_duration_strictly_reduces_deaths_without_births(self, params, run_sweep):
        # With births off (a1 = 1, a2 = 0, the no-growth case), a delayed
        # wave gains no new susceptibles, so every longer window saves lives,
        # the 4 -> 28 week step included.  With births on, 28 weeks lands
        # 0.16% above 4 weeks.
        no_births = dataclasses.replace(params, a1=1.0, a2=0.0)
        runs = run_sweep("duration", [4, 28, 52, 76], params=no_births)
        deaths = [r.metrics.total_deaths for r in runs]
        assert all(a > b for a, b in zip(deaths, deaths[1:])), deaths

    def test_unbuildable_member_refused_before_any_solve(self, run_sweep, monkeypatch):
        # a member whose schedule breaks a rule cannot be built, so the
        # sweep stops before it solves anything; a member that can be
        # built and fails keeps its error (the test below)
        def no_solve(*args, **kwargs):
            raise AssertionError("a scenario was solved before every member was built")

        monkeypatch.setattr(scenarios, "run_scenario", no_solve)
        base = short_scenario()
        with pytest.raises(ValueError, match=r"^PolicySchedule\.intensity_p: "):
            run_sweep("intensity", [0.05, 1.2], base=base, reference=base)

    def test_member_starting_outside_run_keeps_its_error(self, run_sweep):
        base = short_scenario()  # runs to 2024-12-31
        runs = run_sweep("start", [date(2020, 3, 12), date(2030, 1, 1)], base=base, reference=base)
        by_name = {r.scenario.name: r for r in runs}
        assert by_name["start-2020-03-12"].error is None
        late = by_name["start-2030-01-01"]
        assert late.trajectory is None and late.metrics is None
        assert late.error.startswith("ValueError: Scenario.schedule.start_date")

    def test_pool_sized_to_the_batch(self, params, monkeypatch):
        started = []

        class InProcessPool:
            """Records the pool size asked for and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(scenarios, "ProcessPoolExecutor", InProcessPool)
        with process_map(64, 2) as pmap:
            runs = pmap(_run_sweep_member, [short_scenario(name="a"), short_scenario(name="b")], repeat(params))
        assert started == [2]
        assert [(run.scenario.name, run.error) for run in runs] == [("a", None), ("b", None)]
        with process_map(64, 1) as pmap:
            pmap(_run_sweep_member, [short_scenario()], repeat(params))
        with process_map(64, 0) as pmap:
            pmap(_run_sweep_member, [], repeat(params))
        assert started == [2]  # no pool for a batch of one run or none

    def test_failed_reference_runs_no_member(self, run_sweep, monkeypatch, tmp_path):
        solved = []

        def record(scenario, params):
            solved.append(scenario.name)
            return run_scenario(scenario, params)

        monkeypatch.setattr(scenarios, "run_scenario", record)
        reference = short_scenario(name="crowded", N0=1e15)  # outside the model's domain on day 1
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match=r"^baseline 'crowded' failed: ValueError: population shrank"):
            run_sweep("duration", [4, 8], base=short_scenario(), reference=reference, out_dir=out)
        assert solved == ["crowded", "short"]
        assert not out.exists()

    def test_sweep_without_reference_measures_against_no_pandemic(self, config, baselines, run_sweep):
        run, = run_sweep("duration", [4], base=short_scenario(), reference=config.scenario(NO_PANDEMIC))
        expected = summarize(run.trajectory, baselines[0])
        assert run.metrics == expected
        assert run.metrics.reference_name == "no-pandemic"

    def test_grid_fixed_settings_reach_each_member(self):
        base = short_scenario()
        grid = SweepGrid(values=[4, 8], fixed={"start_date": date(2020, 4, 1), "intensity": 0.2})
        members = sweep_members("duration", grid, base)
        assert [member.schedule for member in members] == [
            PolicySchedule(date(2020, 4, 1), 0.2, 28), PolicySchedule(date(2020, 4, 1), 0.2, 56)]
        assert all(member == dataclasses.replace(base, name=member.name, schedule=member.schedule)
                   for member in members)

    def test_results_ordered_by_scenario_key(self, run_sweep):
        base = short_scenario()
        runs = run_sweep("duration", [12, 4, 8], base=base, reference=base)
        names = [r.scenario.name for r in runs]
        assert names == sorted(names)


class TestBacktest:
    def test_fit_within_tolerance_each_year(self, backtest_result):
        _, report = backtest_result
        assert report["max_abs_gdp_error"] <= 0.10
        assert len(report["rows"]) == 21
        assert not report["systematic_drift"]

    def test_zero_growth_control_flags_drift(self, params, datasets, backtest_window):
        slow = dataclasses.replace(params, g_daily=0.0)
        _, report = backtest(slow, datasets["population"], datasets["gdp"], datasets["gcf"], **backtest_window)
        assert report["systematic_drift"]
        assert report["mean_gdp_error"] < -0.05

    def test_capital_imputed_at_the_annual_equivalent_of_delta_daily(self, params, datasets, backtest_window,
                                                                     monkeypatch):
        # the helper calibrate imputes with, so both read gcf.csv alike
        from epigrowth.calibration import impute_capital, steady_state_k_init
        from epigrowth.params import annual_depreciation

        class Solved(Exception):
            pass

        def record(scenario, params):
            raise Solved(scenario)

        monkeypatch.setattr(scenarios, "run_scenario", record)
        gcf = datasets["gcf"]
        for delta_daily in (params.delta_daily, 2e-4):
            with pytest.raises(Solved) as solved:
                backtest(dataclasses.replace(params, delta_daily=delta_daily),
                         datasets["population"], datasets["gdp"], gcf, **backtest_window)
            delta_annual = annual_depreciation(delta_daily)
            capital = impute_capital(gcf, delta_annual, steady_state_k_init(gcf, delta_annual))
            assert solved.value.args[0].K0 == capital.value_at(1990)

    def test_empty_observed_series_rejected(self, params, datasets, backtest_window):
        import numpy as np
        from epigrowth.calibration import AnnualSeries

        empty = AnnualSeries(np.array([], dtype=int), np.array([]))
        with pytest.raises(ValueError, match="empty"):
            backtest(params, datasets["population"], empty, datasets["gcf"], **backtest_window)

    def test_missing_gdp_years_rejected_before_any_solve(self, params, datasets, backtest_window, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a scenario was solved before the observed years were checked")

        monkeypatch.setattr(scenarios, "run_scenario", no_solve)
        gdp = datasets["gdp"]
        to_2005 = gdp.window(gdp.years[0], 2005)
        with pytest.raises(ValueError, match=r"^observed GDP is missing years \[2006, 2007, 2008, 2009, 2010\]$"):
            backtest(params, datasets["population"], to_2005, datasets["gcf"], **backtest_window)


class TestInfeasibility:
    def test_ruinous_hospital_costs_reported_with_scenario_context(self, params):
        ruinous = dataclasses.replace(params, u=1e30)
        with pytest.raises(InfeasiblePlanError) as err:
            run_scenario(short_scenario(name="ruinous"), ruinous)
        assert "ruinous" in str(err.value)
        assert err.value.day is not None


class TestScenarioValidation:
    def test_horizon_must_exceed_end_of_interest(self, params, config):
        with pytest.raises(ValueError, match="horizon"):
            run_scenario(
                dataclasses.replace(config.scenario(NO_INTERVENTION), end_of_interest=date(2030, 12, 31),
                                    horizon=date(2030, 12, 31)),
                params,
            )

    def test_end_of_interest_must_follow_the_start(self, config):
        start = date(2020, 3, 1)
        with pytest.raises(ValueError, match="end of interest must lie beyond the start date"):
            dataclasses.replace(config.scenario(NO_INTERVENTION), start_date=start, end_of_interest=start,
                                horizon=start + timedelta(days=1))

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError, match="intensity"):
            PolicySchedule(start_date=date(2020, 3, 12), intensity_p=1.5, duration_days=7)

    def test_finite_schedule_required(self):
        with pytest.raises(ValueError, match="intensity_p"):
            PolicySchedule(start_date=date(2020, 3, 12), intensity_p=float("nan"), duration_days=7)

    def test_unknown_sweep_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            sweep_members("weather", SweepGrid([1], {}), short_scenario())

    def test_policy_start_outside_run_rejected(self, params, config):
        # a rule of the run, checked before its first day
        base = config.scenario(NO_INTERVENTION)
        for start in (base.start_date - timedelta(days=1), base.horizon + timedelta(days=1)):
            schedule = PolicySchedule(start_date=start, intensity_p=0.10, duration_days=182)
            with pytest.raises(ValueError, match=r"^Scenario\.schedule\.start_date"):
                run_scenario(dataclasses.replace(base, schedule=schedule), params)

    def test_policy_start_on_run_bounds_accepted(self, params, config):
        base = config.scenario(NO_INTERVENTION)
        for start in (base.start_date, base.horizon):
            schedule = PolicySchedule(start_date=start, intensity_p=0.10, duration_days=182)
            _epidemic_pass(dataclasses.replace(base, schedule=schedule), params)

    def test_duration_bounded_by_the_longest_timedelta(self, config):
        most_weeks = timedelta.max.days // 7
        assert scenarios.parse_sweep_values("duration", [most_weeks], "weeks") == [most_weeks]
        with pytest.raises(DataFormatError, match=rf"^weeks\[1\]: expected a whole number of weeks from 0 to {most_weeks}"):
            scenarios.parse_sweep_values("duration", [4, most_weeks + 1], "weeks")
        base = config.scenario(NO_INTERVENTION)
        schedule = PolicySchedule(start_date=base.start_date, intensity_p=0.1, duration_days=timedelta.max.days)
        dataclasses.replace(base, schedule=schedule)
        with pytest.raises(DataFormatError, match=r"^PolicySchedule\.duration_days: "):
            dataclasses.replace(schedule, duration_days=timedelta.max.days + 1)


def checked_values() -> list:
    """(a valid model value, field changes that break one of its rules,
    the rule's message) for each type that checks itself when built."""
    ones = np.ones(3)
    inputs = PlannerInputs(ones, ones, ones, 0 * ones, 0 * ones, K0=1.0, beta_daily=0.99, alpha=0.3,
                           delta_daily=0.1)
    shipped = data_io.load_config().scenario(NO_PANDEMIC)
    params = default_params()
    m0 = mortality(params.b0, params)
    return [
        (params, {"alpha": 1.0}, "ModelParams.alpha must lie in (0, 1), got 1.0"),
        (PolicySchedule(date(2020, 3, 12), 0.1, 7), {"intensity_p": 1.2},
         "PolicySchedule.intensity_p: expected a fraction in [0, 1), got 1.2; write 5% as 0.05"),
        (shipped, {"K0": -1.0}, "Scenario.K0 must be > 0, got -1.0"),
        (shipped, {"I0": 8e9},
         "Scenario.I0 + Scenario.R0 must be <= Scenario.N0, got 8000000000.0 + 0.0 > 7634000000.0"),
        (shipped, {"D0": -5.0}, "Scenario.D0 must be >= 0, got -5.0"),
        (params, {"r": 0.995}, f"ModelParams.r + mortality(ModelParams.b0) must be <= 1, got 0.995 + {m0!r}"),
        (params, {"log_q1": 1000.0},
         "ModelParams.log_q1 must be <= 709.782712893384, the log of the largest double, got 1000.0"),
        (inputs, {"K0": 0.0}, "K0 must be finite and > 0, got 0.0"),
    ]


# each case's id: its type, followed by the broken field for a type's later cases
CHECKED_IDS = []
for valid, changes, _ in checked_values():
    kind = type(valid).__name__
    CHECKED_IDS.append(f"{kind}-{next(iter(changes))}" if kind in CHECKED_IDS else kind)


class TestValuesCheckThemselves:
    @pytest.mark.parametrize("valid,changes,message", checked_values(), ids=CHECKED_IDS)
    def test_constructor_and_replace_raise(self, valid, changes, message):
        values = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            type(valid)(**{**values, **changes})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(valid, **changes)


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
SCENARIO_FIELDS = ["N0", "I0", "R0", "D0", "A0", "K0"]


class TestMalformedNumbers:
    """A non-finite or non-numeric value anywhere in the model's inputs is
    rejected with an error naming it, before any day is simulated."""

    @given(field=st.sampled_from(PARAM_FIELDS), bad=BAD_NUMBERS)
    @settings(max_examples=60, deadline=None)
    def test_model_params_field(self, params, field, bad):
        with pytest.raises(ValueError, match=rf"ModelParams\.{field}\b"):
            dataclasses.replace(params, **{field: bad})
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


class TestScenarioDates:
    @pytest.mark.parametrize("key", ["start_date", "end_of_interest", "horizon"])
    @pytest.mark.parametrize("spelling", ["%Y%m%d", "%G-W%V-%u"], ids=["basic", "week"])
    def test_other_iso_date_spellings(self, key, spelling):
        # Python 3.11 widened date.fromisoformat to these; they fail alike
        # on every version, naming the key
        raw = dict(default_config()["scenarios"]["no-intervention"])
        text = date.fromisoformat(raw[key]).strftime(spelling)
        with pytest.raises(DataFormatError) as err:
            Scenario.from_dict("broken", {**raw, key: text}, "scenarios.broken")
        assert str(err.value) == f"scenarios.broken.{key}: unparseable date '{text}'"
