"""Scenario runs: baselines, policy sweeps, the historical backtest, and
summary metrics.

A scenario executes in two passes.  The epidemic is simulated first (it
does not depend on consumption choices), producing daily paths for the
compartments, the working population, the policy shortfall and the direct
hospital costs.  The planner then solves the consumption problem against
those exogenous paths.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from datetime import date, timedelta
from functools import partial
from itertools import repeat

import numpy as np

from . import calibration, planner
from .epidemic import effective_rates, policy_to_infection_reduction, run_days
from .params import (
    DataFormatError,
    ModelParams,
    parse_date,
    parse_fraction,
    parse_list,
    parse_number,
    parse_run_name,
    parse_section,
    parse_whole,
    shown,
)

NO_PANDEMIC = "no-pandemic"
NO_INTERVENTION = "no-intervention"

# numeric Scenario fields; a scenario table spells them in lower case
_SCENARIO_NUMBERS = ("N0", "I0", "R0", "D0", "A0", "K0")
# a Trajectory's daily columns, in the order its CSV holds them
TRAJECTORY_COLUMNS = ("N", "S", "I", "R", "D", "A", "K", "Y", "C", "H", "p")


# schedule setting, as a config spells it -> parser of one value; each
# error names the value's dotted key
SCHEDULE_SETTINGS = {
    "start_date": parse_date,
    "intensity": parse_fraction,
    "duration_weeks": lambda raw, where: parse_whole(raw, where, "weeks"),
}


@dataclass(frozen=True)
class PolicySchedule:
    """A temporary intervention: a GDP shortfall of ``intensity_p`` on the
    half-open window [start_date, start_date + duration_days)."""

    start_date: date
    intensity_p: float
    duration_days: int

    def __post_init__(self):
        parse_fraction(self.intensity_p, "PolicySchedule.intensity_p")
        parse_whole(self.duration_days, "PolicySchedule.duration_days", "days")

    @classmethod
    def from_settings(cls, settings: dict) -> "PolicySchedule":
        """The schedule of a dict keyed by ``SCHEDULE_SETTINGS``."""
        return cls(settings["start_date"], settings["intensity"], settings["duration_weeks"] * 7)

    @classmethod
    def from_dict(cls, raw: dict, where: str) -> "PolicySchedule":
        """Parse a config ``schedule`` section: start_date, intensity, duration_weeks."""
        return cls.from_settings(parse_section(raw, where, SCHEDULE_SETTINGS.get, SCHEDULE_SETTINGS))


@dataclass(frozen=True)
class Scenario:
    """Initial conditions plus an optional intervention schedule; the
    infection rate is the run's ``ModelParams.b0``."""

    name: str
    start_date: date
    N0: float
    I0: float
    R0: float
    D0: float
    A0: float
    K0: float
    schedule: PolicySchedule | None
    end_of_interest: date
    horizon: date

    def __post_init__(self):
        for name in _SCENARIO_NUMBERS:
            parse_number(getattr(self, name), f"Scenario.{name}")
        if self.horizon <= self.end_of_interest:
            raise ValueError("solver horizon must lie beyond the end of interest")
        if self.end_of_interest <= self.start_date:
            raise ValueError("end of interest must lie beyond the start date")
        for name in _SCENARIO_NUMBERS:
            value = getattr(self, name)
            if name in ("N0", "A0", "K0") and value <= 0:
                raise ValueError(f"Scenario.{name} must be > 0, got {value!r}")
            if value < 0:
                raise ValueError(f"Scenario.{name} must be >= 0, got {value!r}")
        # S0 as _epidemic_pass computes it; the deceased D0 are not in N0
        if self.N0 - self.I0 - self.R0 < 0:
            raise ValueError(f"Scenario.I0 + Scenario.R0 must be <= Scenario.N0, got "
                             f"{self.I0!r} + {self.R0!r} > {self.N0!r}")

    @classmethod
    def from_dict(cls, name: str, raw: dict, where: str) -> "Scenario":
        """Parse a scenario table entry (keys in ``_SCENARIO_SETTINGS``)
        named ``name``; errors name the offending key under ``where``, and
        a rule that the values break, ``check_schedule``'s too, is prefixed
        with ``where``."""
        required = set(_SCENARIO_SETTINGS) - {"schedule"}
        settings = {"schedule": None, **parse_section(raw, where, _SCENARIO_SETTINGS.get, required)}
        settings["name"] = parse_run_name(name, f"{where}.name")
        try:
            scenario = cls(**{f.name: settings[f.name.lower()] for f in fields(cls)})
            scenario.check_schedule()
        except ValueError as exc:
            raise DataFormatError(f"{where}: {exc}") from None
        return scenario

    def check_schedule(self) -> None:
        """ValueError unless the schedule, if any, starts within the run.
        Not a ``__post_init__`` rule: a sweep member built by ``replace``
        that breaks it fails alone when it runs."""
        schedule = self.schedule
        if schedule is not None and not self.start_date <= schedule.start_date <= self.horizon:
            raise ValueError(
                f"Scenario.schedule.start_date must lie in [{self.start_date.isoformat()}, "
                f"{self.horizon.isoformat()}], got {schedule.start_date.isoformat()}")

    def n_days(self) -> int:
        return (self.horizon - self.start_date).days + 1


# scenario table key -> parser of its value
_SCENARIO_SETTINGS = {
    **dict.fromkeys(("start_date", "end_of_interest", "horizon"), parse_date),
    **dict.fromkeys((name.lower() for name in _SCENARIO_NUMBERS), parse_number),
    "schedule": lambda raw, where: None if raw is None else PolicySchedule.from_dict(raw, where),
}


@dataclass(frozen=True)
class Trajectory:
    """Aligned daily series for one scenario run over consecutive days:
    ``days`` holds their day numbers (``date.toordinal``), first to last."""

    scenario_name: str
    days: range
    N: np.ndarray
    S: np.ndarray
    I: np.ndarray
    R: np.ndarray
    D: np.ndarray
    A: np.ndarray
    K: np.ndarray
    Y: np.ndarray
    C: np.ndarray
    H: np.ndarray
    p: np.ndarray
    welfare: float

    def __post_init__(self):
        # the writers zip a column with the days, which would drop the extra
        for name, column in self.columns().items():
            if len(column) != len(self.days):
                raise ValueError(f"Trajectory {self.scenario_name!r}: column {name!r} holds {len(column)} "
                                 f"values for {len(self.days)} days")

    @property
    def dates(self) -> list:
        return list(map(date.fromordinal, self.days))

    def day(self, i: int) -> date:
        return date.fromordinal(self.days[i])

    def __len__(self) -> int:
        return len(self.days)

    def index_of(self, day: date) -> int:
        offset = day.toordinal() - self.days.start
        if not (0 <= offset < len(self.days)):
            raise KeyError(f"{day.isoformat()} outside trajectory range")
        return offset

    def columns(self) -> dict:
        return {name: getattr(self, name) for name in TRAJECTORY_COLUMNS}


@dataclass(frozen=True)
class SummaryMetrics:
    scenario_name: str
    reference_name: str
    peak_active_infections: float
    peak_date: date
    total_deaths: float
    max_output_drop_pct: float
    output_ratio_at: dict
    welfare: float

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "reference": self.reference_name,
            "peak_active_infections": self.peak_active_infections,
            "peak_date": self.peak_date.isoformat(),
            "total_deaths": self.total_deaths,
            "max_output_drop_pct": self.max_output_drop_pct,
            "output_ratio_at": {k: v for k, v in self.output_ratio_at.items()},
            "welfare": self.welfare,
        }


def _epidemic_pass(scenario: Scenario, params: ModelParams):
    """Forward-simulate the epidemic; returns the day numbers, then per-day
    compartment, policy shortfall and new-infection arrays.

    The scenario and the parameters check themselves when built, the rate
    rule r + m <= 1 included, and ``Scenario.check_schedule`` runs before
    the first day.  The days run as ``run_days`` segments at constant
    rates, before, in and after the intervention window, and the result
    is checked once for the model's domain, S and N >= 0.
    """
    scenario.check_schedule()
    T = scenario.n_days()
    schedule = scenario.schedule
    base = active = effective_rates(params, 0.0)
    lo = hi = 0  # the window's days [lo, hi), cut at T
    intensity = 0.0
    if schedule is not None and schedule.intensity_p > 0:
        intensity = schedule.intensity_p
        reduction = policy_to_infection_reduction(intensity * 100.0, params)
        active = effective_rates(params, reduction)
        lo = (schedule.start_date - scenario.start_date).days
        hi = min(lo + schedule.duration_days, T)

    N0, I0, R0 = scenario.N0, scenario.I0, scenario.R0
    N, S, I, R, D, F = run_days(
        (N0, N0 - I0 - R0, I0, R0, scenario.D0),
        [(lo, *base), (hi - lo, *active), (T - hi, *base)],
        params.r, params.a1, params.a2,
    )
    first_day = scenario.start_date.toordinal()
    days = range(first_day, first_day + T)

    outside = np.flatnonzero(~((S >= 0.0) & (N >= 0.0)))
    if outside.size and not (N[outside[0]] < 0.0 or S[outside[0]] < 0.0):  # NaN: N or S overflowed
        first = date.fromordinal(days[np.argmin(np.isfinite(N) & np.isfinite(S))])
        raise ValueError(f"scenario {scenario.name!r}: population overflows a double from {first}: "
                         f"ModelParams.a1 {params.a1:g}, ModelParams.a2 {params.a2:g}")
    if outside.size:  # only reachable far beyond the logistic carrying capacity
        raise ValueError(f"population shrank below zero on {date.fromordinal(days[outside[0]])}; "
                         "state outside the model's domain")
    p = np.zeros(T)
    p[lo:hi] = intensity
    return days, N, S, I, R, D, p, F


# Relative miss of the planner's terminal capital target above which a run
# fails.  115 solves to the last double (the three shipped sweeps with their
# baselines, the backtest, the calibrated no-intervention run and the first
# 30 scenario-loop specs of seeds 0-2) missed it by 1.75e-14 to 1.22e-11,
# always above it.  A search stopped before any pass reached the target
# returns the feasibility probe's path, which misses it by 11.6 to 11.9.
TERMINAL_MISS = 1e-9


def run_scenario(scenario: Scenario, params: ModelParams) -> Trajectory:
    """Simulate the epidemic, then solve the planner against it.

    The planner works over the full solver horizon so the terminal
    condition cannot distort the reported window, but the returned
    trajectory is cut at ``end_of_interest``: beyond it the continuum
    approximation lets vanishingly small infection levels reignite from
    regrown susceptibles, which is an artifact, not a result.  Each of its
    columns is a copy that owns exactly the reported days, so a kept
    trajectory holds none of the horizon's paths.  The stored welfare is
    the planner objective over the full horizon.

    ``scenario`` and ``params`` checked their fields when they were built.
    Raises ValueError for a schedule that starts outside the run, before
    any day is simulated, or for output that overflows a double, and
    RuntimeError when the planner's largest Euler residual exceeds
    ``params.euler_tol`` or its terminal capital misses the target by more
    than TERMINAL_MISS of it.
    """
    T = scenario.n_days()
    days, N, S, I, R, D, p, F = _epidemic_pass(scenario, params)

    labor = S + R
    with np.errstate(over="ignore", invalid="ignore"):
        A = scenario.A0 * (1.0 + params.g_daily) ** np.arange(T)
        finite = np.isfinite(A * labor ** (1.0 - params.alpha))
    if not finite.all():
        first = scenario.start_date + timedelta(days=int(np.argmin(finite)))
        raise ValueError(f"scenario {scenario.name!r}: output overflows a double from {first}: "
                         f"Scenario.A0 {scenario.A0:g}, ModelParams.g_daily {params.g_daily:g}")
    H = params.u * params.h * F

    inputs = planner.PlannerInputs(
        labor_path=labor,
        pop_path=N,
        tfp_path=A,
        hcost_path=H,
        shortfall_path=p,
        K0=scenario.K0,
        beta_daily=params.beta_daily,
        alpha=params.alpha,
        delta_daily=params.delta_daily,
    )
    try:
        solution = planner.solve(
            inputs, rel_tol=params.bisection_rel_tol, max_iter=params.max_bisection_iter
        )
    except planner.InfeasiblePlanError as exc:
        raise planner.InfeasiblePlanError(exc.day_index, f"scenario {scenario.name!r}: {exc.reason}",
                                          scenario.start_date + timedelta(days=exc.day_index)) from exc
    residual = float(np.max(solution.euler_residuals, initial=0.0))
    if not residual <= params.euler_tol:
        raise RuntimeError(
            f"scenario {scenario.name!r}: largest Euler residual {residual:.3g} "
            f"exceeds euler_tol {params.euler_tol:g}"
        )
    K_T, target = float(solution.capital_path[-1]), planner.balanced_path_terminal_capital(inputs)
    miss = (K_T - target) / target
    if not abs(miss) <= TERMINAL_MISS:
        raise RuntimeError(
            f"scenario {scenario.name!r}: terminal capital {K_T:.6g} misses its target "
            f"{target:.6g} by {miss:.3g} of it, more than {TERMINAL_MISS:g}"
        )

    K = solution.capital_path[:T]
    Y = (1.0 - p) * A * K ** params.alpha * labor ** (1.0 - params.alpha)
    n = (scenario.end_of_interest - scenario.start_date).days + 1
    columns = dict(N=N, S=S, I=I, R=R, D=D, A=A, K=K, Y=Y, C=solution.consumption_path, H=H, p=p)
    return Trajectory(
        scenario_name=scenario.name,
        days=days[:n],
        **{name: column[:n].copy() for name, column in columns.items()},
        welfare=solution.welfare,
    )


def run_baselines(params: ModelParams) -> tuple[Trajectory, Trajectory]:
    """The shipped config's two reference runs: pandemic-free growth, and
    the unchecked pandemic from the observed initial conditions."""
    from . import data_io  # data_io imports this module

    config = data_io.load_config()
    return run_scenario(config.scenario(NO_PANDEMIC), params), run_scenario(config.scenario(NO_INTERVENTION), params)


def summarize(
    trajectory: Trajectory, reference: Trajectory, ratio_dates: list | None = None
) -> SummaryMetrics:
    """Peak, mortality and output-gap metrics against a reference run.
    The output ratio is reported at the ``ratio_dates`` that both runs
    cover, in their given order, or at the runs' last common day when
    none is covered or none is given."""
    first = max(trajectory.day(0), reference.day(0))
    last = min(trajectory.day(-1), reference.day(-1))
    if first > last:
        raise ValueError(
            f"trajectories do not overlap: {trajectory.day(0)}..{trajectory.day(-1)} vs "
            f"{reference.day(0)}..{reference.day(-1)}"
        )
    i0, i1 = trajectory.index_of(first), trajectory.index_of(last)
    j0 = reference.index_of(first)
    Y = trajectory.Y[i0 : i1 + 1]
    Y_ref = reference.Y[j0 : j0 + (i1 - i0) + 1]

    peak_idx = int(np.argmax(trajectory.I))
    dates = [d for d in ratio_dates or () if first <= d <= last] or [last]
    ratios = {d.isoformat(): float(trajectory.Y[trajectory.index_of(d)] / reference.Y[reference.index_of(d)])
              for d in dates}
    return SummaryMetrics(
        scenario_name=trajectory.scenario_name,
        reference_name=reference.scenario_name,
        peak_active_infections=float(trajectory.I[peak_idx]),
        peak_date=trajectory.day(peak_idx),
        total_deaths=float(trajectory.D[-1] - trajectory.D[0]),
        max_output_drop_pct=float(np.max(1.0 - Y / Y_ref) * 100.0),
        output_ratio_at=ratios,
        welfare=trajectory.welfare,
    )


# the file name of a run's trajectory CSV, from the run's name
TRAJECTORY_CSV = "{}_trajectory.csv"


@dataclass(frozen=True)
class SweepRun:
    scenario: Scenario
    trajectory: Trajectory | None = None
    metrics: SummaryMetrics | None = None
    error: str | None = None


def _run_sweep_member(scenario: Scenario, params: ModelParams, csv_path=None) -> SweepRun:
    """Solve ``scenario`` and, when ``csv_path`` is given, write its
    trajectory CSV there; a run that raises holds its error, the
    exception's type name and then its message, if any, and writes
    nothing."""
    try:
        trajectory = run_scenario(scenario, params)
    except Exception as exc:  # kept with the run, not fatal to the batch
        message = str(exc)
        return SweepRun(scenario, error=f"{type(exc).__name__}: {message}" if message else type(exc).__name__)
    if csv_path is not None:
        from . import data_io  # data_io imports this module

        data_io.write_trajectory(trajectory, csv_path)
    return SweepRun(scenario, trajectory=trajectory)


@contextmanager
def process_map(jobs: int, tasks: int):
    """Yield a ``map`` that returns a list, computed on one pool of
    ``min(jobs, tasks)`` processes, shut down as the block exits, or by the
    builtin ``map`` when that is one or none.  ``tasks`` is the largest
    batch it is given; a mapped function must be a module-level one."""
    if min(jobs, tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, tasks)) as pool:
            yield lambda fn, *iterables: list(pool.map(fn, *iterables))
    else:
        yield lambda fn, *iterables: list(map(fn, *iterables))


# sweep axis -> (the key of a configured sweep section that holds its
# values, the schedule setting those values fill, member name for one value)
SWEEP_AXES = {
    "start": ("dates", "start_date", lambda d: f"start-{d.isoformat()}"),
    "intensity": ("values", "intensity", lambda p: f"intensity-{p:07.4f}"),
    "duration": ("weeks", "duration_weeks", lambda weeks: f"duration-{weeks:03d}wk"),
}


@dataclass(frozen=True)
class SweepGrid:
    """A parsed sweep section: the swept values, and the two other schedule
    settings keyed as in ``SCHEDULE_SETTINGS``."""

    values: list
    fixed: dict


def parse_sweep_values(axis: str, raw, where: str) -> list:
    """A non-empty list of values for ``axis``, each through its schedule
    setting's parser, that name distinct runs; errors name ``where[i]``."""
    _, setting, member_name = SWEEP_AXES[axis]
    values = parse_list(raw, where, SCHEDULE_SETTINGS[setting])
    if not values:
        raise DataFormatError(f"{where}: expected a non-empty list, got {shown(raw)}")
    names = [member_name(value) for value in values]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise DataFormatError(f"{where}[{i}]: repeats the run {name!r}")
    return values


def parse_sweep(axis: str, section: dict, where: str) -> SweepGrid:
    """Parse a configured sweep section: its values key and the two fixed
    schedule settings, all required."""
    values_key, setting, _ = SWEEP_AXES[axis]
    parsers = {key: parse for key, parse in SCHEDULE_SETTINGS.items() if key != setting}
    parsers[values_key] = partial(parse_sweep_values, axis)
    fixed = parse_section(section, where, parsers.get, parsers)
    return SweepGrid(values=fixed.pop(values_key), fixed=fixed)


def sweep_members(axis: str, grid: SweepGrid, base: Scenario) -> list:
    """One scenario per value of ``grid`` along ``axis`` (a ``SWEEP_AXES``
    key), sorted by name: ``base`` with the swept schedule, whose other two
    settings are the grid's fixed ones."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {sorted(SWEEP_AXES)}")
    _, setting, member_name = SWEEP_AXES[axis]
    members = [
        replace(base, name=member_name(value),
                schedule=PolicySchedule.from_settings({**grid.fixed, setting: value}))
        for value in grid.values
    ]
    return sorted(members, key=lambda sc: sc.name)


def sweep(params: ModelParams, reference: Scenario, base: Scenario, members: list, ratio_dates: list,
          *, jobs: int = 1, out_dir=None) -> tuple[Trajectory, list]:
    """Solve the baselines ``reference`` and ``base``, then ``members``, on
    one pool of up to ``jobs`` processes.  A failed baseline raises
    RuntimeError before any member runs; the process that solves a member
    writes its trajectory CSV into the directory ``out_dir`` (a ``Path``)
    when one is given, and a member that raises is kept with its error.
    Returns the reference trajectory and the runs of ``base`` and the
    members, measured against it by ``summarize`` at ``ratio_dates``."""
    csv_paths = repeat(None) if out_dir is None else [
        out_dir / TRAJECTORY_CSV.format(member.name) for member in members]
    with process_map(jobs, max(2, len(members))) as pmap:
        baselines = pmap(_run_sweep_member, [reference, base], repeat(params))
        for run in baselines:
            if run.error is not None:
                raise RuntimeError(f"baseline {run.scenario.name!r} failed: {run.error}")
        runs = [baselines[1], *pmap(_run_sweep_member, members, repeat(params), csv_paths)]
    reference_run = baselines[0].trajectory
    return reference_run, [
        run if run.error is not None else replace(run, metrics=summarize(run.trajectory, reference_run, ratio_dates))
        for run in runs]


# bench/tracing.py wraps these three names; ROADMAP item 1 removes them
sweep_start_dates = sweep_intensity = sweep_duration = sweep


def backtest(
    params: ModelParams,
    population: calibration.AnnualSeries,
    gdp: calibration.AnnualSeries,
    gcf: calibration.AnnualSeries,
    *,
    start_year: int,
    end_year: int,
    horizon: date,
) -> tuple[Trajectory, dict]:
    """Pandemic-free run from historical initial conditions, scored
    against observed annual output from ``start_year`` to ``end_year``;
    the planner solves to ``horizon``.

    The initial capital stock is imputed by perpetual inventory and the
    initial TFP level matches observed output in the starting year.
    """
    for name, series in (("population", population), ("gdp", gdp), ("gcf", gcf)):
        if len(series) == 0:
            raise ValueError(f"observed {name} series is empty")
    years = list(range(start_year, end_year + 1))
    missing = [y for y in years if y not in gdp.years]
    if missing:
        raise ValueError(f"observed GDP is missing years {missing}")

    _, capital, tfp_series, _ = calibration.capital_and_tfp(population, gdp, gcf, params)
    # TFP has every year that GDP, capital and population share, so this one
    for name, series in (("observed population", population), ("capital imputed from observed gcf", capital)):
        if start_year not in series.years:
            raise ValueError(f"{name} has no year {start_year}, the start year")

    scenario = Scenario(
        name=f"backtest-{start_year}",
        start_date=date(start_year, 1, 1),
        N0=population.value_at(start_year),
        I0=0.0, R0=0.0, D0=0.0,
        A0=tfp_series.value_at(start_year),
        K0=capital.value_at(start_year),
        schedule=None,
        end_of_interest=date(end_year, 12, 31),
        horizon=horizon,
    )
    trajectory = run_scenario(scenario, params)

    year_index = np.array([d.year for d in trajectory.dates])
    rows = []
    for y in years:
        sim_gdp = float(trajectory.Y[year_index == y].sum())
        obs_gdp = gdp.value_at(y)
        row = {"year": y, "simulated_gdp": sim_gdp, "observed_gdp": obs_gdp,
               "gdp_relative_error": sim_gdp / obs_gdp - 1.0}
        jan1 = trajectory.index_of(date(y, 1, 1))
        if y in population.years:
            row["population_relative_error"] = float(
                trajectory.N[jan1] / population.value_at(y) - 1.0
            )
        if y in capital.years:
            row["capital_relative_error"] = float(trajectory.K[jan1] / capital.value_at(y) - 1.0)
        if y in gcf.years:
            inv = float((trajectory.Y - trajectory.C - trajectory.H)[year_index == y].sum())
            row["investment_relative_error"] = inv / gcf.value_at(y) - 1.0
        rows.append(row)

    errs = np.array([row["gdp_relative_error"] for row in rows])
    drift = float(np.polyfit(np.array(years, dtype=float), errs, 1)[0])
    report = {
        "start_year": start_year,
        "end_year": end_year,
        "rows": rows,
        "max_abs_gdp_error": float(np.max(np.abs(errs))),
        "mean_gdp_error": float(np.mean(errs)),
        "gdp_error_drift_per_year": drift,
        "systematic_drift": bool(abs(float(np.mean(errs))) > 0.05 or abs(drift) > 0.005),
    }
    return trajectory, report
