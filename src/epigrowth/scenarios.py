"""Scenario runs: baselines, policy sweeps, the historical backtest, and
summary metrics.

A scenario executes in two passes.  The epidemic is simulated first (it
does not depend on consumption choices), producing daily paths for the
compartments, the working population, the policy shortfall and the direct
hospital costs.  The planner then solves the consumption problem against
those exogenous paths.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import date, timedelta

import numpy as np

from . import calibration, planner
from .epidemic import (
    EpiState,
    MortalityModel,
    TradeoffModel,
    _transition,
    effective_rates,
    policy_to_infection_reduction,
)
from .params import (
    DAYS_PER_YEAR,
    DataFormatError,
    ModelParams,
    check_keys,
    default_config,
    is_finite_real,
    parse_date,
)

NO_PANDEMIC = "no-pandemic"
NO_INTERVENTION = "no-intervention"

# numeric Scenario fields; a scenario table spells them in lower case
_SCENARIO_NUMBERS = ("N0", "I0", "R0", "D0", "b0", "A0", "K0")
_SCENARIO_KEYS = {"start_date", "end_of_interest", "horizon", "schedule"} | {
    name.lower() for name in _SCENARIO_NUMBERS
}


def _number(raw, where: str) -> float:
    if not is_finite_real(raw):
        raise DataFormatError(f"{where}: expected a finite number, got {raw!r}")
    return float(raw)


def _fraction(raw, where: str) -> float:
    if not (is_finite_real(raw) and 0.0 <= raw < 1.0):
        raise DataFormatError(f"{where}: expected a fraction in [0, 1), got {raw!r}; write 5% as 0.05")
    return float(raw)


def _whole(raw, where: str, unit: str) -> int:
    if not (isinstance(raw, numbers.Integral) and not isinstance(raw, bool) and raw >= 0):
        raise DataFormatError(f"{where}: expected a whole number of {unit} >= 0, got {raw!r}")
    return int(raw)


# schedule setting, as a config spells it -> parser of one value; each
# error names the value's dotted key
SCHEDULE_SETTINGS = {
    "start_date": parse_date,
    "intensity": _fraction,
    "duration_weeks": lambda raw, where: _whole(raw, where, "weeks"),
}


@dataclass(frozen=True)
class PolicySchedule:
    """A temporary intervention: a GDP shortfall of ``intensity_p`` on the
    half-open window [start_date, start_date + duration_days)."""

    start_date: date
    intensity_p: float
    duration_days: int

    def validate(self) -> None:
        _fraction(self.intensity_p, "PolicySchedule.intensity_p")
        _whole(self.duration_days, "PolicySchedule.duration_days", "days")

    @classmethod
    def from_settings(cls, settings: dict) -> "PolicySchedule":
        """The schedule of a dict keyed by ``SCHEDULE_SETTINGS``."""
        return cls(settings["start_date"], settings["intensity"], settings["duration_weeks"] * 7)

    @classmethod
    def from_dict(cls, raw: dict, where: str) -> "PolicySchedule":
        """Parse a config ``schedule`` section: start_date, intensity, duration_weeks."""
        check_keys(raw, set(SCHEDULE_SETTINGS), where, required=set(SCHEDULE_SETTINGS))
        return cls.from_settings(
            {key: parse(raw[key], f"{where}.{key}") for key, parse in SCHEDULE_SETTINGS.items()}
        )


@dataclass(frozen=True)
class Scenario:
    """Initial conditions plus an optional intervention schedule."""

    name: str
    start_date: date
    N0: float
    I0: float
    R0: float
    D0: float
    b0: float
    A0: float
    K0: float
    schedule: PolicySchedule | None
    end_of_interest: date
    horizon: date

    def validate(self) -> None:
        for name in _SCENARIO_NUMBERS:
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ValueError(f"Scenario.{name} must be a finite real number, got {value!r}")
        if self.horizon <= self.end_of_interest:
            raise ValueError("solver horizon must lie beyond the end of interest")
        if self.end_of_interest <= self.start_date:
            raise ValueError("end of interest must lie beyond the start date")
        self.initial_epi_state().validate()
        for name in ("A0", "K0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"Scenario.{name} must be > 0, got {getattr(self, name)!r}")
        if self.b0 < 0:
            raise ValueError(f"Scenario.b0 must be >= 0, got {self.b0!r}")
        if self.schedule is not None:
            self.schedule.validate()

    @classmethod
    def from_dict(cls, name: str, raw: dict, where: str) -> "Scenario":
        """Parse a scenario table entry (keys in ``_SCENARIO_KEYS``); errors
        name the offending key under ``where``."""
        check_keys(raw, _SCENARIO_KEYS, where, required=_SCENARIO_KEYS - {"schedule"})
        schedule = raw.get("schedule")
        return cls(
            name=name,
            start_date=parse_date(raw["start_date"], f"{where}.start_date"),
            **{field: _number(raw[field.lower()], f"{where}.{field.lower()}") for field in _SCENARIO_NUMBERS},
            schedule=None if schedule is None else PolicySchedule.from_dict(schedule, f"{where}.schedule"),
            end_of_interest=parse_date(raw["end_of_interest"], f"{where}.end_of_interest"),
            horizon=parse_date(raw["horizon"], f"{where}.horizon"),
        )

    def initial_epi_state(self) -> EpiState:
        # the deceased are already excluded from the living population N0
        return EpiState(
            date=self.start_date,
            N=self.N0,
            S=self.N0 - self.I0 - self.R0,
            I=self.I0,
            R=self.R0,
            D=self.D0,
        )

    def n_days(self) -> int:
        return (self.horizon - self.start_date).days + 1


@dataclass(frozen=True)
class Trajectory:
    """Aligned daily series for one scenario run."""

    scenario_name: str
    params_digest: str
    dates: list
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

    def __len__(self) -> int:
        return len(self.dates)

    def index_of(self, day: date) -> int:
        offset = (day - self.dates[0]).days
        if not (0 <= offset < len(self.dates)):
            raise KeyError(f"{day.isoformat()} outside trajectory range")
        return offset

    def columns(self) -> dict:
        return {
            "N": self.N, "S": self.S, "I": self.I, "R": self.R, "D": self.D,
            "A": self.A, "K": self.K, "Y": self.Y, "C": self.C, "H": self.H,
            "p": self.p,
        }


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


def _shipped_scenario(name: str) -> Scenario:
    return Scenario.from_dict(name, default_config()["scenarios"][name], f"default_config.scenarios.{name}")


def no_pandemic_scenario(**changes) -> Scenario:
    """The shipped pandemic-free baseline, with ``changes`` applied to its fields."""
    return replace(_shipped_scenario(NO_PANDEMIC), **changes)


def no_intervention_scenario(**changes) -> Scenario:
    """The shipped unchecked-pandemic baseline, with ``changes`` applied to its fields."""
    return replace(_shipped_scenario(NO_INTERVENTION), **changes)


def _epidemic_pass(scenario: Scenario, params: ModelParams):
    """Forward-simulate the epidemic; returns per-day compartment, policy
    shortfall, infection-rate and new-infection arrays.

    The inputs are checked once, before the first day (``run_scenario``
    validates the scenario and parameters, this function the two rate
    sets); the day loop runs the bare transition equations, and the
    result is checked once for the model's domain, S and N >= 0.
    """
    T = scenario.n_days()
    mm = MortalityModel(log_k1=params.log_k1, k2=params.k2)
    base_rates = effective_rates(scenario.b0, 0.0, mm, params.r)
    active_rates = base_rates
    in_window = np.zeros(T, dtype=bool)
    intensity = 0.0
    schedule = scenario.schedule
    if schedule is not None and schedule.intensity_p > 0:
        intensity = schedule.intensity_p
        tm = TradeoffModel(log_q1=params.log_q1, q2=params.q2)
        reduction = policy_to_infection_reduction(intensity * 100.0, tm)
        active_rates = effective_rates(scenario.b0, reduction, mm, params.r)
        first = (schedule.start_date - scenario.start_date).days
        days = np.arange(T)
        in_window = (days >= first) & (days < first + schedule.duration_days)
    base_rates.validate()
    active_rates.validate()

    rates = {False: (base_rates.b, base_rates.m), True: (active_rates.b, active_rates.m)}
    r, a1, a2 = params.r, params.a1, params.a2
    s0 = scenario.initial_epi_state()
    state = (s0.N, s0.S, s0.I, s0.R, s0.D)
    states, F = [], []
    for on in in_window.tolist():
        b_t, m_t = rates[on]
        states.append(state)
        infections, state = _transition(*state, b_t, r, m_t, a1, a2)
        F.append(infections)
    N, S, I, R, D = (np.array(column) for column in zip(*states))
    dates = [scenario.start_date + timedelta(days=k) for k in range(T)]

    outside = np.flatnonzero(~((S >= 0.0) & (N >= 0.0)))
    if outside.size:
        # only reachable far beyond the logistic carrying capacity
        raise ValueError(
            f"population shrank below zero on {dates[outside[0]].isoformat()}; "
            "state outside the model's domain"
        )
    p = np.where(in_window, intensity, 0.0)
    b = np.where(in_window, active_rates.b, base_rates.b)
    return dates, N, S, I, R, D, b, p, np.array(F)


def run_scenario(scenario: Scenario, params: ModelParams) -> Trajectory:
    """Simulate the epidemic, then solve the planner against it.

    The planner works over the full solver horizon so the terminal
    condition cannot distort the reported window, but the returned
    trajectory is cut at ``end_of_interest``: beyond it the continuum
    approximation lets vanishingly small infection levels reignite from
    regrown susceptibles, which is an artifact, not a result.  The stored
    welfare is the planner objective over the full horizon.

    Raises ValueError naming the field for invalid parameters or initial
    conditions, before any day is simulated, and RuntimeError when the
    planner's largest Euler residual exceeds ``params.euler_tol``.
    """
    params.validate()
    scenario.validate()
    T = scenario.n_days()
    dates, N, S, I, R, D, b, p, F = _epidemic_pass(scenario, params)

    A = scenario.A0 * (1.0 + params.g_daily) ** np.arange(T)
    labor = S + R
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
        start_date=scenario.start_date,
    )
    try:
        solution = planner.solve(
            inputs, rel_tol=params.bisection_rel_tol, max_iter=params.max_bisection_iter
        )
    except planner.InfeasiblePlanError as exc:
        raise planner.InfeasiblePlanError(
            exc.day_index, exc.day, f"scenario {scenario.name!r}: {exc.args[0]}"
        ) from exc
    residual = float(np.max(solution.euler_residuals, initial=0.0))
    if not residual <= params.euler_tol:
        raise RuntimeError(
            f"scenario {scenario.name!r}: largest Euler residual {residual:.3g} "
            f"exceeds euler_tol {params.euler_tol:g}"
        )

    K = solution.capital_path[:T]
    Y = (1.0 - p) * A * K ** params.alpha * labor ** (1.0 - params.alpha)
    n = (scenario.end_of_interest - scenario.start_date).days + 1
    return Trajectory(
        scenario_name=scenario.name,
        params_digest=params.digest(),
        dates=dates[:n],
        N=N[:n], S=S[:n], I=I[:n], R=R[:n], D=D[:n],
        A=A[:n], K=K[:n], Y=Y[:n],
        C=solution.consumption_path[:n],
        H=H[:n], p=p[:n],
        welfare=solution.welfare,
    )


def run_baselines(params: ModelParams) -> tuple[Trajectory, Trajectory]:
    """The two reference runs: pandemic-free growth, and the unchecked
    pandemic from the observed initial conditions."""
    return (
        run_scenario(no_pandemic_scenario(), params),
        run_scenario(no_intervention_scenario(), params),
    )


def summarize(
    trajectory: Trajectory, reference: Trajectory, ratio_dates: list | None = None
) -> SummaryMetrics:
    """Peak, mortality and output-gap metrics against a reference run."""
    first = max(trajectory.dates[0], reference.dates[0])
    last = min(trajectory.dates[-1], reference.dates[-1])
    if first > last:
        raise ValueError(
            f"trajectories do not overlap: {trajectory.dates[0]}..{trajectory.dates[-1]} vs "
            f"{reference.dates[0]}..{reference.dates[-1]}"
        )
    i0, i1 = trajectory.index_of(first), trajectory.index_of(last)
    j0 = reference.index_of(first)
    Y = trajectory.Y[i0 : i1 + 1]
    Y_ref = reference.Y[j0 : j0 + (i1 - i0) + 1]

    peak_idx = int(np.argmax(trajectory.I))
    if ratio_dates is None:
        ratio_dates = [last]
    ratios = {}
    for d in ratio_dates:
        if not (first <= d <= last):
            raise ValueError(f"ratio date {d.isoformat()} outside the common range")
        ratios[d.isoformat()] = float(
            trajectory.Y[trajectory.index_of(d)] / reference.Y[reference.index_of(d)]
        )
    return SummaryMetrics(
        scenario_name=trajectory.scenario_name,
        reference_name=reference.scenario_name,
        peak_active_infections=float(trajectory.I[peak_idx]),
        peak_date=trajectory.dates[peak_idx],
        total_deaths=float(trajectory.D[-1] - trajectory.D[0]),
        max_output_drop_pct=float(np.max(1.0 - Y / Y_ref) * 100.0),
        output_ratio_at=ratios,
        welfare=trajectory.welfare,
    )


@dataclass(frozen=True)
class SweepRun:
    scenario: Scenario
    trajectory: Trajectory | None
    metrics: SummaryMetrics | None
    error: str | None = None


def _run_sweep_member(args):
    scenario, params = args
    return run_scenario(scenario, params)


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
    if not (isinstance(raw, list) and raw):
        raise DataFormatError(f"{where}: expected a non-empty list, got {raw!r}")
    _, setting, member_name = SWEEP_AXES[axis]
    values = [SCHEDULE_SETTINGS[setting](value, f"{where}[{i}]") for i, value in enumerate(raw)]
    names = [member_name(value) for value in values]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise DataFormatError(f"{where}[{i}]: repeats the run {name!r}")
    return values


def parse_sweep(axis: str, section: dict, where: str) -> SweepGrid:
    """Parse a configured sweep section: its values key and the two fixed
    schedule settings, all required."""
    values_key, setting, _ = SWEEP_AXES[axis]
    fixed_keys = [key for key in SCHEDULE_SETTINGS if key != setting]
    check_keys(section, {values_key, *fixed_keys}, where, required={values_key, *fixed_keys})
    return SweepGrid(
        values=parse_sweep_values(axis, section[values_key], f"{where}.{values_key}"),
        fixed={key: SCHEDULE_SETTINGS[key](section[key], f"{where}.{key}") for key in fixed_keys},
    )


def sweep(
    params: ModelParams,
    axis: str,
    values: list,
    *,
    start_date: date | None = None,
    intensity: float | None = None,
    duration_weeks: int | None = None,
    reference: Trajectory | None = None,
    ratio_dates: list | None = None,
    jobs: int = 1,
    base: Scenario | None = None,
) -> list:
    """One run per value along ``axis`` (a ``SWEEP_AXES`` key), the other
    two schedule settings fixed; one left as None comes from the shipped
    config's section for ``axis``.

    Each member is ``base`` (default: the no-intervention baseline) with the
    swept schedule; its metrics are taken against ``reference`` (default:
    the no-pandemic run).  Values are not checked here: a member that raises
    is kept with its error instead of failing the sweep.  Runs come back
    sorted by name.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {sorted(SWEEP_AXES)}")
    _, setting, member_name = SWEEP_AXES[axis]
    given = {"start_date": start_date, "intensity": intensity, "duration_weeks": duration_weeks}
    shipped = parse_sweep(axis, default_config()["sweeps"][axis], f"default_config.sweeps.{axis}")
    fixed = {**shipped.fixed, **{key: value for key, value in given.items() if value is not None}}
    template = base if base is not None else no_intervention_scenario()
    members = [
        replace(template, name=member_name(value),
                schedule=PolicySchedule.from_settings({**fixed, setting: value}))
        for value in values
    ]
    if reference is None:
        reference = run_scenario(no_pandemic_scenario(), params)

    trajectories: list = [None] * len(members)
    errors: list = [None] * len(members)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_sweep_member, (sc, params)) for sc in members]
            for i, fut in enumerate(futures):
                try:
                    trajectories[i] = fut.result()
                except Exception as exc:  # collected, not fatal to the sweep
                    errors[i] = str(exc)
    else:
        for i, sc in enumerate(members):
            try:
                trajectories[i] = run_scenario(sc, params)
            except Exception as exc:
                errors[i] = str(exc)
    runs = [
        SweepRun(scenario=sc, trajectory=None, metrics=None, error=err) if err is not None
        else SweepRun(scenario=sc, trajectory=traj, metrics=summarize(traj, reference, ratio_dates))
        for sc, traj, err in zip(members, trajectories, errors)
    ]
    return sorted(runs, key=lambda run: run.scenario.name)


def sweep_start_dates(params: ModelParams, dates: list, **kwargs) -> list:
    return sweep(params, "start", dates, **kwargs)


def sweep_intensity(params: ModelParams, intensities: list, **kwargs) -> list:
    return sweep(params, "intensity", intensities, **kwargs)


def sweep_duration(params: ModelParams, durations_weeks: list, **kwargs) -> list:
    return sweep(params, "duration", durations_weeks, **kwargs)


@dataclass(frozen=True)
class BacktestData:
    """Observed annual series used to initialise and score the backtest."""

    population: calibration.AnnualSeries
    gdp: calibration.AnnualSeries
    gcf: calibration.AnnualSeries


def backtest(
    params: ModelParams,
    observed: BacktestData,
    start_year: int = 1990,
    end_year: int = 2010,
    horizon: date | None = None,
) -> tuple[Trajectory, dict]:
    """Pandemic-free run from historical initial conditions, scored
    against observed annual output.

    The initial capital stock is imputed by perpetual inventory and the
    initial TFP level matches observed output in the starting year.
    """
    for name in ("population", "gdp", "gcf"):
        series = getattr(observed, name)
        if len(series) == 0:
            raise ValueError(f"observed {name} series is empty")
    if horizon is None:
        horizon = date(start_year + 50, 12, 31)

    delta_annual = 1.0 - (1.0 - params.delta_daily) ** DAYS_PER_YEAR
    k_init = calibration.steady_state_k_init(observed.gcf, delta_annual)
    capital = calibration.impute_capital(observed.gcf, delta_annual, k_init)
    tfp_series, _ = calibration.estimate_tfp(observed.gdp, capital, observed.population, params.alpha)

    scenario = Scenario(
        name=f"backtest-{start_year}",
        start_date=date(start_year, 1, 1),
        N0=observed.population.value_at(start_year),
        I0=0.0, R0=0.0, D0=0.0,
        b0=0.0,
        A0=tfp_series.value_at(start_year),
        K0=capital.value_at(start_year),
        schedule=None,
        end_of_interest=date(end_year, 12, 31),
        horizon=horizon,
    )
    trajectory = run_scenario(scenario, params)

    years = [y for y in range(start_year, end_year + 1)]
    missing = [y for y in years if y not in observed.gdp.years]
    if missing:
        raise ValueError(f"observed GDP is missing years {missing}")

    year_index = np.array([d.year for d in trajectory.dates])
    rows = []
    for y in years:
        sim_gdp = float(trajectory.Y[year_index == y].sum())
        obs_gdp = observed.gdp.value_at(y)
        row = {"year": y, "simulated_gdp": sim_gdp, "observed_gdp": obs_gdp,
               "gdp_relative_error": sim_gdp / obs_gdp - 1.0}
        jan1 = trajectory.index_of(date(y, 1, 1))
        if y in observed.population.years:
            row["population_relative_error"] = float(
                trajectory.N[jan1] / observed.population.value_at(y) - 1.0
            )
        if y in capital.years:
            row["capital_relative_error"] = float(trajectory.K[jan1] / capital.value_at(y) - 1.0)
        if y in observed.gcf.years:
            inv = float((trajectory.Y - trajectory.C - trajectory.H)[year_index == y].sum())
            row["investment_relative_error"] = inv / observed.gcf.value_at(y) - 1.0
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
