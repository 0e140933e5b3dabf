import dataclasses
import math
import random
import statistics
import warnings
from datetime import date, timedelta

import numpy as np
import pytest

from epigrowth import planner, scenarios
from epigrowth.planner import (
    InfeasiblePlanError,
    PlannerInputs,
    PlannerSolution,
    _euler_residuals,
    balanced_path_terminal_capital,
    solve,
    welfare,
)


def euler_residual(solution: PlannerSolution, inputs: PlannerInputs, t: int) -> float:
    """First-order-condition residual at an interior day t, computed from
    the raw input paths independently of the solver's own diagnostics."""
    T = inputs.horizon
    if not (0 <= t < T - 1):
        raise ValueError(f"t must lie in [0, {T - 1}), got {t!r}")
    C = solution.consumption_path
    K = solution.capital_path
    N = inputs.pop_path
    mpk = (
        inputs.alpha
        * (1.0 - float(inputs.shortfall_path[t + 1]))
        * float(inputs.tfp_path[t + 1])
        * K[t + 1] ** (inputs.alpha - 1.0)
        * float(inputs.labor_path[t + 1]) ** (1.0 - inputs.alpha)
    )
    growth = (C[t + 1] / N[t + 1]) / (C[t] / N[t])
    return abs(growth / (inputs.beta_daily * (1.0 - inputs.delta_daily + mpk)) - 1.0)


def flat_inputs(T, A=1.0, L=1.0, N=1.0, K0=1.0, beta=0.96, alpha=0.3, delta=0.1,
                hcost=None, shortfall=None, terminal=None):
    return PlannerInputs(
        labor_path=np.full(T, float(L)),
        pop_path=np.full(T, float(N)),
        tfp_path=np.full(T, float(A)),
        hcost_path=np.zeros(T) if hcost is None else np.asarray(hcost, dtype=float),
        shortfall_path=np.zeros(T) if shortfall is None else np.asarray(shortfall, dtype=float),
        K0=K0,
        beta_daily=beta,
        alpha=alpha,
        delta_daily=delta,
        terminal_capital=terminal,
    )


def modified_golden_rule_capital(beta, delta, alpha, A=1.0, L=1.0):
    mpk = 1.0 / beta - (1.0 - delta)
    return L * (alpha * A / mpk) ** (1.0 / (1.0 - alpha))


class TestSteadyState:
    def test_holds_fixed_point(self):
        beta, delta, alpha = 0.96, 0.1, 0.3
        K_star = modified_golden_rule_capital(beta, delta, alpha)
        C_star = K_star ** alpha - delta * K_star
        inputs = flat_inputs(T=400, K0=K_star, beta=beta, alpha=alpha, delta=delta,
                             terminal=K_star)
        sol = solve(inputs)
        assert np.max(np.abs(sol.capital_path - K_star)) <= 1e-10 * K_star
        assert np.max(np.abs(sol.consumption_path - C_star)) <= 1e-10 * C_star
        assert np.max(sol.euler_residuals) <= 1e-10
        assert euler_residual(sol, inputs, 5) <= 1e-12

    def test_terminal_condition_met(self):
        inputs = flat_inputs(T=100, K0=2.0, terminal=1.5)
        sol = solve(inputs)
        assert sol.capital_path[-1] == pytest.approx(1.5, rel=1e-6)

    def test_balanced_path_target_uses_the_last_days_growth_at_t2(self):
        # A grows 10% on the one step of a two-day horizon: the target is
        # the modified golden rule at that growth, not at none
        beta, delta, alpha = 0.96, 0.1, 0.3
        inputs = dataclasses.replace(flat_inputs(T=2, beta=beta, delta=delta, alpha=alpha),
                                     tfp_path=np.array([1.0, 1.1]))
        gx = 1.1 ** (1.0 / (1.0 - alpha)) - 1.0
        mpk = (1.0 + gx) / beta - (1.0 - delta)
        expected = (alpha * 1.1 / mpk) ** (1.0 / (1.0 - alpha))
        assert balanced_path_terminal_capital(inputs) == pytest.approx(expected, rel=1e-12)


class TestSinglePeriod:
    def test_exhausts_everything(self):
        inputs = flat_inputs(T=1, K0=1.0, delta=1.0, terminal=0.0)
        sol = solve(inputs)
        Y0 = 1.0  # A*K0^alpha*L^(1-alpha) with unit inputs
        assert sol.consumption_path[0] == pytest.approx(Y0, rel=1e-9)
        assert sol.welfare == pytest.approx(math.log(Y0), abs=1e-9)


class TestClosedForm:
    """A known answer (Brock & Mirman 1972, JET 4): with full depreciation,
    constant N, L and A, and no costs, C_t = (1 - alpha*beta)*Y_t and
    K_{t+1} = alpha*beta*Y_t meet every Euler equation, so with that path's
    K_T as the target it is the plan.  Shooting's error grows about 500-fold
    every 5 periods (its unstable root is 1/alpha): 3.6e-6 relative in C at
    T = 20, and from T = 40 on ``solve`` returns a K_T 5.9 times the target
    without an error (ROADMAP item 5)."""

    ALPHA, BETA, A = 0.3, 0.96, 1.5

    def closed_form(self, K0: float, T: int) -> tuple:
        C, K = [], [K0]
        for _ in range(T):
            Y = self.A * K[-1] ** self.ALPHA
            C.append((1.0 - self.ALPHA * self.BETA) * Y)
            K.append(self.ALPHA * self.BETA * Y)
        return np.array(C), np.array(K)

    # largest relative errors measured over the four K0: in C 3.3e-16,
    # 2.8e-14 and 1.4e-11; in K 8.9e-16, 9.9e-14 and 5.0e-11
    @pytest.mark.parametrize("T,bound", [(2, 1e-15), (5, 1e-13), (10, 1e-10)])
    @pytest.mark.parametrize("K0", [0.01, 0.05, 0.3, 1.0])
    def test_matches_the_closed_form(self, K0, T, bound):
        C, K = self.closed_form(K0, T)
        sol = solve(flat_inputs(T, A=self.A, K0=K0, beta=self.BETA, alpha=self.ALPHA, delta=1.0,
                                terminal=float(K[-1])))
        assert np.max(np.abs(sol.consumption_path / C - 1.0)) <= bound
        assert np.max(np.abs(sol.capital_path / K - 1.0)) <= 5 * bound


class TestMonotoneConsumption:
    """More capital to start from buys more day-0 consumption, and more
    capital to leave buys less: C_0 rises strictly with K0 and falls
    strictly with the target.  Horizons of 150 days or more are left out:
    there shooting cannot tell targets apart (see ROADMAP item 5)."""

    SCALES = [0.5, 0.9, 1.0, 1.1, 2.0]  # of the modified-golden-rule capital

    @pytest.mark.parametrize("T", [5, 60])
    def test_rises_with_starting_capital(self, T):
        K_star = modified_golden_rule_capital(0.96, 0.1, 0.3)
        C0 = [solve(flat_inputs(T, K0=s * K_star, terminal=K_star)).consumption_path[0] for s in self.SCALES]
        assert all(a < b for a, b in zip(C0, C0[1:])), C0

    @pytest.mark.parametrize("T", [5, 60])
    def test_falls_with_the_target(self, T):
        K_star = modified_golden_rule_capital(0.96, 0.1, 0.3)
        C0 = [solve(flat_inputs(T, K0=K_star, terminal=s * K_star)).consumption_path[0] for s in self.SCALES]
        assert all(a > b for a, b in zip(C0, C0[1:])), C0


class TestWelfare:
    def test_consumption_equal_to_population_is_zero(self):
        assert welfare([5.0, 6.0, 7.0], [5.0, 6.0, 7.0], 0.99) == 0.0

    def test_unit_discount_log_e(self):
        assert welfare([math.e, math.e], [1.0, 1.0], 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_nonpositive_consumption_rejected(self):
        with pytest.raises(ValueError):
            welfare([1.0, 0.0], [1.0, 1.0], 0.99)


def growing_inputs(T=600, terminal=None):
    g = 2e-4
    n = 5e-5
    t = np.arange(T)
    return PlannerInputs(
        labor_path=900.0 * np.exp(n * t),
        pop_path=1000.0 * np.exp(n * t),
        tfp_path=1.5 * (1 + g) ** t,
        hcost_path=np.full(T, 0.05),
        shortfall_path=np.where((t > 50) & (t <= 100), 0.1, 0.0),
        K0=4000.0,
        beta_daily=0.9995,
        alpha=0.3,
        delta_daily=3e-4,
        terminal_capital=terminal,
    )


class TestOptimality:
    def test_interior_euler_residuals_small(self):
        sol = solve(growing_inputs())
        assert np.max(sol.euler_residuals) < 1e-6
        assert np.max(sol.euler_residuals) < 1e-12  # shooting satisfies the FOC exactly

    def test_budget_identity(self):
        inputs = growing_inputs()
        sol = solve(inputs)
        K, C = sol.capital_path, sol.consumption_path
        t = np.arange(inputs.horizon)
        Y = ((1 - inputs.shortfall_path) * inputs.tfp_path * K[:-1] ** inputs.alpha
             * inputs.labor_path ** (1 - inputs.alpha))
        lhs = K[1:] - ((1 - inputs.delta_daily) * K[:-1] + Y - C - inputs.hcost_path)
        assert np.max(np.abs(lhs)) <= 1e-12 * np.max(K)

    def test_perturbed_path_detected_by_residual(self):
        inputs = growing_inputs()
        sol = solve(inputs)
        t = 150
        C = sol.consumption_path.copy()
        K = sol.capital_path.copy()
        C[t] *= 1.01
        # rebalance through capital so later dates are unchanged
        Y_t = ((1 - inputs.shortfall_path[t]) * inputs.tfp_path[t] * K[t] ** inputs.alpha
               * inputs.labor_path[t] ** (1 - inputs.alpha))
        K[t + 1] = (1 - inputs.delta_daily) * K[t] + Y_t - C[t] - inputs.hcost_path[t]
        Y_t1 = ((1 - inputs.shortfall_path[t + 1]) * inputs.tfp_path[t + 1] * K[t + 1] ** inputs.alpha
                * inputs.labor_path[t + 1] ** (1 - inputs.alpha))
        C[t + 1] = (1 - inputs.delta_daily) * K[t + 1] + Y_t1 - inputs.hcost_path[t + 1] - K[t + 2]
        perturbed = PlannerSolution(
            consumption_path=C, capital_path=K, welfare=float("nan"),
            euler_residuals=sol.euler_residuals,
        )
        assert euler_residual(perturbed, inputs, t) > 1e-3
        assert euler_residual(sol, inputs, t) < 1e-12

    def test_welfare_dominates_random_feasible_perturbations(self):
        inputs = growing_inputs()
        sol = solve(inputs)
        T = inputs.horizon
        W = sol.welfare
        rng = np.random.default_rng(7)
        tried = 0
        while tried < 100:
            t = int(rng.integers(0, T - 2))
            eps = float(rng.uniform(-0.02, 0.02))
            if eps == 0.0:
                continue
            C = sol.consumption_path.copy()
            K = sol.capital_path.copy()
            C[t] *= 1 + eps
            Y_t = ((1 - inputs.shortfall_path[t]) * inputs.tfp_path[t] * K[t] ** inputs.alpha
                   * inputs.labor_path[t] ** (1 - inputs.alpha))
            K[t + 1] = (1 - inputs.delta_daily) * K[t] + Y_t - C[t] - inputs.hcost_path[t]
            if K[t + 1] <= 0:
                continue
            Y_t1 = ((1 - inputs.shortfall_path[t + 1]) * inputs.tfp_path[t + 1]
                    * K[t + 1] ** inputs.alpha * inputs.labor_path[t + 1] ** (1 - inputs.alpha))
            C[t + 1] = (1 - inputs.delta_daily) * K[t + 1] + Y_t1 - inputs.hcost_path[t + 1] - K[t + 2]
            if C[t + 1] <= 0:
                continue
            tried += 1
            W_perturbed = welfare(C, inputs.pop_path, inputs.beta_daily)
            assert W_perturbed <= W + 1e-9 * abs(W)

    def test_higher_tfp_weakly_raises_welfare(self):
        base = growing_inputs()
        sol = solve(base)
        richer = PlannerInputs(
            labor_path=base.labor_path, pop_path=base.pop_path,
            tfp_path=base.tfp_path * 1.01, hcost_path=base.hcost_path,
            shortfall_path=base.shortfall_path, K0=base.K0,
            beta_daily=base.beta_daily, alpha=base.alpha, delta_daily=base.delta_daily,
            terminal_capital=None,
        )
        assert solve(richer).welfare >= sol.welfare


def terminal_capital(C0: float, inputs: PlannerInputs):
    """K_T of the Euler/budget recursion shot forward from C0, in the
    solver's float order, or None when the stock is exhausted first."""
    alpha = inputs.alpha
    omd = 1.0 - inputs.delta_daily
    A = np.asarray(inputs.tfp_path, dtype=float)
    L = np.asarray(inputs.labor_path, dtype=float)
    N = np.asarray(inputs.pop_path, dtype=float)
    p = np.asarray(inputs.shortfall_path, dtype=float)
    prodc = ((1.0 - p) * A * L ** (1.0 - alpha)).tolist()
    growu = (inputs.beta_daily * N[1:] / N[:-1]).tolist()
    H = np.asarray(inputs.hcost_path, dtype=float).tolist()
    T = inputs.horizon
    K, C = float(inputs.K0), C0
    for t in range(T):
        K_next = omd * K + prodc[t] * K ** alpha - H[t] - C
        if K_next < 0.0 or (K_next == 0.0 and t < T - 1):
            return None
        if t < T - 1:
            C = C * growu[t] * (omd + alpha * prodc[t + 1] * K_next ** alpha / K_next)
        K = K_next
    return K


class _Captured(Exception):
    """Stops a run once the solver has been handed its inputs."""


def planner_inputs(scenario, params) -> PlannerInputs:
    """The PlannerInputs that ``run_scenario(scenario, params)`` hands to the
    solver; the run stops there, so nothing is solved."""
    captured = []

    def capture(inputs, **kwargs):
        captured.append(inputs)
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "solve", capture)
        with pytest.raises(_Captured):
            scenarios.run_scenario(scenario, params)
    return captured[0]


@pytest.fixture(scope="module")
def no_intervention_inputs(params, config):
    return planner_inputs(config.scenario(scenarios.NO_INTERVENTION), params)


@pytest.fixture(params=["growing", "no-intervention"])
def shooting_case(request):
    if request.param == "growing":
        return growing_inputs()
    return request.getfixturevalue("no_intervention_inputs")


# Shooting-bound: counts the calls of the search pass planner._propagate
def count_passes(monkeypatch) -> list:
    """Record, per call of the solver's search pass, the days it ran: the
    horizon, or up to the day the stock runs out.  Its length is the number
    of search passes; the recording pass ``_paths`` is not counted."""
    days = []
    real = planner._propagate

    def counted(C0, inputs, *rest):
        result = real(C0, inputs, *rest)
        fail = result[1]
        days.append(inputs.horizon if fail is None else fail + 1)
        return result

    monkeypatch.setattr(planner, "_propagate", counted)
    return days


# Shooting-bound: records the calls of the recording pass planner._paths
def count_recordings(monkeypatch) -> list:
    """Record the C_0 of each call of the solver's recording pass."""
    recorded = []
    real = planner._paths

    def counted(C0, *rest):
        recorded.append(C0)
        return real(C0, *rest)

    monkeypatch.setattr(planner, "_paths", counted)
    return recorded


def assert_largest_feasible_double(solution: PlannerSolution, inputs: PlannerInputs) -> None:
    """C_0 reaches the terminal target and the next double up does not."""
    target = balanced_path_terminal_capital(inputs)
    C0 = float(solution.consumption_path[0])
    K_T = terminal_capital(C0, inputs)
    assert K_T is not None and K_T >= target
    assert K_T == solution.capital_path[-1]
    above = terminal_capital(math.nextafter(C0, math.inf), inputs)
    assert above is None or above < target


def seeded_schedules(seed: int, n: int) -> list:
    """``n`` single interventions drawn as the scenario-loop benchmark draws
    them: a start from 2020-03-01 to 2020-08-31, 2% to 30%, 4 to 104 weeks."""
    rng = random.Random(seed)
    first = date(2020, 3, 1)
    span = (date(2020, 8, 31) - first).days + 1
    return [scenarios.PolicySchedule(first + timedelta(days=rng.randrange(span)),
                                     rng.randint(20, 300) / 1000, rng.randint(4, 104) * 7)
            for _ in range(n)]


# Shooting-bound: the pass-days of each seeded solve
@pytest.fixture(scope="module")
def seeded_solves(params, config):
    """(inputs, solution, pass-days in horizons) for 12 seeded interventions."""
    base = config.scenario(scenarios.NO_INTERVENTION)
    cases = [planner_inputs(dataclasses.replace(base, schedule=schedule, name=f"seeded-{i}"), params)
             for i, schedule in enumerate(seeded_schedules(0, 12))]
    solves = []
    with pytest.MonkeyPatch.context() as mp:
        days = count_passes(mp)
        for inputs in cases:
            days.clear()
            solves.append((inputs, solve(inputs), sum(days) / inputs.horizon))
    return solves


# Shooting-bound: the search's last C_0, its pass counts and its early stops
class TestShooting:
    def test_c0_is_largest_feasible_double(self, shooting_case):
        assert_largest_feasible_double(solve(shooting_case), shooting_case)

    def test_seeded_c0_is_largest_feasible_double(self, seeded_solves):
        for inputs, solution, _ in seeded_solves:
            assert_largest_feasible_double(solution, inputs)

    def test_no_intervention_pass_count(self, no_intervention_inputs, monkeypatch):
        passes = count_passes(monkeypatch)
        solve(no_intervention_inputs)
        assert len(passes) <= 6  # 5 from the stacked estimate, 27 from the cold bracket

    def test_shipped_solves_run_no_probe(self, cases, monkeypatch):
        # the stacked estimate starts both baselines' and every seeded
        # solve, so none runs the feasibility probe, a pass at C_lo
        for inputs in cases:
            prodc, _, _, H = shooting_lists(inputs)
            C_lo = 1e-12 * ((1.0 - inputs.delta_daily) * inputs.K0 + prodc[0] * inputs.K0 ** inputs.alpha - H[0])
            _, passes, _ = recorded_solve(inputs, monkeypatch)
            assert passes and C_lo not in [C0 for C0, _ in passes]

    def test_pass_days_per_solve(self, seeded_solves, params, config, monkeypatch):
        # pass-days in horizons; from the stacked estimate every pass runs
        # to the horizon, and the seeded mean is 4.25, the no-pandemic solve
        # 5; from the cold bracket they are 16.6 and 19.3
        assert statistics.mean(horizons for *_, horizons in seeded_solves) <= 5
        inputs = planner_inputs(config.scenario(scenarios.NO_PANDEMIC), params)
        days = count_passes(monkeypatch)
        solve(inputs)
        assert sum(days) / inputs.horizon <= 6

    def test_relative_tolerance_stops_early_and_feasible(self, shooting_case):
        full = float(solve(shooting_case).consumption_path[0])
        early = solve(shooting_case, rel_tol=1e-6)
        C0 = float(early.consumption_path[0])
        assert full * (1.0 - 2e-6) <= C0 <= full
        assert early.capital_path[-1] >= balanced_path_terminal_capital(shooting_case)
        assert terminal_capital(C0, shooting_case) == early.capital_path[-1]

    def test_iteration_cap_stops_early_and_feasible(self, shooting_case, monkeypatch):
        target = balanced_path_terminal_capital(shooting_case)
        reached = []
        real = planner._propagate

        def recorded(C0, *rest):
            result = real(C0, *rest)
            reached.append(result[1] is None and result[0] >= target)
            return result

        monkeypatch.setattr(planner, "_propagate", recorded)
        early = solve(shooting_case, max_iter=3)
        # at most three search passes, then the feasibility probe, which
        # reaches the target, exactly when none of them did
        searched = reached[:3]
        assert reached == searched + [True] * (not any(searched))
        C0 = float(early.consumption_path[0])
        assert np.all(early.consumption_path > 0)
        assert early.capital_path[-1] >= balanced_path_terminal_capital(shooting_case)
        assert terminal_capital(C0, shooting_case) == early.capital_path[-1]


class TestErrors:
    def test_boundary_dates_rejected(self):
        inputs = flat_inputs(T=10, K0=1.0, terminal=None)
        sol = solve(inputs)
        with pytest.raises(ValueError):
            euler_residual(sol, inputs, 9)
        with pytest.raises(ValueError):
            euler_residual(sol, inputs, -1)

    def test_infeasible_cost_spike_reports_first_date(self, monkeypatch):
        hcost = np.zeros(5)
        hcost[1] = 50.0  # far beyond anything output plus capital can cover
        inputs = flat_inputs(T=5, K0=1.0, hcost=hcost, terminal=0.0)
        recorded = count_recordings(monkeypatch)
        with pytest.raises(InfeasiblePlanError) as err:
            solve(inputs)
        assert err.value.day_index == 1
        assert recorded == []  # a refused solve records no path

    def test_unreachable_terminal_capital(self):
        inputs = flat_inputs(T=5, K0=1.0, terminal=1e9)
        with pytest.raises(InfeasiblePlanError) as err:
            solve(inputs)
        assert err.value.day_index == 5

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["K0", "terminal_capital", "labor_path", "pop_path", "tfp_path",
                                       "hcost_path", "shortfall_path"])
    def test_non_finite_input_rejected_before_any_pass(self, field, value, monkeypatch):
        inputs = growing_inputs()
        if field.endswith("_path"):
            path = np.array(getattr(inputs, field), dtype=float)
            path[300] = value
            value = path
        passes = count_passes(monkeypatch)
        with pytest.raises(ValueError, match=field):
            solve(dataclasses.replace(inputs, **{field: value}))
        assert passes == []

    # Shooting-bound: one pass of planner._propagate, the feasibility probe
    @pytest.mark.parametrize("case", ["unreachable-target", "cost-spike", "day-0-costs", "ruinous-costs"])
    def test_infeasible_inputs_stay_bounded(self, no_intervention_inputs, params, config, monkeypatch, case):
        hcost = np.array(no_intervention_inputs.hcost_path, dtype=float)
        if case == "unreachable-target":
            inputs = dataclasses.replace(no_intervention_inputs, terminal_capital=1e20)
        elif case == "ruinous-costs":  # the direct costs of ``{"params": {"u": 1e9}}``
            inputs = planner_inputs(config.scenario(scenarios.NO_INTERVENTION), dataclasses.replace(params, u=1e9))
        else:
            hcost[14_000 if case == "cost-spike" else 0] += 1e16
            inputs = dataclasses.replace(no_intervention_inputs, hcost_path=hcost)
        exhausted = "direct costs exceed available resources even at zero consumption"
        expected = {
            "unreachable-target": (14955, "infeasible at day 14955: terminal capital target 1e+20 is unreachable"),
            "cost-spike": (14000, f"infeasible at day 14000: {exhausted}"),
            "day-0-costs": (0, f"infeasible at day 0: {exhausted}"),
            "ruinous-costs": (66, f"infeasible at day 66: {exhausted}"),
        }[case]
        passes = count_passes(monkeypatch)
        recorded = count_recordings(monkeypatch)
        with pytest.raises(InfeasiblePlanError) as err:
            solve(inputs)
        assert (err.value.day_index, str(err.value)) == expected
        # the estimate cannot start the search, so the probe runs first and
        # refuses the inputs: no search pass, and no path recorded
        assert len(passes) == 1 and recorded == []

    def test_path_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PlannerInputs(
                labor_path=np.ones(5), pop_path=np.ones(4), tfp_path=np.ones(5),
                hcost_path=np.zeros(5), shortfall_path=np.zeros(5),
                K0=1.0, beta_daily=0.99, alpha=0.3, delta_daily=0.1,
            )


class TestTruncationSensitivity:
    def test_2030_consumption_insensitive_to_horizon(self, params, config):
        no_pandemic = config.scenario(scenarios.NO_PANDEMIC)
        short = scenarios.run_scenario(dataclasses.replace(no_pandemic, horizon=date(2050, 12, 31)), params)
        long = scenarios.run_scenario(dataclasses.replace(no_pandemic, horizon=date(2060, 12, 31)), params)
        idx = short.index_of(date(2030, 12, 31))
        assert long.C[idx] == pytest.approx(short.C[idx], rel=1e-3)

    @pytest.mark.parametrize("year", [2070, 2080])
    @pytest.mark.parametrize("which", [0, 1], ids=["no-pandemic", "no-intervention"])
    def test_window_insensitive_to_a_later_horizon(self, params, config, baselines, which, year):
        # The terminal condition must not distort the reported window: moved
        # from 2060 to 2070 or 2080, window C, K and Y moved by at most 2.0e-6
        # relative (measured), whatever the solver; the epidemic ignores the
        # horizon altogether
        scenario = config.scenario((scenarios.NO_PANDEMIC, scenarios.NO_INTERVENTION)[which])
        base = baselines[which]
        moved = scenarios.run_scenario(dataclasses.replace(scenario, horizon=date(year, 12, 31)), params)
        assert moved.days == base.days
        for name in ("C", "K", "Y"):
            np.testing.assert_allclose(getattr(moved, name), getattr(base, name), rtol=1e-5, atol=0.0, err_msg=name)
        for name in ("N", "S", "I", "R", "D"):
            assert bits(getattr(moved, name)) == bits(getattr(base, name)), name


# Shooting-bound: one cold-bracket shooting pass, restated
def oracle_propagate(C0: float, inputs: PlannerInputs, prodc: list, growu: list, H: list):
    """The shooting pass as the solver once ran it, one indexed day at a
    time with the last day inside the loop and the forward sensitivities
    dK_t/dC_0 and dC_t/dC_0 carried along: ``planner._propagate`` must match
    its paths and fail index bit for bit, and ``planner._slope`` its
    dK_T/dC_0 to within ``TestTerminalSlope``'s bounds."""
    T = inputs.horizon
    alpha = inputs.alpha
    am1 = alpha - 1.0
    omd = 1.0 - inputs.delta_daily

    C_path = [0.0] * T
    K_path = [0.0] * (T + 1)
    K = float(inputs.K0)
    K_path[0] = K
    C = float(C0)
    Kpow = K ** alpha
    mpk = 0.0  # MPK_0 only ever multiplies dK_0 = 0
    dK = 0.0
    dC = 1.0
    for t in range(T):
        C_path[t] = C
        Y = prodc[t] * Kpow
        K_next = omd * K + Y - H[t] - C
        if K_next <= 0.0 and not (t == T - 1 and K_next == 0.0):
            return C_path, K_path, t, None
        K_path[t + 1] = K_next
        dK = (omd + mpk) * dK - dC
        if t < T - 1:
            Kpow = K_next ** alpha
            mpk = alpha * prodc[t + 1] * Kpow / K_next
            dC = growu[t] * ((omd + mpk) * dC + C * am1 * mpk / K_next * dK)
            C = C * growu[t] * (omd + mpk)
            K = K_next
    return C_path, K_path, None, dK


# Shooting-bound: the shooting search, restated
def oracle_solve(inputs: PlannerInputs, *, rel_tol: float = 0.0, max_iter: int = 200) -> PlannerSolution:
    """The search as the solver once ran it, from the cold bracket with the
    feasibility probe first and Newton steps on K_T: ``planner.solve`` must
    return the same solution bit for bit, and raise the same errors."""
    T = inputs.horizon
    alpha = inputs.alpha
    beta = inputs.beta_daily
    omd = 1.0 - inputs.delta_daily

    K_target = inputs.terminal_capital
    if K_target is None:
        K_target = balanced_path_terminal_capital(inputs)

    A = np.asarray(inputs.tfp_path, dtype=float)
    L = np.asarray(inputs.labor_path, dtype=float)
    N = np.asarray(inputs.pop_path, dtype=float)
    p = np.asarray(inputs.shortfall_path, dtype=float)
    production = (1.0 - p) * A * L ** (1.0 - alpha)
    prodc = production.tolist()
    growu = (beta * N[1:] / N[:-1]).tolist()
    H = np.asarray(inputs.hcost_path, dtype=float).tolist()

    resources0 = omd * inputs.K0 + prodc[0] * inputs.K0 ** alpha - H[0]

    # Feasibility probe: near-zero consumption maximises the capital path;
    # with no day-0 resources its first stock, resources0 - C_lo, is <= 0.
    C_lo = 1e-12 * resources0
    C_best, K_best, fail, slope = oracle_propagate(C_lo, inputs, prodc, growu, H)
    if fail is not None:
        raise InfeasiblePlanError(fail, "direct costs exceed available resources even at zero consumption")
    if K_best[T] < K_target:
        raise InfeasiblePlanError(T, f"terminal capital target {K_target:.6g} is unreachable")

    # Bracket: C_lo reaches the target, C_hi fails or undershoots it.
    # x is the last pass that did not fail; Newton steps start from it.
    C_hi = resources0  # consumes the entire stock on day 0; always overshoots
    x, miss = C_lo, K_best[T] - K_target
    for _ in range(max_iter):
        C_mid = 0.5 * (C_lo + C_hi)
        if not (C_lo < C_mid < C_hi):
            break
        C_try = x - miss / slope if slope else math.nan
        if C_try == x:
            # the step is below x's resolution: test x's neighbour
            # towards the other end of the bracket
            C_try = math.nextafter(x, C_hi if x == C_lo else C_lo)
        if not (C_lo < C_try < C_hi):
            C_try = C_mid
        C_path, K_path, fail, dK_T = oracle_propagate(C_try, inputs, prodc, growu, H)
        if fail is None:
            x, miss, slope = C_try, K_path[T] - K_target, dK_T
        if fail is not None or K_path[T] < K_target:
            C_hi = C_try
        else:
            C_lo, C_best, K_best = C_try, C_path, K_path
        if rel_tol > 0.0 and (C_hi - C_lo) <= rel_tol * C_hi:
            break

    consumption = np.array(C_best)
    capital = np.array(K_best)
    residuals = _euler_residuals(consumption, capital, inputs, production)
    W = welfare(consumption, N, beta)
    return PlannerSolution(
        consumption_path=consumption,
        capital_path=capital,
        welfare=W,
        euler_residuals=residuals,
    )


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def shooting_lists(inputs: PlannerInputs) -> tuple:
    """The (prodc, apc, growu, H) lists that ``solve`` hands each pass."""
    alpha = inputs.alpha
    p, A, L = (np.asarray(x, dtype=float) for x in (inputs.shortfall_path, inputs.tfp_path, inputs.labor_path))
    N = np.asarray(inputs.pop_path, dtype=float)
    production = (1.0 - p) * A * L ** (1.0 - alpha)
    return (production.tolist(), (alpha * production[1:]).tolist(), (inputs.beta_daily * N[1:] / N[:-1]).tolist(),
            np.asarray(inputs.hcost_path, dtype=float).tolist())


# Shooting-bound: the recording pass, restated
def oracle_pass(C0: float, inputs: PlannerInputs, prodc: list, apc: list, growu: list, H: list):
    """``oracle_propagate`` called with ``_paths``'s arguments and returning
    what it returns: the paths and the fail index.  It ignores ``apc``."""
    return oracle_propagate(C0, inputs, prodc, growu, H)[:3]


# Shooting-bound: the search pass, restated
def oracle_search_pass(C0: float, inputs: PlannerInputs, prodc: list, apc: list, growu: list, H: list):
    """``oracle_pass`` cut to what ``_propagate`` returns: (K_T, fail index),
    K_T None when the stock runs out."""
    _, K_path, fail = oracle_pass(C0, inputs, prodc, apc, growu, H)
    return (K_path[-1] if fail is None else None), fail


def search_key(result: tuple) -> tuple:
    """A search pass's (K_T, fail) with K_T as its exact hex digits."""
    K_T, fail = result
    return (None if K_T is None else K_T.hex()), fail


def assert_same_pass(new, old) -> None:
    """``_paths``'s result ``new`` is the oracle's ``old``, bit for bit;
    an exhausting pass's paths may stop at its fail day."""
    C_path, K_path, fail = new
    C_old, K_old, fail_old = old
    assert fail == fail_old
    if fail is None:
        assert (bits(C_path), bits(K_path)) == (bits(C_old), bits(K_old))
    else:
        assert bits(C_path) == bits(C_old[:fail + 1])
        assert bits(K_path) == bits(K_old[:fail + 1])


# Shooting-bound: records each search pass and each recording pass
def recorded_solve(inputs: PlannerInputs, monkeypatch, oracle: bool = False) -> tuple:
    """``solve(inputs)``, with the oracle's passes as its search and
    recording passes if ``oracle``; returns the solution and the (C_0,
    result) of each search pass and of each recording pass, in order."""
    passes, recordings = [], []

    def recorder(log: list, run):
        def recorded(C0, *rest):
            result = run(C0, *rest)
            log.append((C0, result))
            return result

        return recorded

    monkeypatch.setattr(planner, "_propagate", recorder(passes, oracle_search_pass if oracle else planner._propagate))
    monkeypatch.setattr(planner, "_paths", recorder(recordings, oracle_pass if oracle else planner._paths))
    solution = solve(inputs)
    monkeypatch.undo()
    return solution, passes, recordings


@pytest.fixture(scope="module")
def cases(params, config):
    """The inputs of both baselines and of the 12 seeded interventions."""
    shipped = [config.scenario(scenarios.NO_PANDEMIC), config.scenario(scenarios.NO_INTERVENTION)]
    seeded = [dataclasses.replace(shipped[1], schedule=schedule, name=f"seeded-{i}")
              for i, schedule in enumerate(seeded_schedules(0, 12))]
    return [planner_inputs(scenario, params) for scenario in shipped + seeded]


# Shooting-bound: each pass and each search against its oracle, bit for bit
class TestShootingPassOracle:
    def test_solves_try_the_same_c0_and_match_bitwise(self, cases, monkeypatch):
        for inputs in cases:
            solution, passes, recordings = recorded_solve(inputs, monkeypatch)
            oracle_solution, oracle_passes, oracle_recordings = recorded_solve(inputs, monkeypatch, oracle=True)
            assert [C0 for C0, _ in passes] == [C0 for C0, _ in oracle_passes]
            for (_, new), (_, old) in zip(passes, oracle_passes):
                assert search_key(new) == search_key(old)
            assert [C0 for C0, _ in recordings] == [C0 for C0, _ in oracle_recordings]
            for (_, new), (_, old) in zip(recordings, oracle_recordings):
                assert_same_pass(new, old)
            for name in ("consumption_path", "capital_path", "welfare", "euler_residuals"):
                assert bits(getattr(solution, name)) == bits(getattr(oracle_solution, name)), name

    def test_search_returns_the_oracle_solution_bitwise(self, cases):
        for inputs in cases + [growing_inputs(), flat_inputs(T=200, K0=2.0, terminal=1.5)]:
            solution, oracle_solution = solve(inputs), oracle_solve(inputs)
            for name in ("consumption_path", "capital_path", "welfare", "euler_residuals"):
                assert bits(getattr(solution, name)) == bits(getattr(oracle_solution, name)), name

    def test_exhausting_passes(self, cases):
        inputs = cases[1]
        lists = shooting_lists(inputs)
        resources0 = (1.0 - inputs.delta_daily) * inputs.K0 + lists[0][0] * inputs.K0 ** inputs.alpha - lists[3][0]
        fails = []
        for share in (1.0, 0.999, 0.9, 0.5, 0.1, 0.05, 0.04, 0.03):
            old = oracle_pass(resources0 * share, inputs, *lists)
            assert_same_pass(planner._paths(resources0 * share, inputs, *lists), old)
            fails.append(assert_same_end(resources0 * share, inputs, lists))
        assert fails[0] == 0 and all(fail is not None for fail in fails[:-1])

    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("C0", [1e-12, 0.1, 0.5, 0.9, 1.1, 5.0])
    def test_short_horizons(self, T, C0):
        inputs = flat_inputs(T=T, K0=1.0, hcost=np.full(T, 0.05), shortfall=np.linspace(0.0, 0.2, T))
        lists = shooting_lists(inputs)
        assert_same_pass(planner._paths(C0, inputs, *lists), oracle_pass(C0, inputs, *lists))
        assert_same_end(C0, inputs, lists)

    def test_last_day_ending_at_exactly_zero(self):
        inputs = flat_inputs(T=1, K0=2.0, delta=0.3)
        lists = shooting_lists(inputs)
        C0 = (1.0 - inputs.delta_daily) * inputs.K0 + lists[0][0] * inputs.K0 ** inputs.alpha
        old = oracle_pass(C0, inputs, *lists)
        assert old[1][-1] == 0.0 and old[2] is None  # the stock may end at exactly 0
        assert_same_pass(planner._paths(C0, inputs, *lists), old)
        assert planner._propagate(C0, inputs, *lists) == (0.0, None)
        above = math.nextafter(C0, math.inf)
        assert_same_pass(planner._paths(above, inputs, *lists), oracle_pass(above, inputs, *lists))
        assert assert_same_end(above, inputs, lists) == 0


def assert_same_end(C0: float, inputs: PlannerInputs, lists: tuple):
    """The search pass from C0 ends as the recording pass does, bit for bit:
    ``_propagate``'s (K_T, fail) is ``_paths``'s last capital and fail
    index, K_T None when the stock runs out.  Returns the fail index."""
    _, K_path, fail = planner._paths(C0, inputs, *lists)
    assert search_key(planner._propagate(C0, inputs, *lists)) == search_key(
        ((K_path[-1] if fail is None else None), fail))
    return fail


# Shooting-bound: the recursion is written twice in planner.py, as the
# search pass and as the recording pass; these, with the ``assert_same_end``
# checks in ``TestShootingPassOracle``, keep the two copies together
class TestSearchPassMatchesRecording:
    def test_no_intervention_passes(self, no_intervention_inputs):
        inputs = no_intervention_inputs
        lists = shooting_lists(inputs)
        root = float(solve(inputs).consumption_path[0])
        resources0 = (1.0 - inputs.delta_daily) * inputs.K0 + lists[0][0] * inputs.K0 ** inputs.alpha - lists[3][0]
        starts = (root, math.nextafter(root, math.inf), 1e-12 * resources0, 1.01 * root, 2.0 * root, 0.5 * root)
        fails = [assert_same_end(C0, inputs, lists) for C0 in starts]
        assert fails == [None, None, None, 6573, 755, None]

    def test_cost_spike_fails_on_day_one(self):
        hcost = np.zeros(5)
        hcost[1] = 50.0
        inputs = flat_inputs(T=5, K0=1.0, hcost=hcost, terminal=0.0)
        lists = shooting_lists(inputs)
        assert [assert_same_end(C0, inputs, lists) for C0 in (1e-12, 0.1, 0.5)] == [1, 1, 1]

    def test_loop_day_before_a_last_day_ending_at_exactly_zero(self):
        # day 1's cost is its resources less its consumption, which the
        # doubles hold exactly while consumption is at least half of them,
        # so the stock ends at exactly 0; one ulp more cost runs it out
        free = flat_inputs(T=2, K0=1.0)
        lists = shooting_lists(free)
        C_path, K_path, _ = planner._paths(0.9, free, *lists)
        resources1 = (1.0 - free.delta_daily) * K_path[1] + lists[0][1] * K_path[1] ** free.alpha
        assert resources1 / 2 <= C_path[1] <= resources1
        cost = resources1 - C_path[1]
        for h, expected in ((cost, (0.0, None)), (math.nextafter(cost, math.inf), (None, 1))):
            inputs = dataclasses.replace(free, hcost_path=np.array([0.0, h]))
            lists = shooting_lists(inputs)
            assert planner._propagate(0.9, inputs, *lists) == expected
            assert_same_end(0.9, inputs, lists)


# Shooting-bound: the recording pass runs once per returned solve
class TestRecordingPass:
    def test_once_per_solve_at_the_answer(self, cases, monkeypatch):
        # both baselines and the 12 seeded interventions of ``seeded_solves``
        recorded = count_recordings(monkeypatch)
        for inputs in cases:
            recorded.clear()
            solution = solve(inputs)
            C0 = float(solution.consumption_path[0])
            assert recorded == [C0]
            K_T, fail = planner._propagate(C0, inputs, *shooting_lists(inputs))
            assert fail is None and K_T.hex() == float(solution.capital_path[-1]).hex()

    def test_once_for_an_answer_from_the_probe(self, shooting_case, monkeypatch):
        # with no search pass the probe's C_0 is the answer, recorded once
        recorded = count_recordings(monkeypatch)
        solution = solve(shooting_case, max_iter=0)
        assert recorded == [float(solution.consumption_path[0])]


def oracle_slope(C0: float, inputs: PlannerInputs) -> float:
    """dK_T/dC_0 of the pass from C0, carried through the days as the
    solver once carried it."""
    prodc, _, growu, H = shooting_lists(inputs)
    return oracle_propagate(C0, inputs, prodc, growu, H)[3]


def system_arguments(inputs: PlannerInputs) -> tuple:
    """``_euler_system``'s arguments after K, as ``solve`` passes them."""
    prodc, _, growu, H = (np.array(x) for x in shooting_lists(inputs))
    return prodc, growu, H, inputs.alpha, 1.0 - inputs.delta_daily


def euler_diagonals(K_path: list, inputs: PlannerInputs) -> tuple:
    """The sub- and main diagonals of the Euler Jacobian at ``K_path``, as
    ``solve`` takes them for a full pass's slope."""
    return planner._euler_system(np.array(K_path), *system_arguments(inputs))[1:]


def terminal_slope(C0: float, inputs: PlannerInputs) -> float:
    """``planner._slope`` of the full pass from C0."""
    C_path, K_path, fail = planner._paths(C0, inputs, *shooting_lists(inputs))
    assert fail is None
    return planner._slope(*euler_diagonals(K_path, inputs))


def steady_state_inputs(T: int) -> PlannerInputs:
    """A flat economy whose steady state the recursion keeps exactly, with
    capital 4 and consumption 2**33 - 6 on every day.  MPK is 2**30 - 1/2,
    so dK_T/dC_0 grows about 2**30-fold a day and overflows a double by
    T = 40."""
    return flat_inputs(T=T, A=2.0 ** 32 - 2.0, K0=4.0, beta=2.0 ** -30, alpha=0.5, delta=0.5, terminal=4.0)


STEADY_STATE_C0 = 2.0 ** 33 - 6.0


# Shooting-bound: the slope dK_T/dC_0 of the shooting search, and when it is taken
class TestTerminalSlope:
    # Relative gap to the in-loop recursion.  The Jacobian recovers each
    # C_t from differences of K terms, and K/C is ~3,000 on the long
    # horizons: the largest gap measured over the cases below is 1.1e-10
    # (5.0e-11 on the two baselines); on the short horizons it is 2.2e-16.
    REL_BOUND = 1e-9
    SHORT_REL_BOUND = 1e-15

    def test_matches_the_in_loop_sensitivity(self, cases):
        for inputs in cases:
            root = float(solve(inputs).consumption_path[0])
            for C0 in (root, root * (1.0 - 1e-6), 0.5 * root):
                expected = oracle_slope(C0, inputs)
                assert terminal_slope(C0, inputs) == pytest.approx(expected, rel=self.REL_BOUND, abs=0.0)

    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("C0", [1e-12, 0.1, 0.5, 0.9])
    def test_short_horizons(self, T, C0):
        inputs = flat_inputs(T=T, K0=1.0, hcost=np.full(T, 0.05), shortfall=np.linspace(0.0, 0.2, T))
        expected = oracle_slope(C0, inputs)
        assert terminal_slope(C0, inputs) == pytest.approx(expected, rel=self.SHORT_REL_BOUND, abs=0.0)

    def test_overflow_is_no_slope(self):
        inputs = steady_state_inputs(40)
        assert oracle_slope(STEADY_STATE_C0, inputs) == -math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert terminal_slope(STEADY_STATE_C0, inputs) == 0.0
        # ten days in it is still finite
        short = steady_state_inputs(10)
        assert terminal_slope(STEADY_STATE_C0, short) == pytest.approx(oracle_slope(STEADY_STATE_C0, short),
                                                                     rel=self.REL_BOUND, abs=0.0)

    def test_search_without_a_slope_bisects_to_the_oracle_solution(self, monkeypatch):
        # every slope the search asks for is the overflowing steady-state
        # one, so each step falls back to bisection
        inputs = steady_state_inputs(40)
        lists = shooting_lists(inputs)
        steady = euler_diagonals(planner._paths(STEADY_STATE_C0, inputs, *lists)[1], inputs)
        real = planner._slope
        slopes = []

        def overflowing(sub, main):
            slopes.append(real(*steady))
            return slopes[-1]

        monkeypatch.setattr(planner, "_slope", overflowing)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solution = solve(inputs)
        assert slopes and set(slopes) == {0.0}
        expected = oracle_solve(inputs)
        for name in ("consumption_path", "capital_path", "welfare", "euler_residuals"):
            assert bits(getattr(solution, name)) == bits(getattr(expected, name)), name

    @pytest.fixture(scope="class")
    def counted_solves(self, cases):
        """Per case: the shooting passes of ``solve`` and the slopes it takes
        in its search loop, after the stacked estimate's own; then the
        passes, full passes and loop slopes of the same search with a slope
        from every full pass, carried through the days as the solver once
        did.  A loop slope is recorded as the C_0 of the last full pass."""
        counts = []
        with pytest.MonkeyPatch.context() as mp:
            passes = count_passes(mp)
            full, slopes = [], []
            counted_pass, real_estimate, real_slope = planner._propagate, planner._stacked_estimate, planner._slope

            def recorded(C0, *rest):
                result = counted_pass(C0, *rest)
                full.extend([C0] if result[1] is None else [])
                return result

            def estimate(*args):
                result = real_estimate(*args)
                slopes.clear()  # the estimate's slope is not one the loop took
                return result

            def counted(sub, main):
                slopes.append(full[-1] if full else None)
                return real_slope(sub, main)

            mp.setattr(planner, "_propagate", recorded)
            mp.setattr(planner, "_stacked_estimate", estimate)
            mp.setattr(planner, "_slope", counted)
            for inputs in cases:
                passes.clear()
                slopes.clear()
                full.clear()
                solve(inputs)
                counts.append((len(passes), len(slopes)))
            mp.setattr(planner, "SLOPE_REUSE_MISS", -1.0)  # never reuse a slope
            for n, inputs in enumerate(cases):

                def in_loop(sub, main, inputs=inputs):
                    slopes.append(full[-1] if full else None)
                    return oracle_slope(full[-1], inputs) if full else real_slope(sub, main)

                mp.setattr(planner, "_slope", in_loop)
                passes.clear()
                slopes.clear()
                full.clear()
                solve(inputs)
                counts[n] += (len(passes), full[:], slopes[:])
        return counts

    def test_fresh_slopes_per_solve(self, counted_solves):
        # the stacked estimate's slope serves each of these 14 solves: no
        # full pass misses the target by more than SLOPE_REUSE_MISS
        assert all(slopes == 0 for _, slopes, *_ in counted_solves)

    def test_pass_count_as_with_a_slope_from_every_pass(self, counted_solves):
        for passes, _, every_passes, full, slopes in counted_solves:
            assert slopes == full  # the reference search took a slope at each full pass
            assert passes == every_passes


def finite_difference_diagonals(K: np.ndarray, inputs: PlannerInputs, rel_step: float) -> tuple:
    """The sub- and main diagonals of the Euler residuals' Jacobian at ``K``
    in K_1 .. K_{T-1}, by central differences of ``_euler_system``'s own
    residuals F = -rhs.  Residual t depends on K_t, K_{t+1} and K_{t+2}
    only, so each pass moves every third unknown by ``rel_step`` of itself
    and each row sees one of them moved."""
    args = system_arguments(inputs)
    n = len(K) - 2
    rows = np.arange(n)
    sub, main = np.full(n, np.nan), np.full(n, np.nan)
    for r in range(3):
        moved = rows[r::3] + 1  # unknown j is K_{j+1}
        up, down = K.copy(), K.copy()
        up[moved] += rel_step * K[moved]
        down[moved] -= rel_step * K[moved]
        dF = planner._euler_system(down, *args)[0] - planner._euler_system(up, *args)[0]
        width = up - down  # the step as the doubles hold it
        on = rows % 3 == r  # rows whose K_{t+1} moved
        main[on] = dF[on] / width[rows[on] + 1]
        below = (rows % 3 == (r + 1) % 3) & (rows > 0)  # rows whose K_t moved
        sub[below] = dF[below] / width[rows[below]]
    return sub, main


@pytest.fixture(scope="module")
def jacobian_cases(params, config):
    """(inputs, capital path) pairs: both baselines' inputs as
    ``run_scenario`` builds them and a flat economy with direct costs and a
    shortfall, each at its solved path and at that path moved by a seeded
    1% (5% on the flat economy) on every day."""
    rng = np.random.default_rng(0)
    flat = flat_inputs(T=60, K0=1.0, hcost=np.full(60, 0.05), shortfall=np.linspace(0.0, 0.2, 60))
    pairs = []
    for inputs, scale in ((planner_inputs(config.scenario(scenarios.NO_PANDEMIC), params), 0.01),
                          (planner_inputs(config.scenario(scenarios.NO_INTERVENTION), params), 0.01),
                          (flat, 0.05)):
        K = solve(inputs).capital_path
        moved = K * (1.0 + scale * rng.standard_normal(len(K)))
        moved[0], moved[-1] = K[0], K[-1]
        pairs += [(inputs, K), (inputs, moved)]
    return pairs


class TestEulerJacobian:
    # Relative gap between ``_euler_system``'s diagonals and central
    # differences with steps of 1e-5 of each K: the largest measured over
    # these cases is 1.9e-11 (1.7e-11 on the flat economy), from the
    # rounding of residuals that are differences of terms near C.  The
    # (alpha - 1) term moves the main diagonal by about 1.5e-7 relative on
    # the baselines, so the bound must lie well below that.
    REL_STEP = 1e-5
    REL_BOUND = 1e-10

    def test_diagonals_match_central_differences(self, jacobian_cases):
        for inputs, K in jacobian_cases:
            _, sub, main = planner._euler_system(K, *system_arguments(inputs))
            fd_sub, fd_main = finite_difference_diagonals(K, inputs, self.REL_STEP)
            assert not np.isnan(fd_main).any() and not np.isnan(fd_sub[1:]).any()
            # sub[0] is the derivative in the fixed K_0, which no solve reads
            assert np.max(np.abs(fd_main / main - 1.0)) < self.REL_BOUND
            assert np.max(np.abs(fd_sub[1:] / sub[1:] - 1.0)) < self.REL_BOUND


@pytest.fixture(scope="module")
def optimality_cases(params, config):
    """(inputs, solution, euler_tol) for both baselines and the first 5
    seed-0 scenario-loop interventions, the inputs as ``run_scenario``
    builds them."""
    runs = [config.scenario(scenarios.NO_PANDEMIC), config.scenario(scenarios.NO_INTERVENTION)]
    runs += [dataclasses.replace(runs[1], schedule=schedule, name=f"seeded-{i}")
             for i, schedule in enumerate(seeded_schedules(0, 5))]
    return [(inputs, solve(inputs), params.euler_tol)
            for inputs in (planner_inputs(scenario, params) for scenario in runs)]


class TestPlannerOptimality:
    """The model's optimality conditions on the shipped model's solves,
    whatever the method: the Euler equation, the terminal target and the
    budget.  Measured over these 7 solves: the largest Euler residual is
    6.7e-16 and K_T lies 1.3e-13 to 1.2e-11 above its target."""

    RESIDUAL_BOUND = 1e-14
    TERMINAL_BOUND = 1e-10

    def test_euler_residuals(self, optimality_cases):
        for inputs, solution, euler_tol in optimality_cases:
            T, alpha = inputs.horizon, inputs.alpha
            C, K = solution.consumption_path, solution.capital_path
            p, A, L, N = (np.asarray(x, dtype=float) for x in (
                inputs.shortfall_path, inputs.tfp_path, inputs.labor_path, inputs.pop_path))
            mpk = alpha * (1.0 - p[1:]) * A[1:] * K[1:T] ** (alpha - 1.0) * L[1:] ** (1.0 - alpha)
            growth = (C[1:] / N[1:]) / (C[:-1] / N[:-1])
            largest = np.max(np.abs(growth / (inputs.beta_daily * (1.0 - inputs.delta_daily + mpk)) - 1.0))
            assert largest <= euler_tol and largest <= self.RESIDUAL_BOUND

    def test_terminal_capital_reaches_the_target(self, optimality_cases):
        for inputs, solution, _ in optimality_cases:
            target = balanced_path_terminal_capital(inputs)
            assert 0.0 <= solution.capital_path[-1] / target - 1.0 <= self.TERMINAL_BOUND

    def test_budget_holds_exactly(self, optimality_cases):
        # K_{t+1} = (1 - delta)*K_t + pc_t*K_t**alpha - H_t - C_t, in float
        # order, with pc_t = (1 - p_t)*A_t*L_t**(1 - alpha)
        for inputs, solution, _ in optimality_cases:
            prodc, _, _, H = shooting_lists(inputs)
            omd, alpha = 1.0 - inputs.delta_daily, inputs.alpha
            K, C = solution.capital_path.tolist(), solution.consumption_path.tolist()
            assert len(K) == len(C) + 1 == inputs.horizon + 1
            for t, (pc, h, c) in enumerate(zip(prodc, H, C)):
                assert K[t + 1] == omd * K[t] + pc * K[t] ** alpha - h - c, t


def recorded_estimates(monkeypatch) -> list:
    """Record each (C_0, slope) that ``planner._stacked_estimate`` returns."""
    estimates = []
    real = planner._stacked_estimate

    def recorded(*args):
        estimates.append(real(*args))
        return estimates[-1]

    monkeypatch.setattr(planner, "_stacked_estimate", recorded)
    return estimates


@pytest.fixture(scope="module")
def no_intervention_oracle(no_intervention_inputs):
    return oracle_solve(no_intervention_inputs)


class TestStackedEstimate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 1000])
    def test_cyclic_reduction_matches_a_dense_solve(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            # strictly diagonally dominant, with a_0 and c_{n-1} set to
            # values that the solve must ignore
            a, c, d = rng.uniform(-1.0, 1.0, (3, n))
            b = (np.abs(a) + np.abs(c) + rng.uniform(0.1, 1.0, n)) * rng.choice([-1.0, 1.0], n)
            a[0], c[-1] = 1e6, -1e6
            dense = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
            expected = np.linalg.solve(dense, d)
            x = planner._solve_tridiagonal(a, b, c, d)
            assert x.shape == (n,)
            np.testing.assert_allclose(x, expected, rtol=1e-12, atol=1e-12)

    # Shooting-bound: the estimate's C_0 and shooting slope
    def test_estimate_lies_at_the_root(self, cases, monkeypatch):
        # measured 4 and 2 ulps on the baselines, at most 68 over both
        # baselines and 200 seeded interventions; the slope, taken from the
        # last Newton step's Jacobian, lay at most 2.9e-10 from the root's
        estimates = recorded_estimates(monkeypatch)
        for inputs in cases:
            root = float(solve(inputs).consumption_path[0])
            C0, slope = estimates[-1]
            assert abs(C0 - root) <= 128 * math.ulp(root)
            assert slope == pytest.approx(oracle_slope(root, inputs), rel=1e-8, abs=0.0)
        assert len(estimates) == len(cases)

    # Shooting-bound: the step down from an exhausting pass
    @pytest.mark.parametrize("T", [200, 400])
    def test_exhausting_estimate_steps_down(self, T, monkeypatch):
        # the estimate lies 12 and 16 ulps above the root, and its pass runs
        # out of stock; bisecting up from the cold bracket's low end took 54
        inputs = flat_inputs(T=T, K0=2.0, terminal=1.5)
        solution, passes, _ = recorded_solve(inputs, monkeypatch)
        assert passes[0][1][1] is not None
        assert len(passes) <= 10
        expected = oracle_solve(inputs)
        for name in ("consumption_path", "capital_path", "welfare", "euler_residuals"):
            assert bits(getattr(solution, name)) == bits(getattr(expected, name)), name

    # Shooting-bound: the search from a rejected estimate
    @pytest.mark.parametrize("estimate", ["nan", "C_lo", "C_hi", "exhausting", "exhausting-near", "C_hi-sloped"])
    def test_rejected_estimate_gives_the_oracle_solution(self, no_intervention_inputs, no_intervention_oracle,
                                                         monkeypatch, estimate):
        # an estimate with no slope, or outside the open bracket even with
        # one, cannot start the search: the probe at C_lo runs first.  C_0
        # is about 0.001 of the day-0 resources, so both exhausting
        # estimates, and the cold bracket's midpoint, lie far above it
        inputs = no_intervention_inputs
        prodc, _, _, H = shooting_lists(inputs)
        resources0 = (1.0 - inputs.delta_daily) * inputs.K0 + prodc[0] * inputs.K0 ** inputs.alpha - H[0]
        C_lo = 1e-12 * resources0
        value = {"nan": math.nan, "C_lo": C_lo, "C_hi": resources0, "C_hi-sloped": resources0,
                 "exhausting": 0.5 * resources0, "exhausting-near": 0.01 * resources0}[estimate]
        root = float(no_intervention_oracle.consumption_path[0])
        slope = oracle_slope(root, inputs) if estimate.endswith("sloped") else 0.0
        monkeypatch.setattr(planner, "_stacked_estimate", lambda *args: (value, slope))
        solution, passes, _ = recorded_solve(inputs, monkeypatch)
        assert passes[0] == (C_lo, planner._propagate(C_lo, inputs, *shooting_lists(inputs)))
        second_C0, second = passes[1]
        if estimate.startswith("exhausting"):
            assert second_C0 == value and second[1] is not None
        else:
            assert second_C0 == 0.5 * (C_lo + resources0)  # the cold bracket's midpoint
        assert len(passes) <= 30
        for name in ("consumption_path", "capital_path", "welfare", "euler_residuals"):
            assert bits(getattr(solution, name)) == bits(getattr(no_intervention_oracle, name)), name

    # Shooting-bound: passes from a far start
    def test_far_start_takes_two_passes(self, monkeypatch):
        # from K_0 = 0.01 to a target of 5 Newton needs 10 steps; with the
        # cap at 8 the estimate lay 1.3e-6 off with no slope, and the solve
        # took 48 passes
        inputs = flat_inputs(T=200, K0=0.01, terminal=5.0)
        solution, passes, _ = recorded_solve(inputs, monkeypatch)
        assert len(passes) <= 2
        expected = oracle_solve(inputs)
        for name in ("consumption_path", "capital_path", "welfare", "euler_residuals"):
            assert bits(getattr(solution, name)) == bits(getattr(expected, name)), name

    # Shooting-bound: no shooting slope from an unconverged estimate
    def test_unconverged_newton_offers_no_slope(self, monkeypatch):
        # from K_0 = 0.01 to a target of 5, Newton's eighth update is still
        # 9.6e-4 relative (it needs 10 steps): with the cap at 8 the C_0 is
        # finite, but a slope off the Euler path is not offered, and the
        # first full pass takes its own
        monkeypatch.setattr(planner, "NEWTON_STEPS", 8)
        inputs = flat_inputs(T=200, K0=0.01, terminal=5.0)
        estimates = recorded_estimates(monkeypatch)
        solution = solve(inputs)
        C0, slope = estimates[0]
        assert math.isfinite(C0) and slope == 0.0
        expected = oracle_solve(inputs)
        for name in ("consumption_path", "capital_path", "welfare", "euler_residuals"):
            assert bits(getattr(solution, name)) == bits(getattr(expected, name)), name

    # Shooting-bound: the search after a failed estimate, against the oracle
    @pytest.mark.parametrize("terminal", [0.0, -1.0, 1e300])
    def test_failed_newton_warns_of_nothing(self, terminal, monkeypatch):
        # a target of 0 or below has no geometric start path, and 1e300 is
        # unreachable; warnings are errors here, and the search ends as
        # the oracle's does
        inputs = flat_inputs(T=50, K0=1.0, terminal=terminal)
        estimates = recorded_estimates(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if terminal > 1.0:
                with pytest.raises(InfeasiblePlanError, match="unreachable"):
                    solve(inputs)
                return
            solution = solve(inputs)
        C0, slope = estimates[0]
        assert math.isnan(C0) and slope == 0.0
        expected = oracle_solve(inputs)
        for name in ("consumption_path", "capital_path", "welfare", "euler_residuals"):
            assert bits(getattr(solution, name)) == bits(getattr(expected, name)), name
