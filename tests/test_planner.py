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
        start_date=date(2020, 1, 1),
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
        start_date=date(2020, 1, 1),
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
            terminal_capital=None, start_date=base.start_date,
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
def no_intervention_inputs(params):
    return planner_inputs(scenarios.no_intervention_scenario(), params)


@pytest.fixture(params=["growing", "no-intervention"])
def shooting_case(request):
    if request.param == "growing":
        return growing_inputs()
    return request.getfixturevalue("no_intervention_inputs")


def count_passes(monkeypatch) -> list:
    """Record, per call of the solver's per-pass function, the days it ran:
    the horizon, or up to the day the stock runs out.  Its length is the
    number of passes."""
    days = []
    real = planner._propagate

    def counted(C0, inputs, *rest):
        result = real(C0, inputs, *rest)
        fail = result[2]
        days.append(inputs.horizon if fail is None else fail + 1)
        return result

    monkeypatch.setattr(planner, "_propagate", counted)
    return days


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


@pytest.fixture(scope="module")
def seeded_solves(params):
    """(inputs, solution, pass-days in horizons) for 12 seeded interventions."""
    cases = [planner_inputs(scenarios.no_intervention_scenario(schedule=schedule, name=f"seeded-{i}"),
                            params)
             for i, schedule in enumerate(seeded_schedules(0, 12))]
    solves = []
    with pytest.MonkeyPatch.context() as mp:
        days = count_passes(mp)
        for inputs in cases:
            days.clear()
            solves.append((inputs, solve(inputs), sum(days) / inputs.horizon))
    return solves


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

    def test_pass_days_per_solve(self, seeded_solves, params, monkeypatch):
        # pass-days in horizons; from the stacked estimate every pass runs
        # to the horizon, and the seeded mean is 4.25, the no-pandemic solve
        # 5; from the cold bracket they are 16.6 and 19.3
        assert statistics.mean(horizons for *_, horizons in seeded_solves) <= 5
        inputs = planner_inputs(scenarios.no_pandemic_scenario(), params)
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
            reached.append(result[2] is None and result[1][-1] >= target)
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

    def test_infeasible_cost_spike_reports_first_date(self):
        hcost = np.zeros(5)
        hcost[1] = 50.0  # far beyond anything output plus capital can cover
        inputs = flat_inputs(T=5, K0=1.0, hcost=hcost, terminal=0.0)
        with pytest.raises(InfeasiblePlanError) as err:
            solve(inputs)
        assert err.value.day_index == 1
        assert err.value.day == date(2020, 1, 2)

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

    @pytest.mark.parametrize("case", ["unreachable-target", "cost-spike"])
    def test_infeasible_inputs_stay_bounded(self, no_intervention_inputs, monkeypatch, case):
        if case == "unreachable-target":
            inputs = dataclasses.replace(no_intervention_inputs, terminal_capital=1e20)
        else:
            hcost = np.array(no_intervention_inputs.hcost_path, dtype=float)
            hcost[14_000] += 1e16
            inputs = dataclasses.replace(no_intervention_inputs, hcost_path=hcost)
        with pytest.raises(InfeasiblePlanError) as expected:
            oracle_solve(inputs)
        passes = count_passes(monkeypatch)
        with pytest.raises(InfeasiblePlanError) as err:
            solve(inputs)
        assert (err.value.day_index, str(err.value)) == (expected.value.day_index, str(expected.value))
        assert len(passes) <= 25

    def test_path_length_mismatch_rejected(self):
        inputs = PlannerInputs(
            labor_path=np.ones(5), pop_path=np.ones(4), tfp_path=np.ones(5),
            hcost_path=np.zeros(5), shortfall_path=np.zeros(5),
            K0=1.0, beta_daily=0.99, alpha=0.3, delta_daily=0.1,
        )
        with pytest.raises(ValueError):
            solve(inputs)


class TestTruncationSensitivity:
    def test_2030_consumption_insensitive_to_horizon(self, params):
        short = scenarios.run_scenario(
            scenarios.no_pandemic_scenario(horizon=date(2050, 12, 31)), params
        )
        long = scenarios.run_scenario(
            scenarios.no_pandemic_scenario(horizon=date(2060, 12, 31)), params
        )
        idx = short.index_of(date(2030, 12, 31))
        assert long.C[idx] == pytest.approx(short.C[idx], rel=1e-3)

    @pytest.mark.parametrize("year", [2070, 2080])
    @pytest.mark.parametrize("which", [0, 1], ids=["no-pandemic", "no-intervention"])
    def test_window_insensitive_to_a_later_horizon(self, params, baselines, which, year):
        # The terminal condition must not distort the reported window: moved
        # from 2060 to 2070 or 2080, window C, K and Y moved by at most 2.0e-6
        # relative (measured), whatever the solver; the epidemic ignores the
        # horizon altogether
        scenario = (scenarios.no_pandemic_scenario, scenarios.no_intervention_scenario)[which]
        base = baselines[which]
        moved = scenarios.run_scenario(scenario(horizon=date(year, 12, 31)), params)
        assert moved.days == base.days
        for name in ("C", "K", "Y"):
            np.testing.assert_allclose(getattr(moved, name), getattr(base, name), rtol=1e-5, atol=0.0, err_msg=name)
        for name in ("N", "S", "I", "R", "D"):
            assert bits(getattr(moved, name)) == bits(getattr(base, name)), name


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


def oracle_solve(inputs: PlannerInputs, *, rel_tol: float = 0.0, max_iter: int = 200) -> PlannerSolution:
    """The search as the solver once ran it, from the cold bracket with the
    feasibility probe first and Newton steps on K_T: ``planner.solve`` must
    return the same solution bit for bit, and raise the same errors."""
    inputs.validate()
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
    if resources0 <= 0:
        raise InfeasiblePlanError(0, inputs._date_at(0), "day-0 resources are exhausted by direct costs")

    # Feasibility probe: near-zero consumption maximises the capital path.
    C_lo = 1e-12 * resources0
    C_best, K_best, fail, slope = oracle_propagate(C_lo, inputs, prodc, growu, H)
    if fail is not None:
        raise InfeasiblePlanError(
            fail, inputs._date_at(fail), "direct costs exceed available resources even at zero consumption"
        )
    if K_best[T] < K_target:
        raise InfeasiblePlanError(
            T, inputs._date_at(T), f"terminal capital target {K_target:.6g} is unreachable"
        )

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


def oracle_pass(C0: float, inputs: PlannerInputs, prodc: list, apc: list, growu: list, H: list):
    """``oracle_propagate`` called with ``_propagate``'s arguments and
    returning what it returns: the paths and the fail index.  It ignores
    ``apc``."""
    return oracle_propagate(C0, inputs, prodc, growu, H)[:3]


def assert_same_pass(new, old) -> None:
    """``_propagate``'s result ``new`` is the oracle's ``old``, bit for bit;
    an exhausting pass's paths may stop at its fail day."""
    C_path, K_path, fail = new
    C_old, K_old, fail_old = old
    assert fail == fail_old
    if fail is None:
        assert (bits(C_path), bits(K_path)) == (bits(C_old), bits(K_old))
    else:
        assert bits(C_path) == bits(C_old[:fail + 1])
        assert bits(K_path) == bits(K_old[:fail + 1])


def recorded_solve(inputs: PlannerInputs, propagate, monkeypatch) -> tuple:
    """``solve(inputs)`` with ``propagate`` as its shooting pass; returns the
    solution and the (C_0, result) of each pass, in order."""
    passes = []

    def recorded(C0, *rest):
        result = propagate(C0, *rest)
        passes.append((C0, result))
        return result

    monkeypatch.setattr(planner, "_propagate", recorded)
    solution = solve(inputs)
    monkeypatch.undo()
    return solution, passes


@pytest.fixture(scope="module")
def cases(params):
    """The inputs of both baselines and of the 12 seeded interventions."""
    shipped = [scenarios.no_pandemic_scenario(), scenarios.no_intervention_scenario()]
    seeded = [scenarios.no_intervention_scenario(schedule=schedule, name=f"seeded-{i}")
              for i, schedule in enumerate(seeded_schedules(0, 12))]
    return [planner_inputs(scenario, params) for scenario in shipped + seeded]


class TestShootingPassOracle:
    def test_solves_try_the_same_c0_and_match_bitwise(self, cases, monkeypatch):
        real = planner._propagate
        for inputs in cases:
            solution, passes = recorded_solve(inputs, real, monkeypatch)
            oracle_solution, oracle_passes = recorded_solve(inputs, oracle_pass, monkeypatch)
            assert [C0 for C0, _ in passes] == [C0 for C0, _ in oracle_passes]
            for (_, new), (_, old) in zip(passes, oracle_passes):
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
            assert_same_pass(planner._propagate(resources0 * share, inputs, *lists), old)
            fails.append(old[2])
        assert fails[0] == 0 and all(fail is not None for fail in fails[:-1])

    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("C0", [1e-12, 0.1, 0.5, 0.9, 1.1, 5.0])
    def test_short_horizons(self, T, C0):
        inputs = flat_inputs(T=T, K0=1.0, hcost=np.full(T, 0.05), shortfall=np.linspace(0.0, 0.2, T))
        lists = shooting_lists(inputs)
        assert_same_pass(planner._propagate(C0, inputs, *lists), oracle_pass(C0, inputs, *lists))

    def test_last_day_ending_at_exactly_zero(self):
        inputs = flat_inputs(T=1, K0=2.0, delta=0.3)
        lists = shooting_lists(inputs)
        C0 = (1.0 - inputs.delta_daily) * inputs.K0 + lists[0][0] * inputs.K0 ** inputs.alpha
        old = oracle_pass(C0, inputs, *lists)
        assert old[1][-1] == 0.0 and old[2] is None  # the stock may end at exactly 0
        assert_same_pass(planner._propagate(C0, inputs, *lists), old)
        above = math.nextafter(C0, math.inf)
        assert_same_pass(planner._propagate(above, inputs, *lists), oracle_pass(above, inputs, *lists))


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
    C_path, K_path, fail = planner._propagate(C0, inputs, *shooting_lists(inputs))
    assert fail is None
    return planner._slope(*euler_diagonals(K_path, inputs))


def steady_state_inputs(T: int) -> PlannerInputs:
    """A flat economy whose steady state the recursion keeps exactly, with
    capital 4 and consumption 2**33 - 6 on every day.  MPK is 2**30 - 1/2,
    so dK_T/dC_0 grows about 2**30-fold a day and overflows a double by
    T = 40."""
    return flat_inputs(T=T, A=2.0 ** 32 - 2.0, K0=4.0, beta=2.0 ** -30, alpha=0.5, delta=0.5, terminal=4.0)


STEADY_STATE_C0 = 2.0 ** 33 - 6.0


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
        steady = euler_diagonals(planner._propagate(STEADY_STATE_C0, inputs, *lists)[1], inputs)
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
                full.extend([C0] if result[2] is None else [])
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
def jacobian_cases(params):
    """(inputs, capital path) pairs: both baselines' inputs as
    ``run_scenario`` builds them and a flat economy with direct costs and a
    shortfall, each at its solved path and at that path moved by a seeded
    1% (5% on the flat economy) on every day."""
    rng = np.random.default_rng(0)
    flat = flat_inputs(T=60, K0=1.0, hcost=np.full(60, 0.05), shortfall=np.linspace(0.0, 0.2, 60))
    pairs = []
    for inputs, scale in ((planner_inputs(scenarios.no_pandemic_scenario(), params), 0.01),
                          (planner_inputs(scenarios.no_intervention_scenario(), params), 0.01),
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
def optimality_cases(params):
    """(inputs, solution, euler_tol) for both baselines and the first 5
    seed-0 scenario-loop interventions, the inputs as ``run_scenario``
    builds them."""
    runs = [scenarios.no_pandemic_scenario(), scenarios.no_intervention_scenario()]
    runs += [scenarios.no_intervention_scenario(schedule=schedule, name=f"seeded-{i}")
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

    @pytest.mark.parametrize("T", [200, 400])
    def test_exhausting_estimate_steps_down(self, T, monkeypatch):
        # the estimate lies 12 and 16 ulps above the root, and its pass runs
        # out of stock; bisecting up from the cold bracket's low end took 54
        inputs = flat_inputs(T=T, K0=2.0, terminal=1.5)
        solution, passes = recorded_solve(inputs, planner._propagate, monkeypatch)
        assert passes[0][1][2] is not None
        assert len(passes) <= 10
        expected = oracle_solve(inputs)
        for name in ("consumption_path", "capital_path", "welfare", "euler_residuals"):
            assert bits(getattr(solution, name)) == bits(getattr(expected, name)), name

    @pytest.mark.parametrize("estimate", ["nan", "C_lo", "C_hi", "exhausting", "exhausting-near"])
    def test_rejected_estimate_gives_the_oracle_solution(self, no_intervention_inputs, no_intervention_oracle,
                                                         monkeypatch, estimate):
        # C_0 is about 0.001 of the day-0 resources, so both exhausting
        # estimates, and the cold bracket's midpoint, lie far above it; with
        # the step down from an exhausting pass doubled from 64 ulps each
        # time, 0.5 and 0.01 of the resources took 51 and 50 passes
        inputs = no_intervention_inputs
        prodc, _, _, H = shooting_lists(inputs)
        resources0 = (1.0 - inputs.delta_daily) * inputs.K0 + prodc[0] * inputs.K0 ** inputs.alpha - H[0]
        value = {"nan": math.nan, "C_lo": 1e-12 * resources0, "C_hi": resources0,
                 "exhausting": 0.5 * resources0, "exhausting-near": 0.01 * resources0}[estimate]
        monkeypatch.setattr(planner, "_stacked_estimate", lambda *args: (value, 0.0))
        solution, passes = recorded_solve(inputs, planner._propagate, monkeypatch)
        first_C0, first = passes[0]
        if estimate.startswith("exhausting"):
            assert first_C0 == value and first[2] is not None
        else:
            assert first_C0 == 0.5 * (1e-12 * resources0 + resources0)  # the cold bracket's midpoint
        assert len(passes) <= 30
        for name in ("consumption_path", "capital_path", "welfare", "euler_residuals"):
            assert bits(getattr(solution, name)) == bits(getattr(no_intervention_oracle, name)), name

    def test_far_start_takes_two_passes(self, monkeypatch):
        # from K_0 = 0.01 to a target of 5 Newton needs 10 steps; with the
        # cap at 8 the estimate lay 1.3e-6 off with no slope, and the solve
        # took 48 passes
        inputs = flat_inputs(T=200, K0=0.01, terminal=5.0)
        solution, passes = recorded_solve(inputs, planner._propagate, monkeypatch)
        assert len(passes) <= 2
        expected = oracle_solve(inputs)
        for name in ("consumption_path", "capital_path", "welfare", "euler_residuals"):
            assert bits(getattr(solution, name)) == bits(getattr(expected, name)), name

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
