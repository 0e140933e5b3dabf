"""Finite-horizon social planner: optimal consumption against exogenous paths.

The epidemic does not respond to consumption, so a scenario reduces to a
deterministic one-state problem: choose daily consumption C_t to maximise

    sum_t beta**t * N_t * ln(C_t / N_t)

subject to K_{t+1} = (1 - delta)*K_t + Y_t - C_t - H_t, K_0 given, and a
pinned terminal capital stock.  Y_t is Cobb-Douglas in K_t and the given
labor path, scaled by the policy shortfall.

The two-point boundary problem is solved by shooting on initial
consumption: the interior first-order condition

    (C_{t+1}/N_{t+1}) / (C_t/N_t) = beta * (1 - delta + MPK_{t+1})

propagates the whole path from C_0, and the terminal stock K_T is strictly
decreasing in C_0.  A pass computes the paths alone.  The slope dK_T/dC_0
of a full pass comes afterwards from its recorded paths
(``_terminal_slope``): day t maps the forward sensitivities (dK_t, dC_t)
to day t + 1's through a 2x2 matrix that the paths give, and numpy
multiplies the T - 1 matrices pairwise.  Near the root the slope hardly
changes, so a full pass that misses the target by at most SLOPE_REUSE_MISS
of it keeps the last slope; over 62 shipped-model solves a solve computed
2 to 4 slopes for about 23.5 passes.  The boundary condition is closed by
bracketed Newton iteration (rtsafe, Press et al., Numerical Recipes, sec.
9.4): the bracket [C_lo, C_hi] starts as [1e-12 * R_0, R_0], with R_0 the
day-0 resources.  C_hi is the lowest C_0 seen to exhaust the stock or
undershoot the target, C_lo the highest seen to reach it (the initial end
until one has).  A Newton step is taken from the last pass that did not
exhaust the stock, and bisection replaces any step that is not finite (as
when no finite slope is known) or leaves the open bracket.  The step is
Newton's on K_T**2 - K_target**2 rather than on K_T - K_target,

    C_0' = x - (K_x - K_target) / K_x' * (K_x + K_target) / (2 * K_x),

for the pass at x with terminal stock K_x and slope K_x'.  Near the root
the secant slope of K_T**2 varies about 1% over C_0 +- 1e-5 (relative) in
the no-pandemic solve, that of K_T about 20%, so the step lands closer:
over 62 shipped-model solves a solve's passes ran 9.6 horizons of days,
against 10.3 with the step on K_T.  Iteration stops when no double lies
strictly between the two ends, so C_0 is the largest double that still
reaches the target, whichever points the search visited.  Paths produced
this way satisfy the Euler condition exactly by construction, so the
residual diagnostics sit at rounding level.

The feasibility probe, a pass at C_lo = 1e-12 * R_0 (near-zero consumption
maximises the capital path), runs only while no pass has reached the
target: after PROBE_AFTER search passes, or after the search ends.  It
raises InfeasiblePlanError with the day the stock runs out or with an
unreachable target; otherwise its path is the answer until a search pass
reaches the target.  On the shipped model the search reaches it within
PROBE_AFTER passes, so the probe never runs, and infeasible inputs cost
at most PROBE_AFTER + 1 passes.

A pass (``_propagate``) is one loop over days 0 to T - 2, zipping each
day's production constant and cost with alpha times the next day's
production constant (``apc``, built once per solve) and the utility growth
factor, so no day indexes a list.  The last day is peeled off after the
loop: it has no next day, and its stock may end at exactly 0, where any
earlier day's stock must stay positive.

Forward shooting on a saddle path is badly conditioned (Judd 1998,
Numerical Methods in Economics; Brunner & Strulik 2002, JEDC 26):
a C_0 above the stable path's C_b leaves it at the unstable rate lam, so
the gap grows like (C_0 - C_b)*exp(lam*t) and exhausts the stock on a day
t_f with C_0 ~ C_b + b*exp(-lam*t_f).  Far above the root, where Newton
steps overshoot into exhaustion, bisection alone spends many long passes
closing in.  So after an exhausting pass the last three exhausting passes'
(t_f, C_0) are fitted to that curve, and the next pass tries the C_0 it
predicts would run out EXHAUSTION_LEAD_DAYS after the horizon; the Newton
step or the midpoint is used when there are fewer than three such passes,
the fit has no decaying solution, or its C_0 leaves the open bracket.  The
bracket and the stop rule are the same either way, so the step changes how
many days the passes run, not the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as _date
from datetime import timedelta

import numpy as np


class InfeasiblePlanError(RuntimeError):
    """Positive consumption is impossible from some day onward."""

    def __init__(self, day_index: int, day: _date | None, reason: str):
        self.day_index = day_index
        self.day = day
        when = f"{day.isoformat()} (day {day_index})" if day is not None else f"day {day_index}"
        super().__init__(f"infeasible at {when}: {reason}")


@dataclass(frozen=True)
class PlannerInputs:
    """Exogenous daily paths (all length T) and scalar problem data."""

    labor_path: np.ndarray      # working persons, S_t + R_t
    pop_path: np.ndarray        # living persons, N_t
    tfp_path: np.ndarray        # A_t
    hcost_path: np.ndarray      # direct pandemic cost, USD/day
    shortfall_path: np.ndarray  # active policy shortfall p_t
    K0: float
    beta_daily: float
    alpha: float
    delta_daily: float
    terminal_capital: float | None = None  # None: balanced-path level at the horizon
    start_date: _date | None = None

    @property
    def horizon(self) -> int:
        return len(self.labor_path)

    def validate(self) -> None:
        T = self.horizon
        for name in ("pop_path", "tfp_path", "hcost_path", "shortfall_path"):
            if len(getattr(self, name)) != T:
                raise ValueError(f"{name} has length {len(getattr(self, name))}, expected {T}")
        if T < 1:
            raise ValueError("horizon must be at least one day")
        for name in ("labor_path", "pop_path", "tfp_path", "hcost_path", "shortfall_path"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite everywhere")
        if not (0.0 < self.beta_daily < 1.0):
            raise ValueError(f"beta_daily must lie in (0, 1), got {self.beta_daily!r}")
        if not (0.0 < self.K0 < math.inf):
            raise ValueError(f"K0 must be finite and > 0, got {self.K0!r}")
        if self.terminal_capital is not None and not math.isfinite(self.terminal_capital):
            raise ValueError(f"terminal_capital must be finite, got {self.terminal_capital!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        # delta == 1 is allowed for degenerate single-period setups
        if not (0.0 <= self.delta_daily <= 1.0):
            raise ValueError(f"delta_daily must lie in [0, 1], got {self.delta_daily!r}")
        if np.any(np.asarray(self.labor_path) < 0):
            raise ValueError("labor path must be nonnegative")
        if np.any(np.asarray(self.pop_path) <= 0):
            raise ValueError("population path must be positive")
        if np.any(np.asarray(self.hcost_path) < 0):
            raise ValueError("cost path must be nonnegative")
        sp = np.asarray(self.shortfall_path)
        if np.any((sp < 0) | (sp >= 1)):
            raise ValueError("shortfall path must lie in [0, 1)")

    def _date_at(self, index: int) -> _date | None:
        if self.start_date is None:
            return None
        return self.start_date + timedelta(days=index)


@dataclass(frozen=True)
class PlannerSolution:
    consumption_path: np.ndarray   # length T
    capital_path: np.ndarray       # length T + 1, includes terminal stock
    welfare: float
    euler_residuals: np.ndarray    # length T - 1, interior dates


def welfare(consumption_path, pop_path, beta_daily: float) -> float:
    """Truncated discounted sum of population-weighted log utility."""
    C = np.asarray(consumption_path, dtype=float)
    N = np.asarray(pop_path, dtype=float)
    if np.any(C <= 0):
        raise ValueError("consumption must be positive everywhere")
    t = np.arange(len(C))
    return float(np.sum(beta_daily ** t * N * np.log(C / N)))


def balanced_path_terminal_capital(inputs: PlannerInputs) -> float:
    """Capital level at the horizon on the no-shock balanced path.

    Uses the modified golden rule with the horizon's labor, TFP and
    per-capita consumption growth: MPK* = (1 + gx)/beta - (1 - delta).
    """
    T = inputs.horizon
    alpha = inputs.alpha
    A_end = float(inputs.tfp_path[T - 1])
    L_end = float(inputs.labor_path[T - 1])
    p_end = float(inputs.shortfall_path[T - 1])
    if T >= 2 and inputs.tfp_path[T - 2] > 0:
        g = float(inputs.tfp_path[T - 1]) / float(inputs.tfp_path[T - 2]) - 1.0
    else:
        g = 0.0
    gx = (1.0 + g) ** (1.0 / (1.0 - alpha)) - 1.0
    mpk_star = (1.0 + gx) / inputs.beta_daily - (1.0 - inputs.delta_daily)
    if L_end == 0.0:
        return 0.0
    return L_end * (alpha * (1.0 - p_end) * A_end / mpk_star) ** (1.0 / (1.0 - alpha))


def _propagate(C0: float, inputs: PlannerInputs, prodc: list, apc: list, growu: list, H: list):
    """Shoot the Euler/budget recursion forward from C_0.

    Returns (consumption list, capital list incl. terminal, fail index or
    None).  A fail index marks the first day the stock would be exhausted;
    such a pass has no terminal stock, and its paths stop at that day.  The
    paths are lists of plain floats, so the loop does no numpy scalar
    arithmetic; ``apc`` holds alpha times the next day's production
    constant, so MPK is one product and one division.  The module docstring
    gives the loop's shape.
    """
    alpha = inputs.alpha
    omd = 1.0 - inputs.delta_daily

    K = float(inputs.K0)
    C = float(C0)
    C_path, K_path = [], [K]
    add_C, add_K = C_path.append, K_path.append
    Kpow = K ** alpha
    for pc, h, apc1, g in zip(prodc, H, apc, growu):
        add_C(C)
        K = omd * K + pc * Kpow - h - C
        if K <= 0.0:
            return C_path, K_path, len(C_path) - 1
        add_K(K)
        Kpow = K ** alpha
        C = C * g * (omd + apc1 * Kpow / K)
    add_C(C)
    K_next = omd * K + prodc[-1] * Kpow - H[-1] - C
    if K_next < 0.0:
        return C_path, K_path, len(C_path) - 1
    add_K(K_next)
    return C_path, K_path, None


def _terminal_slope(C_path: list, K_path: list, apc: np.ndarray, growu: np.ndarray,
                    alpha: float, omd: float) -> float:
    """dK_T/dC_0 of a full pass, from its paths, or 0.0 when not finite.

    ``apc`` and ``growu`` are the arrays behind the pass's lists.  The
    sensitivities (dK_t, dC_t) start at (0, 1), and day t maps them to
    day t + 1's through

        A_t = [[gross_t, -1], [q_t * gross_t, g_t * gross_{t+1} - q_t]],

    with gross_t = 1 - delta + MPK_t (gross_0 = 1 - delta, as MPK_0 only
    ever multiplies dK_0 = 0), g_t the utility growth factor and
    q_t = g_t * C_t * (alpha - 1) * MPK_{t+1} / K_{t+1}; so
    dK_T = [gross_{T-1}, -1] . A_{T-2} ... A_0 . [0, 1]'.  The product is
    taken pairwise, one numpy level per halving, over the A_t padded with
    identities to a power of two.
    """
    n = len(C_path) - 1
    if n == 0:
        return -1.0
    # the columns of M hold each A_t's a, b, c, d, then identities; they are
    # filled in place, so that few T-long arrays live at once
    M = np.zeros((4, 1 << (n - 1).bit_length()))
    a, b, c, d = M[:, :n]
    K = np.fromiter(K_path, float, n + 1)[1:]  # K_1 .. K_{T-1}
    with np.errstate(all="ignore"):
        np.power(K, alpha, out=d)
        d *= apc
        d /= K  # MPK_1 .. MPK_{T-1}
        np.multiply(np.fromiter(C_path, float, n), growu, out=c)
        c *= d
        c /= K
        c *= alpha - 1.0  # q_t
        del K
        a[0] = omd
        np.add(d[:-1], omd, out=a[1:])  # gross_t
        gross_last = omd + d[-1]
        d += omd
        d *= growu
        d -= c  # g_t * gross_{t+1} - q_t
        c *= a  # q_t * gross_t
        b[:] = -1.0
        M[0, n:] = M[3, n:] = 1.0
        while M.shape[1] > 1:
            (a0, b0, c0, d0), (a1, b1, c1, d1) = M[:, 0::2], M[:, 1::2]
            M = np.array([a1 * a0 + b1 * c0, a1 * b0 + b1 * d0, c1 * a0 + d1 * c0, c1 * b0 + d1 * d0])
        slope = float(gross_last * M[1, 0] - M[3, 0])
    return slope if math.isfinite(slope) else 0.0


# Days past the horizon at which the exhaustion fit aims.  Measured over 62
# solves (both baselines and 30 seeded interventions from each of seeds 0
# and 1 of the scenario-loop benchmark), as mean pass-days per solve in
# horizons: 13.7 at a lead of 0 days, 12.1 at 2,000, 11.3 at 3,000, 10.8 at
# 5,000, 11.0 at 6,000 and 8,000 and 11.2 at 10,000, against 16.6 without
# the fit.  The optimum is flat, so any lead from 3,000 to 8,000 days serves.
EXHAUSTION_LEAD_DAYS = 5000


def _exhaustion_step(fails: list, T: int) -> float:
    """C_0 that the last three exhausting passes predict would exhaust the
    stock EXHAUSTION_LEAD_DAYS after the horizon T, or NaN.

    ``fails`` holds (fail day, C_0) of the exhausting passes in the order
    they ran.  The three are fitted to C_0 = C_b + b*exp(-lam*t_f); there is
    no estimate unless the fail days rise while C_0 falls and lam > 0.
    """
    (t1, x1), (t2, x2), (t3, x3) = fails[-3:]
    if not (t1 < t2 < t3 and x1 > x2 > x3):
        return math.nan
    d1, d2 = t2 - t1, t3 - t2
    ratio = (x1 - x2) / (x2 - x3)
    # the fitted ratio expm1(lam*d1) / -expm1(-lam*d2) rises strictly from
    # d1/d2 at lam = 0 and exceeds expm1(lam*d1), so the root lies in (0, hi]
    if not ratio > d1 / d2:
        return math.nan
    lo, hi = 0.0, math.log1p(ratio) / d1
    while True:
        lam = 0.5 * (lo + hi)
        if not lo < lam < hi:
            break
        if math.expm1(lam * d1) / -math.expm1(-lam * d2) < ratio:
            lo = lam
        else:
            hi = lam
    return x3 + (x2 - x3) * math.expm1(-lam * (T + EXHAUSTION_LEAD_DAYS - t3)) / math.expm1(lam * d2)


# Search passes after which, if none has reached the target yet, the
# feasibility probe runs, so infeasible inputs cost a bounded number of
# passes.  Over 202 solves of the shipped model (both baselines and 25
# seeded interventions from each of seeds 0-7 of the scenario-loop
# benchmark) the first pass to reach the target was pass 17, 18 or 19.
PROBE_AFTER = 24


# Relative miss of the terminal target within which a full pass keeps the
# last slope instead of computing its own.  Measured over the 62 solves of
# EXHAUSTION_LEAD_DAYS, as slopes computed per solve: 7.0 with a slope from
# every full pass, 6.5 at 1e-12, 2.5 at 1e-10, 2.4 at 1e-9 (at most 4) and
# 2.2 at 1e-8.  Up to 1e-8 every solve ran as many passes as with a slope
# from every full pass; at 1e-7 three solves differed, at 1e-6 twelve.
SLOPE_REUSE_MISS = 1e-9


def solve(inputs: PlannerInputs, *, rel_tol: float = 0.0, max_iter: int = 200) -> PlannerSolution:
    """Solve the consumption problem; see the module docstring for the method.

    By default the search runs until the bracket cannot shrink any further
    in double precision; rel_tol > 0 allows an earlier stop, and max_iter
    caps the number of search passes.  The feasibility probe, when it is
    needed, runs after PROBE_AFTER of them or after the last, and is not
    counted.  With rel_tol > 0 or a small max_iter the C_0 returned depends
    on the points the search visits.
    """
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
    apc = alpha * production[1:]
    growu = beta * N[1:] / N[:-1]
    prodc = production.tolist()
    H = np.asarray(inputs.hcost_path, dtype=float).tolist()
    day_lists = (prodc, apc.tolist(), growu.tolist(), H)

    resources0 = omd * inputs.K0 + prodc[0] * inputs.K0 ** alpha - H[0]
    if resources0 <= 0:
        raise InfeasiblePlanError(0, inputs._date_at(0), "day-0 resources are exhausted by direct costs")

    def probe():
        # Feasibility probe: near-zero consumption maximises the capital
        # path.  It runs only while no pass has reached the target, so C_lo
        # is still the bracket's initial lower end.
        C_path, K_path, fail = _propagate(C_lo, inputs, *day_lists)
        if fail is not None:
            raise InfeasiblePlanError(
                fail, inputs._date_at(fail), "direct costs exceed available resources even at zero consumption"
            )
        if K_path[T] < K_target:
            raise InfeasiblePlanError(
                T, inputs._date_at(T), f"terminal capital target {K_target:.6g} is unreachable"
            )
        return C_path, K_path

    # Bracket: C_hi fails or undershoots the target; C_lo reaches it once a
    # pass (C_best) or the probe has shown it.  x is the last pass that did
    # not fail, with terminal stock K_x; Newton steps start from it, with
    # the last slope computed (0.0 while there is none).
    C_lo = 1e-12 * resources0
    C_hi = resources0  # consumes the entire stock on day 0; always overshoots
    C_best = K_best = None
    x = miss = slope = K_x = 0.0
    fail = None
    fails = []  # (fail day, C_0) of each exhausting pass, in order
    for n in range(max_iter):
        if n == PROBE_AFTER and C_best is None:
            C_best, K_best = probe()
        C_mid = 0.5 * (C_lo + C_hi)
        if not (C_lo < C_mid < C_hi):
            break
        C_try = math.nan
        if fail is not None and len(fails) >= 3:
            C_try = _exhaustion_step(fails, T)
        if not (C_lo < C_try < C_hi):
            # Newton on K_T**2 - K_target**2, which is nearer linear in C_0
            C_try = x - miss / slope * (K_x + K_target) / (2.0 * K_x) if slope and K_x else math.nan
            if C_try == x:
                # the step is below x's resolution: test x's neighbour
                # towards the other end of the bracket
                C_try = math.nextafter(x, C_hi if x == C_lo else C_lo)
            if not (C_lo < C_try < C_hi):
                C_try = C_mid
        C_path, K_path, fail = _propagate(C_try, inputs, *day_lists)
        if fail is not None:
            fails.append((fail, C_try))
        else:
            K_x = K_path[T]
            x, miss = C_try, K_x - K_target
            if not slope or abs(miss) > SLOPE_REUSE_MISS * K_target:
                slope = _terminal_slope(C_path, K_path, apc, growu, alpha, omd)
        if fail is not None or K_path[T] < K_target:
            C_hi = C_try
        else:
            C_lo, C_best, K_best = C_try, C_path, K_path
        if rel_tol > 0.0 and (C_hi - C_lo) <= rel_tol * C_hi:
            break
    if C_best is None:
        C_best, K_best = probe()

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


def _euler_residuals(C: np.ndarray, K: np.ndarray, inputs: PlannerInputs,
                     production: np.ndarray) -> np.ndarray:
    T = inputs.horizon
    if T < 2:
        return np.zeros(0)
    N = np.asarray(inputs.pop_path, dtype=float)
    omd = 1.0 - inputs.delta_daily
    Kn = K[1:T]
    mpk = inputs.alpha * production[1:T] * Kn ** (inputs.alpha - 1.0)
    cpc = C / N
    return np.abs(cpc[1:] / cpc[:-1] / (inputs.beta_daily * (omd + mpk)) - 1.0)

