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
decreasing in C_0.  Forward shooting on a saddle path is badly conditioned
(Judd 1998; Brunner & Strulik 2002, JEDC 26): a C_0 above the stable
path's leaves it at the unstable rate, so a search from a cold bracket
spends most of its passes closing in.  So the search starts at the C_0 of
the stacked-time system (``_stacked_estimate``; Fair-Taylor, Laffargue
1990, Juillard 1996): Newton on all days' Euler residuals at once, each
step one cyclic reduction of a tridiagonal Jacobian.  Over 202
shipped-model solves (both baselines and 20 seeded interventions from
each of seeds 0-9 of the scenario-loop benchmark) the estimate lay a
median 8 and at most 68 ulps (1.4e-14) from the root, and a solve ran 4.3
full passes (at most 8) against 27.1 from the cold bracket.  An estimate
with no slope (Newton did not converge) or not strictly inside the bracket
is tried, if inside it, only after the feasibility probe (below); one whose
pass misses the target moves an end of the bracket.  While no pass has
reached the target, a pass that exhausts the stock is followed by one at
max(C_hi - d, C_hi / 4), d being 64 ulps u of the first such C_0 and
squared in units of u at each next one (64u, 4096u, 2**24 u, 2**48 u), so
the step reaches C_0's own scale on the fourth pass and C_0 then falls by
a factor of 4 a pass.  On the no-intervention inputs, whose root is about
0.001 R_0 (R_0 as defined below), an estimate at 0.5 or 0.01 R_0 with the
root's slope solves in 28 and 29 passes; with d doubled it took 51 and 50.

The slope dK_T/dC_0 is one more tridiagonal solve with the same Jacobian
(``_slope``).  The estimate returns the slope at its last Newton iterate,
and a full pass that misses the target by more than SLOPE_REUSE_MISS of it
takes the slope at its own capital path, which ``_paths`` runs the pass
again to record; no pass of the 202 solves did, so a shipped solve
computes no slope inside its loop.  The boundary condition
is closed by bracketed Newton iteration (rtsafe, Press et al., Numerical
Recipes, sec. 9.4): the bracket [C_lo, C_hi] starts as [1e-12 * R_0, R_0],
with R_0 the day-0 resources.
C_hi is the lowest C_0 seen to exhaust the stock or undershoot the target,
C_lo the highest seen to reach it (the initial end until one has).  A
Newton step is taken from the last pass that did not exhaust the stock,
and bisection replaces any step that is not finite (as when no finite
slope is known) or leaves the open bracket.  The step is Newton's on
K_T**2 - K_target**2, whose secant slope near the root varies about 1%
over C_0 +- 1e-5 (relative) where that of K_T varies about 20%:

    C_0' = x - (K_x - K_target) / K_x' * (K_x + K_target) / (2 * K_x)

for the pass at x with terminal stock K_x and slope K_x'.  Iteration stops
when no double lies strictly between the two ends, so C_0 is the largest
double that still reaches the target, whichever points the search visited,
and the Euler residuals sit at rounding level by construction.

The feasibility probe, a pass at C_lo = 1e-12 * R_0 (near-zero consumption
maximises the capital path), runs first when the estimate cannot start the
search, and after a search in which no pass reached the target.  It raises
InfeasiblePlanError with the day the stock runs out (day 0 when R_0 <= 0,
as its first stock is R_0 - C_lo, unless T = 1 and R_0 = 0: a last day's
stock may end at 0) or with an unreachable target; otherwise C_lo reaches
the target and is the answer until a search pass does.

So a solve is the estimate, then search passes (``_propagate``) that keep
only K_T, then one recording pass (``_paths``) from the answer's C_0, which
gives the consumption and capital paths that the search found.  Both run
the same float operations in the same order, so the recorded pass ends at
the K_T its search pass found.  On the no-intervention inputs a search pass
took a median 2.18 ms of CPU time and a recording pass 3.44 ms (60
calls each, Python 3.11 on a 2-core host).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from datetime import date as _date

import numpy as np


class InfeasiblePlanError(RuntimeError):
    """Positive consumption is impossible from some day onward; ``day``,
    the date of ``day_index``, comes from a caller that keeps a calendar."""

    def __init__(self, day_index: int, reason: str, day: _date | None = None):
        self.day_index = day_index
        self.day = day
        self.reason = reason
        when = f"{day.isoformat()} (day {day_index})" if day is not None else f"day {day_index}"
        super().__init__(f"infeasible at {when}: {reason}")


@dataclass(frozen=True)
class PlannerInputs:
    """Exogenous daily paths (all length T) and scalar problem data, checked
    when built; each path is stored as a float array, so the solver reads
    it without converting it again."""

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

    @property
    def horizon(self) -> int:
        return len(self.labor_path)

    def __post_init__(self):
        paths = ("labor_path", "pop_path", "tfp_path", "hcost_path", "shortfall_path")
        for name in paths:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        T = self.horizon
        for name in paths[1:]:
            if len(getattr(self, name)) != T:
                raise ValueError(f"{name} has length {len(getattr(self, name))}, expected {T}")
        if T < 1:
            raise ValueError("horizon must be at least one day")
        for name in paths:
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
        if np.any(self.labor_path < 0):
            raise ValueError("labor path must be nonnegative")
        if np.any(self.pop_path <= 0):
            raise ValueError("population path must be positive")
        if np.any(self.hcost_path < 0):
            raise ValueError("cost path must be nonnegative")
        if np.any((self.shortfall_path < 0) | (self.shortfall_path >= 1)):
            raise ValueError("shortfall path must lie in [0, 1)")


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
    """Shoot the Euler/budget recursion forward from C_0, keeping no path:
    the search pass.

    Returns (K_T, fail index or None), K_T None when the stock runs out.  A
    fail index marks the first day the stock would be exhausted.  The day
    lists are lists of plain floats, so the loop does no numpy scalar
    arithmetic, and it keeps nothing per day.  ``apc`` holds alpha times
    the next day's production constant, so MPK is one product and one
    division.  The loop zips the day lists, so no day indexes a list, and
    stops before the last day: it has no next day, and its stock may end at
    exactly 0, where any earlier day's stock must stay positive.  A pass
    that runs out inside the loop reads its day from the days left in the
    zip.  ``_paths`` runs the same float operations in the same order.
    """
    alpha = inputs.alpha
    omd = 1.0 - inputs.delta_daily

    K = float(inputs.K0)
    C = float(C0)
    Kpow = K ** alpha
    days = zip(prodc, H, apc, growu)
    for pc, h, apc1, g in days:
        K = omd * K + pc * Kpow - h - C
        if K <= 0.0:
            return None, len(apc) - 1 - sum(1 for _ in days)
        Kpow = K ** alpha
        C = C * g * (omd + apc1 * Kpow / K)
    K_next = omd * K + prodc[-1] * Kpow - H[-1] - C
    if K_next < 0.0:
        return None, len(apc)
    return K_next, None


def _paths(C0: float, inputs: PlannerInputs, prodc: list, apc: list, growu: list, H: list):
    """``_propagate``'s pass, recording its paths: the answer's pass, and a
    pass whose capital path a slope needs.

    Returns (consumption path, capital path incl. terminal, fail index or
    None); an exhausting pass's paths stop at its fail day.  The paths are
    ``array("d")`` buffers of raw doubles, so the pass keeps no float object
    per day.
    """
    alpha = inputs.alpha
    omd = 1.0 - inputs.delta_daily

    K = float(inputs.K0)
    C = float(C0)
    C_path, K_path = array("d"), array("d", (K,))
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


def _solve_tridiagonal(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x with a_i*x_{i-1} + b_i*x_i + c_i*x_{i+1} = d_i in each row i (a_0 and
    c_{n-1} ignored), by cyclic reduction: the rows, padded with identity
    rows to 2**k - 1, are halved k - 1 times, one numpy level each, then the
    unknowns are filled back in level by level.  There is no pivoting, so
    the system should be diagonally dominant, as the Euler Jacobian is."""
    n = len(b)
    m = (1 << n.bit_length()) - 1
    a, b, c, d = (np.concatenate((v, np.full(m - n, pad))) for v, pad in ((a, 0.0), (b, 1.0), (c, 0.0), (d, 0.0)))
    a[0] = c[n - 1] = 0.0
    levels = []
    while len(b) > 1:
        levels.append((a, b, c, d))
        lo, hi = -a[1::2] / b[:-1:2], -c[1::2] / b[2::2]
        a, b, c, d = (lo * a[:-1:2], b[1::2] + lo * c[:-1:2] + hi * a[2::2], hi * c[2::2],
                      d[1::2] + lo * d[:-1:2] + hi * d[2::2])
    x = d / b
    for a, b, c, d in reversed(levels):
        even = d[::2].copy()
        even[1:] -= a[2::2] * x
        even[:-1] -= c[:-1:2] * x
        full = np.empty(len(b))
        full[1::2], full[::2] = x, even / b[::2]
        x = full
    return x[:n]


def _euler_system(K: np.ndarray, production: np.ndarray, growu: np.ndarray, H: np.ndarray,
                  alpha: float, omd: float) -> tuple:
    """(-F, sub, main) at the capital path K = K_0 .. K_T: the negated stacked
    Euler residuals F_t = C_{t+1} - g_t*C_t*G_{t+1}, t = 0 .. T - 2, with
    C_t = (1 - delta)*K_t + pc_t*K_t**alpha - H_t - K_{t+1} and
    G = 1 - delta + MPK, and the diagonals of their Jacobian in K_1 .. K_{T-1}:
    -g_t*G_t*G_{t+1} below, G_{t+1}*(1 + g_t) - g_t*C_t*(alpha - 1)*MPK_{t+1}/K_{t+1}
    on it and -1 above."""
    T = len(K) - 1
    Kpow = K[:T] ** alpha
    C = omd * K[:T] + production * Kpow - H - K[1:]
    mpk = alpha * production * Kpow / K[:T]
    G = omd + mpk
    gC = growu * C[:-1]
    return gC * G[1:] - C[1:], -growu * G[:-1] * G[1:], G[1:] * (1.0 + growu) - gC * (alpha - 1.0) * mpk[1:] / K[1:T]


def _slope(sub: np.ndarray, main: np.ndarray) -> float:
    """dK_T/dC_0 on a path that meets every Euler equation, from the
    diagonals of ``_euler_system`` at it, or 0.0 when not finite.

    Moving K_T keeps the path on the Euler equations, and F_{T-2} falls by 1
    per unit of K_T, so x = dK_{1..T-1}/dK_T solves J*x = e_last; the day-0
    budget gives dC_0/dK_T = -x_0, so the slope is -1/x_0 (-1 when T = 1)."""
    n = len(main)
    if n == 0:
        return -1.0
    x0 = float(_solve_tridiagonal(sub, main, np.full(n, -1.0), np.append(np.zeros(n - 1), 1.0))[0])
    slope = -1.0 / x0 if x0 else math.inf
    return slope if math.isfinite(slope) else 0.0


# Newton steps after which ``_stacked_estimate`` gives up.  Every shipped
# and seeded solve takes 4 or 5; the input farthest from the geometric start
# path among the tests, from K_0 = 0.01 to a target of 5, takes 10.
NEWTON_STEPS = 16


def _stacked_estimate(inputs: PlannerInputs, production: np.ndarray, growu: np.ndarray, K_target: float) -> tuple:
    """(C_0, slope) of Newton's solution of the stacked Euler residuals
    (``_euler_system``), the shooting search's start: C_0 is not finite,
    or off, and the slope 0.0, where Newton fails.

    The unknowns are K_1 .. K_{T-1}, with K_T = K_target.  Newton runs from
    K_0*(K_target/K_0)**(t/T) for ``NEWTON_STEPS`` steps, or to one below
    1e-10 relative; the slope is ``_slope`` of the last step's Jacobian.  C_0 is the mean
    over t = 0 .. min(T - 1, 1000) of the Euler-implied
    C_t / prod_{s<t} g_s*G_{s+1}, each rounded on its own; the day-0 budget
    alone would carry K_1's rounding, ~1,000 ulps of C_0 as K/C is ~3,000.
    1000 days gave the least median error of 1, 10, 100, 300, 1000, 2000, 3000."""
    T, alpha, omd, H = inputs.horizon, inputs.alpha, 1.0 - inputs.delta_daily, inputs.hcost_path
    K = np.append(inputs.K0 * (K_target / inputs.K0) ** (np.arange(T) / T), K_target)
    Kn = K[1:T]  # the unknowns, a view of K
    sub = main = Kn  # empty when T = 1, where no Newton step runs
    change = 0.0
    for _ in range(NEWTON_STEPS if T > 1 else 0):
        rhs, sub, main = _euler_system(K, production, growu, H, alpha, omd)
        step = _solve_tridiagonal(sub, main, np.full(T - 1, -1.0), rhs)
        Kn += step
        change = np.max(np.abs(step) / Kn)
        if not change >= 1e-10:  # converged, or not finite
            break
    n = min(T - 1, 1000)
    Kpow = K[:n + 1] ** alpha
    C = omd * K[:n + 1] + production[:n + 1] * Kpow - H[:n + 1] - K[1:n + 2]
    G = omd + alpha * production[1:n + 1] * Kpow[1:] / K[1:n + 1]
    return float(np.mean(C / np.cumprod(np.append(1.0, growu[:n] * G)))), _slope(sub, main) if change < 1e-10 else 0.0


# Relative miss of the terminal target within which a full pass keeps the
# last slope instead of taking its own.  Over 62 shipped-model solves from
# the cold bracket, up to 1e-8 every solve ran as many passes as with a
# slope from every full pass; at 1e-7 three differed, at 1e-6 twelve.
SLOPE_REUSE_MISS = 1e-9


def solve(inputs: PlannerInputs, *, rel_tol: float = 0.0, max_iter: int = 200) -> PlannerSolution:
    """Solve the consumption problem; see the module docstring for the method.

    By default the search runs until the bracket cannot shrink any further
    in double precision; rel_tol > 0 allows an earlier stop, and max_iter
    caps the number of search passes.  The feasibility probe runs before
    them when the estimate cannot start the search, or after the last when
    none reached the target, and is not counted.  With rel_tol > 0 or a
    small max_iter the C_0 returned depends on the points the search visits.
    """
    T = inputs.horizon
    alpha = inputs.alpha
    beta = inputs.beta_daily
    omd = 1.0 - inputs.delta_daily

    K_target = inputs.terminal_capital
    if K_target is None:
        K_target = balanced_path_terminal_capital(inputs)

    N, H = inputs.pop_path, inputs.hcost_path
    production = (1.0 - inputs.shortfall_path) * inputs.tfp_path * inputs.labor_path ** (1.0 - alpha)
    growu = beta * N[1:] / N[:-1]
    prodc = production.tolist()
    day_lists = (prodc, (alpha * production[1:]).tolist(), growu.tolist(), H.tolist())

    resources0 = omd * inputs.K0 + prodc[0] * inputs.K0 ** alpha - float(H[0])

    def probe():
        # Feasibility probe: near-zero consumption maximises the capital
        # path.  It runs only while no pass has reached the target, so C_lo
        # is still the bracket's initial lower end, which it returns.
        K_T, fail = _propagate(C_lo, inputs, *day_lists)
        if fail is not None:
            raise InfeasiblePlanError(fail, "direct costs exceed available resources even at zero consumption")
        if K_T < K_target:
            raise InfeasiblePlanError(T, f"terminal capital target {K_target:.6g} is unreachable")
        return C_lo

    # Bracket: C_hi fails or undershoots the target; C_lo reaches it once a
    # pass (C_best) or the probe has shown it.  x is the last pass that did
    # not fail, with terminal stock K_x; Newton steps start from it, with
    # the last slope, the estimate's at first (0.0 for none).  Each pass moves
    # an end to C_try, so only the stacked estimate and a step down from an
    # exhausting pass (``down``, squared in ``unit``s) are tried without a
    # Newton step.
    C_lo = 1e-12 * resources0
    C_hi = resources0  # consumes the entire stock on day 0; always overshoots
    x = miss = K_x = down = unit = 0.0
    with np.errstate(all="ignore"):
        C_try, slope = _stacked_estimate(inputs, production, growu, K_target)
    C_best = None if slope and C_lo < C_try < C_hi else probe()
    for _ in range(max_iter):
        C_mid = 0.5 * (C_lo + C_hi)
        if not (C_lo < C_mid < C_hi):
            break
        if not (C_lo < C_try < C_hi):
            # Newton on K_T**2 - K_target**2, which is nearer linear in C_0
            C_try = x - miss / slope * (K_x + K_target) / (2.0 * K_x) if slope and K_x else math.nan
            if C_try == x:
                # the step is below x's resolution: test x's neighbour
                # towards the other end of the bracket
                C_try = math.nextafter(x, C_hi if x == C_lo else C_lo)
            if not (C_lo < C_try < C_hi):
                C_try = C_mid
        K_T, fail = _propagate(C_try, inputs, *day_lists)
        if fail is None:
            x, K_x, miss = C_try, K_T, K_T - K_target
            if not slope or abs(miss) > SLOPE_REUSE_MISS * K_target:
                K_path = _paths(C_try, inputs, *day_lists)[1]
                with np.errstate(all="ignore"):
                    slope = _slope(*_euler_system(np.array(K_path), production, growu, H, alpha, omd)[1:])
        if fail is not None or K_T < K_target:
            C_hi = C_try
        else:
            C_lo = C_best = C_try
        if fail is not None and C_best is None:
            unit = unit or math.ulp(C_try)
            down = down * down / unit if down else 64.0 * unit
            C_try = max(C_try - down, 0.25 * C_try)
        if rel_tol > 0.0 and (C_hi - C_lo) <= rel_tol * C_hi:
            break
    if C_best is None:
        C_best = probe()

    C_path, K_path, _ = _paths(C_best, inputs, *day_lists)
    consumption = np.asarray(C_path, dtype=float)
    capital = np.asarray(K_path, dtype=float)
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
    omd = 1.0 - inputs.delta_daily
    Kn = K[1:T]
    mpk = inputs.alpha * production[1:T] * Kn ** (inputs.alpha - 1.0)
    cpc = C / inputs.pop_path
    return np.abs(cpc[1:] / cpc[:-1] / (inputs.beta_daily * (omd + mpk)) - 1.0)

