"""Daily SIR dynamics with logistic population growth and a deceased class.

State transitions (one day):

    births = (a1 - 1)*N + a2*N**2
    F      = min(b*S*I, S)              new infections, clamped at S
    N' = N + births - m*I
    S' = S + births - F
    I' = I + F - r*I - m*I
    R' = R + r*I
    D' = D + m*I

The clamp on F keeps S nonnegative for extreme infection rates; it never
binds at calibrated magnitudes.  N - (S + I + R) is invariant under the
step.  Policy enters through ``policy_to_infection_reduction`` (output
shortfall -> percentage cut in b) and ``effective_rates`` (reduced b ->
mortality via the fitted log-log model).

The equations are written once, in ``run_days``.  It runs them over a
list of constant-rate segments, each a number of days with its (b, m):
a scenario's pass is at most three segments (before, in and after the
intervention window), and ``epi_step`` is one segment of one day.  The
day loop carries only N, S and I, on plain floats with no per-day call
or rate lookup; F, R and D follow from their columns with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np


@dataclass(frozen=True)
class EpiState:
    """Compartment counts (persons) on one calendar day.  N is the living
    population; D is cumulative deaths and is excluded from N."""

    date: date
    N: float
    S: float
    I: float
    R: float
    D: float

    def validate(self) -> None:
        for name in ("N", "S", "I", "R", "D"):
            if getattr(self, name) < 0:
                raise ValueError(f"EpiState.{name} must be >= 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class EpiRates:
    """Per-day transition rates: b per (person*day), r and m are fractions."""

    b: float
    r: float
    m: float

    def validate(self) -> None:
        if self.b < 0:
            raise ValueError(f"infection rate b must be >= 0, got {self.b!r}")
        if not (0.0 <= self.r <= 1.0 and 0.0 <= self.m <= 1.0):
            raise ValueError(f"r and m must lie in [0, 1], got r={self.r!r}, m={self.m!r}")
        if self.r + self.m > 1.0:
            raise ValueError(f"r + m must not exceed 1, got {self.r + self.m!r}")


@dataclass(frozen=True)
class PopGrowthParams:
    """Daily logistic growth coefficients: births = (a1-1)*N + a2*N**2."""

    a1: float
    a2: float

    def validate(self) -> None:
        # a1 == 1, a2 == 0 is the degenerate no-growth case used in tests
        if self.a1 < 1.0:
            raise ValueError(f"a1 must be >= 1, got {self.a1!r}")
        if self.a2 > 0.0:
            raise ValueError(f"a2 must be <= 0, got {self.a2!r}")


@dataclass(frozen=True)
class MortalityModel:
    """Log-log mortality response m = exp(log_k1 + k2*ln(b))."""

    log_k1: float
    k2: float

    def validate(self) -> None:
        if not (0.0 < self.k2 <= 1.0):
            raise ValueError(f"k2 must lie in (0, 1], got {self.k2!r}")

    def mortality(self, b: float) -> float:
        """Daily mortality fraction for infection rate b; 0 when b is 0."""
        if b < 0:
            raise ValueError(f"infection rate must be >= 0, got {b!r}")
        if b == 0.0:
            return 0.0
        return math.exp(self.log_k1 + self.k2 * math.log(b))


@dataclass(frozen=True)
class TradeoffModel:
    """Concave response of the infection rate to foregone output:
    db% = exp(log_q1) * dGDP%**q2, capped at 100."""

    log_q1: float
    q2: float

    def validate(self) -> None:
        if not (0.0 < self.q2 < 1.0):
            raise ValueError(f"q2 must lie in (0, 1), got {self.q2!r}")


def run_days(state: tuple, segments: list, r: float, a1: float, a2: float):
    """Run the transition equations, unchecked, from ``state`` = (N, S, I,
    R, D) over ``segments``, a list of (days, b, m) with the rates in force
    on those days.

    Returns the columns N, S, I, R, D and F of the days run, as arrays
    holding each day's counts as it starts and its new infections, and the
    (N, S, I, R, D) after the last day.  The loop carries only N, S and I:
    F = b*S*I, replaced by S where S < F, and R and D, summed by
    ``np.add.accumulate`` strictly in sequence as the loop adds (``np.sum``
    adds pairwise), follow from their columns with the loop's bits and,
    like the float loop, warn of no overflow.
    """
    N, S, I, R, D = state
    columns = [], [], []
    add_N, add_S, add_I = (column.append for column in columns)
    growth = a1 - 1.0
    for days, b, m in segments:
        for _ in range(days):
            add_N(N)
            add_S(S)
            add_I(I)
            births = growth * N + a2 * N * N
            infections = b * S * I
            if S < infections:  # min(b*S*I, S), NaN included
                infections = S
            deaths = m * I
            N = N + births - deaths
            S = S + births - infections
            I = I + infections - r * I - deaths
            if I < 0.0:  # a subnormal I can round to just below zero
                I = 0.0
    T = len(columns[0])
    Ns, Ss, Is = (np.fromiter(column, float, T) for column in columns)
    Fs, Rs, Ds = np.empty(T), np.empty(T + 1), np.empty(T + 1)
    Rs[0], Ds[0] = R, D  # then each day's change, accumulated
    with np.errstate(all="ignore"):
        np.multiply(r, Is, out=Rs[1:])
        lo = 0
        for days, b, m in segments:
            np.multiply(b, Ss[lo:lo + days], out=Fs[lo:lo + days])
            Fs[lo:lo + days] *= Is[lo:lo + days]
            np.multiply(m, Is[lo:lo + days], out=Ds[lo + 1:lo + days + 1])
            lo += days
        np.copyto(Fs, Ss, where=Ss < Fs)
        np.add.accumulate(Rs, out=Rs)
        np.add.accumulate(Ds, out=Ds)
    return (Ns, Ss, Is, Rs[:T], Ds[:T], Fs), (N, S, I, float(Rs[T]), float(Ds[T]))


def epi_step(state: EpiState, rates: EpiRates, pop: PopGrowthParams) -> EpiState:
    """Advance the epidemic one day, checking the inputs and the result."""
    state.validate()
    rates.validate()
    pop.validate()
    _, (N, S, I, R, D) = run_days(
        (state.N, state.S, state.I, state.R, state.D), [(1, rates.b, rates.m)], rates.r, pop.a1, pop.a2
    )
    if S < 0 or N < 0:
        # only reachable far beyond the logistic carrying capacity
        raise ValueError("population shrank below zero; state outside the model's domain")
    return EpiState(date=state.date + timedelta(days=1), N=N, S=S, I=I, R=R, D=D)


def policy_to_infection_reduction(gdp_shortfall_pct: float, t: TradeoffModel) -> float:
    """Percentage reduction in the infection rate bought by a GDP shortfall
    of ``gdp_shortfall_pct`` percent.  Returns 0 at 0 and never exceeds 100."""
    t.validate()
    if gdp_shortfall_pct < 0:
        raise ValueError(f"GDP shortfall must be >= 0, got {gdp_shortfall_pct!r}")
    if gdp_shortfall_pct == 0.0:
        return 0.0
    reduction = math.exp(t.log_q1) * gdp_shortfall_pct ** t.q2
    return min(reduction, 100.0)


def effective_rates(b0: float, reduction_pct: float, mm: MortalityModel, r: float) -> EpiRates:
    """Rates in force given a base infection rate and a percentage reduction.

    Mortality follows the reduced infection rate; recovery passes through.
    """
    if not (0.0 <= reduction_pct <= 100.0):
        raise ValueError(f"reduction_pct must lie in [0, 100], got {reduction_pct!r}")
    b = b0 * (1.0 - reduction_pct / 100.0)
    return EpiRates(b=b, r=r, m=mm.mortality(b))
