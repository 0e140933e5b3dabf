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
step.

The rate laws are plain functions of a ``ModelParams`` bundle, which
checks every rule on their coefficients when it is built (a1 >= 1,
a2 <= 0, k2 in (0, 1], q2 in (0, 1), exp(log_q1) finite, and
r + m(b0) <= 1, which holds for every b <= b0 since m rises with b):

    db% = min(exp(log_q1) * dGDP%**q2, 100)   policy_to_infection_reduction
    b   = b0 * (1 - db%/100)                  effective_rates
    m   = exp(log_k1 + k2*ln(b)), 0 at b = 0  mortality

The equations are written once, in ``run_days``, the only way to run
them.  It runs them over a list of constant-rate segments, each a number
of days with its (b, m): a scenario's pass is at most three segments
(before, in and after the intervention window).  The day loop carries
only N, S and I, on plain floats with no per-day call or rate lookup,
and records them as raw doubles; F, R and D follow from their columns
with the same bits.
"""

from __future__ import annotations

import math
from array import array

import numpy as np


def run_days(state: tuple, segments: list, r: float, a1: float, a2: float):
    """Run the transition equations, unchecked, from ``state`` = (N, S, I,
    R, D) over ``segments``, a list of (days, b, m) with the rates in force
    on those days.

    Returns the columns N, S, I, R, D and F of the days run, as arrays
    holding each day's counts as it starts and its new infections.  N, S
    and I are views of the ``array("d")`` buffers that the loop appends
    raw doubles to, so no day's value is kept as a float object.  The
    loop carries only N, S and I: F = b*S*I, replaced by S where S < F,
    and R and D, summed by ``np.add.accumulate`` strictly in sequence as
    the loop adds (``np.sum`` adds pairwise), follow from their columns
    with the loop's bits and, like the float loop, warn of no overflow.
    """
    N, S, I, R, D = state
    columns = array("d"), array("d"), array("d")
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
    Ns, Ss, Is = (np.asarray(column, dtype=float) for column in columns)
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
    return Ns, Ss, Is, Rs[:T], Ds[:T], Fs


def mortality(b: float, params: ModelParams) -> float:
    """Daily mortality fraction m = exp(log_k1 + k2*ln(b)) for infection
    rate b; 0 when b is 0."""
    if b < 0:
        raise ValueError(f"infection rate must be >= 0, got {b!r}")
    if b == 0.0:
        return 0.0
    return math.exp(params.log_k1 + params.k2 * math.log(b))


def policy_to_infection_reduction(gdp_shortfall_pct: float, params: ModelParams) -> float:
    """Percentage reduction in the infection rate bought by a GDP shortfall
    of ``gdp_shortfall_pct`` percent, exp(log_q1) * shortfall**q2.  Returns
    0 at 0 and never exceeds 100."""
    if gdp_shortfall_pct < 0:
        raise ValueError(f"GDP shortfall must be >= 0, got {gdp_shortfall_pct!r}")
    if gdp_shortfall_pct == 0.0:
        return 0.0
    reduction = math.exp(params.log_q1) * gdp_shortfall_pct ** params.q2
    return min(reduction, 100.0)


def effective_rates(params: ModelParams, reduction_pct: float) -> tuple[float, float]:
    """The infection rate b and mortality m in force when the base
    infection rate b0 is cut by ``reduction_pct`` percent; mortality
    follows the reduced infection rate, and recovery is ``params.r``."""
    if not (0.0 <= reduction_pct <= 100.0):
        raise ValueError(f"reduction_pct must lie in [0, 100], got {reduction_pct!r}")
    b = params.b0 * (1.0 - reduction_pct / 100.0)
    return b, mortality(b, params)
