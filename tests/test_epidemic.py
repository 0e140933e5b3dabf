import dataclasses
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epigrowth.epidemic import (
    EpiRates,
    EpiState,
    effective_rates,
    epi_step,
    mortality,
    policy_to_infection_reduction,
    run_days,
)
from epigrowth.params import default_params

DAY0 = date(2020, 1, 22)
# the published rates and fits, spelt out so that a config change moves no test
PUBLISHED = dataclasses.replace(default_params(), b0=2.041e-11, r=0.02099,
                                log_k1=12.561, k2=0.717, log_q1=3.677, q2=0.238)
NO_GROWTH = dataclasses.replace(PUBLISHED, a1=1.0, a2=0.0)


def make_state(S, I, R, D, N=None):
    return EpiState(date=DAY0, N=N if N is not None else S + I + R, S=S, I=I, R=R, D=D)


def test_step_hand_example():
    state = make_state(S=1000.0, I=10.0, R=0.0, D=0.0, N=1010.0)
    rates = EpiRates(b=1e-4, r=0.02, m=0.01)
    nxt = epi_step(state, rates, NO_GROWTH)
    assert nxt.S == pytest.approx(999.0, rel=1e-12)
    assert nxt.I == pytest.approx(10.7, rel=1e-12)
    assert nxt.R == pytest.approx(0.2, rel=1e-12)
    assert nxt.D == pytest.approx(0.1, rel=1e-12)
    assert nxt.N == pytest.approx(1009.9, rel=1e-12)
    assert nxt.date == date(2020, 1, 23)


def test_step_without_infections_changes_nothing_but_date():
    state = make_state(S=500.0, I=0.0, R=20.0, D=5.0)
    nxt = epi_step(state, EpiRates(b=1e-4, r=0.3, m=0.1), NO_GROWTH)
    assert (nxt.N, nxt.S, nxt.I, nxt.R, nxt.D) == (state.N, state.S, state.I, state.R, state.D)
    assert nxt.date == date(2020, 1, 23)


def test_geometric_decay_matches_closed_form():
    rates = EpiRates(b=0.0, r=0.02099, m=0.006)
    state = make_state(S=1000.0, I=100.0, R=0.0, D=0.0)
    nxt = epi_step(state, rates, NO_GROWTH)
    assert nxt.I == pytest.approx(97.301, rel=1e-12)
    state = nxt
    for t in range(1, 50):
        state = epi_step(state, rates, NO_GROWTH)
    assert state.I == pytest.approx(100.0 * (1 - 0.02099 - 0.006) ** 50, rel=1e-10)


def test_infections_clamped_at_susceptibles():
    state = make_state(S=10.0, I=5.0, R=0.0, D=0.0)
    nxt = epi_step(state, EpiRates(b=1.0, r=0.0, m=0.0), NO_GROWTH)
    assert nxt.S == 0.0
    assert nxt.I == pytest.approx(15.0)


@given(
    s=st.floats(0.0, 1e9),
    i=st.floats(0.0, 1e8),
    r=st.floats(0.0, 1e8),
    d=st.floats(0.0, 1e8),
    b=st.floats(0.0, 1e-8),
    rec=st.floats(0.0, 0.5),
    mor=st.floats(0.0, 0.5),
    a1=st.floats(1.0, 1.0005),
    a2_frac=st.floats(0.0, 1.0),
    steps=st.integers(1, 25),
)
# on day 2 I is subnormal, b*S*I underflows to 0 and I - r*I - m*I rounds
# to -5e-324 unless the kernel holds I at 0
@example(s=0.5, i=2.2250738585072014e-308, r=0.0, d=0.0, b=7.887849774137819e-09, rec=0.5,
         mor=0.5, a1=1.0, a2_frac=0.0, steps=2)
@settings(max_examples=150, deadline=None)
def test_invariants_along_random_trajectories(s, i, r, d, b, rec, mor, a1, a2_frac, steps):
    state = make_state(S=s, I=i, R=r, D=d)
    rates = EpiRates(b=b, r=rec, m=mor)
    # keep the carrying capacity (a1-1)/|a2| far above any generated N
    params = dataclasses.replace(NO_GROWTH, a1=a1, a2=-(a1 - 1.0) * a2_frac / 1e10)
    gap0 = state.N - (state.S + state.I + state.R)
    scale = max(state.N, 1.0)
    prev = state
    for _ in range(steps):
        nxt = epi_step(prev, rates, params)
        assert nxt.S >= 0 and nxt.I >= 0 and nxt.R >= 0 and nxt.D >= 0 and nxt.N >= 0
        assert nxt.R >= prev.R and nxt.D >= prev.D
        assert abs((nxt.N - (nxt.S + nxt.I + nxt.R)) - gap0) <= 1e-6 * scale
        prev = nxt


def float_loop(state, segments, r, a1, a2):
    """``run_days`` as a plain float loop carrying all five states and F:
    the columns N, S, I, R, D and F, and the state after the last day."""
    N, S, I, R, D = state
    rows = []
    for days, b, m in segments:
        for _ in range(days):
            births = (a1 - 1.0) * N + a2 * N * N
            infections = b * S * I
            if S < infections:
                infections = S
            rows.append((N, S, I, R, D, infections))
            recoveries = r * I
            deaths = m * I
            N, S, I = N + births - deaths, S + births - infections, I + infections - recoveries - deaths
            R, D = R + recoveries, D + deaths
            if I < 0.0:
                I = 0.0
    return [np.array([row[k] for row in rows], dtype=float) for k in range(6)], (N, S, I, R, D)


NAN = float("nan")
SUBNORMAL = 5e-324


@pytest.mark.parametrize("state, segments, r, a1, a2", [
    # b*S*I overflows to inf, and N, S and I to inf and NaN after it
    ((1e200, 1e200, 1e200, 0.0, 0.0), [(3, 1.0, 0.01)], 0.1, 1.0001, -1e-9),
    ((1e3, NAN, 10.0, 1.0, 0.5), [(2, 1e-3, 0.01)], 0.1, 1.0001, -1e-9),
    # r*I and m*I each round 1.5 * 5e-324 up to 2 * 5e-324, so I would fall below 0 and is held at 0
    ((10.0, 10.0, 3 * SUBNORMAL, 0.0, 0.0), [(2, 0.0, 0.5)], 0.5, 1.0, 0.0),
    ((1e3, 990.0, 10.0, 0.0, 0.0), [(3, 1e-4, 0.01), (0, 1.0, 0.1), (2, 2e-4, 0.02)], 0.1, 1.0001, -1e-9),
    ((1e3, 990.0, 10.0, 0.0, 0.0), [], 0.1, 1.0001, -1e-9),
    ((1e3, 990.0, 10.0, 0.0, 0.0), [(0, 1e-4, 0.01)], 0.1, 1.0001, -1e-9),
    ((1e3, 990.0, 10.0, 2.0, 1.0), [(1, 1e-4, 0.01)], 0.1, 1.0001, -1e-9),
], ids=["overflow", "nan-S", "subnormal-I", "zero-day-segment", "no-segment", "T-0", "T-1"])
def test_run_days_matches_a_float_loop_bitwise(state, segments, r, a1, a2):
    columns, final = run_days(state, segments, r, a1, a2)
    expected_columns, expected_final = float_loop(state, segments, r, a1, a2)
    for name, new, old in zip("NSIRDF", columns, expected_columns):
        assert (new.dtype, new.shape, new.tobytes()) == (old.dtype, old.shape, old.tobytes()), name
    assert np.array(final).tobytes() == np.array(expected_final).tobytes()
    assert all(type(value) is float for value in final)


def test_invalid_rates_rejected():
    state = make_state(S=10.0, I=1.0, R=0.0, D=0.0)
    with pytest.raises(ValueError):
        epi_step(state, EpiRates(b=1e-4, r=0.7, m=0.5), NO_GROWTH)
    with pytest.raises(ValueError):
        epi_step(state, EpiRates(b=-1.0, r=0.1, m=0.1), NO_GROWTH)


def test_invalid_params_rejected():
    state = make_state(S=10.0, I=1.0, R=0.0, D=0.0)
    with pytest.raises(ValueError, match="ModelParams.a1"):
        epi_step(state, EpiRates(b=1e-4, r=0.1, m=0.1), dataclasses.replace(NO_GROWTH, a1=0.999))


def test_invalid_state_rejected():
    with pytest.raises(ValueError):
        EpiState(date=DAY0, N=10.0, S=-1.0, I=1.0, R=0.0, D=0.0)


class TestPolicyToInfectionReduction:
    def test_five_percent_shortfall(self):
        reduction = policy_to_infection_reduction(5.0, PUBLISHED)
        assert reduction == pytest.approx(58.0, abs=0.5)
        assert 55.0 <= reduction <= 62.0

    def test_ten_percent_shortfall(self):
        reduction = policy_to_infection_reduction(10.0, PUBLISHED)
        assert reduction == pytest.approx(68.4, abs=0.5)
        assert 65.0 <= reduction <= 72.0

    def test_zero_is_zero(self):
        assert policy_to_infection_reduction(0.0, PUBLISHED) == 0.0

    def test_capped_at_hundred(self):
        assert policy_to_infection_reduction(60.0, PUBLISHED) == 100.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            policy_to_infection_reduction(-1.0, PUBLISHED)

    @given(x=st.floats(0.01, 45.0), dx=st.floats(0.01, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_below_cap(self, x, dx):
        assert policy_to_infection_reduction(x + dx, PUBLISHED) > policy_to_infection_reduction(x, PUBLISHED)

    @given(x=st.floats(0.5, 40.0), dx=st.floats(0.1, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_concave_below_cap(self, x, dx):
        lo = policy_to_infection_reduction(x, PUBLISHED)
        mid = policy_to_infection_reduction(x + dx, PUBLISHED)
        hi = policy_to_infection_reduction(x + 2 * dx, PUBLISHED)
        assert (hi - mid) < (mid - lo)


class TestEffectiveRates:
    def test_no_reduction(self):
        rates = effective_rates(PUBLISHED, 0.0)
        assert rates.b == 2.041e-11
        assert rates.m == pytest.approx(6.17e-3, rel=2e-3)
        assert rates.r == 0.02099

    def test_full_suppression(self):
        rates = effective_rates(PUBLISHED, 100.0)
        assert rates.b == 0.0
        assert rates.m == 0.0

    def test_partial_reduction(self):
        rates = effective_rates(PUBLISHED, 58.0)
        assert rates.b == pytest.approx(8.57e-12, rel=1e-3)
        assert rates.m == pytest.approx(3.32e-3, rel=3e-3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            effective_rates(PUBLISHED, 101.0)
        with pytest.raises(ValueError):
            effective_rates(PUBLISHED, -5.0)

    @given(b1=st.floats(1e-13, 1e-9), factor=st.floats(1.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_mortality_strictly_increasing_in_b(self, b1, factor):
        assert mortality(b1 * factor, PUBLISHED) > mortality(b1, PUBLISHED)
