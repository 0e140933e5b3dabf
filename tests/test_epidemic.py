import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epigrowth.epidemic import (
    effective_rates,
    mortality,
    policy_to_infection_reduction,
    run_days,
)
from epigrowth.params import default_params

# the published rates and fits, spelt out so that a config change moves no test
PUBLISHED = dataclasses.replace(default_params(), b0=2.041e-11, r=0.02099,
                                log_k1=12.561, k2=0.717, log_q1=3.677, q2=0.238)


def make_state(S, I, R, D, N=None):
    """(N, S, I, R, D), with N = S + I + R unless given."""
    return (N if N is not None else S + I + R, S, I, R, D)


def day_state(state, b, r, m, n=1, a1=1.0, a2=0.0):
    """The (N, S, I, R, D) that ``run_days`` holds as day ``n`` starts,
    from ``state`` on day 0 at constant rates; no births by default."""
    return tuple(float(column[n]) for column in run_days(state, [(n + 1, b, m)], r, a1, a2)[:5])


def test_step_hand_example():
    N, S, I, R, D = day_state(make_state(S=1000.0, I=10.0, R=0.0, D=0.0, N=1010.0), b=1e-4, r=0.02, m=0.01)
    assert S == pytest.approx(999.0, rel=1e-12)
    assert I == pytest.approx(10.7, rel=1e-12)
    assert R == pytest.approx(0.2, rel=1e-12)
    assert D == pytest.approx(0.1, rel=1e-12)
    assert N == pytest.approx(1009.9, rel=1e-12)


def test_step_without_infections_changes_nothing():
    state = make_state(S=500.0, I=0.0, R=20.0, D=5.0)
    assert day_state(state, b=1e-4, r=0.3, m=0.1) == state


def test_geometric_decay_matches_closed_form():
    state = make_state(S=1000.0, I=100.0, R=0.0, D=0.0)
    assert day_state(state, b=0.0, r=0.02099, m=0.006)[2] == pytest.approx(97.301, rel=1e-12)
    assert day_state(state, b=0.0, r=0.02099, m=0.006, n=50)[2] == pytest.approx(
        100.0 * (1 - 0.02099 - 0.006) ** 50, rel=1e-10)


def test_infections_clamped_at_susceptibles():
    _, S, I, _, _ = day_state(make_state(S=10.0, I=5.0, R=0.0, D=0.0), b=1.0, r=0.0, m=0.0)
    assert S == 0.0
    assert I == pytest.approx(15.0)


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
    # keep the carrying capacity (a1-1)/|a2| far above any generated N
    a2 = -(a1 - 1.0) * a2_frac / 1e10
    N, S, I, R, D, _ = run_days(state, [(steps + 1, b, mor)], rec, a1, a2)
    assert np.all((S >= 0) & (I >= 0) & (R >= 0) & (D >= 0) & (N >= 0))
    assert np.all(np.diff(R) >= 0) and np.all(np.diff(D) >= 0)
    gap0 = state[0] - (state[1] + state[2] + state[3])
    assert np.all(np.abs((N - (S + I + R)) - gap0) <= 1e-6 * max(state[0], 1.0))


def float_loop(state, segments, r, a1, a2):
    """``run_days`` as a plain float loop carrying all five states and F:
    the columns N, S, I, R, D and F."""
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
    return [np.array([row[k] for row in rows], dtype=float) for k in range(6)]


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
    columns = run_days(state, segments, r, a1, a2)
    for name, new, old in zip("NSIRDF", columns, float_loop(state, segments, r, a1, a2)):
        assert (new.dtype, new.shape, new.tobytes()) == (old.dtype, old.shape, old.tobytes()), name


RATE_RULE = r"^ModelParams\.r \+ mortality\(ModelParams\.b0\) must be <= 1, got "


def test_invalid_rates_rejected():
    with pytest.raises(ValueError, match=RATE_RULE + r"0\.995 \+ 0\.006"):
        dataclasses.replace(PUBLISHED, r=0.995)
    # mortality(b0) overflows: exp(1000 + k2*ln(b0))
    with pytest.raises(ValueError, match=RATE_RULE + r"0\.02099 \+ inf$"):
        dataclasses.replace(PUBLISHED, log_k1=1000.0)
    with pytest.raises(ValueError, match=r"^ModelParams\.log_q1 must be <= 709\.782712893384, "):
        dataclasses.replace(PUBLISHED, log_q1=1000.0)
    with pytest.raises(ValueError, match=r"^infection rate must be >= 0, got -1\.0$"):
        mortality(-1.0, PUBLISHED)


def test_rate_rule_holds_at_exactly_one():
    m = mortality(PUBLISHED.b0, PUBLISHED)
    edge = dataclasses.replace(PUBLISHED, r=1.0 - m)
    assert edge.r + m == 1.0
    with pytest.raises(ValueError, match=RATE_RULE):
        dataclasses.replace(edge, r=edge.r + 1e-12)


def test_largest_log_q1_caps_the_reduction():
    # exp(log_q1) is the largest double, and its product with a shortfall above 1% is inf
    edge = dataclasses.replace(PUBLISHED, log_q1=math.log(sys.float_info.max))
    assert policy_to_infection_reduction(5.0, edge) == 100.0


def test_invalid_params_rejected():
    with pytest.raises(ValueError, match="ModelParams.a1"):
        dataclasses.replace(PUBLISHED, a1=0.999, a2=0.0)


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
        b, m = effective_rates(PUBLISHED, 0.0)
        assert b == 2.041e-11
        assert m == pytest.approx(6.17e-3, rel=2e-3)

    def test_full_suppression(self):
        assert effective_rates(PUBLISHED, 100.0) == (0.0, 0.0)

    def test_partial_reduction(self):
        b, m = effective_rates(PUBLISHED, 58.0)
        assert b == pytest.approx(8.57e-12, rel=1e-3)
        assert m == pytest.approx(3.32e-3, rel=3e-3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            effective_rates(PUBLISHED, 101.0)
        with pytest.raises(ValueError):
            effective_rates(PUBLISHED, -5.0)

    @given(b1=st.floats(1e-13, 1e-9), factor=st.floats(1.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_mortality_strictly_increasing_in_b(self, b1, factor):
        assert mortality(b1 * factor, PUBLISHED) > mortality(b1, PUBLISHED)
