"""The economy as the model computes it.

Output, TFP, hospital costs and capital are computed inside
``run_scenario`` and the planner, so every property here is asserted on
real trajectories, or on the boundary checks that run before any day is
simulated:

    Y = (1 - p) * A * K**alpha * (S + R)**(1 - alpha)
    A_t = A0 * (1 + g)**t
    H = u * h * min(b*S*I, S)
    K' = (1 - delta)*K + Y - C - H
"""

import dataclasses
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epigrowth import data_io
from epigrowth.planner import InfeasiblePlanError
from epigrowth.scenarios import NO_INTERVENTION, NO_PANDEMIC, PolicySchedule, run_scenario

SHORT = dict(end_of_interest=date(2020, 12, 31), horizon=date(2021, 12, 31))
POLICY = PolicySchedule(start_date=date(2020, 3, 12), intensity_p=0.10, duration_days=182)


def short_no_intervention(**changes):
    return dataclasses.replace(data_io.load_config().scenario(NO_INTERVENTION), **{**SHORT, **changes})


@pytest.fixture(scope="module")
def runs(params, config):
    """Short no-pandemic, no-intervention and intervention trajectories."""
    return {
        "no-pandemic": run_scenario(dataclasses.replace(config.scenario(NO_PANDEMIC), **SHORT), params),
        "no-intervention": run_scenario(short_no_intervention(), params),
        "policy": run_scenario(short_no_intervention(schedule=POLICY, name="policy"), params),
    }


def potential_output(t, alpha):
    """Output at full activity: A * K**alpha * (S + R)**(1 - alpha)."""
    return t.A * t.K ** alpha * (t.S + t.R) ** (1.0 - alpha)


class TestStateAndParams:
    def test_valid_state(self, config):
        # building a scenario checks it
        dataclasses.replace(config.scenario(NO_PANDEMIC))
        dataclasses.replace(config.scenario(NO_INTERVENTION))

    def test_nonpositive_tfp_rejected(self, config):
        with pytest.raises(ValueError, match="A0"):
            dataclasses.replace(config.scenario(NO_PANDEMIC), A0=0.0)

    def test_negative_capital_rejected(self, config):
        with pytest.raises(ValueError, match="K0"):
            dataclasses.replace(config.scenario(NO_PANDEMIC), K0=-1.0)

    def test_valid_params(self, params):
        # building a bundle checks it
        dataclasses.replace(params)

    @pytest.mark.parametrize("field,value", [
        ("alpha", 1.0), ("g_daily", -1e-5), ("delta_daily", 0.0), ("u", -1.0), ("h", 1.5),
        ("a1", 0.999), ("a2", 1e-15), ("k2", 0.0), ("k2", 1.5), ("q2", 1.0), ("q2", 0.0),
        ("max_bisection_iter", 0), ("max_bisection_iter", -1),
    ])
    def test_out_of_range_params_rejected(self, params, field, value):
        with pytest.raises(ValueError, match=rf"^ModelParams\.{field} must "):
            dataclasses.replace(params, **{field: value})


class TestProduction:
    def test_unit_inputs(self, runs, params):
        # no policy: the shortfall factor is exactly 1 and labor is all of N
        t = runs["no-pandemic"]
        assert np.all(t.p == 0.0)
        np.testing.assert_array_equal(t.S + t.R, t.N)
        np.testing.assert_array_equal(t.Y, potential_output(t, params.alpha))

    def test_policy_scales_linearly(self, runs, params):
        t = runs["policy"]
        active = t.p > 0
        assert active.sum() == 182
        ratio = t.Y / potential_output(t, params.alpha)
        np.testing.assert_allclose(ratio[active], 0.9, rtol=1e-12)
        np.testing.assert_allclose(ratio[~active], 1.0, rtol=1e-12)

    def test_closed_form(self, runs, params):
        for name, t in runs.items():
            expected = (1.0 - t.p) * potential_output(t, params.alpha)
            np.testing.assert_allclose(t.Y, expected, rtol=1e-12, err_msg=name)

    def test_zero_labor_means_zero_output(self, params):
        # everyone starts infected: no one works on day 0
        t = run_scenario(short_no_intervention(I0=7.718e9, R0=0.0), params)
        assert t.S[0] + t.R[0] == 0.0
        assert t.Y[0] == 0.0
        assert t.Y[1] > 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="intensity_p"):
            dataclasses.replace(POLICY, intensity_p=1.0)
        message = r"^Scenario\.I0 \+ Scenario\.R0 must be <= Scenario\.N0, got 8000000000\.0 \+ "
        with pytest.raises(ValueError, match=message):
            short_no_intervention(I0=8e9)

    @given(lam=st.floats(1e-3, 1e3))
    @settings(max_examples=8, deadline=None)
    def test_constant_returns_to_scale(self, params, config, lam):
        # without births or infections the whole economy is homogeneous of
        # degree one in (K0, N0): the planner's per-capita problem is unchanged
        no_births = dataclasses.replace(params, a1=1.0, a2=0.0)
        base = dataclasses.replace(config.scenario(NO_PANDEMIC), **SHORT)
        one = run_scenario(base, no_births)
        scaled = run_scenario(dataclasses.replace(base, K0=lam * base.K0, N0=lam * base.N0), no_births)
        for name in ("Y", "K", "C"):
            np.testing.assert_allclose(
                getattr(scaled, name), lam * getattr(one, name), rtol=1e-9, err_msg=name)

    @given(bump=st.floats(0.01, 0.5))
    @settings(max_examples=5, deadline=None)
    def test_monotonicity(self, params, config, bump):
        base = dataclasses.replace(config.scenario(NO_PANDEMIC), **SHORT)
        y0 = run_scenario(base, params).Y[0]
        for field in ("A0", "K0", "N0"):
            more = dataclasses.replace(base, **{field: getattr(base, field) * (1.0 + bump)})
            assert run_scenario(more, params).Y[0] > y0, field
        policy = PolicySchedule(start_date=base.start_date, intensity_p=bump, duration_days=7)
        assert run_scenario(dataclasses.replace(base, schedule=policy), params).Y[0] < y0


class TestTfpStep:
    def test_zero_growth(self, params, config):
        t = run_scenario(dataclasses.replace(config.scenario(NO_PANDEMIC), **SHORT),
                         dataclasses.replace(params, g_daily=0.0))
        assert np.all(t.A == t.A[0])

    def test_single_step(self, runs):
        assert runs["no-pandemic"].A[1] == pytest.approx(1.8800667, rel=1e-7)

    def test_compounding_identity(self, runs, params):
        for t in runs.values():
            days = np.arange(len(t))
            np.testing.assert_allclose(t.A, t.A[0] * (1.0 + params.g_daily) ** days, rtol=1e-12)

    def test_nonpositive_rejected(self, params, config):
        with pytest.raises(ValueError, match="A0"):
            run_scenario(dataclasses.replace(config.scenario(NO_PANDEMIC), A0=-1.0), params)


class TestHospitalCost:
    def test_no_new_cases(self, runs):
        assert np.all(runs["no-pandemic"].H == 0.0)

    def test_one_case_per_day(self, runs, params):
        # a day's new cases are what leaves S for I, that is dI + dR + dD
        for name in ("no-intervention", "policy"):
            t = runs[name]
            new_cases = np.diff(t.I) + np.diff(t.R) + np.diff(t.D)
            np.testing.assert_allclose(
                t.H[:-1], params.u * params.h * new_cases, rtol=1e-9, atol=1e-6, err_msg=name)

    def test_calibrated_magnitudes(self, baselines, params):
        t = baselines[1]
        expected = params.u * params.h * np.minimum(params.b0 * t.S * t.I, t.S)
        np.testing.assert_allclose(t.H, expected, rtol=1e-12)
        # the unchecked wave's costliest day lands in the 2020 peak
        peak = int(np.argmax(t.H))
        assert t.dates[peak].year == 2020
        assert 1e11 < t.H[peak] < 1e12

    def test_negative_rejected(self, params):
        with pytest.raises(ValueError, match="ModelParams.u"):
            run_scenario(short_no_intervention(), dataclasses.replace(params, u=-1.0))

    @given(lam=st.floats(0.1, 10.0))
    @settings(max_examples=5, deadline=None)
    def test_multilinear(self, params, lam):
        scenario = short_no_intervention()
        one = run_scenario(scenario, params)
        for field in ("u", "h"):
            if field == "h" and lam * params.h > 1.0:
                continue
            scaled = run_scenario(scenario, dataclasses.replace(params, **{field: lam * getattr(params, field)}))
            np.testing.assert_allclose(scaled.H, lam * one.H, rtol=1e-12, err_msg=field)
            np.testing.assert_array_equal(scaled.I, one.I)


class TestCapitalStep:
    def test_replacement_consumption(self, runs, params):
        # the plan never consumes the whole stock: capital stays positive
        for name, t in runs.items():
            resources = (1.0 - params.delta_daily) * t.K + t.Y - t.H
            assert np.all(t.C > 0.0) and np.all(t.C < resources), name

    def test_pure_depreciation(self, params):
        # the published 4.46% annual depreciation, compounded daily
        assert 1.0 - (1.0 - params.delta_daily) ** 365 == pytest.approx(0.0446, rel=1e-12)

    def test_arithmetic(self, runs, params):
        for name, t in runs.items():
            K_next = (1.0 - params.delta_daily) * t.K[:-1] + t.Y[:-1] - t.C[:-1] - t.H[:-1]
            np.testing.assert_allclose(t.K[1:], K_next, rtol=1e-12, err_msg=name)

    def test_infeasible_rejected(self, params):
        with pytest.raises(InfeasiblePlanError, match="ruinous"):
            run_scenario(short_no_intervention(name="ruinous"), dataclasses.replace(params, u=1e30))

    @given(
        start=st.dates(date(2020, 1, 22), date(2020, 12, 1)),
        intensity=st.floats(0.01, 0.5),
        weeks=st.integers(0, 52),
    )
    @settings(max_examples=8, deadline=None)
    def test_exact_accumulation_identity(self, params, start, intensity, weeks):
        schedule = PolicySchedule(start_date=start, intensity_p=intensity, duration_days=7 * weeks)
        t = run_scenario(short_no_intervention(schedule=schedule), params)
        K_next = (1.0 - params.delta_daily) * t.K[:-1] + t.Y[:-1] - t.C[:-1] - t.H[:-1]
        np.testing.assert_allclose(t.K[1:], K_next, rtol=1e-12)
