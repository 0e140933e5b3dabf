"""Tests of the benchmark's own logic; they do not run the program.

    python3 -m pytest bench/tests -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import Tally, euler_residual_max, summary_failures  # noqa: E402
from stats import reportable_percentile, timing_summary  # noqa: E402
from tracing import ROOT_SPAN, Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(ROOT_SPAN, 0.0, 10.0, None, 0),
        Span("cli.main", 1.0, 9.0, 0, 0),
        Span("scenarios.run_scenario", 2.0, 6.0, 1, 0),
        Span("planner.solve", 3.0, 5.5, 2, 0),
        Span("data_io.write_json", 7.0, 8.0, 1, 0),
    ]
    assert self_times(spans) == [2.0, 3.0, 1.5, 2.5, 1.0]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_layer_metrics_are_per_round_means_that_add_up():
    tracer = Tracer()
    tracer.spans = [
        Span(ROOT_SPAN, 0.0, 4.0, None, 0),
        Span("scenarios.run_scenario", 0.5, 3.5, 0, 0),
        Span("planner.solve", 1.0, 3.0, 1, 0),
        Span(ROOT_SPAN, 10.0, 16.0, None, 1),
        Span("scenarios.run_scenario", 10.0, 15.0, 3, 1),
        Span("planner.solve", 11.0, 15.0, 4, 1),
    ]
    tracer.counts[0].update({"planner.solves": 1, "planner.passes": 64, "planner.pass_days": 640})
    tracer.counts[1].update({"planner.solves": 1, "planner.passes": 64, "planner.pass_days": 640})
    m = layer_metrics(tracer)
    assert m["planner.solve_s"] == 3.0
    assert m["epidemic.pass_s"] == 1.0          # self time of run_scenario
    assert m["scenarios.run_scenario_s"] == 4.0  # inclusive
    assert m["trace.wall_s"] == 5.0
    assert m["trace.untraced_s"] == 1.0
    assert m["planner.passes"] == 64 and m["planner.passes_per_solve"] == 64
    assert m["planner.pass_days_per_s"] == pytest.approx(1280 / 6.0)
    assert m["data_io.write_bytes"] == 0


def test_layer_metrics_reject_a_span_without_a_metric():
    tracer = Tracer()
    tracer.spans = [Span(ROOT_SPAN, 0.0, 1.0, None, 0), Span("unknown.layer", 0.1, 0.2, 0, 0)]
    with pytest.raises(ValueError, match="unknown.layer"):
        layer_metrics(tracer)


@pytest.mark.parametrize("n, expected", [
    (1, None), (99, None), (100, Fraction(90)), (999, Fraction(90)),
    (1000, Fraction(99)), (9999, Fraction(99)), (10000, Fraction(999, 10)),
])
def test_percentile_needs_ten_samples_beyond_it(n, expected):
    assert reportable_percentile(n) == expected


def test_timing_summary_reports_percentile_only_with_enough_samples():
    assert timing_summary([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    summary = timing_summary([float(v) for v in range(1, 101)])
    assert summary == {"median": 50.5, "n": 100, "p90": 90.0}


RECORDED = {"total_deaths": 1.76e9, "peak_date": "2020-06-17",
            "max_output_drop_pct": 48.8, "welfare": -123456.789}


def test_perturbed_welfare_counts_as_a_failure():
    tally = Tally()
    tally.record(summary_failures(dict(RECORDED), RECORDED, "same"))
    tally.record(summary_failures(dict(RECORDED, welfare=RECORDED["welfare"] * (1 + 1e-10)),
                                  RECORDED, "ulp-level"))
    perturbed = summary_failures(dict(RECORDED, welfare=RECORDED["welfare"] * (1 + 1e-8)),
                                 RECORDED, "early stop")
    tally.record(perturbed)
    assert len(perturbed) == 1 and "welfare" in perturbed[0]
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.failed_share == pytest.approx(1 / 3)


def test_unrecorded_input_is_not_compared():
    assert summary_failures(dict(RECORDED, welfare=0.0), None, "new seed") == []


def test_euler_oracle_detects_a_perturbed_path():
    rng = np.random.default_rng(0)
    T, alpha, beta, delta = 50, 0.3, 0.9998, 1e-4
    cols = {k: rng.uniform(1.0, 2.0, T) for k in ("K", "N", "A", "S", "R")}
    cols["p"] = np.zeros(T)
    mpk = alpha * cols["A"] * cols["K"] ** (alpha - 1) * (cols["S"] + cols["R"]) ** (1 - alpha)
    cpc = np.ones(T)
    for t in range(T - 1):
        cpc[t + 1] = cpc[t] * beta * (1 - delta + mpk[t + 1])
    cols["C"] = cpc * cols["N"]
    assert euler_residual_max(cols, alpha, beta, delta) < 1e-13
    cols["C"][20] *= 1.001
    assert euler_residual_max(cols, alpha, beta, delta) > 1e-4


def test_reported_metrics_match_benchmark_json():
    import json

    from run import END_TO_END_UNITS, layer_unit

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    tracer = Tracer()
    tracer.spans = [Span(ROOT_SPAN, 0.0, 1.0, None, 0)]
    traced = sorted(layer_metrics(tracer)) + ["trace.overhead_s"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(traced)
    assert all(layer_unit(m["name"]) == m["unit"] for m in spec["per_layer"])
