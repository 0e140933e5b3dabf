"""Span tracing around the epigrowth modules, installed from outside.

The tracer replaces module attributes the program calls through (for
example ``epigrowth.planner.solve``) with wrappers that record a span:
name, start, end, parent span and run id.  Spans stay in memory and are
written out once, at the end of a run.  The program's own source is not
touched; ``Tracer.uninstall`` puts every original attribute back.

A span's self time is its duration minus the time covered by its direct
children, so the self times of one run's spans add up exactly to the
duration of that run's root span.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

ROOT_SPAN = "round"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus its direct children's."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [(s.end - s.start) - covered[i] for i, s in enumerate(spans)]


class Tracer:
    """In-memory span recorder plus per-run counters.

    Spans are recorded only in the process that created the tracer: a
    forked pool worker inherits the wrappers but its spans would be lost,
    so it calls straight through.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = perf_counter()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.run_id][key] += value

    def wrap(self, module, attr: str, name: str | None, before=None, after=None) -> None:
        """Replace ``module.attr`` with a wrapper recording span ``name``
        (no span when None) and calling the optional count hooks."""
        orig = getattr(module, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return orig(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            if name is None:
                result = orig(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = orig(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, orig))

    def replace(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [asdict(s) for s in self.spans],
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }
        path.write_text(json.dumps(doc) + "\n")


class _PoolWaitExecutor(ProcessPoolExecutor):
    """Process pool whose result waits and shutdown join are traced as
    ``scenarios.pool_wait``: the time the parent spends waiting on workers."""

    tracer: Tracer | None = None

    def submit(self, *args, **kwargs):
        fut = super().submit(*args, **kwargs)
        tracer, result = self.tracer, fut.result

        def traced_result(timeout=None):
            with tracer.span("scenarios.pool_wait"):
                return result(timeout)

        fut.result = traced_result
        return fut

    def __exit__(self, *exc):
        with self.tracer.span("scenarios.pool_wait"):
            return super().__exit__(*exc)


def instrument(tracer: Tracer, ep) -> None:
    """Install spans and counters at the public entry point of each layer.

    ``ep`` is a namespace holding the imported epigrowth modules.
    """
    def days(t, args, kwargs):
        t.count("epidemic.days", args[0].n_days())

    def members_failed(t, args, kwargs, runs):
        t.count("scenarios.members_failed", sum(run.error is not None for run in runs))

    def solve(t, args, kwargs):
        t.count("planner.solves")

    def shooting_pass(t, args, kwargs):
        t.count("planner.passes")
        t.count("planner.pass_days", args[1].horizon)

    def written(t, args, kwargs, result):
        t.count("data_io.write_bytes", os.path.getsize(args[1]))

    def read(t, args, kwargs):
        t.count("data_io.read_bytes", os.path.getsize(args[0]))

    def plotted(t, args, kwargs, names):
        trajectories, variables, out_dir = args[:3]
        t.count("plotting.svg_bytes", sum(
            os.path.getsize(Path(out_dir) / n) for n in names if n.endswith(".svg")))
        t.count("plotting.series_points", len(variables) * sum(len(tr) for tr in trajectories))

    tracer.wrap(ep.cli, "main", "cli.main")
    tracer.wrap(ep.scenarios, "run_scenario", "scenarios.run_scenario", before=days)
    tracer.wrap(ep.scenarios, "summarize", "scenarios.summarize")
    for attr in ("sweep_start_dates", "sweep_intensity", "sweep_duration"):
        tracer.wrap(ep.scenarios, attr, "scenarios.sweep", after=members_failed)
    _PoolWaitExecutor.tracer = tracer
    tracer.replace(ep.scenarios, "ProcessPoolExecutor", _PoolWaitExecutor)
    tracer.wrap(ep.planner, "solve", "planner.solve", before=solve)
    # one call of the private shooting routine is one pass over the horizon
    tracer.wrap(ep.planner, "_propagate", None, before=shooting_pass)
    tracer.wrap(ep.data_io, "write_trajectory", "data_io.write_trajectory", after=written)
    tracer.wrap(ep.data_io, "read_trajectory", "data_io.read_trajectory", before=read)
    tracer.wrap(ep.data_io, "write_json", "data_io.write_json")
    for attr in ("load_annual_series", "load_case_series", "load_tradeoff_panel"):
        tracer.wrap(ep.data_io, attr, "data_io.load")
    tracer.wrap(ep.plotting, "emit_plots", "plotting.emit", after=plotted)
    tracer.wrap(ep.calibration, "calibrate", "calibration.calibrate")


# per-layer metric -> span whose self time it reports
SELF_TIME_METRICS = {
    "planner.solve_s": "planner.solve",
    "epidemic.pass_s": "scenarios.run_scenario",
    "scenarios.summarize_s": "scenarios.summarize",
    "scenarios.sweep_s": "scenarios.sweep",
    "scenarios.pool_wait_s": "scenarios.pool_wait",
    "cli.main_s": "cli.main",
    "data_io.write_trajectory_s": "data_io.write_trajectory",
    "data_io.read_trajectory_s": "data_io.read_trajectory",
    "data_io.write_json_s": "data_io.write_json",
    "data_io.load_s": "data_io.load",
    "plotting.emit_s": "plotting.emit",
    "calibration.calibrate_s": "calibration.calibrate",
}

COUNT_METRICS = (
    "planner.solves", "planner.passes", "epidemic.days", "scenarios.members_failed",
    "data_io.write_bytes", "data_io.read_bytes", "plotting.svg_bytes", "plotting.series_points",
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as means over the traced runs (one run per round).

    Every span name in ``SELF_TIME_METRICS`` plus the root span partitions
    each run, so the reported self times plus ``trace.untraced_s`` add up
    to ``trace.wall_s``.  Raises if a span name is not accounted for.
    """
    runs = sorted({s.run_id for s in tracer.spans if s.name == ROOT_SPAN})
    if not runs:
        raise ValueError("no traced rounds")
    known = set(SELF_TIME_METRICS.values()) | {ROOT_SPAN}
    self_by_name: dict = defaultdict(float)
    inclusive_run_scenario = 0.0
    wall = 0.0
    for s, st in zip(tracer.spans, self_times(tracer.spans)):
        if s.name not in known:
            raise ValueError(f"span {s.name!r} has no per-layer metric")
        self_by_name[s.name] += st
        if s.name == "scenarios.run_scenario":
            inclusive_run_scenario += s.end - s.start
        if s.name == ROOT_SPAN:
            wall += s.end - s.start
    n = len(runs)
    out = {metric: self_by_name[name] / n for metric, name in SELF_TIME_METRICS.items()}
    totals: dict = defaultdict(float)
    for run_counts in tracer.counts.values():
        for key, value in run_counts.items():
            totals[key] += value
    out.update({key: totals[key] / n for key in COUNT_METRICS})
    out["scenarios.run_scenario_s"] = inclusive_run_scenario / n
    out["planner.passes_per_solve"] = (
        totals["planner.passes"] / totals["planner.solves"] if totals["planner.solves"] else 0.0)
    solve_s = self_by_name["planner.solve"]
    out["planner.pass_days_per_s"] = totals["planner.pass_days"] / solve_s if solve_s else 0.0
    out["trace.wall_s"] = wall / n
    out["trace.untraced_s"] = self_by_name[ROOT_SPAN] / n
    layer_sum = sum(out[m] for m in SELF_TIME_METRICS)
    if abs(layer_sum + out["trace.untraced_s"] - out["trace.wall_s"]) > 1e-9 * max(1.0, out["trace.wall_s"]):
        raise AssertionError("span self times do not add up to the traced wall time")
    return out
