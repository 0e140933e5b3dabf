"""Summary statistics for timing samples."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from time import thread_time

# candidate percentiles, highest first
PERCENTILES = (Fraction(999, 10), Fraction(99), Fraction(90))
MIN_BEYOND = 10


def reportable_percentile(n: int):
    """Highest candidate percentile with at least ten of ``n`` samples
    beyond it, or None when even the 90th has fewer."""
    for q in PERCENTILES:
        if n * (100 - q) >= MIN_BEYOND * 100:
            return q
    return None


def nearest_rank(values: list, q) -> float:
    """The ``q``-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    rank = math.ceil(Fraction(q) / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def timing_summary(values: list) -> dict:
    """Median and sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    q = reportable_percentile(len(values))
    if q is not None:
        out[f"p{float(q):g}"] = nearest_rank(values, q)
    return out


def spread(values: list) -> float:
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# The host's core speed switches between a fast and a slow state every
# second or so, independently on each core, and the share of time in each
# drifts from minute to minute.  End-to-end times are therefore reported in
# reference-speed seconds: each raw time is divided by the mean time a fixed
# loop took around it, over the loop's nominal time.  Code of different
# kinds gains differently from the fast state, so each workload names the
# loop closest to its dominant work: float powers for the planner, float
# formatting for the CSV and SVG writers.  On this host the wrong loop left
# two to three times the run-to-run spread.  Loops are timed in thread CPU
# time, so a sample taken while other processes compete for the core still
# measures its speed.
REFERENCE_LOOP_NOMINAL_S = 0.02


def float_loop() -> float:
    """Thread CPU seconds taken by a fixed pure-Python float-power loop."""
    t0 = thread_time()
    acc = 0.0
    for i in range(150_000):
        acc = acc * 0.5 + (i + 1.5) ** 0.3
    return thread_time() - t0


def format_loop() -> float:
    """Thread CPU seconds taken by a fixed float-formatting loop."""
    t0 = thread_time()
    acc = 0.0
    for i in range(25_000):
        acc = acc * 0.5 + (i + 1.5) ** 0.3
        repr(acc)
    return thread_time() - t0


class SpeedProbe:
    """Reference-loop samples taken during one run."""

    def __init__(self, loop):
        self.loop = loop
        self.samples: list[float] = []

    def sample(self, n: int = 2) -> None:
        self.samples.extend(self.loop() for _ in range(n))

    def slowdown(self, since: int = 0) -> float:
        """Mean reference-loop time of the samples from index ``since`` on,
        over its nominal time; divide a raw time by it to get
        reference-speed seconds.  The mean, not the median, because a raw
        time integrates over both speed states."""
        return statistics.mean(self.samples[since:]) / REFERENCE_LOOP_NOMINAL_S
