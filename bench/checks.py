"""Output checks computed from outside the program.

The Euler residual here is an independent oracle: it is recomputed from the
returned trajectory columns and the model parameters alone, not read from
the planner's own diagnostics.  Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

SUMMARY_KEYS = ("total_deaths", "peak_date", "max_output_drop_pct", "welfare")
SUMMARY_RTOL = 1e-9
BALANCE_RTOL = 1e-9


def euler_residual_max(cols: dict, alpha: float, beta: float, delta: float) -> float:
    """Largest interior Euler residual of a trajectory.

    (C/N)_{t+1} / (C/N)_t = beta * (1 - delta + MPK_{t+1}), with
    MPK = alpha * (1 - p) * A * K**(alpha - 1) * (S + R)**(1 - alpha).
    """
    C, K, N, A, p = (np.asarray(cols[k], dtype=float) for k in ("C", "K", "N", "A", "p"))
    L = np.asarray(cols["S"], dtype=float) + np.asarray(cols["R"], dtype=float)
    if len(C) < 2:
        return 0.0
    mpk = alpha * (1.0 - p[1:]) * A[1:] * K[1:] ** (alpha - 1.0) * L[1:] ** (1.0 - alpha)
    cpc = C / N
    return float(np.max(np.abs(cpc[1:] / cpc[:-1] / (beta * (1.0 - delta + mpk)) - 1.0)))


def trajectory_failures(cols: dict, params, label: str) -> list:
    """Euler residual within ``params.euler_tol``, N = S + I + R, D never
    decreasing."""
    failures = []
    residual = euler_residual_max(cols, params.alpha, params.beta_daily, params.delta_daily)
    if not residual <= params.euler_tol:
        failures.append(f"{label}: Euler residual {residual:.3g} > euler_tol {params.euler_tol:g}")
    N = np.asarray(cols["N"], dtype=float)
    total = np.asarray(cols["S"]) + np.asarray(cols["I"]) + np.asarray(cols["R"])
    gap = float(np.max(np.abs(total - N) / np.abs(N)))
    if not gap <= BALANCE_RTOL:
        failures.append(f"{label}: N differs from S+I+R by a relative {gap:.3g}")
    if np.any(np.diff(np.asarray(cols["D"], dtype=float)) < 0):
        failures.append(f"{label}: D decreases")
    return failures


def summary_failures(summary: dict, recorded: dict | None, label: str) -> list:
    """Compare summary metrics to the values recorded for this input.

    ``recorded`` is None for inputs that have no recorded values.
    """
    if recorded is None:
        return []
    failures = []
    for key in SUMMARY_KEYS:
        got, want = summary[key], recorded[key]
        if key == "peak_date":
            ok = str(got) == want
        else:
            ok = abs(float(got) - want) <= SUMMARY_RTOL * abs(want)
        if not ok:
            failures.append(f"{label}: {key} {got!r} differs from recorded {want!r}")
    return failures


class Tally:
    """Operations attempted and failed; an operation fails when any of its
    checks fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list, ops: int = 1) -> None:
        self.attempted += ops
        if failures:
            self.failed += ops
            self.messages.extend(failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
