"""Dependency-free SVG line charts plus the exact plotted data as CSV,
written by ``data_io.write_columns`` in the trajectory CSVs' format.

The renderer is deliberately minimal and fully deterministic: given the
same inputs it emits byte-identical files (the version string below is
embedded in every SVG so output stability is checkable).  Value-axis
ticks are labelled with the fewest significant digits (6 to 17) that tell them apart.
"""

from __future__ import annotations

import math
from datetime import date
from itertools import repeat
from pathlib import Path

import numpy as np

from .data_io import atomic_write_text, write_columns
from .scenarios import pool_map

RENDERER_VERSION = "epigrowth-svg/1"
CHART_FILES = ("{}.svg", "{}_data.csv")  # each chart's files, by variable

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f",
]

WIDTH, HEIGHT = 960, 540
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 24, 44, 56
TICK_COUNT = 5  # about this many value-axis ticks


def _xml_text(text: str) -> str:
    """``text`` escaped for an XML text node, as ``xml.sax.saxutils.escape``
    does it.  Importing that module pulls in ``urllib.request`` (about 35 ms)
    and ``html.escape`` pulls in ``html.entities`` (about 1 MB of peak memory
    in a scenario run), so the three replacements are spelled out here."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(y_min: float, y_max: float) -> list:
    """About ``TICK_COUNT`` round values, evenly spaced, that cover [y_min, y_max].
    ValueError when the axis they span is wider than the largest double."""
    lo, hi = y_min, y_max
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
        if lo == hi:  # 1 is below the value's resolution
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    span = hi - lo
    if math.isfinite(span):
        raw = span / TICK_COUNT
        # 10.0 ** -324 underflows to 0: no step is below the smallest double
        mag = max(10.0 ** int(f"{raw:e}".split("e")[1]), math.ulp(0.0))
        for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
            if raw <= mult * mag:
                step = mult * mag
                break
        else:
            step = 10.0 * mag
        first = step * (lo // step)
        stop = hi + 0.5 * step
    if not (math.isfinite(span) and math.isfinite(stop - first)):
        raise ValueError(f"values from {y_min!r} to {y_max!r} need an axis wider than the largest double")
    ticks = []
    v = first
    # each v += step adds at least half a step unless it leaves v as it
    # is, so the loop reaches stop within twice (stop - first) / step passes
    for _ in range(int((stop - first) / step * 2.0) + 2):
        if not v <= stop:
            break
        if v >= lo - 0.5 * step:
            ticks.append(v)
        if v + step == v:  # the step is below v's resolution
            break
        v += step
    # none when first, rounded, lands past stop: the step is below lo's resolution
    return ticks or [lo, hi]


def value_axis(columns: list) -> tuple:
    """The value axis of a chart of the float arrays ``columns``: their
    lowest and highest value and the axis ticks; ValueError as for
    ``_nice_ticks``."""
    lows, highs = [], []
    for values in columns:
        values = values.tolist()
        lows.append(min(values))
        highs.append(max(values))
    y_min, y_max = min(lows), max(highs)
    return y_min, y_max, _nice_ticks(y_min, y_max)


def tick_labels(ticks: list) -> list:
    """``%g`` labels with the fewest significant digits, 6 to 17, that tell the ticks apart."""
    for digits in range(6, 18):
        labels = [f"{v:.{digits}g}" for v in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def check_variables(variables: list, valid) -> None:
    """ValueError unless each of ``variables`` is one of ``valid``, named once."""
    for var in variables:
        if var not in valid:
            raise ValueError(f"unknown variable {var!r}; valid variables: {sorted(valid)}")
        if variables.count(var) > 1:
            raise ValueError(f"variable {var!r} is named more than once")


def emit_plots(trajectories: list, variables: list, out_dir, jobs: int = 1) -> list:
    """One SVG per variable with one line per trajectory, plus a CSV of the
    plotted columns, with each variable's chart a task on up to ``jobs``
    processes.  Returns the relative names of the written files."""
    if not trajectories:
        raise ValueError("need at least one trajectory to plot")
    if not variables:
        raise ValueError("variable list is empty")
    names = [t.scenario_name for t in trajectories]
    if len(set(names)) != len(names):
        raise ValueError(f"trajectory names must be unique, got {names}")
    check_variables(variables, trajectories[0].columns())
    tasks = [[(t.scenario_name, t.days, t.columns()[var]) for t in trajectories] for var in variables]
    axes = []
    for var, series in zip(variables, tasks):
        try:
            axes.append(value_axis([values for _, _, values in series]))
        except ValueError as exc:
            raise ValueError(f"variable {var!r} of {', '.join(names)}: {exc}") from None

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = pool_map(_chart, jobs, tasks, variables, repeat(out_dir), axes)
    return [name for pair in written for name in pair]


def _chart(series: list, var: str, out_dir, axis: tuple) -> list:
    # the pool task: it looks ``chart`` up in the process that runs it
    return chart(series, var, out_dir, axis)


def chart(series: list, var: str, out_dir, axis: tuple) -> list:
    """Write ``{var}.svg`` with one line per series and ``{var}_data.csv``
    with the plotted values (``data_io.write_columns``), into the existing
    ``out_dir``.  Each series is (name, days, values): a range of day
    numbers (``date.toordinal``) and the float array of ``var`` on those
    days; ``axis`` is their ``value_axis``.  Returns the two file names."""
    out_dir = Path(out_dir)
    svg_name, csv_name = (name.format(var) for name in CHART_FILES)
    write_columns(series, out_dir / csv_name)
    atomic_write_text(render_svg(series, var, axis), out_dir / svg_name)
    return [svg_name, csv_name]


def render_svg(series: list, var: str, axis: tuple) -> str:
    """The SVG chart of ``var`` over ``series`` on ``axis``, as for
    ``chart``.  A series' polyline is one ``%`` on a template of its day
    range's x coordinates, ``sx`` on the range's array, formatted once per
    chart, with its y coordinates ``sy`` on its value array: on an array,
    each gives the floats it gives each day or value alone."""
    x_min = min(days[0] for _, days, _ in series)
    x_max = max(days[-1] for _, days, _ in series)
    x_span = max(x_max - x_min, 1)
    y_min, y_max, ticks = axis
    y_min = min(y_min, ticks[0])
    y_max = max(y_max, ticks[-1])
    if y_max == y_min:  # the next double up, where 1 is below y_min's resolution
        y_max = max(y_min + 1.0, math.nextafter(y_min, math.inf))

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(d: int) -> float:
        return MARGIN_L + plot_w * (d - x_min) / x_span

    def sy(v: float) -> float:
        return MARGIN_T + plot_h * (1.0 - (v - y_min) / (y_max - y_min))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<!-- {RENDERER_VERSION} -->",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="24" font-family="sans-serif" font-size="16" '
        f'font-weight="bold">{_xml_text(var)}</text>',
    ]

    for v, label in zip(ticks, tick_labels(ticks)):
        y = sy(v)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{y:.2f}" x2="{WIDTH - MARGIN_R}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{y + 4:.2f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{label}</text>'
        )

    first_year, last_year = date.fromordinal(x_min).year, date.fromordinal(x_max).year
    n_years = last_year - first_year + 1
    year_step = max(1, (n_years + 9) // 10)
    for year in range(first_year, last_year + 1, year_step):
        tick_day = date(year, 1, 1).toordinal()
        if tick_day < x_min or tick_day > x_max:
            continue
        x = sx(tick_day)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T}" x2="{x:.2f}" y2="{HEIGHT - MARGIN_B}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_B + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{year}</text>'
        )

    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )

    templates = {}
    for i, (name, days, values) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        if days not in templates:
            templates[days] = " ".join(["%.2f,%%.2f"] * len(days)) % tuple(
                sx(np.arange(days.start, days.stop)).tolist())
        points = templates[days] % tuple(sy(np.asarray(values, dtype=float)).tolist())
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_T + 16 + 16 * i
        parts.append(
            f'<line x1="{MARGIN_L + 10}" y1="{ly - 4}" x2="{MARGIN_L + 34}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L + 40}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_xml_text(name)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
