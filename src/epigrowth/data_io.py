"""Dataset ingestion, validation, and artifact serialisation.

All loaders either return a fully validated object or raise
DataFormatError naming the offending row or key; they never return a
partial series.  Numeric values are serialised with ``repr`` so CSV and
JSON round-trips are lossless, and dates are ISO-8601.  ``write_columns``
writes every dated float CSV: the trajectories and the charts' data.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from functools import lru_cache, partial
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .calibration import AnnualSeries, CaseSeries
from .params import (DataFormatError, ModelParams, default_config, iso_day, parse_date, parse_file_name,
                     parse_list, parse_number, parse_section, parse_year, shown)
from .scenarios import SWEEP_AXES, Scenario, Trajectory, parse_sweep

log = logging.getLogger(__name__)


KIND_COLUMNS = {
    "population": ("year", "value"),
    "gdp": ("year", "value"),
    "gcf": ("year", "value"),
    "cases": ("date", "confirmed", "recovered", "deaths"),
    "tradeoff-panel": ("gdp_shortfall_pct", "infection_reduction_pct"),
}

# config.data key of a dataset's file name -> its kind
DATASETS = {"population": "population", "gdp": "gdp", "gcf": "gcf", "cases": "cases",
            "tradeoff": "tradeoff-panel"}

TRAJECTORY_HEADER = ["date", "N", "S", "I", "R", "D", "A", "K", "Y", "C", "H", "p"]


@dataclass(frozen=True)
class DatasetManifest:
    """Where a dataset lives and its kind, which fixes the columns read."""

    path: Path
    kind: str

    def __post_init__(self):
        if self.kind not in KIND_COLUMNS:
            raise DataFormatError(f"unknown dataset kind {self.kind!r}; expected one of {sorted(KIND_COLUMNS)}")
        object.__setattr__(self, "path", Path(self.path))


@contextmanager
def _open_text(path: Path, what: str):
    """``path``, a ``what`` file, open as UTF-8 text for the csv module; a
    missing file, a byte that is not UTF-8 and a line the csv module cannot
    split (a field over its size limit) are each an error naming the file."""
    if not path.exists():
        raise DataFormatError(f"{what} file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _parse_float(raw: str, path: Path, row_number: int, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise DataFormatError(f"{path}: row {row_number}: non-numeric {column!r} value {shown(raw)}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"{path}: row {row_number}: non-finite {column!r} value {shown(raw)}")
    return value


def _read_columns(manifest: DatasetManifest, parse_key=None) -> tuple[list, list]:
    """A dataset's key column and its float columns, in the order of
    ``KIND_COLUMNS``.  ``parse_key(raw, row_number)`` parses the keys, and
    the rows come back sorted by key; without it the key is one more float
    column and the rows keep the file's order."""
    path = manifest.path
    key_column, *value_columns = wanted = KIND_COLUMNS[manifest.kind]
    with _open_text(path, "dataset") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [column for column in wanted if column not in header]
        if missing:
            raise DataFormatError(f"{path}: missing columns {missing} (header is {header})")
        records = []
        for row_number, row in enumerate(reader, start=2):  # header is row 1
            key = row[key_column]
            key = parse_key(key, row_number) if parse_key else _parse_float(key, path, row_number, key_column)
            records.append((key, *[_parse_float(row[c], path, row_number, c) for c in value_columns]))
    if not records:
        raise DataFormatError(f"{path}: no data rows")
    if parse_key:
        records.sort(key=itemgetter(0))
    keys, *columns = zip(*records)
    return list(keys), [np.array(column) for column in columns]


def load_annual_series(manifest: DatasetManifest) -> AnnualSeries:
    """Read and validate a (year, value) series; sorted by year."""
    path, seen = manifest.path, {}

    def parse_row_year(raw: str, row_number: int) -> int:
        try:
            year = int(raw)
        except (TypeError, ValueError):
            raise DataFormatError(f"{path}: row {row_number}: non-numeric 'year' value {shown(raw)}") from None
        if year in seen:
            raise DataFormatError(
                f"{path}: row {row_number}: duplicate year {year} (first seen at row {seen[year]})")
        seen[year] = row_number
        return year

    years, (values,) = _read_columns(manifest, parse_row_year)
    return AnnualSeries(np.array(years), values)


def load_case_series(manifest: DatasetManifest) -> tuple[CaseSeries, dict]:
    """Read cumulative case counts; repairs non-monotone corrections by
    running maximum and reports the repair count per column."""
    dates, columns = _read_columns(manifest, lambda raw, row: parse_date(raw, f"{manifest.path}: row {row}"))
    counts = dict(zip(KIND_COLUMNS["cases"][1:], columns))
    repaired = {name: np.maximum.accumulate(arr) for name, arr in counts.items()}
    repairs = {name: int(np.sum(repaired[name] != arr)) for name, arr in counts.items()}
    total = sum(repairs.values())
    if total:
        log.info("repaired %d non-monotone cumulative entries in %s: %s", total, manifest.path, repairs)
    try:
        series = CaseSeries(dates=dates, **repaired)
    except ValueError as exc:
        raise DataFormatError(f"{manifest.path}: {exc}") from exc
    return series, repairs


def load_tradeoff_panel(manifest: DatasetManifest) -> tuple[np.ndarray, np.ndarray]:
    """Read the (GDP shortfall %, infection-rate reduction %) panel, in file order."""
    shortfall, (reduction,) = _read_columns(manifest)
    return np.array(shortfall), reduction


def atomic_write_text(text: str, path: Path) -> None:
    """Write text through a temporary file in the target's directory and
    rename it into place, so readers never see a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(rows: list, path) -> None:
    """CSV of dict rows; the columns are the union of the rows' keys in
    first-seen order, and a row's missing keys are written empty."""
    columns = list(dict.fromkeys(key for row in rows for key in row))
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=columns, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    atomic_write_text(text.getvalue(), Path(path))


@lru_cache(maxsize=4)
def iso_dates(days: range) -> tuple[str, ...]:
    """The ISO-8601 date of each day number (``date.toordinal``) in
    ``days``.  The last four ranges are kept: the files of a sweep, or of
    a chart's data, cover two or three."""
    return tuple(map(date.isoformat, map(date.fromordinal, days)))


def write_columns(series: list, path) -> None:
    """CSV of one float column per series (name, days, values), ``days`` a
    range of day numbers (``date.toordinal``): a header of ``date`` and the
    names, csv-quoted, then a row per day that some series covers, oldest
    first, each cell the ``repr`` of its value (so reading back is
    lossless), or empty outside the series' days."""
    spans = []  # the days the series cover, as merged [start, stop) pairs
    for start, stop in sorted((days.start, days.stop) for _, days, _ in series if days):
        if spans and start <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], stop)
        else:
            spans.append([start, stop])
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(["date"] + [name for name, _, _ in series])
    parts = [header.getvalue()]
    for start, stop in spans:
        # a series lies wholly inside one span; zip stops with the span's dates
        cells = [chain(repeat("", days.start - start), map(repr, np.asarray(values, dtype=float).tolist()),
                       repeat("")) if start <= days.start < stop else repeat("")
                 for _, days, values in series]
        parts += ["\n".join(map(",".join, zip(iso_dates(range(start, stop)), *cells))), "\n"]
    atomic_write_text("".join(parts), Path(path))


def write_trajectory(trajectory: Trajectory, path) -> None:
    """The trajectory's ``TRAJECTORY_HEADER`` columns, by ``write_columns``."""
    cols = trajectory.columns()
    write_columns([(name, trajectory.days, cols[name]) for name in TRAJECTORY_HEADER[1:]], path)


_HEADER_LINE = ",".join(TRAJECTORY_HEADER) + "\n"
# numpy's text reader strips "\x1c"-"\x1f" around a number as whitespace,
# where float() rejects them; a "\r" line end, which the writer never
# writes, is left to the csv module's rules
_NOT_BULK = "\r\x1c\x1d\x1e\x1f"


def _parse_written_form(lines: list):
    """``(first day number, values)`` of the trajectory CSV whose lines
    are ``lines``, if it is in the form ``write_trajectory`` writes, with
    ``values`` one row per column: the header line, then lines of 11 commas
    whose date cells are consecutive days in ``YYYY-MM-DD``.  The numbers
    are parsed in one ``np.loadtxt`` call, with no Python loop over rows.
    None for a file in any other form, or with a cell that is not a
    number."""
    body = lines[1:]
    if not body or lines[0] != _HEADER_LINE or any(map("".join(body).__contains__, _NOT_BULK)):
        return None
    commas = len(TRAJECTORY_HEADER) - 1
    if set(map(str.count, body, repeat(","))) != {commas} or set(map(str.find, body, repeat(","))) != {10}:
        return None
    try:
        first = iso_day(body[0][:10]).toordinal()
        if tuple(map(itemgetter(slice(10)), body)) != iso_dates(range(first, first + len(body))):
            return None
        values = np.loadtxt(body, delimiter=",", usecols=range(1, commas + 1), comments=None, ndmin=2)
    except ValueError:
        return None
    return first, values.T


def _parse_rows(fh, path: Path):
    """``(first day number, values)`` of the trajectory CSV open as ``fh``,
    read one row at a time with the csv module; the first row that is not
    a date and 11 numbers, or not the day after the row before it, is an
    error naming it."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != TRAJECTORY_HEADER:
        raise DataFormatError(f"{path}: unexpected header {header}, want {TRAJECTORY_HEADER}")
    days, rows = [], []
    for i, row in enumerate(reader):
        if len(row) != len(TRAJECTORY_HEADER):
            raise DataFormatError(f"{path}: row {i + 2}: expected {len(TRAJECTORY_HEADER)} fields")
        try:
            day = iso_day(row[0]).toordinal()
            rows.append(list(map(float, row[1:])))
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {i + 2}: {exc}") from None
        if days and day != days[-1] + 1:
            raise DataFormatError(
                f"{path}: row {i + 2}: date {row[0]} does not follow "
                f"{date.fromordinal(days[-1]).isoformat()} by one day")
        days.append(day)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return days[0], np.array(rows).T


def read_trajectory(path) -> Trajectory:
    """Inverse of write_trajectory.  Run metadata is not stored in the CSV,
    so the run is named after the file stem and welfare is NaN.  The rows
    must be consecutive days, oldest first, each dated ``YYYY-MM-DD``.  A
    file in the form ``write_trajectory`` writes is parsed in bulk by
    numpy's text reader; any other file, or one with a cell that is not a
    number, is read row by row, which accepts what the csv module and
    ``float`` accept (quoted cells, ``1_000``, padded numbers) and names the
    first bad row."""
    path = Path(path)
    with _open_text(path, "trajectory") as fh:
        parsed = _parse_written_form(fh.readlines())
        if parsed is None:
            fh.seek(0)
            parsed = _parse_rows(fh, path)
    first, data = parsed
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        column, row = bad[np.argmin(bad[:, 1])]
        raise DataFormatError(
            f"{path}: row {row + 2}: non-finite {TRAJECTORY_HEADER[column + 1]!r} value {data[column, row]!r}"
        )
    named = dict(zip(TRAJECTORY_HEADER[1:], data))
    return Trajectory(
        scenario_name=path.stem,
        days=range(first, first + data.shape[1]),
        welfare=float("nan"),
        **named,
    )


def read_json_object(path, what: str) -> dict:
    """The JSON object stored in ``path``, a ``what`` file; each error names
    the file."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{what} file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise DataFormatError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: top-level JSON value must be an object, got {type(doc).__name__}")
    return doc


def read_params(path) -> ModelParams:
    doc = read_json_object(path, "params")
    doc.pop("provenance", None)
    return ModelParams.from_dict(doc, str(path))


def write_json(obj, path) -> None:
    atomic_write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", Path(path))


# ---------------------------------------------------------------------------
# Run configuration


def _year_span(raw, where: str) -> tuple[int, int]:
    years = parse_list(raw, where, parse_year)
    if not (len(years) == 2 and years[0] < years[1]):
        raise DataFormatError(f"{where}: expected [first year, last year], first before last, got {shown(raw)}")
    return tuple(years)


def _positive_number(raw, where: str) -> float:
    value = parse_number(raw, where)
    if not value > 0:
        raise DataFormatError(f"{where}: expected a number > 0, got {shown(raw)}")
    return value


_DATA_SETTINGS = {**dict.fromkeys(DATASETS, parse_file_name), "case_population": _positive_number,
                  "population_fit_years": _year_span}
_METRICS_SETTINGS = {"output_ratio_dates": lambda raw, where: parse_list(raw, where, parse_date)}
_BACKTEST_SETTINGS = {"start_year": parse_year, "end_year": parse_year, "tolerance": parse_number,
                      "horizon": parse_date}


def _backtest_section(raw, where: str) -> dict:
    """The backtest section, its years in order and its horizon beyond them."""
    backtest = parse_section(raw, where, _BACKTEST_SETTINGS.get, _BACKTEST_SETTINGS)
    start, end, horizon = (backtest[key] for key in ("start_year", "end_year", "horizon"))
    if end < start:
        raise DataFormatError(f"{where}.end_year: expected a year from start_year {start} on, got {end}")
    if horizon <= date(end, 12, 31):
        raise DataFormatError(f"{where}.horizon: expected a date after {end}-12-31, got {horizon.isoformat()}")
    return backtest


_SWEEP_PARSERS = {axis: partial(parse_sweep, axis) for axis in SWEEP_AXES}

# config section -> its parser; each error names the dotted key
_CONFIG_SECTIONS = {
    "params": ModelParams.from_dict,
    "scenarios": lambda raw, where: parse_section(raw, where, lambda name: partial(Scenario.from_dict, name)),
    "sweeps": lambda raw, where: parse_section(raw, where, _SWEEP_PARSERS.get, _SWEEP_PARSERS),
    "data": lambda raw, where: parse_section(raw, where, _DATA_SETTINGS.get, _DATA_SETTINGS),
    "metrics": lambda raw, where: parse_section(raw, where, _METRICS_SETTINGS.get, _METRICS_SETTINGS),
    "backtest": _backtest_section,
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    scenarios: dict
    sweeps: dict
    data: dict
    metrics: dict
    backtest: dict

    def scenario(self, name: str) -> Scenario:
        if name not in self.scenarios:
            raise KeyError(f"unknown scenario {name!r}; known scenarios: {sorted(self.scenarios)}")
        return self.scenarios[name]

    def ratio_dates(self) -> list:
        return list(self.metrics["output_ratio_dates"])


def parse_config(doc: dict) -> RunConfig:
    """Validate a merged configuration document."""
    return RunConfig(**parse_section(doc, "config", _CONFIG_SECTIONS.get, _CONFIG_SECTIONS))


def load_config(path=None) -> RunConfig:
    """Shipped defaults, deep-merged with an optional user JSON document.

    Unknown keys are rejected with their dotted path.
    """
    doc = default_config()
    if path is not None:
        doc = _merge(doc, read_json_object(path, "config"))
    return parse_config(doc)


def data_manifests(data_dir, config: RunConfig) -> dict:
    """Default manifests for the bundled dataset layout."""
    return {key: DatasetManifest(path=Path(data_dir) / config.data[key], kind=kind)
            for key, kind in DATASETS.items()}
