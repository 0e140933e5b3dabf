"""Dataset ingestion, validation, and artifact serialisation.

All loaders either return a fully validated object or raise
DataFormatError naming the offending row or key; they never return a
partial series.  Numeric values are serialised with ``repr`` so CSV and
JSON round-trips are lossless, and dates are ISO-8601.  ``write_columns``
writes every dated float CSV, and ``read_trajectory`` reads a trajectory
back only in the form it writes.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass
from datetime import date
from functools import lru_cache, partial
from itertools import chain, repeat
from operator import add, itemgetter
from pathlib import Path

import numpy as np

from .calibration import AnnualSeries, CaseSeries
from .params import (DataFormatError, ModelParams, default_config, iso_day, parse_date, parse_file_name,
                     parse_list, parse_number, parse_section, parse_year, shown)
from .scenarios import SWEEP_AXES, TRAJECTORY_COLUMNS, Scenario, Trajectory, parse_sweep

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

TRAJECTORY_HEADER = ["date", *TRAJECTORY_COLUMNS]


@dataclass(frozen=True)
class DatasetManifest:
    """Where a dataset lives and its kind, which fixes the columns read."""

    path: Path
    kind: str

    def __post_init__(self):
        if self.kind not in KIND_COLUMNS:
            raise DataFormatError(f"unknown dataset kind {self.kind!r}; expected one of {sorted(KIND_COLUMNS)}")
        object.__setattr__(self, "path", Path(self.path))


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
    column and the rows keep the file's order.  A missing file, a byte that
    is not UTF-8 and a line the csv module cannot split (a field over its
    size limit) are each an error naming the file."""
    path = manifest.path
    key_column, *value_columns = wanted = KIND_COLUMNS[manifest.kind]
    if not path.exists():
        raise DataFormatError(f"dataset file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
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
    """The trajectory's ``TRAJECTORY_COLUMNS``, by ``write_columns``."""
    write_columns([(name, trajectory.days, column) for name, column in trajectory.columns().items()], path)


_HEADER_LINE = ",".join(TRAJECTORY_HEADER)
_VALUE_COLUMNS = range(1, len(TRAJECTORY_HEADER))
# the writer writes printable ASCII and "\n"; numpy's text reader would take
# other spaces, "\x1c"-"\x1f" and "\xa0" among them, for whitespace
_WRITTEN_BYTES = bytes(range(32, 127)) + b"\n"
_loadtxt = partial(np.loadtxt, delimiter=",", usecols=_VALUE_COLUMNS, comments=None, ndmin=2)


def _refuses(line: str, columns=_VALUE_COLUMNS) -> bool:
    """Whether ``np.loadtxt`` refuses a cell of ``columns`` in ``line``."""
    try:
        _loadtxt([line], usecols=columns)
    except ValueError:
        return True
    return False


def read_trajectory(path) -> Trajectory:
    """Inverse of write_trajectory.  Run metadata is not stored in the CSV,
    so the run is named after the file stem and welfare is NaN.  The file
    must be in the writer's form: printable ASCII lines; the header; 11
    commas a line; ``YYYY-MM-DD`` dates on consecutive days; numbers that
    one ``np.loadtxt`` call reads as finite floats.  Each rule is checked
    over all lines at once; an error names the file, the first line that
    breaks the rule (the header is row 1) and the rule."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"trajectory file not found: {path}")
    raw = path.read_bytes()
    stray = raw.translate(None, _WRITTEN_BYTES)[:1]
    if stray:
        row = raw.count(b"\n", 0, raw.index(stray)) + 1
        raise DataFormatError(f"{path}: row {row}: unexpected byte {stray!r}")
    header, *body = raw.decode("ascii").splitlines() or [""]
    if header != _HEADER_LINE:
        raise DataFormatError(f"{path}: row 1: unexpected header {header.split(',')}, want {TRAJECTORY_HEADER}")
    if not body:
        raise DataFormatError(f"{path}: no data rows")
    if set(map(str.count, body, repeat(","))) != {len(_VALUE_COLUMNS)}:
        row = next(n for n, line in enumerate(body, start=2) if line.count(",") != len(_VALUE_COLUMNS))
        raise DataFormatError(f"{path}: row {row}: expected {len(TRAJECTORY_HEADER)} fields")
    row = 2
    try:  # the date cells: the first, then the first one not the next day
        first = iso_day(body[0][:body[0].find(",")]).toordinal()
        days = iso_dates(range(first, first + len(body)))
        dated = list(map(str.startswith, body, map(add, days, repeat(","))))
        if not all(dated):
            row = dated.index(False) + 2
            iso_day(body[row - 2][:body[row - 2].find(",")])
    except ValueError as exc:
        raise DataFormatError(f"{path}: row {row}: {exc}") from None
    if not all(dated):
        raise DataFormatError(
            f"{path}: row {row}: date {body[row - 2][:10]} does not follow {days[row - 3]} by one day")
    try:
        data = _loadtxt(body).T
    except ValueError:
        row, line = next((n, line) for n, line in enumerate(body, start=2) if _refuses(line))
        column = next(c for c in _VALUE_COLUMNS if _refuses(line, c))
        raise DataFormatError(f"{path}: row {row}: non-numeric {TRAJECTORY_HEADER[column]!r} value "
                              f"{shown(line.split(',')[column])}") from None
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        column, row = bad[np.argmin(bad[:, 1])]
        raise DataFormatError(
            f"{path}: row {row + 2}: non-finite {TRAJECTORY_COLUMNS[column]!r} value {data[column, row]!r}")
    return Trajectory(scenario_name=path.stem, days=range(first, first + len(body)), welfare=float("nan"),
                      **dict(zip(TRAJECTORY_COLUMNS, data)))


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members; ValueError naming a key that it repeats."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {shown(next(key for key in doc if keys.count(key) > 1))}")
    return doc


def read_json_object(path, what: str) -> dict:
    """The JSON object stored in ``path``, a ``what`` file; each error names
    the file, and a key repeated within an object is one."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{what} file not found: {path}")
    try:
        doc = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
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
