"""Dataset ingestion, validation, and artifact serialisation.

All loaders either return a fully validated object or raise
DataFormatError naming the offending row or key; they never return a
partial series.  Numeric values are serialised with ``repr`` so CSV and
JSON round-trips are lossless, and dates are ISO-8601.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .calibration import AnnualSeries, CaseSeries
from .params import DataFormatError, ModelParams, check_keys, default_config, parse_date
from .scenarios import SWEEP_AXES, Scenario, Trajectory, parse_sweep

log = logging.getLogger(__name__)


KIND_COLUMNS = {
    "population": ("year", "value"),
    "gdp": ("year", "value"),
    "gcf": ("year", "value"),
    "cases": ("date", "confirmed", "recovered", "deaths"),
    "tradeoff-panel": ("gdp_shortfall_pct", "infection_reduction_pct"),
}

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


def _read_rows(manifest: DatasetManifest) -> list:
    if not manifest.path.exists():
        raise DataFormatError(f"dataset file not found: {manifest.path}")
    with open(manifest.path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [column for column in KIND_COLUMNS[manifest.kind] if column not in header]
        if missing:
            raise DataFormatError(f"{manifest.path}: missing columns {missing} (header is {header})")
        rows = list(reader)
    if not rows:
        raise DataFormatError(f"{manifest.path}: no data rows")
    return rows


def _parse_float(raw: str, path: Path, row_number: int, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise DataFormatError(f"{path}: row {row_number}: non-numeric {column!r} value {raw!r}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"{path}: row {row_number}: non-finite {column!r} value {raw!r}")
    return value


def load_annual_series(manifest: DatasetManifest) -> AnnualSeries:
    """Read and validate a (year, value) series; sorted by year."""
    rows = _read_rows(manifest)
    seen: dict[int, int] = {}
    records = []
    for i, row in enumerate(rows):
        row_number = i + 2  # header is row 1
        try:
            year = int(row["year"])
        except (TypeError, ValueError):
            raise DataFormatError(
                f"{manifest.path}: row {row_number}: non-numeric 'year' value {row['year']!r}"
            ) from None
        if year in seen:
            raise DataFormatError(
                f"{manifest.path}: row {row_number}: duplicate year {year} (first seen at row {seen[year]})"
            )
        seen[year] = row_number
        records.append((year, _parse_float(row["value"], manifest.path, row_number, "value")))
    records.sort()
    years, values = zip(*records)
    return AnnualSeries(np.array(years), np.array(values))


def load_case_series(manifest: DatasetManifest) -> tuple[CaseSeries, dict]:
    """Read cumulative case counts; repairs non-monotone corrections by
    running maximum and reports the repair count per column."""
    rows = _read_rows(manifest)
    dates: list[date] = []
    counts = {name: [] for name in ("confirmed", "recovered", "deaths")}
    for i, row in enumerate(rows):
        row_number = i + 2
        try:
            day = date.fromisoformat(row["date"])
        except (TypeError, ValueError):
            raise DataFormatError(
                f"{manifest.path}: row {row_number}: unparseable date {row['date']!r}"
            ) from None
        dates.append(day)
        for name in counts:
            counts[name].append(_parse_float(row[name], manifest.path, row_number, name))
    order = np.argsort(dates)
    dates = [dates[i] for i in order]
    repairs = {}
    repaired = {}
    for name, series in counts.items():
        arr = np.asarray(series, dtype=float)[order]
        running = np.maximum.accumulate(arr)
        repairs[name] = int(np.sum(running != arr))
        repaired[name] = running
    total = sum(repairs.values())
    if total:
        log.info("repaired %d non-monotone cumulative entries in %s: %s", total, manifest.path, repairs)
    try:
        series = CaseSeries(
            dates=dates,
            confirmed=repaired["confirmed"],
            recovered=repaired["recovered"],
            deaths=repaired["deaths"],
        )
    except ValueError as exc:
        raise DataFormatError(f"{manifest.path}: {exc}") from exc
    return series, repairs


def load_tradeoff_panel(manifest: DatasetManifest) -> tuple[np.ndarray, np.ndarray]:
    """Read the (GDP shortfall %, infection-rate reduction %) panel."""
    rows = _read_rows(manifest)
    shortfall, reduction = [], []
    for i, row in enumerate(rows):
        row_number = i + 2
        shortfall.append(_parse_float(row["gdp_shortfall_pct"], manifest.path, row_number,
                                      "gdp_shortfall_pct"))
        reduction.append(_parse_float(row["infection_reduction_pct"], manifest.path, row_number,
                                      "infection_reduction_pct"))
    return np.array(shortfall), np.array(reduction)


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
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in columns))
    atomic_write_text("\n".join(lines) + "\n", Path(path))


def write_trajectory(trajectory: Trajectory, path) -> None:
    """One CSV row per day; floats via repr, so reading back is lossless."""
    lines = [",".join(TRAJECTORY_HEADER)]
    cols = trajectory.columns()
    series = [cols[name] for name in TRAJECTORY_HEADER[1:]]
    for i, day in enumerate(trajectory.dates):
        lines.append(day.isoformat() + "," + ",".join(repr(float(s[i])) for s in series))
    atomic_write_text("\n".join(lines) + "\n", Path(path))


def read_trajectory(path, scenario_name: str | None = None) -> Trajectory:
    """Inverse of write_trajectory.  Run metadata is not stored in the CSV,
    so the name defaults to the file stem and welfare is NaN."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"trajectory file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRAJECTORY_HEADER:
            raise DataFormatError(f"{path}: unexpected header {header}, want {TRAJECTORY_HEADER}")
        dates, rows = [], []
        for i, row in enumerate(reader):
            if len(row) != len(TRAJECTORY_HEADER):
                raise DataFormatError(f"{path}: row {i + 2}: expected {len(TRAJECTORY_HEADER)} fields")
            try:
                dates.append(date.fromisoformat(row[0]))
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {i + 2}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    data = np.array(rows).T
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        column, row = bad[np.argmin(bad[:, 1])]
        raise DataFormatError(
            f"{path}: row {row + 2}: non-finite {TRAJECTORY_HEADER[column + 1]!r} value {data[column, row]!r}"
        )
    named = dict(zip(TRAJECTORY_HEADER[1:], data))
    return Trajectory(
        scenario_name=scenario_name or path.stem,
        params_digest="",
        dates=dates,
        welfare=float("nan"),
        **named,
    )


def write_params(params: ModelParams, path, provenance: dict | None = None) -> None:
    doc = params.to_dict()
    if provenance:
        doc["provenance"] = provenance
    atomic_write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", Path(path))


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
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: top-level JSON value must be an object, got {type(doc).__name__}")
    return doc


def read_params(path) -> ModelParams:
    doc = read_json_object(path, "params")
    doc.pop("provenance", None)
    try:
        return ModelParams.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def write_json(obj, path) -> None:
    atomic_write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", Path(path))


# ---------------------------------------------------------------------------
# Run configuration


_DATA_KEYS = {"population", "gdp", "gcf", "cases", "tradeoff", "case_population",
              "population_fit_years"}
_METRICS_KEYS = {"output_ratio_dates"}
_BACKTEST_KEYS = {"start_year", "end_year", "tolerance", "horizon"}


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
    check_keys(doc, {"params", "scenarios", "sweeps", "data", "metrics", "backtest"}, "config")

    params = ModelParams.from_dict(doc["params"])

    scenarios = {}
    for name, raw in doc["scenarios"].items():
        scenarios[name] = Scenario.from_dict(name, raw, f"config.scenarios.{name}")

    check_keys(doc["sweeps"], set(SWEEP_AXES), "config.sweeps")
    sweeps = {axis: parse_sweep(axis, doc["sweeps"][axis], f"config.sweeps.{axis}") for axis in SWEEP_AXES}

    data = dict(doc["data"])
    check_keys(data, _DATA_KEYS, "config.data")

    metrics = dict(doc["metrics"])
    check_keys(metrics, _METRICS_KEYS, "config.metrics")
    metrics["output_ratio_dates"] = [
        parse_date(d, "config.metrics.output_ratio_dates") for d in metrics["output_ratio_dates"]
    ]

    backtest = dict(doc["backtest"])
    check_keys(backtest, _BACKTEST_KEYS, "config.backtest")
    backtest["horizon"] = parse_date(backtest["horizon"], "config.backtest.horizon")

    return RunConfig(params=params, scenarios=scenarios, sweeps=sweeps, data=data,
                     metrics=metrics, backtest=backtest)


def load_config(path=None) -> RunConfig:
    """Shipped defaults, deep-merged with an optional user JSON document.

    Unknown keys are rejected with their dotted path.
    """
    doc = default_config()
    if path is not None:
        doc = _merge(doc, read_json_object(path, "config"))
    try:
        return parse_config(doc)
    except DataFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"invalid configuration: {exc}") from exc


def data_manifests(data_dir, config: RunConfig) -> dict:
    """Default manifests for the bundled dataset layout."""
    data_dir = Path(data_dir)
    names = config.data
    return {
        "population": DatasetManifest(path=data_dir / names["population"], kind="population"),
        "gdp": DatasetManifest(path=data_dir / names["gdp"], kind="gdp"),
        "gcf": DatasetManifest(path=data_dir / names["gcf"], kind="gcf"),
        "cases": DatasetManifest(path=data_dir / names["cases"], kind="cases"),
        "tradeoff": DatasetManifest(path=data_dir / names["tradeoff"], kind="tradeoff-panel"),
    }
