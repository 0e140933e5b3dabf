"""Model parameter bundle with every rule on its fields, the shipped
configuration, and annual/daily rate conversions.

The simulator runs at daily resolution, so every annually quoted rate is
converted with geometric compounding, except the logistic population
coefficients which use the linear day-count scaling (see
``calibration.to_daily``).  The published values themselves live in
``default_config.json``; ``default_params`` reads them from there.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import re
import reprlib
import sys
from dataclasses import asdict, dataclass, fields
from datetime import date, timedelta
from importlib import resources

DAYS_PER_YEAR = 365


class DataFormatError(ValueError):
    """Malformed input data or configuration."""


def is_finite_real(value) -> bool:
    """True for an int or float (numpy scalars included) in the finite float range, never a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def shown(raw) -> str:
    """``repr(raw)`` for a parse error, cut to 80 characters and '...', so
    a long number or a deeply nested list stays one short line; a list
    nested too deeply for ``repr`` shows its first levels."""
    try:
        text = repr(raw)
    except RecursionError:
        text = reprlib.repr(raw)
    return text if len(text) <= 80 else text[:80] + "..."


def parse_section(raw, where: str, parser_for, required=()) -> dict:
    """The object ``raw`` at ``where``, each value through its key's parser
    ``parser_for(key)``, called as ``parse(value, dotted key)``; a
    non-object, a key whose parser is None and a missing ``required`` key
    are each an error naming the dotted path."""
    if not isinstance(raw, dict):
        raise DataFormatError(f"{where}: expected an object, got {shown(raw)}")
    unknown = sorted(key for key in raw if parser_for(key) is None)
    if unknown:
        raise DataFormatError(f"unknown configuration key {where}.{unknown[0]!r}")
    missing = sorted(set(required) - set(raw))
    if missing:
        raise DataFormatError(f"{where}: missing keys {missing}")
    return {key: parser_for(key)(value, f"{where}.{key}") for key, value in raw.items()}


def parse_list(raw, where: str, parse) -> list:
    """The list ``raw`` at ``where``, each item through ``parse``; item i is named ``where[i]``."""
    if not isinstance(raw, list):
        raise DataFormatError(f"{where}: expected a list, got {shown(raw)}")
    return [parse(item, f"{where}[{i}]") for i, item in enumerate(raw)]


_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_day(text: str) -> date:
    """The day whose ``isoformat()`` is ``text``.  Python 3.11 widened
    ``date.fromisoformat`` to other ISO 8601 spellings (``20200101``,
    ``2020-W01-3``); here they are a ValueError on every version, worded
    as 3.10 words it."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {shown(text)}")
    return date.fromisoformat(text)


def parse_date(raw, where: str) -> date:
    """A ``YYYY-MM-DD`` date, as ``iso_day`` reads it."""
    try:
        return iso_day(raw)
    except (TypeError, ValueError):
        raise DataFormatError(f"{where}: unparseable date {shown(raw)}") from None


def parse_number(raw, where: str) -> float:
    if not is_finite_real(raw):
        raise DataFormatError(f"{where}: expected a finite number, got {shown(raw)}")
    return float(raw)


def parse_fraction(raw, where: str) -> float:
    if not (is_finite_real(raw) and 0.0 <= raw < 1.0):
        raise DataFormatError(f"{where}: expected a fraction in [0, 1), got {shown(raw)}; write 5% as 0.05")
    return float(raw)


# days in each unit that ``parse_whole`` counts
_DAYS_IN_UNIT = {"days": 1, "weeks": 7}


def parse_whole(raw, where: str, unit: str) -> int:
    """A whole number of ``unit`` (a ``_DAYS_IN_UNIT`` key) from 0 to the
    most whose days fit in a ``timedelta``."""
    most = timedelta.max.days // _DAYS_IN_UNIT[unit]
    if not (isinstance(raw, numbers.Integral) and not isinstance(raw, bool) and 0 <= raw <= most):
        raise DataFormatError(f"{where}: expected a whole number of {unit} from 0 to {most}, got {shown(raw)}")
    return int(raw)


def parse_year(raw, where: str) -> int:
    if not (isinstance(raw, numbers.Integral) and not isinstance(raw, bool) and 1 <= raw <= 9999):
        raise DataFormatError(f"{where}: expected a year from 1 to 9999, got {shown(raw)}")
    return int(raw)


def parse_file_name(raw, where: str) -> str:
    if not (isinstance(raw, str) and raw):
        raise DataFormatError(f"{where}: expected a file name, got {shown(raw)}")
    return raw


def parse_run_name(raw, where: str) -> str:
    """A run name, which output file names start with: a string other
    than "", "." and "..", without "/" or "\\"."""
    if not isinstance(raw, str) or raw in ("", ".", "..") or "/" in raw or "\\" in raw:
        raise DataFormatError(
            f"{where}: expected a run name that is not empty, '.' or '..' and has no "
            f"'/' or '\\', got {shown(raw)}")
    return raw


def default_config() -> dict:
    """The shipped configuration: published parameter values, baseline
    scenario table, and the default experiment grids."""
    text = resources.files("epigrowth").joinpath("default_config.json").read_text()
    return json.loads(text)


def annual_to_daily_growth(g_annual: float) -> float:
    """Daily growth rate whose 365-fold compounding equals the annual rate."""
    return (1.0 + g_annual) ** (1.0 / DAYS_PER_YEAR) - 1.0


def annual_depreciation(delta_daily: float) -> float:
    """Annual depreciation fraction that the daily fraction compounds to."""
    return 1.0 - (1.0 - delta_daily) ** DAYS_PER_YEAR


@dataclass(frozen=True)
class ModelParams:
    """Calibrated constants at daily resolution, plus solver settings.

    a1, a2        logistic population growth coefficients (daily)
    delta_daily   capital depreciation fraction per day
    alpha         output elasticity of capital
    g_daily       TFP growth rate per day
    beta_daily    utility discount factor per day
    u             USD per hospital admission
    h             hospital admissions per confirmed case
    r             recovery fraction per day per active infection
    b0            base infection rate, per (person*day), absent intervention
    log_k1, k2    mortality model m = exp(log_k1 + k2*ln(b))
    log_q1, q2    infection-reduction model db% = exp(log_q1) * dGDP%**q2
    """

    a1: float
    a2: float
    delta_daily: float
    alpha: float
    g_daily: float
    beta_daily: float
    u: float
    h: float
    r: float
    b0: float
    log_k1: float
    k2: float
    log_q1: float
    q2: float
    # solver settings; a zero bisection tolerance means machine resolution
    euler_tol: float
    bisection_rel_tol: float
    max_bisection_iter: int

    def validate(self) -> None:
        """Types and ranges of every field; raises ValueError naming the field."""
        for f in fields(self):
            parse_number(getattr(self, f.name), f"ModelParams.{f.name}")
        if not isinstance(self.max_bisection_iter, numbers.Integral):
            raise ValueError(f"ModelParams.max_bisection_iter must be an int, got {self.max_bisection_iter!r}")
        # a1 == 1, a2 == 0 is the degenerate no-growth case used in tests
        ranges = (
            ("a1", self.a1 >= 1.0, "be >= 1"),
            ("a2", self.a2 <= 0.0, "be <= 0"),
            ("alpha", 0.0 < self.alpha < 1.0, "lie in (0, 1)"),
            ("delta_daily", 0.0 < self.delta_daily < 1.0, "lie in (0, 1)"),
            ("g_daily", self.g_daily >= 0.0, "be >= 0"),
            ("beta_daily", 0.0 < self.beta_daily < 1.0, "lie in (0, 1)"),
            ("u", self.u >= 0.0, "be >= 0"),
            ("h", 0.0 <= self.h <= 1.0, "lie in [0, 1]"),
            ("r", 0.0 <= self.r <= 1.0, "lie in [0, 1]"),
            ("b0", self.b0 >= 0.0, "be >= 0"),
            ("k2", 0.0 < self.k2 <= 1.0, "lie in (0, 1]"),
            ("q2", 0.0 < self.q2 < 1.0, "lie in (0, 1)"),
            ("euler_tol", self.euler_tol >= 0.0, "be >= 0"),
            ("bisection_rel_tol", self.bisection_rel_tol >= 0.0, "be >= 0"),
            ("max_bisection_iter", self.max_bisection_iter >= 1, "be >= 1"),
        )
        for name, ok, rule in ranges:
            if not ok:
                raise ValueError(f"ModelParams.{name} must {rule}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw, where: str = "params") -> "ModelParams":
        """Parse a params object at ``where`` that holds every field; its values
        are checked as a whole by ``validate``, whose error is prefixed with ``where``."""
        parsers = {f.name: lambda value, _: value for f in fields(cls)}
        params = cls(**parse_section(raw, where, parsers.get, parsers))
        try:
            params.validate()
        except ValueError as exc:
            raise DataFormatError(f"{where}: {exc}") from None
        return params

    def digest(self) -> str:
        """Short deterministic hash of the parameter values, for provenance."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def default_params() -> ModelParams:
    """Published global calibration at daily resolution, as shipped in
    ``default_config.json``."""
    return ModelParams.from_dict(default_config()["params"], "default_config.params")
