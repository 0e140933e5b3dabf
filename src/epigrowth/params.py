"""Model parameter bundle, the shipped configuration, and annual/daily rate
conversions.

The simulator runs at daily resolution, so every annually quoted rate is
converted with geometric compounding, except the logistic population
coefficients which use the linear day-count scaling (see
``calibration.to_daily``).  The published values themselves live in
``default_config.json``; ``default_params`` reads them from there.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from datetime import date
from importlib import resources

from .epidemic import MortalityModel, PopGrowthParams, TradeoffModel

DAYS_PER_YEAR = 365


class DataFormatError(ValueError):
    """Malformed input data or configuration."""


def is_finite_real(value) -> bool:
    """True for a finite int or float (numpy scalars included), never a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def check_keys(section: dict, allowed: set, where: str, required: set = frozenset()) -> None:
    """Reject a non-object ``section``, a key outside ``allowed`` and a
    missing ``required`` key, naming it under ``where``."""
    if not isinstance(section, dict):
        raise DataFormatError(f"{where}: expected an object, got {section!r}")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise DataFormatError(f"unknown configuration key {where}.{unknown[0]!r}")
    missing = sorted(set(required) - set(section))
    if missing:
        raise DataFormatError(f"{where}: missing keys {missing}")


def parse_date(raw, where: str) -> date:
    try:
        return date.fromisoformat(raw)
    except (TypeError, ValueError):
        raise DataFormatError(f"{where}: unparseable date {raw!r}") from None


def default_config() -> dict:
    """The shipped configuration: published parameter values, baseline
    scenario table, and the default experiment grids."""
    text = resources.files("epigrowth").joinpath("default_config.json").read_text()
    return json.loads(text)


def annual_to_daily_growth(g_annual: float) -> float:
    """Daily growth rate whose 365-fold compounding equals the annual rate."""
    return (1.0 + g_annual) ** (1.0 / DAYS_PER_YEAR) - 1.0


def annual_to_daily_depreciation(delta_annual: float) -> float:
    """Daily depreciation fraction compounding to the annual fraction."""
    return 1.0 - (1.0 - delta_annual) ** (1.0 / DAYS_PER_YEAR)


def discount_factor_from_annual_rate(rho_annual: float) -> float:
    """Per-day discount factor implied by an annual utility discount rate."""
    return (1.0 + rho_annual) ** (-1.0 / DAYS_PER_YEAR)


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
    euler_tol: float = 1e-6
    bisection_rel_tol: float = 0.0
    max_bisection_iter: int = 200

    def validate(self) -> None:
        """Types and ranges of every field; raises ValueError naming the field."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_finite_real(value):
                raise ValueError(f"ModelParams.{f.name} must be a finite real number, got {value!r}")
        if not isinstance(self.max_bisection_iter, numbers.Integral):
            raise ValueError(f"ModelParams.max_bisection_iter must be an int, got {self.max_bisection_iter!r}")
        ranges = (
            ("alpha", 0.0 < self.alpha < 1.0, "lie in (0, 1)"),
            ("delta_daily", 0.0 < self.delta_daily < 1.0, "lie in (0, 1)"),
            ("g_daily", self.g_daily >= 0.0, "be >= 0"),
            ("beta_daily", 0.0 < self.beta_daily < 1.0, "lie in (0, 1)"),
            ("u", self.u >= 0.0, "be >= 0"),
            ("h", 0.0 <= self.h <= 1.0, "lie in [0, 1]"),
            ("r", 0.0 <= self.r <= 1.0, "lie in [0, 1]"),
            ("b0", self.b0 >= 0.0, "be >= 0"),
            ("euler_tol", self.euler_tol >= 0.0, "be >= 0"),
            ("bisection_rel_tol", self.bisection_rel_tol >= 0.0, "be >= 0"),
        )
        for name, ok, rule in ranges:
            if not ok:
                raise ValueError(f"ModelParams.{name} must {rule}, got {getattr(self, name)!r}")
        PopGrowthParams(a1=self.a1, a2=self.a2).validate()
        MortalityModel(log_k1=self.log_k1, k2=self.k2).validate()
        TradeoffModel(log_q1=self.log_q1, q2=self.q2).validate()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown ModelParams fields: {unknown}")
        params = cls(**d)
        params.validate()
        return params

    def digest(self) -> str:
        """Short deterministic hash of the parameter values, for provenance."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def default_params() -> ModelParams:
    """Published global calibration at daily resolution, as shipped in
    ``default_config.json``."""
    return ModelParams.from_dict(default_config()["params"])
