"""Structured pass/fail reports shared by the verification routines.

Every verification in this package produces a ``VerificationReport`` made of
individual ``CheckResult`` rows.  Reports serialize to JSON with a schema
version so archived runs stay comparable; the JSON key for the boolean is
``"pass"`` (``passed`` is used on the Python side because ``pass`` is a
keyword).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["SCHEMA_VERSION", "CheckResult", "VerificationReport"]

SCHEMA_VERSION = 1


def _jsonable(value):
    """Coerce numpy arrays and scalars and non-finite floats into JSON values."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, np.generic):           # an int, bool or float, exactly
        return _jsonable(value.item())
    return value                                # json.dumps rejects the rest


def _json_fields(items) -> dict:
    """The ``dict_factory`` of the reports' ``asdict``: JSON values, and the
    ``passed`` field under its JSON key ``pass``."""
    return {"pass" if key == "passed" else key: _jsonable(value) for key, value in items}


@dataclass
class CheckResult:
    """Outcome of a single named check.

    measured_constant carries whatever scalar the check estimated (an
    empirical constant, a sup of ratios, a residual); tolerance is the
    acceptance threshold the check applied, when there is one.
    """

    condition: str
    passed: bool
    measured_constant: float | None = None
    grid_size: int | None = None
    tolerance: float | None = None
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)
        if self.measured_constant is not None:
            self.measured_constant = float(self.measured_constant)


@dataclass
class VerificationReport:
    """A titled bundle of checks plus the configuration that produced them."""

    title: str
    checks: list[CheckResult] = field(default_factory=list)
    seed: int | None = None
    sample_count: int | None = None
    metadata: dict = field(default_factory=dict)

    def add(self, condition: str, passed: bool, **fields) -> CheckResult:
        """Append a ``CheckResult(condition, passed, **fields)`` and return it."""
        result = CheckResult(condition, passed, **fields)
        self.checks.append(result)
        return result

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "pass": self.passed,
                **asdict(self, dict_factory=_json_fields)}
