"""Small result-reporting containers shared by the validators, and the shape
check of JSON inputs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckResult:
    """Outcome of one named check, with an optional witness payload."""

    name: str
    ok: bool
    detail: str = ""
    witness: Any = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "ok": self.ok}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class ValidationReport:
    """An ordered list of checks; passes iff every check passed."""

    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "", witness: Any = None):
        self.checks.append(CheckResult(name, bool(ok), detail, witness))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_dict() for c in self.checks]}


def check_shape(value, shape, where: str = "input") -> None:
    """Raise ValueError, naming the first offending field, unless value has
    the JSON shape: a type (int excludes bool), a tuple of alternatives
    (None admits null or a missing key), [shape] for a list of such values,
    or {key: shape} for an object with those keys."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be an object, got {type(value).__name__}")
        for key, sub in shape.items():
            if key not in value and not (isinstance(sub, tuple) and None in sub):
                raise ValueError(f"{where} lacks the key {key!r}")
            check_shape(value.get(key), sub, f"{where}.{key}")
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {type(value).__name__}")
        for i, item in enumerate(value):
            check_shape(item, shape[0], f"{where}[{i}]")
    else:
        kinds = shape if isinstance(shape, tuple) else (shape,)
        if not any(value is None if k is None
                   else isinstance(value, k) and not (k is int and isinstance(value, bool))
                   for k in kinds):
            names = " or ".join("null" if k is None else k.__name__ for k in kinds)
            raise ValueError(f"{where} must be {names}, got {value!r:.40}")
