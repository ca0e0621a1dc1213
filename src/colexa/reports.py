"""The one report type every check returns, and the shape check of JSON
inputs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Report:
    """The verdict of a check: whether it holds, how many cases it covered
    and, when it fails, a witness.  A report built check by check with add
    holds iff every one of its checks does."""

    name: str = ""
    ok: bool = True
    checked: int = 0
    witness: Any = None
    detail: str = ""
    checks: list["Report"] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "", witness: Any = None) -> None:
        self.checks.append(Report(name, bool(ok), witness=witness, detail=detail))
        self.ok = self.ok and bool(ok)

    def to_dict(self) -> dict:
        if not self.name:
            return {"ok": self.ok, "checks": [c.to_dict() for c in self.checks]}
        out = {"name": self.name, "ok": self.ok}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        return out


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
