"""Exception types shared across the toolkit, and the config field check that raises them."""

import math
import numbers
import typing
from dataclasses import fields


class ValidationError(ValueError):
    """Bad user-supplied data or configuration (CLI exit code 1)."""


class FormatError(ValidationError):
    """A file does not match its expected format (header, magic, version...)."""


class RowError(ValidationError):
    """A single data row is invalid. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# int fields take any integer and float fields any finite real number; bools pass only bool fields.
_EXPECTED = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number")}


def check_field_types(cfg) -> None:
    """Raise ValidationError for the first field of config dataclass ``cfg`` that mismatches its annotation."""
    hints = typing.get_type_hints(type(cfg))
    for f in fields(cfg):
        kind = hints[f.name]
        allowed, what = _EXPECTED.get(kind, (kind, f"a {kind.__name__}"))
        value = getattr(cfg, f.name)
        if (
            not isinstance(value, allowed)
            or (isinstance(value, bool) and kind is not bool)
            or (kind is float and not math.isfinite(value))
        ):
            raise ValidationError(f"{f.name} must be {what}, got {value!r}")
