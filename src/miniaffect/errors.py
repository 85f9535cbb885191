"""Exception types shared across the toolkit, and the JSON parse and config field check that raise them."""

import functools
import json
import math
import numbers
import typing
from dataclasses import fields


class ValidationError(ValueError):
    """Bad user-supplied data or configuration (CLI exit code 1)."""


class FormatError(ValidationError):
    """A file does not match its expected format (header, magic, version...)."""


class DivergenceError(ValidationError):
    """Training produced a non-finite gradient or loss, usually from too high a learning rate."""


class RowError(ValidationError):
    """A single data row is invalid. Carries the 1-based line number and, once known, the file's path."""

    def __init__(self, line: int, message: str, path=None):
        super().__init__(f"line {line}: {message}" if path is None else f"{path}: line {line}: {message}")
        self.line = line
        self.message = message
        self.path = path


def parse_json(raw: bytes, where: str):
    """The value of UTF-8 JSON ``raw``; FormatError starting with ``where`` for anything json refuses: bytes that
    are not UTF-8 JSON, an int of over 4300 digits, or nesting past the recursion limit (a RecursionError)."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{where}: {exc}") from None


# int fields take any integer and float fields any finite real number; bools pass only bool fields.
_EXPECTED = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number")}


# Resolving the annotations costs far more than checking them, so it runs once per dataclass.
_type_hints = functools.cache(typing.get_type_hints)


def check_field_types(cfg) -> None:
    """Raise ValidationError for the first field of config dataclass ``cfg`` that mismatches its annotation."""
    hints = _type_hints(type(cfg))
    for f in fields(cfg):
        kind = hints[f.name]
        value = getattr(cfg, f.name)
        if type(value) is kind and (kind is not float or math.isfinite(value)):
            continue  # the usual case, decided without the slower abstract-class checks below
        allowed, what = _EXPECTED.get(kind, (kind, f"a {kind.__name__}"))
        if (
            not isinstance(value, allowed)
            or (isinstance(value, bool) and kind is not bool)
            or (kind is float and not math.isfinite(value))
        ):
            raise ValidationError(f"{f.name} must be {what}, got {value!r}")
