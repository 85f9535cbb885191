"""Exception types shared across the toolkit."""


class ValidationError(ValueError):
    """Bad user-supplied data or configuration (CLI exit code 1)."""


class FormatError(ValidationError):
    """A file does not match its expected format (header, magic, version...)."""


class RowError(ValidationError):
    """A single data row is invalid. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
