"""One exception type per exit code: ValidationError exits 1, ParseError exits 2."""

from __future__ import annotations


class ParseError(Exception):
    """An input file is missing, unreadable, or contains an uninterpretable row."""

    def __init__(self, message: str, file: str | None = None, line: int | None = None):
        self.file = file
        self.line = line
        if file is not None and line is not None:
            message = f"{file}:{line}: {message}"
        elif file is not None:
            message = f"{file}: {message}"
        super().__init__(message)


class ValidationError(Exception):
    """Inputs parse but violate structural invariants; carries every violation found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "validation failed")

