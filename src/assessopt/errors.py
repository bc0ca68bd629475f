"""One exception type per exit code: ValidationError exits 1, ParseError exits 2.
Log is the logger every module writes its records through."""

from __future__ import annotations

import sys


class Log:
    """Forwards info and debug records to logging.getLogger(name), once something
    has imported logging: until then no handler or level exists to take them."""

    def __init__(self, name: str):
        self.name = name

    def info(self, msg: str, *args) -> None:
        if "logging" in sys.modules:
            sys.modules["logging"].getLogger(self.name).info(msg, *args, stacklevel=2)

    def debug(self, msg: str, *args) -> None:
        if "logging" in sys.modules:
            sys.modules["logging"].getLogger(self.name).debug(msg, *args, stacklevel=2)


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
