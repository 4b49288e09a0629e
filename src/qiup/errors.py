"""Shared exception and warning types."""
from __future__ import annotations


class QiupWarning(UserWarning):
    """Non-fatal diagnostics (empty splitter input, flat fringes, ...)."""


class UnitarityError(ValueError):
    """A matrix handed to a polarization transform is not unitary."""


class PreparationConflictError(ValueError):
    """Beam preparation hit a path that already carries an H component."""


class DataFormatError(ValueError):
    """A data file does not match the documented CSV layout."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
