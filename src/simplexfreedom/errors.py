"""Exception hierarchy shared by all modules."""

from __future__ import annotations

from typing import NamedTuple


class FreedomError(Exception):
    """Base class for every error raised by this package."""


class Violation(NamedTuple):
    """One violated invariant: a stable code plus a human-readable message.

    Codes used by validation: "BoundOrder", "RangeError", "Infeasible",
    "TooFewOptions".
    """

    code: str
    message: str
    index: int | None = None

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ValidationError(FreedomError):
    """Input failed validation; carries every violated invariant at once."""

    def __init__(self, violations: list[Violation] | tuple[Violation, ...]):
        self.violations: tuple[Violation, ...] = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


class ParseError(FreedomError):
    """Malformed input file; message carries the offending field or location."""


class CapExceeded(FreedomError):
    """Closed-form evaluation would pass its work limit: too many kept
    subsets for the number of options, or a subset scan of more than 24
    point-valued options."""


class DomainError(FreedomError):
    """A numeric argument lies outside its documented domain."""


class WrongDimension(FreedomError):
    """Operation requires a specific option count (e.g. exactly three)."""


class IndexOutOfRange(FreedomError):
    """Option index outside the assignment."""


class InvalidPerturbation(FreedomError):
    """A perturbed assignment would violate validity."""


class NotVacuous(FreedomError):
    """Imposition requires the target coordinate to be vacuous (ne=0, po=1)."""


class DegenerateCell(FreedomError):
    """Dependency index undefined: the Frechet interval has zero width."""


class FrechetViolation(FreedomError):
    """A joint probability lies outside its Frechet bounds."""


class TooManyCells(FreedomError):
    """Cross-table too large for rejection sampling to stay honest."""


class LowAcceptanceWarning(UserWarning):
    """Fewer than 100 samples accepted; the estimate is noisy."""
