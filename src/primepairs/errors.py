"""Exception hierarchy shared by all primepairs modules, and the check
record that IdentityError is raised from.

Exit-code mapping used by the CLI: UsageError -> 1, IdentityError -> 2,
CacheError -> 2, ResourceLimitError -> 3.
"""

from dataclasses import dataclass


class PrimePairsError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PrimePairsError):
    """Invalid arguments, configuration, or precondition violations."""


class IdentityError(PrimePairsError):
    """A mathematical identity that must hold exactly (up to a documented
    numerical tolerance) was violated.  Always names the identity."""

    def __init__(self, identity: str, residual: float, tolerance: float, detail: str = ""):
        self.identity = identity
        self.residual = residual
        self.tolerance = tolerance
        msg = f"{identity}: residual {residual:.6g} exceeds tolerance {tolerance:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ResourceLimitError(PrimePairsError):
    """An enumeration, memory, or integer-width budget would be exceeded."""


class CacheError(PrimePairsError):
    """A prime-table cache file is missing, malformed, or fails its checksum."""


@dataclass(frozen=True)
class IdentityCheck:
    """One identity's residual against its tolerance: the library raises
    IdentityError from it, and the identity suite records it as a row.
    A NaN residual fails."""

    identity: str
    residual: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def require(self) -> "IdentityCheck":
        """This check, or IdentityError if it failed."""
        if not self.passed:
            raise IdentityError(self.identity, self.residual, self.tolerance, self.detail)
        return self
