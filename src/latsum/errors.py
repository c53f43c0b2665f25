"""Exception types shared across the package."""


class LatsumError(Exception):
    """Base class for all latsum errors."""


class InvalidSpec(LatsumError):
    """A group specification violates its parameter constraints."""


class OrderCapExceeded(LatsumError):
    """A construction would exceed the configured group order cap."""


class NotAPermutation(LatsumError):
    """A generator is not a permutation of the stated degree."""


class InvalidTable(LatsumError):
    """A user-supplied multiplication table is not a valid group table."""


class LatticeTooLarge(LatsumError):
    """Subgroup enumeration exceeded the configured subgroup-count cap."""


class NotAPGroup(LatsumError):
    """The operation requires a group of prime-power order."""


class SearchCapExceeded(LatsumError):
    """A prime search exhausted its cap without finding a witness."""


class LimitTooLarge(LatsumError):
    """The requested sieve limit exceeds the supported budget."""


class InvariantViolation(LatsumError):
    """A mathematical fact the code relies on failed to hold: a bug, not bad input."""
