"""Exception types shared across the package."""


class WeylnetError(Exception):
    """Base class for all package-specific errors."""


class InputError(WeylnetError, ValueError):
    """Malformed or invalid input (bad index ranges, non-hermitian state, ...)."""


class DimensionMismatch(InputError):
    """Operands live on spaces of different dimension."""


class CapExceeded(WeylnetError):
    """A requested computation exceeds a configured size cap."""


class VerificationFailure(WeylnetError):
    """An internal self-check did not hold to its stated tolerance."""
