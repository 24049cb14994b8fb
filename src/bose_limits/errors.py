"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input (DomainError and
subclasses) exits 2, convergence and resource failures exit 3.
"""

# Bytes one Fock rung, mode enumeration, zero-mode window, theta or polylog series may allocate.
MAX_ALLOC_BYTES = 2 ** 29


class BoseLimitsError(Exception):
    """Base class for all package errors."""


class DomainError(BoseLimitsError, ValueError):
    """Parameters outside the admissible domain (e.g. mu >= 0)."""


class StepSizeError(DomainError):
    """Finite-difference step rejected by the stencil consistency check."""


class NonConvergenceError(BoseLimitsError, RuntimeError):
    """A certified error bound could not be brought below tolerance."""


class ResourceGuardError(BoseLimitsError, RuntimeError):
    """A requested computation exceeds the configured size ceiling."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(message)
