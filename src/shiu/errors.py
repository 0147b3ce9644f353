"""Exception taxonomy shared by every module.

The CLI maps these onto exit statuses: domain errors exit 1, resource
errors exit 2, internal-consistency errors exit 3.
"""

from __future__ import annotations


class ShiuError(Exception):
    """Base class for all package errors."""


class DomainError(ShiuError):
    """Invalid input: bad parameters, malformed files, failed verification."""


class NotFoundError(DomainError):
    """A search exhausted its cap without finding the requested object."""


class ResourceError(ShiuError):
    """A resource limit was exceeded: the height ceiling, the shift cap, or
    the memory budget set by SHIU_SIEVE_BUDGET_MB."""


class InternalConsistencyError(ShiuError):
    """Two routes that must agree disagreed. Always a bug, never an input state."""

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}
