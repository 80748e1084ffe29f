"""Tiny argument-checking helpers used across the package."""

import operator

from .errors import DomainError


def as_int(value, name: str, minimum: int | None = None) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value


def as_nonneg_int(value, name: str) -> int:
    return as_int(value, name, 0)
