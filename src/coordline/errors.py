"""Shared exception types and resource caps."""
from __future__ import annotations

import os

DEFAULT_CELL_CAP = 2 ** 24
_CAP_ENV = "COORDLINE_CAP"


class UsageError(ValueError):
    """Caller misuse: bad labels, mismatched axes, out-of-range indices."""


class PreconditionError(UsageError):
    """A region/theorem precondition failed (broken Markov chain, bad factorization)."""

    def __init__(self, message: str, broken: list[str] | None = None):
        super().__init__(message)
        self.broken = list(broken or [])


class ResourceCapError(RuntimeError):
    """A dense tensor or enumeration would exceed the configured cap."""


def resolve_cap(cap: int | None = None) -> int:
    """Effective cell/enumeration cap: explicit arg, else COORDLINE_CAP env, else default."""
    if cap is not None:
        return int(cap)
    env = os.environ.get(_CAP_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{_CAP_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_CELL_CAP
