"""Shared exception types and the one resource cap."""
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


def resolve_cap() -> int:
    """Effective cell/enumeration cap: the COORDLINE_CAP env, else the default."""
    env = os.environ.get(_CAP_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{_CAP_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_CELL_CAP


def check_cap(what: str, needed: int) -> None:
    """Raise ResourceCapError when `needed` cells or steps of `what` exceed the cap."""
    cap = resolve_cap()
    if needed > cap:
        raise ResourceCapError(f"{what}: {needed} needed, above the cap of {cap}; "
                               f"set {_CAP_ENV}={needed} or higher to allow it")
