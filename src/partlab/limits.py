"""Resource bounds: the enumeration cap (``PARTLAB_MAX_N``) and the series
order bound (``PARTLAB_MAX_ORDER``) are each set only by their environment
variable, and resolve the same way."""

from __future__ import annotations

import os

from .errors import DomainError


def resolve_limit(env_var: str, default: int) -> int:
    """Effective bound: the environment variable ``env_var``, else
    ``default``."""
    raw = os.environ.get(env_var)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{env_var} must be an integer, got {raw!r}") from None
    if value < 0:
        raise DomainError(f"{env_var} must be nonnegative, got {value}")
    return value
