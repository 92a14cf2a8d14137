"""Exception types, the reader of the resource caps and the integer check, shared across the package."""

import os


class ResourceLimitError(RuntimeError):
    """A configured resource cap (support size, brute-force size, Dickman panels) was hit."""


def env_cap(name: str, default: int) -> int:
    """The resource cap set by the environment variable ``name``, or ``default``
    where it is unset.  A value that is not a positive integer raises ValueError
    naming the variable."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{name} must be a positive integer, got {text!r}")
    return cap


def require_int(name: str, value) -> None:
    """Raise TypeError naming ``name`` and ``value`` unless ``value`` is an int
    (a bool is not: ``True`` is no size)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
