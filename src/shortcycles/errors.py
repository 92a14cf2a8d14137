"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A configured resource cap (support size, brute-force size, Dickman panels) was hit."""
