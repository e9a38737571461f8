"""Exception types shared across the package."""


class UsageError(Exception):
    """Invalid invocation: bad arguments or environment settings."""


class DataError(Exception):
    """Malformed or inconsistent input data (files, shapes, label ranges)."""


class NumericalError(Exception):
    """A numerical computation failed (divergence, non-finite values)."""
