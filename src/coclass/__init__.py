"""Cohomological toolkit for p-groups acting uniserially on p-adic lattices."""

__version__ = "0.1.0"


class CoclassError(ValueError):
    """Base of every error the package raises on bad input or a failed construction."""
