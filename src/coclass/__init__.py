"""Cohomological toolkit for p-groups acting uniserially on p-adic lattices."""

__version__ = "0.1.0"


class CoclassError(ValueError):
    """Base of every error the package raises on bad input or a failed construction."""


class Owner:
    """An object that holds what is derived from it, each built once, on first use."""

    def derived(self, key, build):
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            memo[key] = build()
        return memo[key]
