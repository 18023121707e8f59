"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalError -> 3,
RegimeError -> 4.  DomainError means a mathematical precondition was violated
(negative frequency, |sx| > 1, ...) and is treated as a configuration problem.
"""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConfigError(ValueError):
    """A sweep / CLI configuration is invalid; message names the field."""


class RegimeError(RuntimeError):
    """A closed form was evaluated outside its regime of validity."""


class NumericalError(RuntimeError):
    """A solver or quadrature failed to converge to the requested tolerance."""


def _in_range(name: str, value, op: str, low):
    """value, if it is finite and value op low holds, op being ">" or ">=";
    else the package's one DomainError for a range (NaN fails both)."""
    if (value > low if op == ">" else value >= low) and value < math.inf:
        return value
    raise DomainError(f"{name} must be finite and {op} {low}, got {value}")


def _finite(what: str, value):
    """value, if it is finite; else a NumericalError naming what it is."""
    if abs(value) < math.inf:
        return value
    raise NumericalError(f"{what} is {value}, past the largest double")
