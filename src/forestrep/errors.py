"""Exceptions shared across the package, and its one exactness check and
one integer check."""

from fractions import Fraction


class ForestRepError(Exception):
    pass


class ParseError(ForestRepError, ValueError):
    """Malformed input text (tree, forest, element literal, rational)."""


class ContractError(ForestRepError, ValueError):
    """A documented precondition was violated; the message names the contract."""


# the longest literal an error message echoes whole
_ECHO_CHARS = 40


def _echo(text: str) -> str:
    """A literal as an error message quotes it: cut after _ECHO_CHARS."""
    return repr(text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "...")


def _exact(where: str, name: str, value) -> Fraction:
    """value as a Fraction, from an int or a Fraction only: Fraction() would
    also take a float's binary value, a string, a bool or a Decimal.  A
    Fraction is returned as it is."""
    if type(value) is Fraction:
        return value
    if type(value) is not int:
        raise ContractError(f"{where}: {name} is a {type(value).__name__}, not an int or a Fraction")
    return Fraction(value)


def _integer(where: str, name: str, value) -> int:
    """value if its type is int: a bool, a float or an int subclass is refused."""
    if type(value) is not int:
        raise ContractError(f"{where}: {name} is a {type(value).__name__}, not an int")
    return value
