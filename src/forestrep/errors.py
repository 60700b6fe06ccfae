"""Exceptions shared across the package."""


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
