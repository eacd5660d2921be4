"""Shared exception base and numeral reader for the package."""

import sys


class BairelabError(Exception):
    """Base class for every domain error raised by this package.

    The command line front end maps any subclass to exit code 1; usage
    mistakes (bad flags, missing arguments) exit with 2 instead.
    """


def natural(text: str, what: str) -> int:
    """text read as a numeral of ASCII digits, the lexer's NUM; else raise what,
    or, past sys.get_int_max_str_digits() digits, say that it is too long."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what}, not {text!r}")
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"too many digits: {text[:8]}... has {len(text):,}, over the limit of {limit:,}"
        ) from None
