"""Shared exception base and numeral reader for the package."""


class BairelabError(Exception):
    """Base class for every domain error raised by this package.

    The command line front end maps any subclass to exit code 1; usage
    mistakes (bad flags, missing arguments) exit with 2 instead.
    """


def natural(text: str, what: str) -> int:
    """text read as a numeral of ASCII digits, the lexer's NUM; else raise what."""
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:  # only past sys.get_int_max_str_digits() digits
        pass
    raise ValueError(f"{what}, not {text!r}")
