"""Exception types shared across the package.

A QmuxError is a refusal of input: a file, a flag value or an argument
that the program declines, naming what is wrong with it.  The raising site
picks the type, and no other code relabels it: cli.main turns a
SizeLimitExceeded into exit 3 and any other QmuxError into exit 2.  A
bare exception (a ValueError, a TypeError, ...) is a fault of the program
itself, never of its input, and exits 4 with its traceback.  QmuxError
subclasses ValueError, so a library caller that catches ValueError still
catches every refusal.

Two rules every count of the input shares live here too: `parse_count`
reads a count from text (a header, a PLA directive, a flag), and `is_int`
checks one handed over as a value (a JSON field, a library argument).
"""


def parse_count(text: str, signed: bool = False):
    """The integer `text` spells in ASCII digits, after a leading '-' when
    `signed`; None for any other text.  int() also reads '1_0', '+1', ' 1'
    and other scripts' digits, which no count of the input accepts."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past int()'s digit limit
        return None


def is_int(value) -> bool:
    """True for an int that is not a bool: bool is an int subclass, but
    True is no count, and a float is not one even when it is whole."""
    return isinstance(value, int) and not isinstance(value, bool)


class QmuxError(ValueError):
    """Base class for all qmuxopt refusals of input."""


class UnknownGate(QmuxError):
    """Gate token does not match any catalog name or literal grammar."""


class NonUnitary(QmuxError):
    """Matrix fails the unitarity check."""


class PolarityLengthMismatch(QmuxError):
    """Polarity digit string length does not match the variable count."""


class SizeLimitExceeded(QmuxError):
    """Problem size is beyond the supported limit for this operation."""


class FormMismatch(QmuxError):
    """Multiplexer is not in the form the operation requires."""


class ParseError(QmuxError):
    """Input text could not be parsed; carries source position.  A source
    name holding a character that is not printable is shown as its repr."""

    def __init__(self, message, source=None, line=None, column=None):
        self.source = source
        self.line = line
        self.column = column
        prefix = source or "<input>"
        if not prefix.isprintable():  # a newline would split the one error line
            prefix = repr(prefix)
        if line is not None:
            prefix += f":{line}"
            if column is not None:
                prefix += f":{column}"
        super().__init__(f"{prefix}: {message}")


class MalformedCube(ParseError):
    """PLA term line is not a valid cube/output pair."""


class MissingHeader(ParseError):
    """PLA file lacks required .i/.o declarations."""


class MalformedHeader(ParseError):
    """PLA .i/.o/.p directive lacks a valid count."""


class InconsistentWidth(ParseError):
    """PLA cube or output width disagrees with the declared counts."""
