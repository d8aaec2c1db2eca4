"""Exception types shared across the package."""


class QmuxError(Exception):
    """Base class for all qmuxopt errors."""


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


class LengthNotPowerOfTwo(QmuxError):
    """Gate vector length must be a power of two."""


class ParseError(QmuxError):
    """Input text could not be parsed; carries source position."""

    def __init__(self, message, source=None, line=None, column=None):
        self.source = source
        self.line = line
        self.column = column
        prefix = source or "<input>"
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
