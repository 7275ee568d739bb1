"""Exception types shared across the package."""


class PrivampError(Exception):
    """Base class for all errors raised by this package.

    ``exit_code`` is the CLI's exit status for the error: 2 (argument,
    range or parse error) unless a subclass says otherwise.
    """

    exit_code = 2


class LengthMismatch(PrivampError):
    """An input, seed or output does not have the required bit length."""

    exit_code = 1


class DimensionMismatch(PrivampError):
    """Matrix and vector shapes do not conform."""


class InvalidHexDigit(PrivampError):
    pass


class NonZeroPadding(PrivampError):
    """Hex padding bits beyond the declared bit length are not all zero."""


class NotPrimePower(PrivampError):
    pass


class InvalidRange(PrivampError):
    """An argument is outside its documented range."""


class PrecisionLoss(PrivampError):
    """Floating-point convolution residual exceeded the rounding margin."""

    exit_code = 1


class InsufficientMemory(PrivampError):
    """A computation's workspace is larger than the memory available to the process."""

    exit_code = 1


class TooManySets(PrivampError):
    """Requested weak design size exceeds the t**t sanity cap."""


class NoFeasibleOutput(PrivampError):
    """No output length >= 1 satisfies the extractor constraints."""


class DuplicateLabel(PrivampError):
    pass


class AdapterConfigError(PrivampError):
    """An implementation adapter is misconfigured."""


class ProbeFailed(PrivampError):
    """The probe invocation of a registered implementation failed."""

    exit_code = 4


class AdapterCrashed(PrivampError):
    """A single adapter invocation failed (recorded per case, not fatal)."""


class NoFailures(PrivampError):
    """Failure analysis requested on a report without failures."""


class _LineError(PrivampError):
    """An error in a test vector file, its message prefixed by the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(_LineError):
    """Test vector file could not be parsed."""


class LengthInconsistency(_LineError):
    """A test vector field does not match the declared bit lengths."""


class MissingOutputs(PrivampError):
    """A response-file operation was attempted on a request file."""
