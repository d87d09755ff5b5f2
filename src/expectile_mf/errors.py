"""Exception and warning types shared across the package."""


class ExpectileMFError(Exception):
    """Base class for all library errors (maps to exit code 2 in the CLI)."""


class DegenerateMatrix(ExpectileMFError):
    """Fewer than two observed entries, or zero variance among them."""


class EmptyResult(ExpectileMFError):
    """A filtering operation removed every column."""


class EmptySample(ExpectileMFError):
    """An expectile was requested for an empty sample."""


class NonConvergence(ExpectileMFError):
    """An iterative solver hit its iteration cap without converging."""


class EmptyRow(ExpectileMFError):
    """A row with no observed entries where at least one is required."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has no observed entries")


class DimensionMismatch(ExpectileMFError):
    """Array shapes are inconsistent with each other."""


class EmptyMask(ExpectileMFError):
    """A loss evaluation was requested with zero observed cells."""


class LengthMismatch(ExpectileMFError):
    """A flat parameter vector has the wrong length for (n, p, k)."""


class RankNotOne(ExpectileMFError):
    """A rank-1-only operation was called on a model with k != 1."""


class NonFiniteValue(ExpectileMFError):
    """An observed matrix cell or a model parameter holds NaN or an infinity."""


class NonFiniteObjective(ExpectileMFError):
    """The objective returned NaN or Inf at an evaluated point."""


class DegenerateVariance(ExpectileMFError):
    """Total variance is zero, so a variance ratio is undefined."""


class ParseError(ExpectileMFError):
    """A malformed record in an input file."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class EmptyInput(ExpectileMFError):
    """An input stream or file contained no records."""


class TooFewGroups(ExpectileMFError):
    """Grouped data spans fewer than two distinct groups."""


class ZeroColumnWarning(UserWarning):
    """A multiplicative-row column had (near-)zero norm and was left unscaled."""


class UnnormalizedDataWarning(UserWarning):
    """Data handed to the fit pipeline does not look normalized."""
