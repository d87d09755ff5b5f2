"""Exception types shared across the package."""


class ExpectileMFError(Exception):
    """Bad data: a malformed input or a value that no fit can use.

    The message says where (a file, line, row, cell or parameter). The CLI
    prints it and exits 2. A bad option value raises ValueError instead, and
    the CLI exits 1.
    """


class ParseError(ExpectileMFError):
    """A malformed record in an input file, starting at 1-based line_number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")

