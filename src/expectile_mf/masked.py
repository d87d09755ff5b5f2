"""Dense matrices with an explicit observation mask.

The mask is authoritative: a MaskedMatrix stores +0.0 at every unobserved
cell, whatever its input held there, so a sum over its values is a sum over
the observed cells. All statistics and normalization here are missing-aware.
Also holds the CSV wire format for matrices (missing cells
written as "nan", parsed from "nan" or an empty field, case-insensitive),
and the input boundary: open_input opens every file the package reads,
naming prefixes a data error with the file it came from, and csv_records is
the one place where CSV records are parsed, apart from read_matrix_csv's one
np.loadtxt pass over a plain numeric matrix. read_matrix_csv reads the lines
of a file or a pipe once, and both of its readers work on that one list.
"""

from __future__ import annotations

import csv
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ExpectileMFError, ParseError


def frozen_array(arr, dtype) -> np.ndarray:
    """Read-only C-ordered copy: a layout that follows the input would change the
    order of reductions, and so the last bit of sums, with the input's history."""
    out = np.array(arr, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MaskedMatrix:
    """n x p values plus a boolean mask, True where a cell is observed.

    Observed cells must be finite; unobserved cells are not checked, and are
    stored as +0.0. Both arrays are read-only and C-ordered.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = frozen_array(self.mask, bool)
        if values.ndim != 2:
            raise ExpectileMFError(f"values must be 2-D, got shape {values.shape}")
        if mask.shape != values.shape:
            raise ExpectileMFError(
                f"mask shape {mask.shape} != values shape {values.shape}"
            )
        finite = np.isfinite(values[mask])
        if not finite.all():
            i, j = divmod(int(np.flatnonzero(mask)[np.argmin(finite)]), values.shape[1])
            raise ExpectileMFError(f"observed cell ({i}, {j}) is {float(values[i, j])!r}")
        values = np.ascontiguousarray(np.where(mask, values, 0.0))
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def observed_count(self) -> int:
        return int(self.mask.sum())

    def observed_values(self) -> np.ndarray:
        return self.values[self.mask]

    def to_dense(self) -> np.ndarray:
        """Writable copy with NaN at unobserved cells."""
        return np.where(self.mask, self.values, np.nan)


@dataclass(frozen=True)
class NormalizationInfo:
    """Global mean/std used for scaling plus row/column means of the scaled matrix.

    Rows or columns with no observed cells get mean 0, the neutral additive
    effect for centered data.
    """

    mean: float
    std: float
    row_means: np.ndarray
    col_means: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.std)):
            raise ValueError(f"mean and std must be finite, got {self.mean} and {self.std}")
        if self.std <= 0.0:
            raise ValueError(f"std must be positive, got {self.std}")
        for name in ("row_means", "col_means"):
            means = frozen_array(getattr(self, name), float)
            if means.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {means.shape}")
            if not np.isfinite(means).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, means)


def global_stats(x: MaskedMatrix) -> tuple[float, float]:
    """Mean and std over observed entries only.

    The divisor is N (population form), matching the convention used by the
    simulation generator.
    """
    obs = x.observed_values()
    if obs.size < 2:
        raise ExpectileMFError(f"need >= 2 observed entries, have {obs.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(obs))
        std = float(np.std(obs))
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise ExpectileMFError(f"observed entries overflow: mean {mean}, std {std}")
    if std <= 0.0:
        raise ExpectileMFError("observed entries have zero variance")
    return mean, std


def masked_row_means(x: MaskedMatrix) -> np.ndarray:
    counts = x.mask.sum(axis=1)
    return np.where(counts > 0, x.values.sum(axis=1) / np.maximum(counts, 1), 0.0)


def masked_col_means(x: MaskedMatrix) -> np.ndarray:
    counts = x.mask.sum(axis=0)
    return np.where(counts > 0, x.values.sum(axis=0) / np.maximum(counts, 1), 0.0)


def normalize(x: MaskedMatrix) -> tuple[MaskedMatrix, NormalizationInfo]:
    """Center and scale observed entries to mean 0, std 1.

    Returns the scaled matrix and the info needed to undo the scaling; info
    carries the row/column means of the *scaled* matrix, which seed the
    additive terms at fit time.
    """
    mean, std = global_stats(x)
    xn = MaskedMatrix((x.values - mean) / std, x.mask)
    info = NormalizationInfo(
        mean=mean,
        std=std,
        row_means=masked_row_means(xn),
        col_means=masked_col_means(xn),
    )
    return xn, info


def drop_sparse_columns(
    x: MaskedMatrix, max_missing_fraction: float
) -> tuple[MaskedMatrix, np.ndarray]:
    """Keep columns whose missing fraction is <= the threshold, in order.

    Returns the reduced matrix and the original indices of the kept columns.
    """
    if not 0.0 < max_missing_fraction < 1.0:
        raise ValueError("max_missing_fraction must be in (0, 1)")
    missing_frac = 1.0 - x.mask.mean(axis=0)
    kept = np.flatnonzero(missing_frac <= max_missing_fraction)
    if kept.size == 0:
        raise ExpectileMFError("no column has enough observed entries")
    return MaskedMatrix(x.values[:, kept], x.mask[:, kept]), kept


def write_matrix_csv(x: MaskedMatrix, path) -> None:
    row_format = ",".join(["%.17g"] * x.n_cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in x.to_dense().tolist():
            fh.write(row_format % tuple(row))


@contextmanager
def naming(path):
    """Prefix the message of a data error raised inside with path. Other errors,
    such as a bad option value's ValueError, pass unchanged. Never wrap a
    reader in it: open_input already names the file, which would print twice."""
    try:
        yield
    except ExpectileMFError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


@contextmanager
def open_input(path):
    """Open a UTF-8 text input, CSV or JSON; a leading byte-order mark is skipped.
    Bytes that do not decode, a CSV record the csv module rejects, a document's
    KeyError, TypeError, ValueError or OverflowError, and every data error raised
    while it is open, are data errors naming the file. A check on the values read
    that runs after the file is closed names it through naming(path)."""
    with naming(path):
        try:
            with open(path, "r", encoding="utf-8-sig", newline="") as fh:
                yield fh
        except UnicodeDecodeError as exc:
            raise ExpectileMFError(f"not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise ExpectileMFError(str(exc)) from None
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ExpectileMFError(f"{type(exc).__name__}: {exc}") from None


def csv_records(lines):
    """Yield (line, fields) for each non-blank CSV record of lines, where line is the
    1-based line the record starts on; a quoted field may span lines. A record
    of one field that is empty or whitespace only is blank."""
    reader = csv.reader(lines)
    line = 1
    for fields in reader:
        if len(fields) > 1 or (fields and fields[0].strip()):
            yield line, fields
        line = reader.line_num + 1


def read_matrix_csv(path) -> MaskedMatrix:
    """Read a matrix CSV, a file or a pipe, reading its lines once. A plain numeric
    matrix, which is what write_matrix_csv writes, is parsed by np.loadtxt in one
    pass over them; any input that pass cannot be trusted on goes to the located
    reader, which gives the same arrays and writes every error message."""
    limit = csv.field_size_limit()
    with open_input(path) as fh:
        lines = fh.readlines()
        # loadtxt reads "-nan" and "+nan", in any case, as missing, and a field of any
        # length; the located reader rejects both.
        for line in lines:
            low = line.lower()
            if "-nan" in low or "+nan" in low or (
                    len(line) > limit and max(map(len, line.rstrip("\r\n").split(","))) > limit):
                return _read_matrix_located(lines)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty input only warns
                arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            arr = None
        # An infinite cell ("inf", "1e999") is an error that only the located reader
        # names by line. loadtxt raises on every other input that the located reader
        # reads differently; tests/test_masked.py checks this on generated text.
        if arr is None or np.isinf(arr).any():
            return _read_matrix_located(lines)
    return MaskedMatrix(arr, ~np.isnan(arr))


def _read_matrix_located(lines) -> MaskedMatrix:
    """The per-cell matrix CSV reader over lines: every error names its line."""
    values: list[list[float]] = []
    mask: list[list[bool]] = []
    line_numbers: list[int] = []
    width = None
    for line_no, row in csv_records(lines):
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(line_no, f"expected {width} cells, got {len(row)}")
        vrow, mrow = [], []
        for cell in row:
            text = cell.strip()
            if text == "" or text.lower() == "nan":
                vrow.append(0.0)
                mrow.append(False)
                continue
            try:
                vrow.append(float(text))
            except ValueError:
                raise ParseError(line_no, f"not a number: {text!r}") from None
            mrow.append(True)
        values.append(vrow)
        mask.append(mrow)
        line_numbers.append(line_no)
    if not values:
        raise ExpectileMFError("no matrix rows found")
    arr = np.array(values)
    # One vectorized pass; missing cells already hold 0.0.
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        i, j = bad[0]
        raise ParseError(line_numbers[i], f"column {j + 1}: non-finite value {float(arr[i, j])!r}")
    return MaskedMatrix(arr, np.array(mask))
