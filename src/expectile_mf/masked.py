"""Dense matrices with an explicit observation mask.

The mask is authoritative: values stored at unobserved cells are sentinels
that no operation reads. All statistics and normalization here are
missing-aware. Also holds the CSV wire format for matrices (missing cells
written as "nan", parsed from "nan" or an empty field, case-insensitive).
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMatrix,
    DimensionMismatch,
    EmptyResult,
    ExpectileMFError,
    NonFiniteValue,
    ParseError,
)


def _frozen_array(arr, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MaskedMatrix:
    """n x p values plus a boolean mask, True where a cell is observed.

    Observed cells must be finite; unobserved cells are not checked.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values, float)
        mask = _frozen_array(self.mask, bool)
        if values.ndim != 2:
            raise DimensionMismatch(f"values must be 2-D, got shape {values.shape}")
        if mask.shape != values.shape:
            raise DimensionMismatch(
                f"mask shape {mask.shape} != values shape {values.shape}"
            )
        finite = np.isfinite(values[mask])
        if not finite.all():
            i, j = divmod(int(np.flatnonzero(mask)[np.argmin(finite)]), values.shape[1])
            raise NonFiniteValue(f"observed cell ({i}, {j}) is {float(values[i, j])!r}")
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

    @classmethod
    def from_dense(cls, dense) -> "MaskedMatrix":
        """Build from an array whose missing cells are NaN."""
        arr = np.asarray(dense, dtype=float)
        mask = ~np.isnan(arr)
        return cls(np.where(mask, arr, 0.0), mask)

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
        object.__setattr__(self, "row_means", _frozen_array(self.row_means, float))
        object.__setattr__(self, "col_means", _frozen_array(self.col_means, float))

    def to_dict(self) -> dict:
        """JSON form, shared by the ingest sidecar and the model file."""
        return {
            "mean": self.mean,
            "std": self.std,
            "row_means": self.row_means.tolist(),
            "col_means": self.col_means.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NormalizationInfo":
        """Inverse of to_dict; raises KeyError, TypeError or ValueError on a bad document."""
        return cls(
            mean=float(doc["mean"]),
            std=float(doc["std"]),
            row_means=np.asarray(doc["row_means"], dtype=float),
            col_means=np.asarray(doc["col_means"], dtype=float),
        )


def global_stats(x: MaskedMatrix, ddof: int = 0) -> tuple[float, float]:
    """Mean and std over observed entries only.

    Default divisor is N (population form), matching the convention used by
    the simulation generator; pass ddof=1 for the sample form.
    """
    obs = x.observed_values()
    if obs.size < 2:
        raise DegenerateMatrix(f"need >= 2 observed entries, have {obs.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(obs))
        std = float(np.std(obs, ddof=ddof))
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise DegenerateMatrix(f"observed entries overflow: mean {mean}, std {std}")
    if std <= 0.0:
        raise DegenerateMatrix("observed entries have zero variance")
    return mean, std


def masked_row_means(x: MaskedMatrix) -> np.ndarray:
    counts = x.mask.sum(axis=1)
    sums = np.where(x.mask, x.values, 0.0).sum(axis=1)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)


def masked_col_means(x: MaskedMatrix) -> np.ndarray:
    counts = x.mask.sum(axis=0)
    sums = np.where(x.mask, x.values, 0.0).sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)


def normalize(x: MaskedMatrix) -> tuple[MaskedMatrix, NormalizationInfo]:
    """Center and scale observed entries to mean 0, std 1.

    Returns the scaled matrix (unobserved cells zeroed) and the info needed
    to undo the scaling; info carries the row/column means of the *scaled*
    matrix, which seed the additive terms at fit time.
    """
    mean, std = global_stats(x)
    scaled = np.where(x.mask, (x.values - mean) / std, 0.0)
    xn = MaskedMatrix(scaled, x.mask)
    info = NormalizationInfo(
        mean=mean,
        std=std,
        row_means=masked_row_means(xn),
        col_means=masked_col_means(xn),
    )
    return xn, info


def denormalize(xn: MaskedMatrix, info: NormalizationInfo) -> MaskedMatrix:
    """Inverse of normalize on observed entries."""
    values = np.where(xn.mask, xn.values * info.std + info.mean, 0.0)
    return MaskedMatrix(values, xn.mask)


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
        raise EmptyResult("no column has enough observed entries")
    return MaskedMatrix(x.values[:, kept], x.mask[:, kept]), kept


def write_matrix_csv(x: MaskedMatrix, path, header: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow([f"c{j}" for j in range(x.n_cols)])
        for i in range(x.n_rows):
            writer.writerow(
                [f"{x.values[i, j]:.17g}" if x.mask[i, j] else "nan" for j in range(x.n_cols)]
            )


@contextmanager
def open_input(path):
    """Open a UTF-8 text input; bytes that do not decode are a data error naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ExpectileMFError(f"{path}: not UTF-8 text: {exc}") from None


def read_matrix_csv(path, header: bool = False) -> MaskedMatrix:
    values: list[list[float]] = []
    mask: list[list[bool]] = []
    line_numbers: list[int] = []
    width = None
    with open_input(path) as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if header and line_no == 1:
                continue
            if not row:
                continue
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
        raise ParseError(0, "no matrix rows found")
    arr = np.array(values)
    # One vectorized pass; missing cells already hold 0.0.
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        i, j = bad[0]
        raise ParseError(line_numbers[i], f"column {j + 1}: non-finite value {float(arr[i, j])!r}")
    return MaskedMatrix(arr, np.array(mask))
