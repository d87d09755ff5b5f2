"""Long-format heart-rate records to a segments x person-days matrix.

A day is divided into 288 five-minute segments by wall-clock time; each
cell of the output is the median of the readings falling in that (person,
calendar date, segment). Columns are person-days ordered by (person_id,
date); segments with no readings are missing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from .errors import EmptyInput, ParseError
from .masked import MaskedMatrix, NormalizationInfo, drop_sparse_columns, normalize, open_input

SEGMENTS_PER_DAY = 288
SECONDS_PER_SEGMENT = 300


@dataclass(frozen=True)
class HeartRateRecord:
    person_id: str
    timestamp: datetime
    bpm: float

    def __post_init__(self):
        if not (math.isfinite(self.bpm) and self.bpm > 0.0):
            raise ValueError(f"bpm must be finite and positive, got {self.bpm}")


@dataclass(frozen=True)
class PersonDayMatrix:
    """288 x n_person_days matrix plus (person_id, date) column labels."""

    matrix: MaskedMatrix
    column_labels: tuple

    def __post_init__(self):
        if self.matrix.n_rows != SEGMENTS_PER_DAY:
            raise ValueError(f"expected {SEGMENTS_PER_DAY} rows, got {self.matrix.n_rows}")
        if len(self.column_labels) != self.matrix.n_cols:
            raise ValueError("one label per column required")
        if len(set(self.column_labels)) != len(self.column_labels):
            raise ValueError("column labels must be unique")
        if self.matrix.n_cols and not self.matrix.mask.any(axis=0).all():
            raise ValueError("every person-day column needs at least one observed segment")
        object.__setattr__(self, "column_labels", tuple(self.column_labels))


def segment_of(ts: datetime) -> int:
    """Five-minute segment index 0..287 from wall-clock time of day."""
    seconds = ts.hour * 3600 + ts.minute * 60 + ts.second
    return seconds // SECONDS_PER_SEGMENT


def bin_records(records) -> PersonDayMatrix:
    """Median-aggregate a record stream into the person-day matrix.

    Order-independent: every record lands in exactly one (person, date,
    segment) cell, and the median does not care about arrival order.
    """
    cells: dict[tuple[str, date], dict[int, list[float]]] = {}
    empty = True
    for rec in records:
        empty = False
        day = cells.setdefault((rec.person_id, rec.timestamp.date()), {})
        day.setdefault(segment_of(rec.timestamp), []).append(rec.bpm)
    if empty:
        raise EmptyInput("no heart-rate records")
    labels = sorted(cells)
    values = np.zeros((SEGMENTS_PER_DAY, len(labels)))
    mask = np.zeros((SEGMENTS_PER_DAY, len(labels)), dtype=bool)
    for j, label in enumerate(labels):
        for seg, bpms in cells[label].items():
            values[seg, j] = float(np.median(bpms))
            mask[seg, j] = True
    return PersonDayMatrix(MaskedMatrix(values, mask), tuple(labels))


def read_records_csv(
    path,
    person_col: str = "person_id",
    time_col: str = "timestamp",
    bpm_col: str = "bpm",
) -> list[HeartRateRecord]:
    """Parse a header-ed CSV of records; column names are remappable."""
    records = []
    with open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInput(f"{path} is empty")
        for col in (person_col, time_col, bpm_col):
            if col not in header:
                raise ParseError(1, f"missing column {col!r} in header {header}")
        person_at, time_at, bpm_at = (header.index(c) for c in (person_col, time_col, bpm_col))
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            if len(row) != len(header):
                raise ParseError(line_no, f"expected {len(header)} fields, got {len(row)}")
            try:
                ts = datetime.fromisoformat(row[time_at].strip())
            except ValueError:
                raise ParseError(line_no, f"bad timestamp {row[time_at]!r}") from None
            try:
                bpm = float(row[bpm_at])
            except ValueError:
                raise ParseError(line_no, f"bad bpm {row[bpm_at]!r}") from None
            try:
                records.append(HeartRateRecord(row[person_at], ts, bpm))
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
    if not records:
        raise EmptyInput(f"{path} has a header but no records")
    return records


def filter_and_normalize(
    pdm: PersonDayMatrix, max_missing_fraction: float
) -> tuple[MaskedMatrix, NormalizationInfo, tuple]:
    """Drop sparse person-day columns, then center and scale.

    Returns the normalized matrix, the scaling info, and the labels of the
    surviving columns in order.
    """
    filtered, kept = drop_sparse_columns(pdm.matrix, max_missing_fraction)
    xn, info = normalize(filtered)
    kept_labels = tuple(pdm.column_labels[i] for i in kept)
    return xn, info, kept_labels
