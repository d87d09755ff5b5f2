"""Long-format heart-rate records to a segments x person-days matrix.

A day is divided into 288 five-minute segments by wall-clock time; each
cell of the output is the median of the readings falling in that (person,
calendar date, segment). Columns are person-days ordered by (person_id,
date); segments with no readings are missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from .errors import ExpectileMFError, ParseError
from .masked import MaskedMatrix, NormalizationInfo, csv_records, drop_sparse_columns, normalize, open_input

SEGMENTS_PER_DAY = 288
SECONDS_PER_SEGMENT = 300


@dataclass(frozen=True)
class PersonDayMatrix:
    """288 x n_person_days matrix plus (person_id, date) column labels."""

    matrix: MaskedMatrix
    column_labels: tuple


def segment_of(ts: datetime) -> int:
    """Five-minute segment index 0..287 from wall-clock time of day."""
    seconds = ts.hour * 3600 + ts.minute * 60 + ts.second
    return seconds // SECONDS_PER_SEGMENT


def bin_records(records) -> PersonDayMatrix:
    """Median-aggregate (person_id, timestamp, bpm) records into the person-day matrix.

    Order-independent: every record lands in exactly one (person, date,
    segment) cell, and one sort by (cell, bpm) puts each cell's readings in
    order, so its median is the middle reading, or the mean of the two
    middle readings for an even count. records may be any iterable; it is
    read once.
    """
    records = list(records)
    if not records:
        raise ExpectileMFError("no heart-rate records")
    columns: dict[tuple[str, date], int] = {}
    col_ids = [columns.setdefault((person_id, ts.date()), len(columns))
               for person_id, ts, _ in records]
    segments = [segment_of(ts) for _, ts, _ in records]
    bpm = np.array([reading for _, _, reading in records], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(bpm) & (bpm > 0.0)))
    if bad.size:
        raise ExpectileMFError(f"record {bad[0]}: bpm must be finite and positive, got {bpm[bad[0]]}")
    labels = sorted(columns)
    n_cols = len(labels)
    position = np.empty(n_cols, dtype=np.int64)
    position[[columns[label] for label in labels]] = np.arange(n_cols)
    cell = np.array(segments, dtype=np.int64) * n_cols + position[col_ids]
    # Sorting by cell * n + rank(bpm) orders records by (cell, bpm), as a lexsort would,
    # in one integer sort. The key fits in int64: cell < 288 * n_cols <= 288 * n and
    # rank < n, so key < 288 * n**2, below 2**63 for n up to 1.7e8 records, whose
    # tuples alone would take over 20 GB.
    n = bpm.size
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(bpm)] = np.arange(n)
    order = np.argsort(cell * n + rank)
    cell, bpm = cell[order], bpm[order]
    starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
    counts = np.diff(np.append(starts, cell.size))
    median = bpm[starts + counts // 2]
    even = counts % 2 == 0
    lo, hi = bpm[starts[even] + counts[even] // 2 - 1], median[even]
    with np.errstate(over="ignore"):  # lo + hi overflows only near the float maximum
        mid = (lo + hi) / 2.0
    median[even] = np.where(np.isinf(mid), lo / 2.0 + hi / 2.0, mid)
    values = np.zeros(SEGMENTS_PER_DAY * n_cols)
    mask = np.zeros(SEGMENTS_PER_DAY * n_cols, dtype=bool)
    values[cell[starts]] = median
    mask[cell[starts]] = True
    shape = (SEGMENTS_PER_DAY, n_cols)
    return PersonDayMatrix(MaskedMatrix(values.reshape(shape), mask.reshape(shape)), tuple(labels))


def read_records_csv(path) -> list[tuple[str, datetime, float]]:
    """Parse a CSV with a header naming person_id, timestamp and bpm, in any order,
    into (person_id, timestamp, bpm) records."""
    records = []
    with open_input(path) as fh:
        rows = csv_records(fh)
        header_line, header = next(rows, (None, None))
        if header is None:
            raise ExpectileMFError("empty file")
        columns = ("person_id", "timestamp", "bpm")
        for col in columns:
            if col not in header:
                raise ParseError(header_line, f"missing column {col!r} in header {header}")
        person_at, time_at, bpm_at = map(header.index, columns)
        n_fields, append = len(header), records.append
        fromisoformat, isfinite = datetime.fromisoformat, math.isfinite
        for line_no, row in rows:
            if len(row) != n_fields:
                raise ParseError(line_no, f"expected {n_fields} fields, got {len(row)}")
            try:
                ts = fromisoformat(row[time_at].strip())
            except ValueError:
                raise ParseError(line_no, f"bad timestamp {row[time_at]!r}") from None
            try:
                bpm = float(row[bpm_at])
            except ValueError:
                raise ParseError(line_no, f"bad bpm {row[bpm_at]!r}") from None
            if not (isfinite(bpm) and bpm > 0.0):
                raise ParseError(line_no, f"bpm must be finite and positive, got {bpm}")
            append((row[person_at], ts, bpm))
        if not records:
            raise ExpectileMFError("header but no records")
    return records


# Only perfbench's hr_sweep calls this; remove when perfbench next changes.
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
