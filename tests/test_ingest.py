import csv
import io
import math
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expectile_mf import (
    ExpectileMFError,
    ParseError,
    bin_records,
    filter_and_normalize,
    read_records_csv,
)
from expectile_mf.ingest import SEGMENTS_PER_DAY, segment_of
from oracles import loop_bin_records, median_sorted


def rec(person, iso_ts, bpm):
    return (person, datetime.fromisoformat(iso_ts), bpm)


BPM = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
# naive, and aware at several UTC offsets; binning reads only the wall-clock time
ZONES = [None, timezone.utc, timezone(timedelta(hours=-7)),
         timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=14))]
# one cell: (person, day, segment, distinct readings to draw from, number of readings)
CELL = st.tuples(
    st.sampled_from(["p1", "p2", "p10"]),
    st.integers(1, 3),
    st.integers(0, SEGMENTS_PER_DAY - 1),
    st.lists(BPM, min_size=1, max_size=6),
    st.integers(1, 300),
)


BAD_BPM = [0.0, -5.0, float("nan"), float("inf")]

TEXT = st.text(st.characters(codec="utf-8"), max_size=12)
# a records-file row: free text, a row of any width, or (most often) person, timestamp and
# bpm fields, each valid, malformed or CSV-special
FIELD = st.one_of(TEXT, st.sampled_from(["p1", "", " ", '"', '"a,b"', "\r", "\x00", "\n"]))
TIME = st.one_of(st.sampled_from([
    "2016-04-01T00:00:30", "2016-04-01T23:59:59+14:00", "2016-04-01 10:00:00Z", " 2016-04-01",
    "2016-02-30T00:00:00", "2016-04-01T24:00:00"]), FIELD)
BPM_TEXT = st.one_of(st.sampled_from(["70", "1e999", "nan", "-3", "0", "7_0", " 70 "]), FIELD)
ROW = st.one_of(
    st.tuples(FIELD, TIME, BPM_TEXT).map(",".join),
    TEXT,
    st.lists(FIELD, max_size=5).map(",".join),
)
# wall-clock times a few seconds apart share a cell; a day or two apart they do not
WHEN = st.one_of(
    st.datetimes(datetime(2016, 4, 1, 10), datetime(2016, 4, 1, 10, 10),
                 timezones=st.sampled_from(ZONES)),
    st.datetimes(datetime(2016, 3, 31), datetime(2016, 4, 2), timezones=st.sampled_from(ZONES)),
)
PERSON = st.one_of(st.sampled_from(["p1", "Smith, J", ' "q" ', "a\nb", "a\rb"]),
                   st.text(st.characters(codec="utf-8"), max_size=12))
RECORD = st.tuples(PERSON, WHEN, BPM)


class TestRecordValidation:
    @pytest.mark.parametrize("bpm", BAD_BPM)
    def test_bad_bpm_rejected(self, tmp_path, bpm):
        path = tmp_path / "hr.csv"
        path.write_text("person_id,timestamp,bpm\n"
                        "p1,2016-04-01T10:00:00,70\n"
                        f"p1,2016-04-01T10:01:00,{bpm}\n")
        with pytest.raises(ParseError, match="bpm must be finite and positive") as err:
            read_records_csv(path)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("bpm", BAD_BPM)
    def test_bin_records_rejects_bad_bpm(self, bpm):
        records = [rec("p1", "2016-04-01T10:00:00", 70.0), rec("p1", "2016-04-01T10:01:00", bpm)]
        with pytest.raises(ExpectileMFError, match="^record 1: bpm"):
            bin_records(records)


class TestSegmentOf:
    def test_boundaries(self):
        assert segment_of(datetime(2016, 4, 1, 0, 0, 0)) == 0
        assert segment_of(datetime(2016, 4, 1, 0, 4, 59)) == 0
        assert segment_of(datetime(2016, 4, 1, 0, 5, 0)) == 1
        assert segment_of(datetime(2016, 4, 1, 23, 59, 59)) == 287
        assert segment_of(datetime(2016, 4, 1, 6, 0, 0)) == 72


class TestBinRecords:
    def test_single_record(self):
        pdm = bin_records([rec("p1", "2016-04-01T00:02:30", 72.0)])
        assert pdm.matrix.n_rows == SEGMENTS_PER_DAY
        assert pdm.matrix.n_cols == 1
        assert pdm.matrix.mask[0, 0]
        assert pdm.matrix.values[0, 0] == 72.0
        assert pdm.matrix.observed_count() == 1
        assert pdm.column_labels[0] == ("p1", datetime(2016, 4, 1).date())

    def test_odd_count_median(self):
        records = [rec("p1", f"2016-04-01T10:0{i}:00", b) for i, b in enumerate([70.0, 80.0, 90.0])]
        pdm = bin_records(records)
        seg = segment_of(datetime(2016, 4, 1, 10, 0, 0))
        assert pdm.matrix.values[seg, 0] == 80.0

    def test_even_count_median_is_midpoint(self):
        records = [
            rec("p1", "2016-04-01T10:00:05", 70.0),
            rec("p1", "2016-04-01T10:03:05", 80.0),
        ]
        pdm = bin_records(records)
        seg = segment_of(datetime(2016, 4, 1, 10, 0, 0))
        assert pdm.matrix.values[seg, 0] == 75.0
        assert median_sorted([70.0, 80.0]) == 75.0

    def test_even_count_midpoint_near_float_max_does_not_overflow(self):
        records = [rec("p1", "2016-04-01T10:00:05", 1.7e308),
                   rec("p1", "2016-04-01T10:03:05", 1.7e308)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdm = bin_records(records)
        seg = segment_of(datetime(2016, 4, 1, 10, 0, 0))
        assert pdm.matrix.values[seg, 0] == 1.7e308

    @pytest.mark.parametrize("size", range(1, 8))
    def test_median_matches_sort_oracle(self, size, rng):
        bpms = [float(b) for b in rng.uniform(50, 150, size=size)]
        records = [rec("p1", f"2016-04-01T10:00:{i:02d}", b) for i, b in enumerate(bpms)]
        pdm = bin_records(records)
        seg = segment_of(datetime(2016, 4, 1, 10, 0, 0))
        assert pdm.matrix.values[seg, 0] == median_sorted(bpms)

    def test_columns_sorted_by_person_then_date(self):
        records = [
            rec("p2", "2016-04-02T01:00:00", 60.0),
            rec("p1", "2016-04-03T01:00:00", 61.0),
            rec("p1", "2016-04-01T01:00:00", 62.0),
        ]
        pdm = bin_records(records)
        labels = [(p, d.isoformat()) for p, d in pdm.column_labels]
        assert labels == [
            ("p1", "2016-04-01"),
            ("p1", "2016-04-03"),
            ("p2", "2016-04-02"),
        ]

    @given(seed=st.integers(0, 10_000))
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        records = [
            rec("p1", f"2016-04-0{1 + int(rng.integers(0, 3))}T"
                f"{int(rng.integers(0, 24)):02d}:{int(rng.integers(0, 60)):02d}:00",
                float(rng.uniform(55, 150)))
            for _ in range(20)
        ]
        base = bin_records(records)
        order = rng.permutation(len(records))
        shuffled = bin_records([records[i] for i in order])
        assert base.column_labels == shuffled.column_labels
        assert np.array_equal(base.matrix.values, shuffled.matrix.values)
        assert np.array_equal(base.matrix.mask, shuffled.matrix.mask)

    @given(cells=st.lists(CELL, min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_cell_median_loop(self, cells, seed):
        rng = np.random.default_rng(seed)
        records = []
        for person, day, segment, pool, count in cells:
            for offset, bpm in zip(rng.integers(0, 300, size=count), rng.choice(pool, size=count)):
                wall = datetime(2016, 4, day) + timedelta(seconds=segment * 300 + int(offset))
                zone = ZONES[int(rng.integers(len(ZONES)))]
                records.append((person, wall.replace(tzinfo=zone), float(bpm)))
        records = [records[i] for i in rng.permutation(len(records))]
        values, mask, labels = loop_bin_records(records)
        pdm = bin_records(iter(records))
        assert pdm.column_labels == labels
        assert np.array_equal(pdm.matrix.mask, mask)
        assert np.array_equal(pdm.matrix.values, values)

    # One integer sort by cell * n_records + rank(bpm) orders the records; these pin the
    # ties and neighbouring cells that key must keep apart.
    @pytest.mark.parametrize("cells", [
        {("p1", 1, 10): [72.5] * 5, ("p1", 2, 10): [72.5] * 4},
        {(person, day, segment): [70.0, 70.0] if segment % 2 else [70.0]
         for person in ("p1", "p2") for day in (1, 2, 3) for segment in range(0, 288, 7)},
        {("p1", 1, 100): [60.0, 90.0, 70.0, 80.0], ("p1", 2, 100): [100.0, 50.0, 65.0],
         ("p1", 1, 101): [55.0, 95.0]},
    ], ids=["equal-readings-in-a-cell", "one-bpm-in-many-cells", "even-next-to-odd"])
    def test_ties_and_neighbouring_cells_match_the_loop(self, cells, rng):
        records = [(person, datetime(2016, 4, day) + timedelta(seconds=segment * 300 + i), bpm)
                   for (person, day, segment), bpms in cells.items()
                   for i, bpm in enumerate(bpms)]
        records = [records[i] for i in rng.permutation(len(records))]
        values, mask, labels = loop_bin_records(records)
        pdm = bin_records(iter(records))
        assert pdm.column_labels == labels
        assert np.array_equal(pdm.matrix.mask, mask)
        assert np.array_equal(pdm.matrix.values, values)

    def test_each_record_lands_in_one_cell(self, rng):
        records = [
            rec("p1", f"2016-04-01T{h:02d}:00:00", 60.0 + h) for h in range(10)
        ]
        pdm = bin_records(records)
        assert pdm.matrix.observed_count() == 10

    def test_empty_stream(self):
        with pytest.raises(ExpectileMFError, match="^no heart-rate records$"):
            bin_records([])


class TestReadRecordsCsv:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "hr.csv"
        path.write_text(
            "person_id,timestamp,bpm\n"
            "p1,2016-04-01T00:00:00,62\n"
            "p1,2016-04-01T00:00:05,63\n"
        )
        records = read_records_csv(path)
        assert records == [rec("p1", "2016-04-01T00:00:00", 62.0),
                           rec("p1", "2016-04-01T00:00:05", 63.0)]

    def test_alternative_column_names(self, tmp_path):
        path = tmp_path / "hr.csv"
        path.write_text("Id,Time,Value\nu1,2016-04-01T08:00:00,71\n")
        records = read_records_csv(path, person_col="Id", time_col="Time", bpm_col="Value")
        assert records == [rec("u1", "2016-04-01T08:00:00", 71.0)]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "hr.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError) as err:
            read_records_csv(path)
        assert err.value.line_number == 1

    def test_blank_lines_before_the_header(self, tmp_path):
        # The header is the first non-empty record, here on line 3.
        path = tmp_path / "hr.csv"
        path.write_text("\n\nperson_id,timestamp,bpm\np1,2016-04-01T00:00:00,62\n")
        assert read_records_csv(path) == [rec("p1", "2016-04-01T00:00:00", 62.0)]
        with pytest.raises(ParseError, match="line 3: missing column 'Id'"):
            read_records_csv(path, person_col="Id")

    def test_bad_timestamp_line_number(self, tmp_path):
        path = tmp_path / "hr.csv"
        path.write_text(
            "person_id,timestamp,bpm\n"
            "p1,2016-04-01T00:00:00,62\n"
            "p1,not-a-time,63\n"
        )
        with pytest.raises(ParseError) as err:
            read_records_csv(path)
        assert err.value.line_number == 3

    def test_bad_bpm_line_number(self, tmp_path):
        path = tmp_path / "hr.csv"
        path.write_text("person_id,timestamp,bpm\np1,2016-04-01T00:00:00,fast\n")
        with pytest.raises(ParseError) as err:
            read_records_csv(path)
        assert err.value.line_number == 2

    def test_multi_line_record_is_named_by_its_first_line(self, tmp_path):
        # The blank line 3 is skipped; the record on lines 4-5 has a bad bpm.
        path = tmp_path / "hr.csv"
        path.write_text(
            "person_id,timestamp,bpm\n"
            "p1,2016-04-01T00:00:00,62\n"
            "\n"
            '"p\n2",2016-04-01T00:05:00,fast\n'
        )
        with pytest.raises(ParseError, match="line 4: bad bpm 'fast'"):
            read_records_csv(path)

    @pytest.mark.parametrize("row, n_fields", [("2016-04-01T00:05:00,71", 2),
                                               ("2016-04-01T00:05:00,71,p1,extra", 4)],
                             ids=["short", "long"])
    def test_wrong_field_count_line_number(self, tmp_path, row, n_fields):
        path = tmp_path / "hr.csv"
        path.write_text(f"timestamp,bpm,person_id\n2016-04-01T00:00:00,62,p1\n{row}\n")
        with pytest.raises(ParseError, match=f"line 3: expected 3 fields, got {n_fields}"):
            read_records_csv(path)

    def test_nonpositive_bpm_line_number(self, tmp_path):
        path = tmp_path / "hr.csv"
        path.write_text("person_id,timestamp,bpm\np1,2016-04-01T00:00:00,-3\n")
        with pytest.raises(ParseError):
            read_records_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "hr.csv"
        path.write_text("person_id,timestamp,bpm\n")
        with pytest.raises(ExpectileMFError, match="hr.csv: header but no records$"):
            read_records_csv(path)


class TestRecordsFuzz:
    """The records path, read_records_csv then bin_records, on generated input."""

    @settings(max_examples=500)
    @given(header=st.one_of(st.just("person_id,timestamp,bpm"), ROW),
           rows=st.lists(ROW, max_size=6), tail=st.binary(max_size=4))
    def test_any_text_reads_or_raises_a_data_error(self, tmp_path_factory, header, rows, tail):
        path = tmp_path_factory.getbasetemp() / "fuzz_records.csv"
        path.write_bytes("\n".join([header, *rows]).encode("utf-8") + tail)
        try:
            records = read_records_csv(path)
        except ExpectileMFError:
            return
        assert records
        for person_id, ts, bpm in records:
            assert isinstance(person_id, str) and isinstance(ts, datetime)
            assert math.isfinite(bpm) and bpm > 0.0

    @given(records=st.lists(RECORD, min_size=1, max_size=30), data=st.data())
    def test_valid_records_bin_alike_in_any_order(self, tmp_path_factory, records, data):
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["person_id", "timestamp", "bpm"])
        writer.writerows([person_id, ts.isoformat(), repr(bpm)] for person_id, ts, bpm in records)
        path = tmp_path_factory.getbasetemp() / "valid_records.csv"
        path.write_text(text.getvalue(), encoding="utf-8", newline="")
        read = read_records_csv(path)
        assert read == records
        pdm = bin_records(read)
        shuffled = bin_records(data.draw(st.permutations(read)))
        values, mask, labels = loop_bin_records(read)
        for other_labels, other_values, other_mask in [
            (shuffled.column_labels, shuffled.matrix.values, shuffled.matrix.mask),
            (labels, values, mask),
        ]:
            assert pdm.column_labels == other_labels
            assert np.array_equal(pdm.matrix.mask, other_mask)
            assert np.array_equal(pdm.matrix.values, other_values)


class TestFilterAndNormalize:
    def build_pdm(self, rng, missing_by_col):
        records = []
        for j, missing in enumerate(missing_by_col):
            n_obs = int(round(SEGMENTS_PER_DAY * (1.0 - missing)))
            for s in range(n_obs):
                h, m = divmod(s * 5, 60)
                records.append(
                    rec("p1", f"2016-04-{j + 1:02d}T{h:02d}:{m:02d}:00",
                        float(rng.uniform(55, 150)))
                )
        return bin_records(records)

    def test_threshold_keeps_expected_columns(self, rng):
        pdm = self.build_pdm(rng, [0.0, 0.8, 0.5])
        xn, info, kept = filter_and_normalize(pdm, 0.7)
        assert len(kept) == 2
        assert [d.day for _, d in kept] == [1, 3]
        obs = xn.observed_values()
        assert abs(obs.mean()) < 1e-10
        assert abs(obs.std() - 1.0) < 1e-10

    def test_fully_observed_keeps_all(self, rng):
        pdm = self.build_pdm(rng, [0.0, 0.0])
        _, _, kept = filter_and_normalize(pdm, 0.7)
        assert len(kept) == 2
