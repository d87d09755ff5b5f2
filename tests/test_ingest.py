from datetime import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expectile_mf import (
    EmptyInput,
    HeartRateRecord,
    MaskedMatrix,
    ParseError,
    PersonDayMatrix,
    bin_records,
    filter_and_normalize,
    read_records_csv,
)
from expectile_mf.ingest import SEGMENTS_PER_DAY, segment_of
from oracles import median_sorted


def rec(person, iso_ts, bpm):
    return HeartRateRecord(person, datetime.fromisoformat(iso_ts), bpm)


class TestRecordValidation:
    @pytest.mark.parametrize("bpm", [0.0, -5.0, float("nan"), float("inf")])
    def test_bad_bpm_rejected(self, bpm):
        with pytest.raises(ValueError):
            rec("p1", "2016-04-01T10:00:00", bpm)


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

    def test_each_record_lands_in_one_cell(self, rng):
        records = [
            rec("p1", f"2016-04-01T{h:02d}:00:00", 60.0 + h) for h in range(10)
        ]
        pdm = bin_records(records)
        assert pdm.matrix.observed_count() == 10

    def test_person_day_matrix_rejects_empty_column(self):
        values = np.zeros((SEGMENTS_PER_DAY, 1))
        mask = np.zeros((SEGMENTS_PER_DAY, 1), dtype=bool)
        with pytest.raises(ValueError):
            PersonDayMatrix(MaskedMatrix(values, mask), (("p1", "2016-04-01"),))

    def test_empty_stream(self):
        with pytest.raises(EmptyInput):
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
        assert len(records) == 2
        assert records[0].bpm == 62.0

    def test_alternative_column_names(self, tmp_path):
        path = tmp_path / "hr.csv"
        path.write_text("Id,Time,Value\nu1,2016-04-01T08:00:00,71\n")
        records = read_records_csv(path, person_col="Id", time_col="Time", bpm_col="Value")
        assert records[0].person_id == "u1"

    def test_missing_column(self, tmp_path):
        path = tmp_path / "hr.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError) as err:
            read_records_csv(path)
        assert err.value.line_number == 1

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
        with pytest.raises(EmptyInput):
            read_records_csv(path)


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
