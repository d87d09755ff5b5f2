import csv
import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from expectile_mf import (
    ExpectileMFError,
    MaskedMatrix,
    NormalizationInfo,
    Objective,
    ParseError,
    drop_sparse_columns,
    global_stats,
    masked_col_means,
    masked_row_means,
    normalize,
    read_matrix_csv,
    write_matrix_csv,
)
from expectile_mf.masked import _read_matrix_located, open_input
from conftest import FINITE
from oracles import csv_writer_write_matrix, loop_masked_stats

FIXTURE_VALUES = [
    [2.5, -1.0, 4.0, 0.5],
    [3.5, 2.0, -2.5, 1.5],
    [-0.5, 6.0, 2.0, -3.0],
    [1.0, -4.5, 5.5, 2.5],
]
FIXTURE_MASK = [
    [True, False, True, True],
    [True, True, False, True],
    [False, True, True, True],
    [True, False, False, True],
]
# frozen from the scalar-loop oracle over the 11 observed cells
FIXTURE_MEAN = 2.0454545454545454
FIXTURE_STD = 2.158014085539858


def random_masked(rng, n=10, p=10, missing=0.3):
    values = rng.normal(size=(n, p))
    mask = rng.random((n, p)) >= missing
    mask[0, 0] = True  # at least one observed
    mask[1, 1] = True
    return MaskedMatrix(np.where(mask, values, 0.0), mask)


class TestMaskedMatrix:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ExpectileMFError,
                           match=r"^mask shape \(3, 2\) != values shape \(2, 3\)$"):
            MaskedMatrix(np.zeros((2, 3)), np.ones((3, 2), dtype=bool))

    def test_counts_and_accessors(self):
        x = MaskedMatrix(FIXTURE_VALUES, FIXTURE_MASK)
        assert (x.n_rows, x.n_cols) == (4, 4)
        assert x.observed_count() == 11
        assert x.observed_values().size == 11

    def test_to_dense_puts_nan_at_unobserved_cells(self):
        x = MaskedMatrix([[1.0, 0.0], [0.0, 4.0]], [[True, False], [False, True]])
        back = x.to_dense()
        assert np.isnan(back[0, 1]) and back[1, 1] == 4.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_observed_cell_rejected_with_location(self, bad):
        values = np.zeros((3, 4))
        values[1, 2] = bad
        values[2, 0] = bad
        with pytest.raises(ExpectileMFError, match=r"^observed cell \(1, 2\) is"):
            MaskedMatrix(values, np.ones((3, 4), dtype=bool))

    def test_non_finite_unobserved_cell_accepted(self):
        values = np.array([[1.0, np.inf], [np.nan, 2.0]])
        x = MaskedMatrix(values, [[True, False], [False, True]])
        assert x.observed_values().tolist() == [1.0, 2.0]

    def test_values_are_immutable(self):
        x = MaskedMatrix(FIXTURE_VALUES, FIXTURE_MASK)
        with pytest.raises(ValueError):
            x.values[0, 0] = 99.0


class TestGlobalStats:
    def test_two_point_symmetric(self):
        x = MaskedMatrix([[1.0, 0.0], [3.0, 0.0]], [[True, False], [True, False]])
        assert global_stats(x) == (2.0, 1.0)

    def test_constant_matrix_degenerate(self):
        x = MaskedMatrix(np.full((3, 3), 5.0), np.ones((3, 3), dtype=bool))
        with pytest.raises(ExpectileMFError, match="^observed entries have zero variance$"):
            global_stats(x)

    def test_single_observation_degenerate(self):
        x = MaskedMatrix([[1.0, 0.0]], [[True, False]])
        with pytest.raises(ExpectileMFError, match="^need >= 2 observed entries, have 1$"):
            global_stats(x)

    def test_fixture_against_frozen_oracle_values(self):
        x = MaskedMatrix(FIXTURE_VALUES, FIXTURE_MASK)
        mean, std = global_stats(x)
        assert abs(mean - FIXTURE_MEAN) < 1e-15
        assert abs(std - FIXTURE_STD) < 1e-13

    def test_matches_loop_oracle_on_random_instances(self, rng):
        for _ in range(20):
            x = random_masked(rng)
            mean, std = global_stats(x)
            o_mean, o_std = loop_masked_stats(x.values.tolist(), x.mask.tolist())
            assert abs(mean - o_mean) < 1e-13
            assert abs(std - o_std) < 1e-13

    def test_normalization_info_rejects_nonpositive_std(self):
        with pytest.raises(ValueError):
            NormalizationInfo(mean=0.0, std=0.0, row_means=np.zeros(2), col_means=np.zeros(2))

    @pytest.mark.parametrize("mean,std", [(np.inf, 1.0), (np.nan, 1.0), (0.0, np.inf), (0.0, np.nan)])
    def test_normalization_info_rejects_non_finite(self, mean, std):
        with pytest.raises(ValueError):
            NormalizationInfo(mean=mean, std=std, row_means=np.zeros(2), col_means=np.zeros(2))

    @pytest.mark.parametrize("name", ["row_means", "col_means"])
    def test_normalization_info_rejects_nested_means(self, name):
        means = {"row_means": np.zeros(2), "col_means": np.zeros(3), name: np.zeros((1, 2))}
        with pytest.raises(ValueError, match=rf"^{name} must be 1-D, got shape \(1, 2\)$"):
            NormalizationInfo(mean=0.0, std=1.0, **means)

    def test_normalization_info_dict_round_trip(self, rng):
        _, info = normalize(random_masked(rng))
        doc = info.to_dict()
        assert list(doc) == ["mean", "std", "row_means", "col_means"]
        back = NormalizationInfo.from_dict(json.loads(json.dumps(doc)))
        assert (back.mean, back.std) == (info.mean, info.std)
        assert np.array_equal(back.row_means, info.row_means)
        assert np.array_equal(back.col_means, info.col_means)
        with pytest.raises(ValueError):
            NormalizationInfo.from_dict({**doc, "std": 0.0})
        with pytest.raises(KeyError):
            NormalizationInfo.from_dict({k: v for k, v in doc.items() if k != "std"})

    # An infinite observed cell no longer gets this far: MaskedMatrix rejects it.
    @pytest.mark.parametrize("values", [[[1e308, -1e308], [1e308, -1e308]]])
    def test_overflowing_or_infinite_entries_degenerate(self, values):
        x = MaskedMatrix(values, np.ones((2, 2), dtype=bool))
        with pytest.raises(ExpectileMFError, match="^observed entries overflow: mean "):
            global_stats(x)


class TestNormalize:
    def test_fully_observed_example(self):
        x = MaskedMatrix([[0.0, 2.0], [4.0, 6.0]], np.ones((2, 2), dtype=bool))
        xn, info = normalize(x)
        assert info.mean == 3.0
        assert abs(info.std - np.sqrt(5.0)) < 1e-15
        expected = np.array(
            [[-1.3416407864998738, -0.4472135954999579],
             [0.4472135954999579, 1.3416407864998738]]
        )
        np.testing.assert_allclose(xn.values, expected, atol=1e-12)

    def test_observed_mean_zero_std_one(self, rng):
        x = random_masked(rng, 12, 9)
        xn, _ = normalize(x)
        obs = xn.observed_values()
        assert abs(obs.mean()) < 1e-10
        assert abs(obs.std() - 1.0) < 1e-10

    def test_normalizing_normalized_is_stable(self, rng):
        xn, _ = normalize(random_masked(rng))
        _, info2 = normalize(xn)
        assert abs(info2.mean) < 1e-10
        assert abs(info2.std - 1.0) < 1e-10

    def test_mask_preserved(self, rng):
        x = random_masked(rng)
        xn, _ = normalize(x)
        assert np.array_equal(xn.mask, x.mask)

    def test_round_trip_denormalize(self, rng):
        for _ in range(10):
            x = random_masked(rng, 8, 7)
            xn, info = normalize(x)
            obs = x.mask
            back = xn.values[obs] * info.std + info.mean
            np.testing.assert_allclose(back, x.values[obs], rtol=1e-12)

    def test_empty_rows_and_cols_get_zero_mean(self):
        values = [[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]
        mask = [[True, False], [True, False], [False, False]]
        xn, info = normalize(MaskedMatrix(values, mask))
        assert info.row_means[2] == 0.0
        assert info.col_means[1] == 0.0

    def test_row_col_means_are_of_scaled_matrix(self, rng):
        x = random_masked(rng)
        xn, info = normalize(x)
        np.testing.assert_allclose(info.row_means, masked_row_means(xn), atol=0)
        np.testing.assert_allclose(info.col_means, masked_col_means(xn), atol=0)


class TestSentinelIndependence:
    @given(sentinel=st.floats(allow_nan=True, allow_infinity=True))
    def test_outputs_ignore_sentinel(self, sentinel):
        mask = np.array(FIXTURE_MASK)
        base = np.where(mask, np.array(FIXTURE_VALUES), 0.0)
        poisoned = np.where(mask, np.array(FIXTURE_VALUES), sentinel)
        a = global_stats(MaskedMatrix(base, mask))
        b = global_stats(MaskedMatrix(poisoned, mask))
        assert a == b
        xa, ia = normalize(MaskedMatrix(base, mask))
        xb, ib = normalize(MaskedMatrix(poisoned, mask))
        assert np.array_equal(xa.values, xb.values)
        assert np.array_equal(ia.row_means, ib.row_means)


class TestLayout:
    # A reduction over a Fortran-ordered matrix runs in another order than over its C copy
    # and can round differently, so MaskedMatrix stores both arrays in C order.
    def test_fortran_input_gives_the_bits_of_its_c_copy(self, rng):
        x = random_masked(rng, 40, 60, missing=0.7)
        f = MaskedMatrix(np.asfortranarray(x.values), np.asfortranarray(x.mask))
        assert f.values.flags.c_contiguous and f.mask.flags.c_contiguous
        (xn, info), (fn, f_info) = normalize(x), normalize(f)
        for a, b in ((info.row_means, f_info.row_means), (info.col_means, f_info.col_means),
                     (xn.values, fn.values)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert (info.mean, info.std) == (f_info.mean, f_info.std)
        params = rng.normal(size=(40 + 60) * 2)
        loss, grad = Objective(xn, 0.3, 1)(params)
        f_loss, f_grad = Objective(fn, 0.3, 1)(params)
        assert loss == f_loss and np.array_equal(grad.view(np.int64), f_grad.view(np.int64))

    def test_dropped_columns_stay_c_contiguous(self, rng):
        kept_x, _ = drop_sparse_columns(random_masked(rng, 20, 30, missing=0.5), 0.5)
        assert kept_x.values.flags.c_contiguous and kept_x.mask.flags.c_contiguous


class TestDropSparseColumns:
    def test_threshold_application(self):
        # missing fractions 0.0, 0.8, 0.5 per column
        mask = np.array(
            [[True, False, True],
             [True, False, False],
             [True, False, True],
             [True, True, False],
             [True, False, True]]
        )
        x = MaskedMatrix(np.arange(15.0).reshape(5, 3), mask)
        kept_x, kept = drop_sparse_columns(x, 0.7)
        assert kept.tolist() == [0, 2]
        assert kept_x.n_cols == 2
        np.testing.assert_array_equal(kept_x.values[:, 0], x.values[:, 0])

    def test_lenient_threshold_is_identity(self, rng):
        x = random_masked(rng)
        kept_x, kept = drop_sparse_columns(x, 0.99)
        assert kept.tolist() == list(range(x.n_cols))
        assert np.array_equal(kept_x.values, x.values)

    def test_no_survivors(self):
        x = MaskedMatrix(np.zeros((4, 2)), np.zeros((4, 2), dtype=bool))
        with pytest.raises(ExpectileMFError, match="^no column has enough observed entries$"):
            drop_sparse_columns(x, 0.5)

    def test_threshold_domain(self):
        x = MaskedMatrix(np.zeros((2, 2)), np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            drop_sparse_columns(x, 1.5)


# Matrix CSV text for the differential test: cells that np.loadtxt and the located reader
# read alike, cells where they differ, and the line ends, BOM and blank lines around them.
ODD_CELLS = ["nan", "NaN", "-nan", "+nan", "", " ", "inf", "-Infinity", "1e999", "1e-400",
             '"1"', "1_000", "#", "\xa01.5", "\t3", "nan(1)"]
NUMBER_TEXT = st.one_of(
    FINITE.map(repr),
    FINITE.map(lambda v: "%.17g" % v),
    st.from_regex(r"-?[0-9]{1,30}\.[0-9]{20,60}(e-?[0-9]{1,3})?", fullmatch=True),
)


@st.composite
def matrix_text(draw):
    width = draw(st.integers(1, 4))
    cell = st.one_of(NUMBER_TEXT, st.just("nan"))
    if draw(st.booleans()):
        cell = st.one_of(cell, st.sampled_from(ODD_CELLS))
    row = st.lists(cell, min_size=width, max_size=width)
    if draw(st.booleans()):
        row = st.one_of(row, st.lists(cell, min_size=1, max_size=5))
    lines = draw(st.lists(st.one_of(row.map(",".join), st.sampled_from(["", "  ", "\t"])),
                          max_size=6))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + end.join(lines) + (end if draw(st.booleans()) else "")


class TestMatrixCsv:
    def test_round_trip(self, tmp_path, rng):
        x = random_masked(rng, 6, 5)
        path = tmp_path / "m.csv"
        write_matrix_csv(x, path)
        back = read_matrix_csv(path)
        assert np.array_equal(back.mask, x.mask)
        np.testing.assert_array_equal(back.values[back.mask], x.values[x.mask])

    @given(data=st.data(), shape=st.tuples(st.integers(1, 20), st.integers(1, 20)))
    def test_round_trip_bit_exact_and_bytes_match_csv_writer(self, tmp_path_factory, data, shape):
        values = data.draw(arrays(np.float64, shape, elements=FINITE))
        mask = data.draw(arrays(np.bool_, shape))
        x = MaskedMatrix(values, mask)
        folder = tmp_path_factory.mktemp("csv")
        write_matrix_csv(x, folder / "m.csv")
        csv_writer_write_matrix(values, mask, folder / "reference.csv")
        assert (folder / "m.csv").read_bytes() == (folder / "reference.csv").read_bytes()
        back = read_matrix_csv(folder / "m.csv")
        assert np.array_equal(back.mask, mask)
        assert np.array_equal(back.values[mask].view(np.int64), values[mask].view(np.int64))

    @settings(max_examples=400)
    @given(text=matrix_text())
    def test_loadtxt_path_agrees_with_the_located_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(text.encode("utf-8"))
        outcomes = []
        for read in (lambda: read_matrix_csv(path), lambda: _located(path)):
            try:
                x = read()
            except ExpectileMFError as exc:
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append((x.values.tobytes(), x.mask.tobytes()))
        assert outcomes[0] == outcomes[1]

    def test_plain_matrix_is_read_in_one_pass(self, tmp_path, rng, monkeypatch):
        x = random_masked(rng, 12, 7)
        write_matrix_csv(x, tmp_path / "m.csv")

        def located(fh):
            raise AssertionError("a plain matrix reached the located reader")

        monkeypatch.setattr("expectile_mf.masked._read_matrix_located", located)
        got = read_matrix_csv(tmp_path / "m.csv")
        assert got.values.tobytes() == x.values.tobytes()
        assert np.array_equal(got.mask, x.mask)

    def test_undecodable_bytes_after_plain_rows_match_the_located_reader(self, tmp_path):
        # loadtxt meets the bad byte past the first decoded chunk and gives up; the located
        # reader reads again from the start and names the same position.
        path = tmp_path / "m.csv"
        path.write_bytes(b"1.5,2\n" * 3000 + b"3,\xff\n1,2\n")
        with pytest.raises(ExpectileMFError) as err:
            read_matrix_csv(path)
        with pytest.raises(ExpectileMFError) as located_err:
            _located(path)
        assert str(err.value) == str(located_err.value)
        assert ": not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position" in str(err.value)

    def test_field_over_the_csv_limit_matches_the_located_reader(self, tmp_path):
        # loadtxt reads a number of any length; the csv module rejects a longer field.
        limit = csv.field_size_limit()
        path = tmp_path / "m.csv"
        path.write_text("1,1." + "0" * (limit - 2) + "\n2,3\n")  # a field at the limit
        assert read_matrix_csv(path).values.tolist() == [[1.0, 1.0], [2.0, 3.0]]
        path.write_text("1,1." + "0" * (limit - 1) + "\n2,3\n")
        with pytest.raises(ExpectileMFError, match=r"field larger than field limit"):
            read_matrix_csv(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_piped_input_errors_name_their_line(self, tmp_path):
        # A pipe cannot be read twice, so it goes to the located reader from the start.
        fifo = tmp_path / "m.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("1,2\n3,inf\n",))
        writer.start()
        try:
            with pytest.raises(ParseError, match=r"m\.fifo: line 2: column 2: non-finite value inf"):
                read_matrix_csv(fifo)
        finally:
            writer.join()

    def test_missing_cell_spellings(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.5,,nan\nNaN,2.0,NAN\n")
        x = read_matrix_csv(path)
        assert x.mask.tolist() == [[True, False, False], [False, True, False]]
        assert x.values[0, 0] == 1.5

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError) as err:
            read_matrix_csv(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "-nan", "1e999"])
    def test_non_finite_cell_located(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"0,0,0\n1,2,3\n\n4,5,{cell}\n")
        with pytest.raises(ParseError) as err:
            read_matrix_csv(path)
        assert err.value.line_number == 4
        assert "column 3" in str(err.value)

    def test_whitespace_only_line_is_blank(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n  \n3,4\n")
        assert read_matrix_csv(path).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        # so in a one-column matrix such a line is no cell at all; a missing cell is "nan"
        path.write_text("1\n \nnan\n2\n")
        assert read_matrix_csv(path).mask.tolist() == [[True], [False], [True]]

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            read_matrix_csv(path)


def _located(path):
    with open_input(path) as fh:
        return _read_matrix_located(fh)
