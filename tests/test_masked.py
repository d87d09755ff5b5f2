import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expectile_mf import (
    DegenerateMatrix,
    DimensionMismatch,
    EmptyResult,
    MaskedMatrix,
    NormalizationInfo,
    ParseError,
    denormalize,
    drop_sparse_columns,
    global_stats,
    masked_col_means,
    masked_row_means,
    normalize,
    read_matrix_csv,
    write_matrix_csv,
)
from oracles import loop_masked_stats

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
        with pytest.raises(DimensionMismatch):
            MaskedMatrix(np.zeros((2, 3)), np.ones((3, 2), dtype=bool))

    def test_counts_and_accessors(self):
        x = MaskedMatrix(FIXTURE_VALUES, FIXTURE_MASK)
        assert (x.n_rows, x.n_cols) == (4, 4)
        assert x.observed_count() == 11
        assert x.observed_values().size == 11

    def test_from_dense_round_trip(self):
        dense = np.array([[1.0, np.nan], [np.nan, 4.0]])
        x = MaskedMatrix.from_dense(dense)
        assert x.mask.tolist() == [[True, False], [False, True]]
        back = x.to_dense()
        assert np.isnan(back[0, 1]) and back[1, 1] == 4.0

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
        with pytest.raises(DegenerateMatrix):
            global_stats(x)

    def test_single_observation_degenerate(self):
        x = MaskedMatrix([[1.0, 0.0]], [[True, False]])
        with pytest.raises(DegenerateMatrix):
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

    @pytest.mark.parametrize("values", [[[1e308, -1e308], [1e308, -1e308]], [[1.0, 2.0], [np.inf, 3.0]]])
    def test_overflowing_or_infinite_entries_degenerate(self, values):
        x = MaskedMatrix(values, np.ones((2, 2), dtype=bool))
        with pytest.raises(DegenerateMatrix):
            global_stats(x)

    def test_ddof_switch(self):
        x = MaskedMatrix([[1.0, 0.0], [3.0, 0.0]], [[True, False], [True, False]])
        _, std1 = global_stats(x, ddof=1)
        assert abs(std1 - np.sqrt(2.0)) < 1e-15


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
            back = denormalize(xn, info)
            obs = x.mask
            np.testing.assert_allclose(back.values[obs], x.values[obs], rtol=1e-12)

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
        with pytest.raises(EmptyResult):
            drop_sparse_columns(x, 0.5)

    def test_threshold_domain(self):
        x = MaskedMatrix(np.zeros((2, 2)), np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            drop_sparse_columns(x, 1.5)


class TestMatrixCsv:
    def test_round_trip(self, tmp_path, rng):
        x = random_masked(rng, 6, 5)
        path = tmp_path / "m.csv"
        write_matrix_csv(x, path)
        back = read_matrix_csv(path)
        assert np.array_equal(back.mask, x.mask)
        np.testing.assert_array_equal(back.values[back.mask], x.values[x.mask])

    def test_header_flag(self, tmp_path, rng):
        x = random_masked(rng, 3, 4)
        path = tmp_path / "m.csv"
        write_matrix_csv(x, path, header=True)
        back = read_matrix_csv(path, header=True)
        assert back.n_rows == 3

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
        path.write_text(f"c0,c1,c2\n1,2,3\n\n4,5,{cell}\n")
        with pytest.raises(ParseError) as err:
            read_matrix_csv(path, header=True)
        assert err.value.line_number == 4
        assert "column 3" in str(err.value)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            read_matrix_csv(path)
