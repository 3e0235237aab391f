"""Unit tests for the DataMatrix substrate."""

import numpy as np
import pytest

from repro.core.matrix import DataMatrix

NAN = float("nan")


class TestConstruction:
    def test_basic_shape(self):
        m = DataMatrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert m.shape == (3, 2)
        assert m.n_rows == 3
        assert m.n_cols == 2

    def test_copies_input(self):
        buffer = np.ones((2, 2))
        m = DataMatrix(buffer)
        buffer[0, 0] = 99.0
        assert m.values[0, 0] == 1.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            DataMatrix([1.0, 2.0, 3.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            DataMatrix(np.empty((0, 3)))

    def test_rejects_infinity(self):
        with pytest.raises(ValueError, match="finite"):
            DataMatrix([[1.0, float("inf")]])

    def test_rejects_magnitude_that_overflows_the_score(self):
        values = np.random.default_rng(0).normal(size=(40, 12))
        # Bound: sqrt(float max) / (1e6 score weight * 480 cells) ~ 2.8e145.
        assert DataMatrix(values * 1e140).shape == (40, 12)
        with pytest.raises(ValueError, match="magnitude"):
            DataMatrix(values * 1e300)
        # Missing entries are exempt from the bound.
        values[0, 0] = NAN
        assert DataMatrix(values).n_specified == 479

    def test_nan_allowed_as_missing(self):
        m = DataMatrix([[1.0, NAN]])
        assert m.n_specified == 1

    def test_labels_length_checked(self):
        with pytest.raises(ValueError, match="row_labels"):
            DataMatrix([[1.0, 2.0]], row_labels=["a", "b"])
        with pytest.raises(ValueError, match="col_labels"):
            DataMatrix([[1.0, 2.0]], col_labels=["x"])

    def test_labels_stored_as_strings(self):
        m = DataMatrix([[1.0, 2.0]], row_labels=[7], col_labels=["a", "b"])
        assert m.row_labels == ("7",)
        assert m.col_labels == ("a", "b")

    def test_integer_input_coerced_to_float(self):
        m = DataMatrix([[1, 2], [3, 4]])
        assert m.values.dtype == np.float64


class TestMaskAndDensity:
    def test_mask_marks_specified(self):
        m = DataMatrix([[1.0, NAN], [NAN, 4.0]])
        assert m.mask.tolist() == [[True, False], [False, True]]

    def test_density(self):
        m = DataMatrix([[1.0, NAN], [NAN, 4.0]])
        assert m.density == pytest.approx(0.5)

    def test_full_density(self):
        m = DataMatrix([[1.0, 2.0]])
        assert m.density == 1.0
        assert m.n_specified == 2


class TestSubmatrixAndOccupancy:
    def setup_method(self):
        self.m = DataMatrix(
            [[1.0, 2.0, 3.0], [NAN, 5.0, 6.0], [7.0, NAN, NAN]]
        )

    def test_submatrix_values(self):
        sub = self.m.submatrix([0, 2], [0, 2])
        assert sub[0, 0] == 1.0
        assert sub[0, 1] == 3.0
        assert np.isnan(sub[1, 1])

    def test_submatrix_is_copy(self):
        sub = self.m.submatrix([0], [0])
        sub[0, 0] = 42.0
        assert self.m.values[0, 0] == 1.0

    def test_row_occupancy(self):
        occ = self.m.row_occupancy([0, 1, 2], [0, 1, 2])
        assert occ.tolist() == [1.0, pytest.approx(2 / 3), pytest.approx(1 / 3)]

    def test_col_occupancy(self):
        occ = self.m.col_occupancy([0, 1, 2], [0, 1, 2])
        assert occ.tolist() == [
            pytest.approx(2 / 3),
            pytest.approx(2 / 3),
            pytest.approx(2 / 3),
        ]

    def test_occupancy_empty_axis(self):
        assert self.m.row_occupancy([0], []).tolist() == [1.0]
        assert self.m.col_occupancy([], [0]).tolist() == [1.0]


class TestTransforms:
    def test_log_transform_turns_products_into_shifts(self):
        # Amplification coherence: row2 = 2 * row1 becomes a shift of log 2.
        m = DataMatrix([[1.0, 2.0, 4.0], [2.0, 4.0, 8.0]])
        logged = m.log_transform()
        diff = logged.values[1] - logged.values[0]
        assert np.allclose(diff, np.log(2.0))

    def test_log_transform_preserves_missing(self):
        m = DataMatrix([[1.0, NAN]])
        logged = m.log_transform()
        assert np.isnan(logged.values[0, 1])

    def test_log_transform_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            DataMatrix([[0.0, 1.0]]).log_transform()

    def test_log_transform_offset(self):
        m = DataMatrix([[0.0, 1.0]])
        logged = m.log_transform(offset=1.0)
        assert logged.values[0, 0] == pytest.approx(0.0)

    def test_with_mask_knocks_out_entries(self):
        m = DataMatrix([[1.0, 2.0], [3.0, 4.0]])
        masked = m.with_mask(np.array([[True, False], [True, True]]))
        assert masked.n_specified == 3
        assert np.isnan(masked.values[0, 1])

    def test_with_mask_shape_checked(self):
        m = DataMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError, match="shape"):
            m.with_mask(np.array([True]))

    def test_drop_missing_rows(self):
        m = DataMatrix([[1.0, NAN], [3.0, 4.0]])
        kept = m.drop_missing_rows(min_fraction=0.9)
        assert kept.shape == (1, 2)
        assert kept.values[0, 0] == 3.0

    def test_drop_missing_rows_all_filtered(self):
        m = DataMatrix([[NAN, NAN]])
        with pytest.raises(ValueError, match="survive"):
            m.drop_missing_rows(0.5)

    def test_drop_missing_rows_keeps_labels(self):
        m = DataMatrix(
            [[1.0, NAN], [3.0, 4.0]], row_labels=["a", "b"], col_labels=["x", "y"]
        )
        kept = m.drop_missing_rows(0.9)
        assert kept.row_labels == ("b",)
        assert kept.col_labels == ("x", "y")


class TestEquality:
    def test_equal_matrices(self):
        a = DataMatrix([[1.0, NAN]])
        b = DataMatrix([[1.0, NAN]])
        assert a == b

    def test_different_values(self):
        assert DataMatrix([[1.0]]) != DataMatrix([[2.0]])

    def test_different_shapes(self):
        assert DataMatrix([[1.0]]) != DataMatrix([[1.0, 2.0]])

    def test_missing_vs_specified(self):
        assert DataMatrix([[NAN]]) != DataMatrix([[1.0]])

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(DataMatrix([[1.0]]))

    def test_repr_mentions_shape(self):
        assert "(2, 1)" in repr(DataMatrix([[1.0], [2.0]]))
