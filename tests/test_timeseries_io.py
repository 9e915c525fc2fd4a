"""Tests for CSV IO, gap filling and re-interpolation."""

import numpy as np
import pytest

from repro.timeseries import (
    TimeSeries,
    fill_missing,
    load_csv,
    reinterpolate,
    save_csv,
)


class TestCsvRoundtrip:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "sensors.csv"
        sensors = {
            "a": TimeSeries([1.0, 2.0, 3.0]),
            "b": TimeSeries([4.0, 5.0, 6.0]),
        }
        save_csv(path, sensors)
        loaded = load_csv(path)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_allclose(loaded["a"].values, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(loaded["b"].values, [4.0, 5.0, 6.0])

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        loaded = load_csv(path)
        assert set(loaded) == {"column-0", "column-1"}
        np.testing.assert_allclose(loaded["column-0"].values, [1.0, 3.0])

    def test_column_selection_by_name_and_index(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n1,10\n2,20\n")
        by_name = load_csv(path, column="y")
        assert list(by_name) == ["y"]
        np.testing.assert_allclose(by_name["y"].values, [10.0, 20.0])
        by_index = load_csv(path, column=0)
        np.testing.assert_allclose(by_index["x"].values, [1.0, 2.0])

    def test_missing_cells_become_nan(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("v\n1.0\n\nNaN\n4.0\n")
        values = load_csv(path)["v"].values
        assert values.size == 3  # the blank line is skipped entirely
        assert np.isnan(values[1])

    def test_ragged_columns_padded(self, tmp_path):
        path = tmp_path / "ragged.csv"
        save_csv(path, {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([9.0])})
        loaded = load_csv(path)
        assert np.isnan(loaded["b"].values[1:]).all()

    def test_validation(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError):
            load_csv(empty)
        header_only = tmp_path / "h.csv"
        header_only.write_text("a,b\n")
        with pytest.raises(ValueError):
            load_csv(header_only)
        with pytest.raises(KeyError):
            load_csv_with_header(tmp_path, column="zz")
        with pytest.raises(ValueError):
            save_csv(tmp_path / "x.csv", {})


def load_csv_with_header(tmp_path, column):
    path = tmp_path / "hh.csv"
    path.write_text("a,b\n1,2\n")
    return load_csv(path, column=column)


class TestFillMissing:
    def test_interior_gap_interpolated(self):
        values = np.array([0.0, np.nan, np.nan, 3.0])
        np.testing.assert_allclose(fill_missing(values), [0.0, 1.0, 2.0, 3.0])

    def test_edges_extended(self):
        values = np.array([np.nan, 1.0, np.nan])
        np.testing.assert_allclose(fill_missing(values), [1.0, 1.0, 1.0])

    def test_no_gaps_copy(self):
        values = np.array([1.0, 2.0])
        filled = fill_missing(values)
        np.testing.assert_array_equal(filled, values)
        filled[0] = 99.0
        assert values[0] == 1.0  # original untouched

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError):
            fill_missing(np.full(4, np.nan))


class TestReinterpolate:
    def test_identity_factor(self):
        values = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(reinterpolate(values, 1.0), values)

    def test_upsample_linear(self):
        values = np.array([0.0, 2.0])
        np.testing.assert_allclose(reinterpolate(values, 2.0), [0.0, 1.0, 2.0])

    def test_downsample_keeps_endpoints(self):
        values = np.linspace(0.0, 10.0, 11)
        resampled = reinterpolate(values, 0.5)
        assert resampled[0] == 0.0
        assert resampled[-1] == 10.0
        assert resampled.size < values.size

    def test_validation(self):
        with pytest.raises(ValueError):
            reinterpolate(np.arange(5.0), 0.0)
        with pytest.raises(ValueError):
            reinterpolate(np.array([1.0]), 2.0)
        with pytest.raises(ValueError):
            reinterpolate(np.array([1.0, np.nan, 2.0]), 2.0)
