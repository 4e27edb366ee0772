"""Grid construction, banding, windowing, and resampling behavior."""
from __future__ import annotations

import numpy as np
import pytest

from spatial_link.errors import (
    DimMismatch,
    InsufficientData,
    NonFiniteValue,
    WindowOutOfBounds,
)
from spatial_link.grid import (
    BAND_ANOMALOUS,
    BAND_HIGH,
    BAND_MODERATE,
    LOSS_NEGATIVE,
    LOSS_POSITIVE,
    QUARTER_DEGREE_GLOBAL,
    ChangeGrid,
    GridRegistration,
    RegionWindow,
    ThresholdBands,
    classify_cells,
    compute_threshold_bands,
    crop_region,
    diff_grids,
    in_band,
    oriented_mask,
    resample_nearest,
)

from oracles import quantile_linear


def grid_from(values, valid=None, registration=QUARTER_DEGREE_GLOBAL) -> ChangeGrid:
    values = np.asarray(values, dtype=float)
    if valid is None:
        valid = np.ones_like(values, dtype=bool)
    return ChangeGrid(values=values, valid_mask=np.asarray(valid, bool), registration=registration)


class TestChangeGrid:
    def test_rejects_nonfinite_at_valid_cell(self):
        with pytest.raises(NonFiniteValue):
            grid_from([[0.0, np.nan]])

    def test_accepts_nonfinite_at_invalid_cell(self):
        g = grid_from([[0.0, np.nan]], valid=[[True, False]])
        assert g.valid_mask.tolist() == [[True, False]]

    def test_rejects_mask_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            ChangeGrid(values=np.zeros((2, 2)), valid_mask=np.ones((2, 3), bool))

    def test_arrays_are_locked(self):
        g = grid_from([[1.0, 2.0]])
        with pytest.raises(ValueError):
            g.values[0, 0] = 9.0


class TestRegistration:
    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            GridRegistration(lat0=0, lon0=0, dlat=0, dlon=0.25, cell_km=25)

    def test_antarctic_index_correspondence(self):
        """Row 0 is 90S; col 200 is 130W; col 600 is 30W on the global grid."""
        reg = QUARTER_DEGREE_GLOBAL
        assert reg.cell_center(0, 200) == (-90.0, -130.0)
        assert reg.cell_center(120, 600) == (-60.0, -30.0)

    def test_cell_center_of_index_arrays_is_the_per_cell_center(self):
        reg = GridRegistration(lat0=-78.3, lon0=170.1, dlat=0.25, dlon=0.7, cell_km=25.0)
        rows, cols = np.meshgrid(np.arange(6), np.arange(9), indexing="ij")
        lats, lons = reg.cell_center(rows, cols)
        for r, c in zip(rows.ravel().tolist(), cols.ravel().tolist()):
            assert (lats[r, c], lons[r, c]) == reg.cell_center(r, c)


class TestRegionWindow:
    def test_parse_round_trip(self):
        w = RegionWindow.parse("0:120,200:600")
        assert (w.row_min, w.row_max, w.col_min, w.col_max) == (0, 120, 200, 600)

    def test_parse_rejects_garbage(self):
        with pytest.raises(WindowOutOfBounds):
            RegionWindow.parse("10-20,1:2")

    def test_rejects_inverted_window(self):
        with pytest.raises(WindowOutOfBounds):
            RegionWindow(5, 3, 0, 0)


class TestThresholdBands:
    def test_hand_computed_octet(self):
        """Magnitudes 1..8 give median 4.5, Q3 6.25, UB 11.5."""
        g = grid_from([[-1, -2, -3, -4, -5, -6, -7, -8]])
        bands = compute_threshold_bands(g, LOSS_NEGATIVE)
        assert bands.median == pytest.approx(4.5)
        assert bands.q3 == pytest.approx(6.25)
        # UB = Q3 + 1.5 * (Q3 - Q1) with Q1 = 2.75
        assert bands.ub == pytest.approx(11.5)

    def test_matches_longhand_quantiles_on_random_data(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            vals = -rng.random(rng.integers(4, 200))
            g = grid_from(vals.reshape(1, -1))
            bands = compute_threshold_bands(g, LOSS_NEGATIVE)
            mags = sorted(abs(v) for v in vals)
            q1 = quantile_linear(mags, 0.25)
            q3 = quantile_linear(mags, 0.75)
            assert bands.median == pytest.approx(quantile_linear(mags, 0.5), abs=1e-12)
            assert bands.q3 == pytest.approx(q3, abs=1e-12)
            assert bands.ub == pytest.approx(q3 + 1.5 * (q3 - q1), abs=1e-12)

    def test_constant_field_collapses_bands(self):
        g = grid_from([[-2.0, -2.0, -2.0, -2.0]])
        bands = compute_threshold_bands(g, LOSS_NEGATIVE)
        assert bands.median == bands.q3 == bands.ub == 2.0

    def test_three_oriented_cells_insufficient(self):
        g = grid_from([[-1.0, -2.0, -3.0, 4.0]])
        with pytest.raises(InsufficientData):
            compute_threshold_bands(g, LOSS_NEGATIVE)

    def test_orientation_selects_sign(self):
        """Under loss-positive the negative cells are ignored, and vice versa."""
        g = grid_from([[1, 2, 3, 4, -9, -9, -9, -9]])
        pos = compute_threshold_bands(g, LOSS_POSITIVE)
        assert pos.median == pytest.approx(2.5)
        assert oriented_mask(g, LOSS_POSITIVE).sum() == 4
        assert oriented_mask(g, LOSS_NEGATIVE).sum() == 4

    def test_zero_cells_carry_no_loss_signal(self):
        g = grid_from([[0.0, -1.0, -2.0, -3.0, -4.0]])
        assert oriented_mask(g, LOSS_NEGATIVE).sum() == 4
        assert oriented_mask(g, LOSS_POSITIVE).sum() == 0

    def test_in_band_is_the_loss_sign_and_a_half_open_magnitude_interval(self):
        values = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
        assert np.flatnonzero(in_band(values, LOSS_NEGATIVE, 1.0, 3.0)).tolist() == [1, 2]
        assert np.flatnonzero(in_band(values, LOSS_POSITIVE, 1.0, 3.0)).tolist() == [4, 5]
        for orientation in (LOSS_NEGATIVE, LOSS_POSITIVE):
            assert not in_band(0.0, orientation, 0.0, np.inf)
        with pytest.raises(ValueError, match="unknown orientation 'bogus'"):
            in_band(values, "bogus", 0.0, 1.0)

    def test_interval_ordering_enforced(self):
        with pytest.raises(ValueError):
            ThresholdBands(median=3.0, q3=2.0, ub=5.0)


class TestClassifyCells:
    def setup_method(self):
        # Bands frozen from the hand-computed octet above.
        self.bands = ThresholdBands(median=4.5, q3=6.25, ub=11.5)

    def test_band_membership_of_known_magnitudes(self):
        g = grid_from([[-4.5, -6.0, -6.25, -12.0]])
        moderate = classify_cells(g, self.bands, BAND_MODERATE, "source")
        high = classify_cells(g, self.bands, BAND_HIGH, "source")
        anomalous = classify_cells(g, self.bands, BAND_ANOMALOUS, "source")
        assert moderate.cells.tolist() == [[0, 0], [0, 1]]
        assert moderate.values.tolist() == [-4.5, -6.0]
        assert high.cells.tolist() == [[0, 2]]
        assert anomalous.cells.tolist() == [[0, 3]]

    def test_below_median_in_no_band(self):
        g = grid_from([[-4.0]])
        for band in (BAND_MODERATE, BAND_HIGH, BAND_ANOMALOUS):
            assert len(classify_cells(g, self.bands, band, "source").cells) == 0

    def test_bands_partition_upper_half(self):
        """The three bands exactly cover the oriented cells at or above the median."""
        rng = np.random.default_rng(5)
        vals = rng.normal(0, 1, (40, 40))
        g = grid_from(vals)
        bands = compute_threshold_bands(g, LOSS_NEGATIVE)
        sets = [
            set(map(tuple, classify_cells(g, bands, band, "source").cells.tolist()))
            for band in (BAND_MODERATE, BAND_HIGH, BAND_ANOMALOUS)
        ]
        assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) and not (sets[1] & sets[2])
        oriented = oriented_mask(g, LOSS_NEGATIVE)
        expected = {
            (r, c)
            for r, c in np.argwhere(oriented & (np.abs(vals) >= bands.median)).tolist()
        }
        assert sets[0] | sets[1] | sets[2] == expected

    def test_moderate_share_of_upper_half_near_50_percent(self):
        rng = np.random.default_rng(17)
        g = grid_from(-rng.random((50, 50)))
        bands = compute_threshold_bands(g, LOSS_NEGATIVE)
        n_mod = len(classify_cells(g, bands, BAND_MODERATE, "source").cells)
        n_upper = sum(
            len(classify_cells(g, bands, b, "source").cells)
            for b in (BAND_MODERATE, BAND_HIGH, BAND_ANOMALOUS)
        )
        assert abs(n_mod / n_upper - 0.5) <= 0.05

    @pytest.mark.parametrize("orientation", [LOSS_NEGATIVE, LOSS_POSITIVE])
    def test_matches_a_per_cell_loop_on_a_grid_with_invalid_cells(self, orientation):
        rng = np.random.default_rng(29)
        vals = rng.normal(0, 1, (30, 40))
        vals[rng.random(vals.shape) < 0.05] = 0.0
        valid = rng.random(vals.shape) < 0.8
        vals[~valid & (rng.random(vals.shape) < 0.5)] = np.nan
        g = grid_from(vals, valid)
        bands = compute_threshold_bands(g, orientation)
        sign = -1.0 if orientation == LOSS_NEGATIVE else 1.0
        for band in (BAND_MODERATE, BAND_HIGH, BAND_ANOMALOUS):
            lo, hi = bands.interval(band)
            expected = [
                ((r, c), float(vals[r, c])) for r in range(30) for c in range(40)
                if valid[r, c] and sign * vals[r, c] > 0 and lo <= abs(vals[r, c]) < hi
            ]
            got = classify_cells(g, bands, band, "target", orientation=orientation)
            assert got.cells.dtype == np.int64 and got.cells.shape == (len(expected), 2)
            assert got.values.dtype == np.float64
            assert list(zip(map(tuple, got.cells.tolist()), got.values.tolist())) == expected
            assert (got.kind, got.band) == ("target", band)

    def test_window_restricts_and_rebases_cells(self):
        vals = np.zeros((4, 4))
        vals[2, 2] = -5.0
        vals[0, 0] = -5.0
        g = grid_from(vals)
        window = RegionWindow(2, 3, 2, 3)
        cells = classify_cells(crop_region(g, window), self.bands, BAND_MODERATE, "source")
        assert cells.cells.tolist() == [[0, 0]]

    def test_empty_window_intersection(self):
        g = grid_from(-5.0 * np.ones((4, 4)))
        sub = crop_region(g, RegionWindow(3, 3, 3, 3))
        cells = classify_cells(sub, ThresholdBands(6, 7, 8), BAND_MODERATE, "source")
        assert cells.cells.shape == (0, 2)


class TestCrop:
    def test_antarctic_window_dims(self):
        g = grid_from(np.zeros((121, 720)))  # reduced rows to keep the test light
        with pytest.raises(WindowOutOfBounds):
            crop_region(g, RegionWindow(0, 120, 200, 720))
        out = crop_region(g, RegionWindow(0, 120, 200, 600))
        assert out.shape == (121, 401)

    def test_full_window_is_identity(self):
        rng = np.random.default_rng(2)
        g = grid_from(rng.normal(size=(6, 7)))
        out = crop_region(g, RegionWindow(0, 5, 0, 6))
        assert np.array_equal(out.values, g.values)
        assert out.registration == g.registration

    def test_inclusive_bound_check(self):
        g = grid_from(np.zeros((720, 10)))
        with pytest.raises(WindowOutOfBounds):
            crop_region(g, RegionWindow(0, 720, 0, 9))

    def test_geography_survives_cropping(self):
        """Cell centers keep their lat/lon after the window shift."""
        g = grid_from(np.zeros((30, 30)))
        window = RegionWindow(7, 20, 11, 25)
        out = crop_region(g, window)
        for r, c in [(0, 0), (5, 3), (13, 14)]:
            lat, lon = out.registration.cell_center(r, c)
            lat0, lon0 = g.registration.cell_center(r + 7, c + 11)
            assert abs(lat - lat0) <= 1e-12
            assert abs(lon - lon0) <= 1e-12


class TestResample:
    def test_integer_upsampling_replicates_blocks(self):
        g = grid_from([[1.0, 2.0], [3.0, 4.0]])
        out = resample_nearest(g, 4, 4)
        expected = np.array(
            [
                [1, 1, 2, 2],
                [1, 1, 2, 2],
                [3, 3, 4, 4],
                [3, 3, 4, 4],
            ],
            dtype=float,
        )
        assert np.array_equal(out.values, expected)

    def test_requested_dims_are_exact(self):
        g = grid_from(np.zeros((332, 316)))
        out = resample_nearest(g, 720, 1440)
        assert out.shape == (720, 1440)

    def test_identity_at_fixed_dims(self):
        rng = np.random.default_rng(3)
        g = grid_from(rng.normal(size=(9, 13)))
        out = resample_nearest(g, 9, 13)
        assert np.array_equal(out.values, g.values)
        assert np.array_equal(out.valid_mask, g.valid_mask)

    def test_validity_travels_with_values(self):
        g = grid_from([[1.0, 2.0]], valid=[[False, True]])
        out = resample_nearest(g, 1, 4)
        assert out.valid_mask.tolist() == [[False, False, True, True]]

    def test_extent_preserved(self):
        """First and last cell centers stay inside the original extent."""
        g = grid_from(np.zeros((4, 4)))
        out = resample_nearest(g, 8, 8)
        r = g.registration
        o = out.registration
        (lat_in, _), (lat_out, _) = r.cell_center(0, 0), o.cell_center(0, 0)
        assert lat_out == pytest.approx(lat_in - r.dlat / 2 + o.dlat / 2)
        span_in = 4 * r.dlat
        span_out = 8 * o.dlat
        assert span_out == pytest.approx(span_in)


class TestDiff:
    def test_later_minus_earlier(self):
        a = grid_from([[1.0]])
        b = grid_from([[3.0]])
        assert diff_grids(b, a).values.tolist() == [[2.0]]

    def test_identical_snapshots_are_zero(self):
        g = grid_from([[1.5, -2.5]])
        assert np.array_equal(diff_grids(g, g).values, np.zeros((1, 2)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimMismatch):
            diff_grids(grid_from(np.zeros((2, 2))), grid_from(np.zeros((2, 3))))

    def test_validity_intersects(self):
        a = grid_from([[1.0, 1.0]], valid=[[True, False]])
        b = grid_from([[2.0, 2.0]], valid=[[True, True]])
        out = diff_grids(b, a)
        assert out.valid_mask.tolist() == [[True, False]]
