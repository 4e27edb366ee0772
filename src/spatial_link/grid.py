"""Gridded change fields: registration, windowing, resampling, and banding.

A change field is a dense 2-D raster of per-cell change values (later
snapshot minus earlier snapshot) with a boolean validity mask and an
affine geographic registration. Threshold banding partitions the
loss-signed cells of a field into moderate / high / anomalous intensity
intervals derived from the field's own quantiles, so band membership is
always relative to the field under analysis rather than to fixed
physical units.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    InsufficientData,
    NonFiniteValue,
    WindowOutOfBounds,
    reading,
)

# Change orientation: which sign encodes loss of the quantity of interest.
LOSS_NEGATIVE = "loss-negative"
LOSS_POSITIVE = "loss-positive"
ORIENTATIONS = (LOSS_NEGATIVE, LOSS_POSITIVE)

BAND_MODERATE = "moderate"
BAND_HIGH = "high"
BAND_ANOMALOUS = "anomalous"
BANDS = (BAND_MODERATE, BAND_HIGH, BAND_ANOMALOUS)
# Tukey fence multiplier: the anomalous floor is q3 + multiplier * (q3 - q1).
DEFAULT_UB_MULTIPLIER = 1.5

KIND_SOURCE = "source"
KIND_TARGET = "target"


@dataclass(frozen=True)
class GridRegistration:
    """Affine mapping from (row, col) indices to geographic coordinates.

    ``lat0``/``lon0`` give the center of cell (0, 0); ``dlat``/``dlon`` are
    the per-cell steps in degrees and must be positive. ``cell_km`` is the
    nominal cell edge length in kilometers and is informational only: all
    adjacency thresholds in the pipeline are expressed in cell units.
    """

    lat0: float
    lon0: float
    dlat: float
    dlon: float
    cell_km: float

    def __post_init__(self):
        fields = (self.lat0, self.lon0, self.dlat, self.dlon, self.cell_km)
        if not np.isfinite(fields).all():
            raise ValueError(f"registration fields must be finite, got {fields}")
        if self.dlat <= 0 or self.dlon <= 0:
            raise ValueError("dlat and dlon must be positive")
        if self.cell_km <= 0:
            raise ValueError("cell_km must be positive")

    def cell_center(self, row, col):
        """Return (lat, lon) of the center of cell (row, col); works elementwise on arrays."""
        return self.lat0 + row * self.dlat, self.lon0 + col * self.dlon

    def shifted(self, row0: int, col0: int) -> "GridRegistration":
        """Registration of a subgrid whose cell (0, 0) was (row0, col0)."""
        lat0, lon0 = self.cell_center(row0, col0)
        return GridRegistration(
            lat0=lat0,
            lon0=lon0,
            dlat=self.dlat,
            dlon=self.dlon,
            cell_km=self.cell_km,
        )


# Global 0.25-degree grid anchored at the south pole / antimeridian, the
# default registration for inputs that do not declare their own.
QUARTER_DEGREE_GLOBAL = GridRegistration(
    lat0=-90.0, lon0=-180.0, dlat=0.25, dlon=0.25, cell_km=25.0
)


WINDOW_HINT = (
    "give --window ROW0:ROW1,COL0:COL1, inclusive zero-based indices with ROW0 <= ROW1 and "
    "COL0 <= COL1"
)


@dataclass(frozen=True)
class RegionWindow:
    """Inclusive index window ``[row_min, row_max] x [col_min, col_max]``."""

    row_min: int
    row_max: int
    col_min: int
    col_max: int

    def __post_init__(self):
        if self.row_min < 0 or self.col_min < 0:
            raise WindowOutOfBounds(
                f"window corner ({self.row_min}, {self.col_min}) has negative index",
                hint=WINDOW_HINT,
            )
        if self.row_max < self.row_min or self.col_max < self.col_min:
            raise WindowOutOfBounds(
                f"window {self.spec()} is empty (max index below min index)", hint=WINDOW_HINT
            )

    @classmethod
    def parse(cls, text: str) -> "RegionWindow":
        """Parse the ``"r0:r1,c0:c1"`` inclusive window syntax."""
        what = f"cannot parse window {text!r}, expected r0:r1,c0:c1"
        with reading(WindowOutOfBounds, what, hint="example: --window 0:120,200:600"):
            row_part, col_part = text.split(",")
            r0, r1 = (int(v) for v in row_part.split(":"))
            c0, c1 = (int(v) for v in col_part.split(":"))
        return cls(r0, r1, c0, c1)

    def spec(self) -> str:
        return f"{self.row_min}:{self.row_max},{self.col_min}:{self.col_max}"


@dataclass
class ChangeGrid:
    """A change field: values, validity mask, and registration.

    Invalid cells may hold any payload (including NaN); valid cells must be
    finite. Arrays are locked after validation so a grid can be shared
    between pipeline stages without defensive copies.
    """

    values: np.ndarray
    valid_mask: np.ndarray
    registration: GridRegistration = field(default=QUARTER_DEGREE_GLOBAL)

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        mask = np.ascontiguousarray(np.asarray(self.valid_mask, dtype=bool))
        if values.ndim != 2:
            raise DimMismatch(f"grid values must be 2-D, got shape {values.shape}")
        if mask.shape != values.shape:
            raise DimMismatch(
                f"valid mask shape {mask.shape} does not match values shape {values.shape}"
            )
        bad = mask & ~np.isfinite(values)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise NonFiniteValue(
                f"non-finite value at valid cell ({r}, {c})",
                hint="mark the cell invalid or repair the payload",
            )
        values.setflags(write=False)
        mask.setflags(write=False)
        self.values = values
        self.valid_mask = mask

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class ThresholdBands:
    """Quantile cut points of the loss-signed magnitude distribution.

    Intervals are half-open: moderate = [median, q3), high = [q3, ub),
    anomalous = [ub, inf) where ub is the upper Tukey fence
    q3 + multiplier * (q3 - q1).
    """

    median: float
    q3: float
    ub: float

    def __post_init__(self):
        if not (self.median <= self.q3 <= self.ub):
            raise ValueError(
                f"bands must be ordered median <= q3 <= ub, got "
                f"{self.median}, {self.q3}, {self.ub}"
            )

    def interval(self, band: str) -> tuple[float, float]:
        """Half-open [lo, hi) magnitude interval of the named band."""
        if band == BAND_MODERATE:
            return self.median, self.q3
        if band == BAND_HIGH:
            return self.q3, self.ub
        if band == BAND_ANOMALOUS:
            return self.ub, np.inf
        raise ValueError(f"unknown band {band!r}, expected one of {BANDS}")


@dataclass
class CellSet:
    """Cells of one field qualified at one band, tagged with a graph role.

    ``cells`` is an ``(n, 2)`` int64 array of (row, col) and ``values``
    the n signed change values.
    """

    kind: str
    band: str
    cells: np.ndarray
    values: np.ndarray


def in_band(values, orientation: str, lo: float, hi: float):
    """Which values have the loss sign and a magnitude in [lo, hi); works elementwise.

    Zero carries no loss signal and is out of every band under either
    orientation.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}, expected one of {ORIENTATIONS}")
    signed = values < 0 if orientation == LOSS_NEGATIVE else values > 0
    mags = np.abs(values)
    return signed & (mags >= lo) & (mags < hi)


def oriented_mask(grid: ChangeGrid, orientation: str) -> np.ndarray:
    """Boolean mask of valid cells whose change has the loss sign."""
    return grid.valid_mask & in_band(grid.values, orientation, 0.0, np.inf)


def compute_threshold_bands(
    grid: ChangeGrid, orientation: str, ub_multiplier: float = DEFAULT_UB_MULTIPLIER
) -> ThresholdBands:
    """Derive banding cut points from a field's own loss distribution.

    Quantiles use linear interpolation between order statistics (position
    h = (n - 1) * p). The anomalous floor is the upper Tukey fence
    q3 + ub_multiplier * (q3 - q1). Requires at least four oriented cells
    so that every quartile is determined by the data.
    """
    mags = np.abs(grid.values[oriented_mask(grid, orientation)])
    if mags.size < 4:
        raise InsufficientData(
            f"banding needs at least 4 oriented valid cells, found {mags.size}",
            hint="check the orientation flag and the validity mask",
        )
    q1, median, q3 = np.quantile(mags, [0.25, 0.5, 0.75])
    ub = q3 + ub_multiplier * (q3 - q1)
    return ThresholdBands(median=float(median), q3=float(q3), ub=float(ub))


def classify_cells(
    grid: ChangeGrid,
    bands: ThresholdBands,
    band: str,
    kind: str,
    orientation: str = LOSS_NEGATIVE,
) -> CellSet:
    """Select the valid, oriented cells whose magnitude is in a band.

    Cells come back in row-major order with their signed change values;
    crop the grid first (``crop_region``) to classify one window of it.
    """
    if kind not in (KIND_SOURCE, KIND_TARGET):
        raise ValueError(f"unknown kind {kind!r}")
    selected = grid.valid_mask & in_band(grid.values, orientation, *bands.interval(band))
    return CellSet(kind, band, np.argwhere(selected), grid.values[selected])


def crop_region(grid: ChangeGrid, window: RegionWindow) -> ChangeGrid:
    """Extract an inclusive window, shifting the registration to match."""
    if window.row_max >= grid.rows or window.col_max >= grid.cols:
        raise WindowOutOfBounds(
            f"window {window.spec()} exceeds grid of {grid.rows}x{grid.cols}",
            hint="window indices are inclusive and zero-based",
        )
    values = grid.values[
        window.row_min : window.row_max + 1, window.col_min : window.col_max + 1
    ]
    mask = grid.valid_mask[
        window.row_min : window.row_max + 1, window.col_min : window.col_max + 1
    ]
    return ChangeGrid(
        values=values.copy(),
        valid_mask=mask.copy(),
        registration=grid.registration.shifted(window.row_min, window.col_min),
    )


def resample_nearest(grid: ChangeGrid, target_rows: int, target_cols: int) -> ChangeGrid:
    """Nearest-neighbor resample onto a target_rows x target_cols raster.

    Output cell centers are placed uniformly across the source extent and
    each takes the value and validity of the nearest source cell, with
    exact midpoints resolved toward the lower source index. Registration
    is rescaled so the geographic extent is preserved; cell_km follows the
    row scale factor.
    """
    if target_rows <= 0 or target_cols <= 0:
        raise ValueError("target dimensions must be positive")
    src_r = _nearest_indices(grid.rows, target_rows)
    src_c = _nearest_indices(grid.cols, target_cols)
    values = grid.values[np.ix_(src_r, src_c)]
    mask = grid.valid_mask[np.ix_(src_r, src_c)]
    reg = grid.registration
    row_factor = grid.rows / target_rows
    col_factor = grid.cols / target_cols
    new_dlat = reg.dlat * row_factor
    new_dlon = reg.dlon * col_factor
    new_reg = GridRegistration(
        lat0=reg.lat0 - reg.dlat / 2 + new_dlat / 2,
        lon0=reg.lon0 - reg.dlon / 2 + new_dlon / 2,
        dlat=new_dlat,
        dlon=new_dlon,
        cell_km=reg.cell_km * row_factor,
    )
    return ChangeGrid(values=values.copy(), valid_mask=mask.copy(), registration=new_reg)


def _nearest_indices(n_src: int, n_dst: int) -> np.ndarray:
    # Output center i sits at source coordinate (i + 0.5) * n_src / n_dst - 0.5;
    # rounding ties go to the lower index, so use ceil(y - 0.5).
    centers = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
    idx = np.ceil(centers - 0.5).astype(np.int64)
    return np.clip(idx, 0, n_src - 1)


def diff_grids(later: ChangeGrid, earlier: ChangeGrid) -> ChangeGrid:
    """Per-cell change field later - earlier.

    A cell is valid in the result only where both inputs are valid; the
    registration is taken from the later snapshot. Shapes and
    registrations must match.
    """
    if later.shape != earlier.shape:
        raise DimMismatch(
            f"snapshot shapes differ: {later.shape} vs {earlier.shape}",
            hint="resample one snapshot before differencing",
        )
    if later.registration != earlier.registration:
        raise DimMismatch(
            "snapshot registrations differ",
            hint="snapshots must share the same grid geometry",
        )
    mask = later.valid_mask & earlier.valid_mask
    values = np.where(mask, later.values - earlier.values, 0.0)
    return ChangeGrid(values=values, valid_mask=mask, registration=later.registration)
