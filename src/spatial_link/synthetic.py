"""Synthetic benchmark instances: planted linkage chains in noise fields.

A planted instance hides a known source-to-target chain inside a pair of
noise fields so recovery can be scored against ground truth. Chain cells
are exclusive to their designated field: the opposite field receives a
gain-signed value at those cells, so the planted geometry cannot be
absorbed or truncated by chance qualification of the other field.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FINITE, ChainViolation, checked
from .graph import DEFAULT_MAX_EDGE_CELLS
from .grid import (
    BAND_ANOMALOUS,
    BAND_HIGH,
    BAND_MODERATE,
    DEFAULT_UB_MULTIPLIER,
    ChangeGrid,
)
from .paths import DEFAULT_MAX_NODES

DEFAULT_SIGMA = 1.0

# Loss-magnitude quantiles of a zero-mean Gaussian field (half-normal law),
# in units of sigma: median, upper quartile, and the derived Tukey fence.
_HALF_NORMAL_MEDIAN = 0.6744897501960817
_HALF_NORMAL_Q1 = 0.31863936396437514
_HALF_NORMAL_Q3 = 1.1503493803760079
_HALF_NORMAL_UB = _HALF_NORMAL_Q3 + DEFAULT_UB_MULTIPLIER * (_HALF_NORMAL_Q3 - _HALF_NORMAL_Q1)


@dataclass(frozen=True)
class NoiseModel:
    """Background noise law for both fields; only Gaussian is defined."""

    name: str = "gaussian"
    sigma: float = DEFAULT_SIGMA
    mean: float = 0.0

    def __post_init__(self):
        if self.name != "gaussian":
            raise ValueError(f"unknown noise model {self.name!r}")
        checked(self.sigma, "sigma", FINITE)
        checked(self.mean, "mean", FINITE)
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def sample(self, shape: tuple[int, int], g: np.random.Generator) -> np.ndarray:
        return g.normal(self.mean, self.sigma, size=shape)


@dataclass(frozen=True)
class PlantSpec:
    """Recipe for one planted instance.

    ``chain_cells`` is the ordered chain; cells before ``split_index`` are
    planted in the source field, the rest in the target field.
    ``chain_values`` are the signed change values written at those cells
    (loss-signed, i.e. negative under the default orientation).
    """

    chain_cells: tuple[tuple[int, int], ...]
    chain_values: tuple[float, ...]
    split_index: int
    noise: NoiseModel = field(default_factory=NoiseModel)
    seed: int = 0
    max_spacing_cells: float = DEFAULT_MAX_EDGE_CELLS
    max_len: int = DEFAULT_MAX_NODES

    def validate(self) -> None:
        n = len(self.chain_cells)
        if n < 2:
            raise ChainViolation(f"chain needs at least 2 cells, got {n}")
        if n > self.max_len:
            raise ChainViolation(
                f"chain of {n} cells exceeds the path length bound {self.max_len}"
            )
        if len(self.chain_values) != n:
            raise ChainViolation(
                f"{len(self.chain_values)} values for {n} chain cells"
            )
        if not 1 <= self.split_index <= n - 1:
            raise ChainViolation(
                f"split_index {self.split_index} must leave at least one cell on each side"
            )
        if len(set(self.chain_cells)) != n:
            raise ChainViolation("chain cells must be distinct")
        for (r0, c0), (r1, c1) in zip(self.chain_cells[:-1], self.chain_cells[1:]):
            d = float(np.hypot(r1 - r0, c1 - c0))
            if d > self.max_spacing_cells:
                raise ChainViolation(
                    f"consecutive chain cells ({r0},{c0}) -> ({r1},{c1}) are "
                    f"{d:.3f} cells apart, beyond the {self.max_spacing_cells} limit"
                )


@dataclass(frozen=True)
class PlantedChain:
    """Ground truth of a generated instance: ``cells[:split_index]`` lie in the source field."""

    cells: tuple[tuple[int, int], ...]
    split_index: int
    values: tuple[float, ...]


def band_magnitude(band: str, sigma: float = DEFAULT_SIGMA, offset: float = 0.5) -> float:
    """A loss magnitude sitting at a fractional offset into a band.

    Band edges are the asymptotic quantiles of the Gaussian noise model,
    so at usual field sizes the returned magnitude lands inside the
    empirical band with wide margin. The anomalous band is open above;
    its offset walks from the fence toward fence + sigma.
    """
    edges = {
        BAND_MODERATE: (_HALF_NORMAL_MEDIAN, _HALF_NORMAL_Q3),
        BAND_HIGH: (_HALF_NORMAL_Q3, _HALF_NORMAL_UB),
        BAND_ANOMALOUS: (_HALF_NORMAL_UB, _HALF_NORMAL_UB + 1.0),
    }
    if band not in edges:
        raise ValueError(f"unknown band {band!r}")
    lo, hi = edges[band]
    return sigma * (lo + offset * (hi - lo))


def chain_spec(
    chain_cells,
    split_index: int,
    band: str = BAND_MODERATE,
    noise: NoiseModel | None = None,
    seed: int = 0,
    max_spacing_cells: float = DEFAULT_MAX_EDGE_CELLS,
    max_len: int = DEFAULT_MAX_NODES,
) -> PlantSpec:
    """Spec with chain magnitudes spread across the middle of one band."""
    noise = noise or NoiseModel()
    n = len(chain_cells)
    offsets = np.linspace(0.35, 0.65, n)
    values = tuple(-band_magnitude(band, noise.sigma, o) for o in offsets)
    spec = PlantSpec(
        chain_cells=tuple((int(r), int(c)) for r, c in chain_cells),
        chain_values=values,
        split_index=split_index,
        noise=noise,
        seed=seed,
        max_spacing_cells=max_spacing_cells,
        max_len=max_len,
    )
    spec.validate()
    return spec


def generate(
    spec: PlantSpec, dims: tuple[int, int]
) -> tuple[ChangeGrid, ChangeGrid, PlantedChain]:
    """Materialize a planted instance of the given dimensions.

    Both fields start as independent noise from the spec's seed (source
    drawn first). Chain cells are then overwritten: the designated field
    gets the planted value, the opposite field gets the value's magnitude
    with gain sign, which disqualifies it from loss banding there.
    """
    spec.validate()
    rows, cols = dims
    for r, c in spec.chain_cells:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ChainViolation(
                f"chain cell ({r}, {c}) is outside the {rows}x{cols} grid"
            )
    g = np.random.default_rng(spec.seed)
    source_vals = spec.noise.sample((rows, cols), g)
    target_vals = spec.noise.sample((rows, cols), g)
    for k, ((r, c), v) in enumerate(zip(spec.chain_cells, spec.chain_values)):
        if k < spec.split_index:
            source_vals[r, c] = v
            target_vals[r, c] = abs(v)
        else:
            target_vals[r, c] = v
            source_vals[r, c] = abs(v)
    valid = np.ones((rows, cols), dtype=bool)
    source = ChangeGrid(values=source_vals, valid_mask=valid)
    target = ChangeGrid(values=target_vals, valid_mask=valid.copy())
    truth = PlantedChain(
        cells=spec.chain_cells, split_index=spec.split_index, values=spec.chain_values
    )
    return source, target, truth


def generate_null(
    dims: tuple[int, int], noise: NoiseModel | None = None, seed: int = 0
) -> tuple[ChangeGrid, ChangeGrid]:
    """A chain-free instance: two independent noise fields."""
    noise = noise or NoiseModel()
    g = np.random.default_rng(seed)
    valid = np.ones(dims, dtype=bool)
    source = ChangeGrid(values=noise.sample(dims, g), valid_mask=valid)
    target = ChangeGrid(values=noise.sample(dims, g), valid_mask=valid.copy())
    return source, target


def recovery_share(found_cells, truth: PlantedChain) -> float:
    """Fraction of planted cells visited by a recovered path."""
    planted = set(truth.cells)
    hit = planted & set(found_cells)
    return len(hit) / len(planted)
