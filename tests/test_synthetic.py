"""Planted-chain generator: ground truth, band placement, reproducibility."""
from __future__ import annotations

import numpy as np
import pytest

from spatial_link.errors import ChainViolation
from spatial_link.grid import (
    KIND_SOURCE,
    KIND_TARGET,
    LOSS_NEGATIVE,
    classify_cells,
    compute_threshold_bands,
)
from spatial_link.synthetic import (
    NoiseModel,
    PlantSpec,
    PlantedChain,
    band_magnitude,
    chain_spec,
    generate,
    generate_null,
    recovery_share,
)

CHAIN = tuple((5, 5 + i) for i in range(8))


def spec_for(band="moderate", seed=0, split=4, cells=CHAIN, **kw) -> PlantSpec:
    return chain_spec(cells, split_index=split, band=band, seed=seed, **kw)


class TestNoiseModel:
    def test_gaussian_only(self):
        with pytest.raises(ValueError):
            NoiseModel(name="cauchy")

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=0.0)

    @pytest.mark.parametrize("field, value", [
        ("sigma", float("nan")), ("sigma", float("inf")), ("sigma", "2"),
        ("mean", float("nan")), ("mean", True),
    ])
    def test_sigma_and_mean_are_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            NoiseModel(**{field: value})

    def test_moments(self):
        """Sample mean and sd of a large draw sit within 3 standard errors."""
        n = 200 * 200
        draw = NoiseModel(sigma=2.0).sample((200, 200), np.random.default_rng(3))
        se_mean = 2.0 / np.sqrt(n)
        assert abs(draw.mean()) < 3 * se_mean
        assert abs(draw.std() - 2.0) < 3 * 2.0 / np.sqrt(2 * n)


class TestSpecValidation:
    def test_two_cell_minimum(self):
        with pytest.raises(ChainViolation):
            PlantSpec(chain_cells=((0, 0),), chain_values=(-1.0,), split_index=1).validate()

    def test_length_cap(self):
        cells = tuple((0, i) for i in range(12))
        with pytest.raises(ChainViolation, match="length bound"):
            PlantSpec(
                chain_cells=cells, chain_values=(-1.0,) * 12, split_index=6
            ).validate()

    def test_spacing_cap(self):
        with pytest.raises(ChainViolation, match="15.000 cells apart"):
            PlantSpec(
                chain_cells=((0, 0), (0, 15)), chain_values=(-1.0, -1.0), split_index=1
            ).validate()

    def test_split_bounds(self):
        for bad in (0, 2):
            with pytest.raises(ChainViolation, match="split_index"):
                PlantSpec(
                    chain_cells=((0, 0), (0, 1)), chain_values=(-1.0, -1.0), split_index=bad
                ).validate()

    def test_duplicate_cells(self):
        with pytest.raises(ChainViolation, match="distinct"):
            PlantSpec(
                chain_cells=((0, 0), (0, 1), (0, 0)),
                chain_values=(-1.0,) * 3,
                split_index=1,
            ).validate()

    def test_values_length_must_match(self):
        with pytest.raises(ChainViolation):
            PlantSpec(
                chain_cells=((0, 0), (0, 1)), chain_values=(-1.0,), split_index=1
            ).validate()

    def test_cell_outside_grid(self):
        spec = spec_for(cells=((5, 5), (5, 6)), split=1)
        with pytest.raises(ChainViolation, match="outside"):
            generate(spec, dims=(6, 6))


class TestBandMagnitude:
    def test_ordering(self):
        m = band_magnitude("moderate")
        h = band_magnitude("high")
        a = band_magnitude("anomalous")
        assert m < h < a

    def test_scales_with_sigma(self):
        assert band_magnitude("high", sigma=2.0) == pytest.approx(
            2.0 * band_magnitude("high", sigma=1.0)
        )

    def test_unknown_band(self):
        with pytest.raises(ValueError):
            band_magnitude("extreme")


class TestGenerate:
    def test_truth_reports_the_spec(self):
        spec = spec_for()
        _, _, truth = generate(spec, dims=(20, 20))
        assert truth.cells == spec.chain_cells
        assert truth.split_index == spec.split_index
        assert truth.values == spec.chain_values
        assert truth.cells[:truth.split_index] == spec.chain_cells[:4]
        assert truth.cells[truth.split_index:] == spec.chain_cells[4:]

    def test_planted_values_written_to_designated_field(self):
        spec = spec_for()
        source, target, truth = generate(spec, dims=(20, 20))
        for (r, c), v in zip(truth.cells[:truth.split_index], truth.values[:4]):
            assert source.values[r, c] == v
            assert target.values[r, c] == abs(v)
        for (r, c), v in zip(truth.cells[truth.split_index:], truth.values[4:]):
            assert target.values[r, c] == v
            assert source.values[r, c] == abs(v)

    @pytest.mark.parametrize("band", ["moderate", "high", "anomalous"])
    def test_chain_cells_classify_into_requested_band(self, band):
        """Every planted cell must land in its band of the generated field."""
        spec = spec_for(band=band, seed=11)
        source, target, truth = generate(spec, dims=(40, 40))
        bands_s = compute_threshold_bands(source, LOSS_NEGATIVE)
        bands_t = compute_threshold_bands(target, LOSS_NEGATIVE)
        src_sel = set(map(tuple, classify_cells(source, bands_s, band, KIND_SOURCE).cells.tolist()))
        tgt_sel = set(map(tuple, classify_cells(target, bands_t, band, KIND_TARGET).cells.tolist()))
        assert set(truth.cells[:truth.split_index]) <= src_sel
        assert set(truth.cells[truth.split_index:]) <= tgt_sel

    def test_opposite_field_never_qualifies_chain_cells(self):
        """Gain-signed writes keep chain cells out of the other field's bands."""
        spec = spec_for(seed=7)
        source, target, truth = generate(spec, dims=(30, 30))
        for band in ("moderate", "high", "anomalous"):
            tgt_sel = set(map(tuple, classify_cells(
                target, compute_threshold_bands(target, LOSS_NEGATIVE), band, KIND_TARGET
            ).cells.tolist()))
            src_sel = set(map(tuple, classify_cells(
                source, compute_threshold_bands(source, LOSS_NEGATIVE), band, KIND_SOURCE
            ).cells.tolist()))
            assert not (set(truth.cells[:truth.split_index]) & tgt_sel)
            assert not (set(truth.cells[truth.split_index:]) & src_sel)

    def test_same_seed_reproduces_instance(self):
        a = generate(spec_for(seed=5), dims=(15, 15))
        b = generate(spec_for(seed=5), dims=(15, 15))
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)

    def test_different_seeds_differ(self):
        a = generate(spec_for(seed=5), dims=(15, 15))
        b = generate(spec_for(seed=6), dims=(15, 15))
        assert not np.array_equal(a[0].values, b[0].values)

    def test_off_chain_cells_are_pure_noise(self):
        """The planted write must touch chain cells only."""
        spec = spec_for(seed=9)
        source, _, truth = generate(spec, dims=(20, 20))
        g = np.random.default_rng(spec.seed)
        raw = spec.noise.sample((20, 20), g)
        mask = np.ones((20, 20), dtype=bool)
        for r, c in truth.cells:
            mask[r, c] = False
        assert np.array_equal(source.values[mask], raw[mask])


class TestGenerateNull:
    def test_fields_are_independent_draws(self):
        source, target = generate_null((12, 12), seed=2)
        assert not np.array_equal(source.values, target.values)

    def test_reproducible(self):
        a = generate_null((12, 12), seed=2)
        b = generate_null((12, 12), seed=2)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)

    def test_all_cells_valid(self):
        source, target = generate_null((5, 9), seed=0)
        assert source.valid_mask.all() and target.valid_mask.all()
        assert source.shape == (5, 9)


class TestRecoveryShare:
    def test_full_recovery(self):
        truth = PlantedChain(cells=((0, 0), (0, 1), (0, 2)), split_index=1,
                             values=(-1.0, -1.0, -1.0))
        assert recovery_share([(0, 0), (0, 1), (0, 2)], truth) == 1.0

    def test_partial(self):
        truth = PlantedChain(cells=((0, 0), (0, 1), (0, 2), (0, 3)), split_index=2,
                             values=(-1.0,) * 4)
        assert recovery_share([(0, 0), (9, 9), (0, 3)], truth) == 0.5

    def test_extra_cells_do_not_help(self):
        truth = PlantedChain(cells=((0, 0), (0, 1)), split_index=1, values=(-1.0, -1.0))
        assert recovery_share([(5, 5), (6, 6)], truth) == 0.0
