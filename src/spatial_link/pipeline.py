"""End-to-end orchestration: grids in, significance artifacts out.

A run loads and prepares the two change fields, qualifies cells at the
configured bands, builds the linkage graph, enumerates candidate paths,
scores them against the permutation null, and writes five artifacts
(graph.json, paths.json, results.json, significant.geojson,
frequency.csv) into the output directory. The band sweep repeats this
for all nine band pairings into per-pairing subdirectories.
"""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import io
from .errors import ConfigError, DimMismatch, EmptySide, WindowOutOfBounds, is_finite, is_integer
from .grid import (
    BANDS, DEFAULT_UB_MULTIPLIER, LOSS_NEGATIVE, ORIENTATIONS, WINDOW_HINT, ChangeGrid,
    RegionWindow, ThresholdBands, classify_cells, compute_threshold_bands, crop_region,
    resample_nearest,
)
from .graph import (
    DEFAULT_MAX_EDGE_CELLS, METRICS, VARIANT_CMAD, VARIANT_STANDARD, SpatialGraph, build_graph,
)
from .paths import DEFAULT_CAP, DEFAULT_MAX_NODES, PathStore, extract_all_paths, linkage_frequency
from .significance import DEFAULT_ALPHA, DEFAULT_REPLICATES, PermutationNull, Results, SeedPolicy

SCOPE_WINDOW = "window"
SCOPE_GLOBAL = "global"


def is_dims(v) -> bool:
    """Is ``v`` a [rows, cols] pair of positive integers?"""
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(is_integer(d) and d > 0 for d in v)


_SWITCH = ("true or false", lambda v: isinstance(v, bool))
_PATH = ("a string", lambda v: isinstance(v, str))


def _one_of(choices: tuple) -> tuple:
    return f"one of {choices}", lambda v: v in choices


# The one type and range rule of each run setting: (requirement, test).
# A bool is neither an integer nor a number here. The last four are
# settings of the aar mode. resample_source and window have their rules in
# validate, as their flags carry text that is parsed.
RANGE_RULES = {
    "source": _PATH,
    "target": _PATH,
    "mask": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "out_dir": _PATH,
    "variant": _one_of((VARIANT_STANDARD, VARIANT_CMAD)),
    "orientation_source": _one_of(ORIENTATIONS),
    "orientation_target": _one_of(ORIENTATIONS),
    "band_source": _one_of(BANDS),
    "band_target": _one_of(BANDS),
    "band_scope": _one_of((SCOPE_WINDOW, SCOPE_GLOBAL)),
    "metric": _one_of(METRICS),
    "share_null": _SWITCH,
    "bh": _SWITCH,
    "sweep_bands": _SWITCH,
    "dmax": ("a finite number > 0", lambda v: is_finite(v) and v > 0),
    "max_len": ("an integer >= 2", lambda v: is_integer(v) and v >= 2),
    "cap": ("an integer > 0", lambda v: is_integer(v) and v > 0),
    "m": ("an integer >= 1", lambda v: is_integer(v) and v >= 1),
    "alpha": ("a number strictly between 0 and 1", lambda v: is_finite(v) and 0 < v < 1),
    "threads": ("an integer >= 1", lambda v: is_integer(v) and v >= 1),
    "seed": ("an integer >= 0", lambda v: is_integer(v) and v >= 0),
    "ub_multiplier": ("a finite number >= 0", lambda v: is_finite(v) and v >= 0),
    "max_edge_km": ("a finite number > 0", lambda v: is_finite(v) and v > 0),
    "snap_km": ("a finite number > 0", lambda v: is_finite(v) and v > 0),
    "min_extent_km": ("a finite number >= 0", lambda v: is_finite(v) and v >= 0),
    "threshold": ("a finite number", is_finite),
}


def check_range(name: str, value, given_as: str | None = None) -> None:
    """Raise ``ConfigError``, naming ``given_as`` or else the flag, if ``value`` is out of range."""
    rule, test = RANGE_RULES[name]
    if not test(value):
        raise ConfigError(
            f"{name} must be {rule}, got {value!r}",
            hint=f"give {given_as or '--' + name.replace('_', '-')} a value that is {rule}",
        )


@dataclass
class RunConfig:
    """Everything a pipeline run depends on; echoed into every artifact."""

    source: str
    target: str
    mask: str | None = None
    variant: str = VARIANT_STANDARD
    orientation_source: str = LOSS_NEGATIVE
    orientation_target: str = LOSS_NEGATIVE
    window: str | None = None
    band_source: str = "moderate"
    band_target: str = "moderate"
    band_scope: str = SCOPE_WINDOW
    ub_multiplier: float = DEFAULT_UB_MULTIPLIER
    dmax: float = DEFAULT_MAX_EDGE_CELLS
    metric: str = "euclidean"
    max_len: int = DEFAULT_MAX_NODES
    cap: int = DEFAULT_CAP
    m: int = DEFAULT_REPLICATES
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    threads: int = 1
    share_null: bool = False
    bh: bool = False
    sweep_bands: bool = False
    resample_source: list | None = None
    out_dir: str = "."

    def validate(self, given_as: dict | None = None) -> None:
        """Check every setting; ``given_as`` names where a setting came from if not its flag."""
        given_as = given_as or {}
        if self.variant == VARIANT_CMAD and not self.mask:
            raise ConfigError(
                "the cmad variant requires --mask",
                hint="pass the anomaly mask with --mask or the config's mask entry",
            )
        for f in fields(self):
            if f.name in RANGE_RULES:
                check_range(f.name, getattr(self, f.name), given_as.get(f.name))
        if self.resample_source is not None and not is_dims(self.resample_source):
            raise ConfigError(
                f"resample_source must be [rows, cols] of positive integers, "
                f"got {self.resample_source!r}",
                hint="give --resample-source ROWSxCOLS, or [rows, cols] in the config",
            )
        if self.window is not None:
            try:
                RegionWindow.parse(self.window)
            except WindowOutOfBounds as exc:
                if "window" in given_as:
                    exc.hint = WINDOW_HINT.replace("--window", given_as["window"])
                raise

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(sorted(unknown))}",
                hint=f"known keys: {', '.join(sorted(known))}",
            )
        if "source" not in doc or "target" not in doc:
            raise ConfigError("config must set both source and target")
        return cls(**doc)

    def echo(self) -> dict:
        """Config as recorded in output metadata.

        Execution-environment knobs (thread count, output directory) are
        excluded: results are independent of them, and the block must
        reproduce byte-identical results when re-run anywhere.
        """
        doc = asdict(self)
        doc.pop("threads")
        doc.pop("out_dir")
        return doc


@dataclass
class BandRunResult:
    band_source: str
    band_target: str
    n_nodes: int
    n_edges: int
    n_paths: int
    n_significant: int
    note: str | None = None


class PreparedGrids(NamedTuple):
    """The windowed fields of a run, their anomaly bits (cmad only) and banding thresholds."""

    source: ChangeGrid
    target: ChangeGrid
    anomaly_bits: np.ndarray | None
    bands_source: ThresholdBands
    bands_target: ThresholdBands


def prepare_grids(config: RunConfig) -> PreparedGrids:
    """Load, resample, and window the fields; derive banding thresholds."""
    source = io.load_grid(config.source)
    target = io.load_grid(config.target)
    mask_grid = io.load_grid(config.mask) if config.mask else None

    # A resampled source takes the dims given, so they are checked before resampling.
    source_shape = tuple(config.resample_source or source.shape)
    if source_shape != target.shape:
        raise DimMismatch(
            f"source grid {source_shape} and target grid {target.shape} differ",
            hint="use resample_source to bring the source onto the target dims",
        )
    if config.resample_source is not None:
        rows, cols = config.resample_source
        source = resample_nearest(source, rows, cols)
        if mask_grid is not None:
            mask_grid = resample_nearest(mask_grid, rows, cols)
    if mask_grid is not None and mask_grid.shape != source.shape:
        raise DimMismatch(
            f"anomaly mask {mask_grid.shape} does not match the grids {source.shape}",
            hint="the mask must share the source grid geometry",
        )

    window = RegionWindow.parse(config.window) if config.window else None
    if window is not None:
        win_source = crop_region(source, window)
        win_target = crop_region(target, window)
        win_mask = crop_region(mask_grid, window) if mask_grid is not None else None
    else:
        win_source, win_target, win_mask = source, target, mask_grid

    scope_source = source if config.band_scope == SCOPE_GLOBAL else win_source
    scope_target = target if config.band_scope == SCOPE_GLOBAL else win_target
    bands_source = compute_threshold_bands(
        scope_source, config.orientation_source, config.ub_multiplier
    )
    bands_target = compute_threshold_bands(
        scope_target, config.orientation_target, config.ub_multiplier
    )

    anomaly_bits = None
    if win_mask is not None and config.variant == VARIANT_CMAD:
        anomaly_bits = win_mask.valid_mask & (win_mask.values != 0)
    return PreparedGrids(win_source, win_target, anomaly_bits, bands_source, bands_target)


def _thresholds(bands: ThresholdBands) -> dict:
    return {"median": bands.median, "q3": bands.q3, "ub": bands.ub}


def build_band_graph(
    config: RunConfig, grids: PreparedGrids, band_source: str, band_target: str
) -> SpatialGraph:
    """Classify both fields at one band pairing and build their linkage graph.

    The graph params record everything a later stage needs to rescore the
    graph (orientations, target band interval, window) and the thresholds
    the cells were banded with.
    """
    source_cells = classify_cells(
        grids.source, grids.bands_source, band_source, "source",
        orientation=config.orientation_source,
    )
    target_cells = classify_cells(
        grids.target, grids.bands_target, band_target, "target",
        orientation=config.orientation_target,
    )
    return build_graph(
        source_cells,
        target_cells,
        max_edge_cells=config.dmax,
        metric=config.metric,
        variant=config.variant,
        anomaly_mask=grids.anomaly_bits,
        grid_shape=grids.source.shape,
        params={
            "orientation_source": config.orientation_source,
            "orientation_target": config.orientation_target,
            "target_interval": list(grids.bands_target.interval(band_target)),
            "thresholds_source": _thresholds(grids.bands_source),
            "thresholds_target": _thresholds(grids.bands_target),
            "window": config.window,
            "band_scope": config.band_scope,
        },
    )


def score_paths(
    config: RunConfig, graph: SpatialGraph, paths: PathStore, grids: PreparedGrids
) -> Results:
    """Test paths of ``graph`` against the permutation null; nodes must sit on valid cells."""
    engine = PermutationNull.for_graph(
        graph,
        grids.source,
        grids.target,
        policy=SeedPolicy(base_seed=config.seed),
        n_replicates=config.m,
        threads=config.threads,
        anomaly_mask=grids.anomaly_bits,
    )
    return engine.evaluate(
        paths,
        alpha=config.alpha,
        share_null_by_length=config.share_null,
        bh_correction=config.bh,
    )


def _run_band_pair(
    config: RunConfig,
    band_source: str,
    band_target: str,
    grids: PreparedGrids,
    out_dir: str,
) -> BandRunResult:
    os.makedirs(out_dir, exist_ok=True)
    echo = config.echo()
    echo["band_source"] = band_source
    echo["band_target"] = band_target
    metadata = io.metadata_block(echo, config.seed)

    note = None
    try:
        graph = build_band_graph(config, grids, band_source, band_target)
    except EmptySide as exc:
        # A sweep cell with an empty band is an expected outcome, not a
        # failed run: its artifacts, written from the empty graph, note
        # why they have no rows. Single-pair runs propagate the error instead.
        if not config.sweep_bands:
            raise
        note, graph = str(exc), SpatialGraph()
    io.write_json(io.graph_to_json(graph, metadata, note), os.path.join(out_dir, "graph.json"))

    paths = extract_all_paths(graph, max_nodes=config.max_len, cap=config.cap)
    # Both path writers list each path's node ids; results.paths is this store.
    nodes = io.node_lists(paths)
    io.write_json(
        io.paths_to_json(paths, graph, metadata, nodes, note), os.path.join(out_dir, "paths.json")
    )

    results = score_paths(config, graph, paths, grids)
    io.write_json(
        io.results_to_json(results, metadata, nodes, note), os.path.join(out_dir, "results.json")
    )

    significant = results.take(results.significant)
    io.write_json(
        io.export_geojson(significant, graph, grids.source.registration, metadata, note),
        os.path.join(out_dir, "significant.geojson"),
    )
    freq = linkage_frequency(significant.paths, graph, grids.source.shape)
    io.frequency_to_csv(freq, metadata, os.path.join(out_dir, "frequency.csv"))

    return BandRunResult(
        band_source=band_source,
        band_target=band_target,
        n_nodes=graph.n_nodes,
        n_edges=graph.n_edges,
        n_paths=len(paths),
        n_significant=len(significant),
        note=note,
    )


def run_pipeline(config: RunConfig) -> list[BandRunResult]:
    """Execute one run (or a 3x3 band sweep) and write all artifacts."""
    config.validate()
    grids = prepare_grids(config)

    if config.sweep_bands:
        pairs = [(bs, bt) for bs in BANDS for bt in BANDS]
    else:
        pairs = [(config.band_source, config.band_target)]

    results = []
    for band_source, band_target in pairs:
        if config.sweep_bands:
            out_dir = os.path.join(config.out_dir, f"{band_source}_{band_target}")
        else:
            out_dir = config.out_dir
        results.append(_run_band_pair(config, band_source, band_target, grids, out_dir))
    return results
