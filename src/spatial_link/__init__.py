"""Spatial-Link: significant spatial linkage paths between gridded change fields."""

__version__ = "0.1.0"

from .errors import (
    ChainViolation,
    ConfigError,
    DimMismatch,
    DuplicatePoint,
    EmptySide,
    InsufficientData,
    MalformedHeader,
    MaskDimMismatch,
    NonFiniteValue,
    PathExplosion,
    SpatialLinkError,
    StationUnreachable,
    WindowOutOfBounds,
)
from .grid import (
    BAND_ANOMALOUS,
    BAND_HIGH,
    BAND_MODERATE,
    KIND_SOURCE,
    KIND_TARGET,
    LOSS_NEGATIVE,
    LOSS_POSITIVE,
    ChangeGrid,
    CellSet,
    GridRegistration,
    RegionWindow,
    ThresholdBands,
    classify_cells,
    compute_threshold_bands,
    crop_region,
    diff_grids,
    resample_nearest,
)
from .graph import (
    GraphEdge,
    GraphNode,
    SpatialGraph,
    build_graph,
    delaunay_triangulate,
    filter_edges_by_distance,
)
from .paths import (
    LinkagePath,
    bfs_paths,
    extract_all_paths,
    linkage_frequency,
    path_score,
)
from .significance import (
    PermutationNull,
    SeedPolicy,
    SignificanceResult,
    benjamini_hochberg,
    filter_significant,
    p_value,
)
from .aar import (
    AarComponent,
    GeoPoint,
    build_aar_graph,
    component_extent,
    connected_components,
    equirect_distance,
    run_aar,
    station_path_significance,
)
from .synthetic import (
    NoiseModel,
    PlantSpec,
    PlantedChain,
    chain_spec,
    generate,
    generate_null,
)

__all__ = [name for name in dir() if not name.startswith("_")]
