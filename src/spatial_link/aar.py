"""Transport benchmark mode over a single field of point observations.

Elevated observation points (selected by a precomputed binary mask) are
triangulated, long edges are pruned, and connected components are kept
only when their spatial extent exceeds a minimum span, mirroring the
length convention for atmospheric transport corridors. Path significance
from origin points to a monitoring station reuses the bounded path
enumeration and the permutation null, with the score counting edges
whose endpoint values both reach the elevation threshold.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, EmptySide, MalformedHeader, StationUnreachable
from .grid import ChangeGrid
from .graph import (
    KIND_POINT, NODE_KINDS, VARIANT_THRESHOLD, SpatialGraph, delaunay_triangulate, edge_ok,
)
from .paths import DEFAULT_CAP, DEFAULT_MAX_NODES, enumerate_walks
from .significance import DEFAULT_REPLICATES, PermutationNull, Results, SeedPolicy

KM_PER_DEGREE = 111.11
DEFAULT_MAX_EDGE_KM = 250.0
DEFAULT_MIN_EXTENT_KM = 2000.0
DEFAULT_SNAP_KM = 150.0
DEFAULT_AAR_ALPHA = 0.005
# Point pairs per block when reducing a component's distance matrix.
EXTENT_BLOCK_PAIRS = 1 << 18
# Margin of the extent upper bound over the rounding of one distance.
_BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class GeoPoint:
    """One observation point: geographic position, grid cell, and value."""

    lat: float
    lon: float
    cell: tuple[int, int] | None = None
    value: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon < 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180)")


@dataclass(frozen=True)
class AarComponent:
    """A maximal connected node set with its spatial span."""

    node_ids: tuple[int, ...]
    extent_km: float
    retained: bool

    @property
    def size(self) -> int:
        return len(self.node_ids)


def _equirect_km(lat_a, lon_a, lat_b, lon_b):
    """Equirectangular distance from a to b over broadcastable degree arrays."""
    dlat = lat_b - lat_a
    dlon = (lon_b - lon_a + 180.0) % 360.0 - 180.0
    mean_lat = np.deg2rad((lat_a + lat_b) / 2.0)
    return KM_PER_DEGREE * np.hypot(dlat, dlon * np.cos(mean_lat))


def _coords(points: list[GeoPoint]) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray([p.lat for p in points]), np.asarray([p.lon for p in points])


def equirect_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Equirectangular distance in km between (lat, lon) pairs: 111.11 km per degree of arc.

    The longitude difference is wrapped to [-180, 180) and scaled by the
    cosine of the mean latitude before combining with the latitude
    difference in quadrature.
    """
    return float(_equirect_km(*a, *b))


def elevated_points(values: ChangeGrid, mask: ChangeGrid) -> list[GeoPoint]:
    """Points at cells flagged by the binary mask, in row-major order.

    A cell contributes a point when the mask is valid and nonzero there
    and the value field is valid. Coordinates come from the value field's
    registration; a flagged cell outside [-90, 90] x [-180, 180) raises
    ``MalformedHeader``.
    """
    if values.shape != mask.shape:
        raise DimMismatch(
            f"mask shape {mask.shape} does not match value field shape {values.shape}"
        )
    flagged = mask.valid_mask & (mask.values != 0) & values.valid_mask
    rows, cols = np.argwhere(flagged).T
    lats, lons = values.registration.cell_center(rows, cols)
    off = ~((lats >= -90.0) & (lats <= 90.0) & (lons >= -180.0) & (lons < 180.0))
    if off.any():
        k = int(np.argmax(off))
        raise MalformedHeader(
            f"cell ({rows[k]}, {cols[k]}) lies at latitude {float(lats[k])!r}, "
            f"longitude {float(lons[k])!r}, outside [-90, 90] x [-180, 180)",
            hint="register the grid (lat0, lon0, dlat, dlon) so that cell latitudes lie in "
            "[-90, 90] and cell longitudes in [-180, 180)",
        )
    return [
        GeoPoint(lat=lat, lon=lon, cell=(r, c), value=v)
        for lat, lon, r, c, v in zip(
            lats.tolist(), lons.tolist(), rows.tolist(), cols.tolist(),
            values.values[flagged].tolist(),
        )
    ]


def build_aar_graph(
    points: list[GeoPoint], max_edge_km: float = DEFAULT_MAX_EDGE_KM, threshold: float | None = None
) -> SpatialGraph:
    """Triangulate observation points and prune geographically long edges.

    Triangulation runs on (lat, lon) treated as planar coordinates; the
    pruning cutoff uses the equirectangular distance, keeping edges at or
    below ``max_edge_km``. Nodes are untyped in this mode. An edge weighs
    +1 when both endpoint values reach the elevation ``threshold`` (default:
    the smallest point value, the loosest threshold consistent with the
    mask, so every edge is +1), else -1; ``params`` records the threshold.
    """
    if len(points) < 2:
        raise EmptySide(
            f"point graph needs at least 2 points, got {len(points)}",
            hint="check the elevation mask",
        )
    lats, lons = _coords(points)
    values = np.asarray([p.value for p in points], dtype=np.float64)
    if threshold is None:
        threshold = values.min().item()
    u, v = np.asarray(delaunay_triangulate(np.column_stack([lats, lons])), dtype=np.int64).T
    dists = _equirect_km(lats[u], lons[u], lats[v], lons[v])
    keep = dists <= max_edge_km
    u, v = u[keep], v[keep]
    elevated = values >= threshold
    cells = np.asarray([p.cell or (-1, -1) for p in points], dtype=np.int64)
    return SpatialGraph.from_arrays(
        cells[:, 0], cells[:, 1], np.full(len(points), NODE_KINDS.index(KIND_POINT)), values,
        np.full(len(points), -1), u, v,
        np.where(edge_ok(VARIANT_THRESHOLD, elevated[u], elevated[v]), 1, -1), dists[keep],
        {"variant": "aar", "max_edge_km": float(max_edge_km), "threshold": float(threshold)},
    )


def connected_components(
    graph: SpatialGraph, points: list[GeoPoint], min_extent_km: float = DEFAULT_MIN_EXTENT_KM
) -> list[AarComponent]:
    """Partition the graph into components and measure each one's span.

    Components are ordered by their smallest node id. A component is
    retained only when its extent strictly exceeds ``min_extent_km``.
    """
    n = graph.n_nodes
    columns = _coords(points)
    indptr, indices = graph.adjacency.indptr.tolist(), graph.adjacency.indices.tolist()
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for v in indices[indptr[u] : indptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        members.sort()
        extent = component_extent(members, columns)
        components.append(
            AarComponent(
                node_ids=tuple(members),
                extent_km=extent,
                retained=extent > min_extent_km,
            )
        )
    return components


def component_extent(node_ids, columns: tuple[np.ndarray, np.ndarray]) -> float:
    """Maximum pairwise equirectangular distance over component nodes.

    ``columns`` holds the latitudes and longitudes of all points, in id
    order, as ``_coords(points)`` builds them.

    Points that cannot end a maximal pair are pruned first, exactly:
    - A lower bound L is the larger row maximum of two farthest-point
      sweeps, from the first node to its farthest point a, then from a.
      Both rows are entries of the distance matrix, so L is at most the
      extent.
    - A point's upper bound is ``KM_PER_DEGREE * hypot(latitude span from
      the point, min(unwrapped longitude gap, 180) * cmax)``, where cmax
      is the largest cosine over the component's latitude range (1 when
      the range spans the equator). It holds for every partner because
      |dlat| is at most the latitude span, the wrapped |dlon| is at most
      min(unwrapped |dlon|, 180), and cos(mean latitude) is at most cmax.
    - The bound is raised by a relative margin for rounding; the wrap
      rounds at the scale of 360 degrees, so the longitude gap also gets
      an absolute margin of 360 degrees times the same factor.
    Both ends of a maximal pair have bounds at or above the extent, so
    they survive the prune, and the maximum over the survivors is the
    same float. Components of 1 or 2 points are not pruned.

    The surviving distance matrix is reduced a block of rows at a time,
    each block holding about ``EXTENT_BLOCK_PAIRS`` pairs, so memory stays
    linear in the component size.
    """
    ids = list(node_ids)
    if not ids:
        raise ValueError("component must be non-empty")
    lats, lons = (column[ids] for column in columns)
    if len(ids) > 2:
        keep = _extent_bound(lats, lons) >= _sweep_lower_bound(lats, lons)
        lats, lons = lats[keep], lons[keep]
    n = len(lats)
    step = max(1, EXTENT_BLOCK_PAIRS // n)
    extent = 0.0
    for start in range(0, n, step):
        rows = slice(start, start + step)
        block = _equirect_km(lats[None, :], lons[None, :], lats[rows, None], lons[rows, None])
        extent = max(extent, float(block.max()))
    return extent


def _sweep_lower_bound(lats: np.ndarray, lons: np.ndarray) -> float:
    """Larger row maximum of two farthest-point sweeps.

    The arguments go in the order the blocked reduction uses, so both rows
    are rows of its distance matrix.
    """
    first = _equirect_km(lats, lons, lats[0], lons[0])
    far = int(np.argmax(first))
    return max(float(first.max()), float(_equirect_km(lats, lons, lats[far], lons[far]).max()))


def _extent_bound(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Per point, an upper bound on its distance to any other point."""
    lat_lo, lat_hi = lats.min(), lats.max()
    lat_span = np.maximum(lats - lat_lo, lat_hi - lats)
    lon_gap = np.minimum(np.maximum(lons - lons.min(), lons.max() - lons), 180.0)
    cmax = 1.0 if lat_lo <= 0.0 <= lat_hi else np.cos(np.deg2rad([lat_lo, lat_hi])).max()
    lon_span = (lon_gap + 360.0 * _BOUND_MARGIN) * cmax
    return KM_PER_DEGREE * np.hypot(lat_span, lon_span) * (1.0 + _BOUND_MARGIN)


def snap_to_node(
    columns: tuple[np.ndarray, np.ndarray], lat: float, lon: float, snap_km: float = DEFAULT_SNAP_KM
) -> int:
    """Nearest point id within the snap radius; smallest id wins ties.

    ``columns`` holds the latitudes and longitudes of the points, in id
    order, as ``_coords(points)`` builds them once per run.
    """
    if not np.isfinite((lat, lon)).all():
        raise StationUnreachable(
            f"coordinate ({lat:g}, {lon:g}) is not finite",
            hint="give the latitude and longitude in finite degrees",
        )
    lats, lons = columns
    dists = _equirect_km(lats, lons, lat, lon)
    best = int(np.argmin(dists))
    if dists[best] > snap_km:
        raise StationUnreachable(
            f"no point within {snap_km:g} km of ({lat:g}, {lon:g}); "
            f"nearest is {dists[best]:.1f} km away",
            hint="widen the snap radius or check the coordinates",
        )
    return best


def station_path_significance(
    graph: SpatialGraph,
    values_grid: ChangeGrid,
    origin_ids,
    station_id: int,
    max_nodes: int = DEFAULT_MAX_NODES,
    n_replicates: int = DEFAULT_REPLICATES,
    alpha: float = DEFAULT_AAR_ALPHA,
    seed: int = 0,
    threads: int = 1,
    cap: int = DEFAULT_CAP,
) -> Results:
    """Significance of origin-to-station paths under the permutation null.

    Candidate paths run from each origin node to the station node, bounded
    at ``max_nodes`` nodes. A path's score is the fraction of its +1 edges:
    edges whose two endpoint values both reach the elevation threshold the
    graph was built with (``graph.params["threshold"]``). The null permutes
    the value field over all its valid cells; each node reads the cell its
    graph node records. Enumeration shares one budget of ``cap`` paths
    across the origins and raises ``PathExplosion`` as soon as it is
    passed, before any scoring.
    """
    if not origin_ids:
        raise ValueError("origins must be non-empty")
    origins = sorted(set(int(o) for o in origin_ids) - {station_id})
    paths = enumerate_walks(
        graph.adjacency, origins, {station_id}, max_nodes, cap,
        hint="lower --max-len or --max-edge-km, or raise --cap",
    )
    if not paths:
        return Results.empty()
    engine = PermutationNull.for_point_field(
        values_grid,
        cells=np.column_stack([graph.row, graph.col]),
        threshold=graph.params["threshold"],
        policy=SeedPolicy(base_seed=seed),
        n_replicates=n_replicates,
        threads=threads,
    )
    return engine.evaluate(paths, alpha=alpha)


@dataclass
class AarReport:
    """Everything the benchmark run produced, ready for serialization.

    The elevation threshold is the one the graph records, ``graph.params["threshold"]``.
    """

    points: list[GeoPoint]
    graph: SpatialGraph
    components: list[AarComponent]
    station_id: int | None
    results: Results = field(default_factory=Results.empty)
    dropped_origins: list = field(default_factory=list)


def run_aar(
    values_grid: ChangeGrid,
    mask_grid: ChangeGrid,
    origins: list[tuple[float, float]] | list[tuple[int, int]],
    station: tuple[float, float],
    max_edge_km: float = DEFAULT_MAX_EDGE_KM,
    min_extent_km: float = DEFAULT_MIN_EXTENT_KM,
    max_len: int = DEFAULT_MAX_NODES,
    m: int = DEFAULT_REPLICATES,
    alpha: float = DEFAULT_AAR_ALPHA,
    seed: int = 0,
    threads: int = 1,
    threshold: float | None = None,
    snap_km: float = DEFAULT_SNAP_KM,
    cap: int = DEFAULT_CAP,
) -> AarReport:
    """End-to-end benchmark: points, graph, components, station paths.

    Origins may be (lat, lon) pairs or (row, col) cells; each (lat, lon)
    origin and the station snap to the nearest point within the snap
    radius, against point columns built once. Origins that fail to snap or
    fall outside retained components are dropped (recorded in the report);
    path testing proceeds with the rest. A station that fails to snap
    raises ``StationUnreachable`` unless no origin is left. Only components
    whose extent exceeds ``min_extent_km`` take part in path analysis.
    Paths have at most ``max_len`` nodes and the null draws ``m``
    replicates; the settings carry the names of the ``aar`` flags.
    """
    points = elevated_points(values_grid, mask_grid)
    graph = build_aar_graph(points, max_edge_km=max_edge_km, threshold=threshold)
    components = connected_components(graph, points, min_extent_km=min_extent_km)
    columns = _coords(points)

    retained_nodes: set[int] = set()
    for comp in components:
        if comp.retained:
            retained_nodes.update(comp.node_ids)

    cell_to_id = {p.cell: i for i, p in enumerate(points)}
    origin_ids: list[int] = []
    dropped: list = []
    for entry in origins:
        a, b = entry
        if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
            node = cell_to_id.get((int(a), int(b)))
            if node is None:
                dropped.append([int(a), int(b)])
                continue
        else:
            try:
                node = snap_to_node(columns, float(a), float(b), snap_km)
            except StationUnreachable:
                dropped.append([float(a), float(b)])
                continue
        if node in retained_nodes:
            origin_ids.append(node)
        else:
            dropped.append(list(entry))

    report = AarReport(
        points=points,
        graph=graph,
        components=components,
        station_id=None,
        dropped_origins=dropped,
    )
    try:
        report.station_id = snap_to_node(columns, station[0], station[1], snap_km)
    except StationUnreachable:
        if origin_ids:
            raise
        # Nothing to test: no origin snapped or none lies in a retained
        # component, so an empty result set is a valid outcome.
        return report
    if origin_ids:
        report.results = station_path_significance(
            graph,
            values_grid,
            origin_ids,
            report.station_id,
            max_nodes=max_len,
            n_replicates=m,
            alpha=alpha,
            seed=seed,
            threads=threads,
            cap=cap,
        )
    return report
