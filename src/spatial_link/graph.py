"""Spatial graph construction over banded cells of two change fields.

Nodes are qualified cells (source field cells plus target field cells,
with target taking precedence when the same cell qualifies in both
fields). Edges come from a Delaunay triangulation of the node cell
centers in grid-index space, pruned to a maximum grid distance, and each
edge carries a +1/-1 coherence weight. Triangulation is made
order-independent by sorting points into canonical (row, col) order
before handing them to the triangulator.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .errors import DuplicatePoint, EmptySide, MaskDimMismatch
from .grid import KIND_SOURCE, KIND_TARGET, CellSet

VARIANT_STANDARD = "standard"
VARIANT_CMAD = "cmad"
# The aar rule: a point qualifies when its value reaches the elevation threshold.
VARIANT_THRESHOLD = "threshold"

METRIC_EUCLIDEAN = "euclidean"
METRIC_CHEBYSHEV = "chebyshev"
METRICS = (METRIC_EUCLIDEAN, METRIC_CHEBYSHEV)
# Delaunay edges longer than this many grid cells are dropped.
DEFAULT_MAX_EDGE_CELLS = 11.0


@dataclass(frozen=True)
class GraphNode:
    """One graph node: a qualified grid cell with its signed change value.

    ``anomalous`` is populated only for source nodes under the mask-based
    edge weighting variant; it is None otherwise.
    """

    id: int
    row: int
    col: int
    kind: str
    value: float
    anomalous: bool | None = None


@dataclass(frozen=True)
class GraphEdge:
    u: int
    v: int
    weight: int
    distance: float


@dataclass
class SpatialGraph:
    """Undirected weighted graph over qualified cells.

    ``adjacency[i]`` lists the neighbor ids of node i in ascending order,
    which fixes the expansion order of every traversal. ``params`` echoes
    the construction settings needed to rebuild edge weights during null
    resampling (variant, band intervals, orientations, distance cutoff).

    Node ids must be 0..n-1 in order, and each edge must join two distinct
    nodes, appear once in either direction and weigh +1 or -1;
    ``ValueError`` otherwise.
    """

    nodes: list[GraphNode]
    edges: list[GraphEdge]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.nodes)
        for k, node in enumerate(self.nodes):
            if node.id != k:
                raise ValueError(f"node {k} has id {node.id}; ids must be 0..n-1 in order")
        adjacency: list[list[int]] = [[] for _ in range(n)]
        weights: dict[tuple[int, int], int] = {}
        for e in self.edges:
            u, v = e.u, e.v
            if not (0 <= u < n and 0 <= v < n):
                problem = f"names a node outside 0..{n - 1}"
            elif u == v:
                problem = "joins a node to itself"
            elif (u, v) in weights:
                problem = "repeats an edge listed before"
            elif e.weight not in (1, -1):
                problem = f"has weight {e.weight!r}; a weight is +1 or -1"
            else:
                adjacency[u].append(v)
                adjacency[v].append(u)
                weights[(u, v)] = weights[(v, u)] = e.weight
                continue
            raise ValueError(f"edge ({u}, {v}) {problem}")
        for nbrs in adjacency:
            nbrs.sort()
        self.adjacency = adjacency
        self._weights = weights

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of the edge (u, v); ``KeyError`` when there is no such edge."""
        return self._weights[(u, v)]

    def nodes_of_kind(self, kind: str) -> list[int]:
        return [n.id for n in self.nodes if n.kind == kind]


def _pairwise_distance(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    d = np.abs(a - b)
    if metric == METRIC_EUCLIDEAN:
        return np.sqrt((d * d).sum(axis=-1))
    if metric == METRIC_CHEBYSHEV:
        return d.max(axis=-1)
    raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")


def _collinear(points: np.ndarray) -> bool:
    # Exact cross-product test; grid coordinates are integer-valued so no
    # tolerance is needed.
    if len(points) < 3:
        return True
    base = points[0]
    d0 = points[1] - base
    rest = points[2:] - base
    cross = d0[0] * rest[:, 1] - d0[1] * rest[:, 0]
    return bool(np.all(cross == 0.0))


def delaunay_triangulate(points: Sequence[tuple[float, float]]) -> list[tuple[int, int]]:
    """Delaunay edges of a point set, as index pairs into the input order.

    Points are canonically sorted by (row, col) before triangulation so
    the result does not depend on input ordering. Degenerate sets (two
    points, or any number of collinear points) fall back to the chain of
    consecutive points along the line, which is the limit triangulation.
    Coincident points are rejected.

    Returns edges as (i, j) with i < j, sorted ascending.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got shape {pts.shape}")
    n = len(pts)
    if n < 2:
        raise ValueError(f"triangulation needs at least 2 points, got {n}")

    order = np.lexsort((pts[:, 1], pts[:, 0]))
    sorted_pts = pts[order]
    same = np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)
    if same.any():
        k = int(np.nonzero(same)[0][0])
        r, c = sorted_pts[k]
        raise DuplicatePoint(
            f"coincident points at ({r:g}, {c:g})",
            hint="deduplicate qualified cells before building the graph",
        )

    if _collinear(sorted_pts):
        # Lexicographic order is monotone along any line, so consecutive
        # sorted points are nearest neighbors on the line.
        sides = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    else:
        try:
            tri = Delaunay(sorted_pts)
        except QhullError as exc:  # pragma: no cover - guarded by _collinear
            raise ValueError(f"triangulation failed: {exc}") from exc
        sides = tri.simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    edges = np.unique(np.sort(order[sides], axis=1), axis=0)
    return [(a, b) for a, b in edges.tolist()]


def filter_edges_by_distance(
    edges: Sequence[tuple[int, int]],
    points: Sequence[tuple[float, float]],
    max_dist: float,
    metric: str = METRIC_EUCLIDEAN,
) -> list[tuple[int, int, float]]:
    """Drop edges longer than max_dist; keep (i, j, distance) for the rest.

    The comparison is inclusive: an edge at exactly max_dist survives.
    """
    if max_dist <= 0:
        raise ValueError("max_dist must be positive")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    dists = _pairwise_distance(pts[ends[:, 0]], pts[ends[:, 1]], metric).tolist()
    return [(i, j, d) for (i, j), d in zip(edges, dists) if d <= max_dist]


def edge_ok(variant: str, state_u, state_v):
    """The one edge rule: does an edge between nodes of these states score +1?

    ``standard`` states are value signs, and an edge is ok when they are
    equal. ``cmad`` and ``threshold`` states say whether a node qualifies,
    and an edge is ok when both ends do. Works elementwise on arrays.
    """
    if variant == VARIANT_STANDARD:
        return state_u == state_v
    if variant in (VARIANT_CMAD, VARIANT_THRESHOLD):
        return state_u & state_v
    raise ValueError(f"unknown variant {variant!r}")


def build_graph(
    source_cells: CellSet,
    target_cells: CellSet,
    max_edge_cells: float = DEFAULT_MAX_EDGE_CELLS,
    metric: str = METRIC_EUCLIDEAN,
    variant: str = VARIANT_STANDARD,
    anomaly_mask: np.ndarray | None = None,
    grid_shape: tuple[int, int] | None = None,
    params: dict | None = None,
) -> SpatialGraph:
    """Assemble the linkage graph from qualified source and target cells.

    A cell qualifying in both fields becomes a single target node (target
    precedence). Node ids follow canonical (row, col) order. Delaunay
    edges longer than ``max_edge_cells`` grid units are removed. Under the
    ``cmad`` variant an anomaly mask (shape ``grid_shape``) replaces value
    sign agreement in the edge weight rule for source endpoints.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if variant not in (VARIANT_STANDARD, VARIANT_CMAD):
        raise ValueError(f"unknown variant {variant!r}")
    if not source_cells.cells:
        raise EmptySide(
            "no source cells qualified at the requested band",
            hint="loosen the source band or widen the window",
        )
    if not target_cells.cells:
        raise EmptySide(
            "no target cells qualified at the requested band",
            hint="loosen the target band or widen the window",
        )

    mask = None
    if variant == VARIANT_CMAD:
        if anomaly_mask is None:
            raise ValueError("cmad variant requires an anomaly mask")
        mask = np.asarray(anomaly_mask, dtype=bool)
        if grid_shape is not None and mask.shape != tuple(grid_shape):
            raise MaskDimMismatch(
                f"anomaly mask shape {mask.shape} does not match grid shape {tuple(grid_shape)}",
                hint="crop the mask with the same window as the grids",
            )

    by_cell: dict[tuple[int, int], tuple[str, float]] = {}
    for r, c, v in source_cells.cells:
        by_cell[(r, c)] = (KIND_SOURCE, v)
    for r, c, v in target_cells.cells:
        # Target precedence on dual-qualified cells.
        by_cell[(r, c)] = (KIND_TARGET, v)

    ordered = sorted(by_cell.items())
    nodes = []
    for node_id, ((r, c), (kind, value)) in enumerate(ordered):
        anomalous = None
        if mask is not None and kind == KIND_SOURCE:
            if not (0 <= r < mask.shape[0] and 0 <= c < mask.shape[1]):
                raise MaskDimMismatch(
                    f"source cell ({r}, {c}) lies outside the anomaly mask of shape {mask.shape}"
                )
            anomalous = bool(mask[r, c])
        nodes.append(
            GraphNode(id=node_id, row=r, col=c, kind=kind, value=value, anomalous=anomalous)
        )

    points = [(n.row, n.col) for n in nodes]
    edges: list[GraphEdge] = []
    if len(points) >= 2:
        raw = delaunay_triangulate(points)
        kept = filter_edges_by_distance(raw, points, max_edge_cells, metric)
        # One state per node: its sign, or (cmad) whether it qualifies,
        # which every target node and every anomalous source node does.
        if variant == VARIANT_CMAD:
            state = np.asarray([n.kind == KIND_TARGET or n.anomalous for n in nodes])
        else:
            state = np.sign([n.value for n in nodes])
        u, v = np.asarray([(i, j) for i, j, _ in kept], dtype=np.int64).reshape(-1, 2).T
        weights = np.where(edge_ok(variant, state[u], state[v]), 1, -1).tolist()
        edges = [
            GraphEdge(u=i, v=j, weight=w, distance=d)
            for (i, j, d), w in zip(kept, weights)
        ]

    graph_params = {
        "variant": variant,
        "max_edge_cells": float(max_edge_cells),
        "metric": metric,
        "band_source": source_cells.band,
        "band_target": target_cells.band,
    }
    if params:
        graph_params.update(params)
    return SpatialGraph(nodes=nodes, edges=edges, params=graph_params)
