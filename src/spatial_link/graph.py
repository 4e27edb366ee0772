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

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from importlib import machinery, util

import numpy as np

from .errors import DuplicatePoint, EmptySide, MaskDimMismatch
from .grid import KIND_SOURCE, KIND_TARGET, CellSet


def _load_extension(name: str):
    """The compiled module ``name``, loaded from its file without its package's ``__init__``.

    It is registered in ``sys.modules`` under ``name``, so a later import
    of its package finds this module and does not load the file again.
    An ImportError means the file is not where it is looked for.
    """
    if name in sys.modules:
        return sys.modules[name]
    package = util.find_spec(name.rpartition(".")[0])
    spec = package and machinery.PathFinder.find_spec(name, package.submodule_search_locations)
    if spec is None:
        raise ImportError(f"no file for {name}")
    module = util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def load_qhull():
    """scipy's ``Delaunay`` and ``QhullError``, without importing ``scipy.spatial``.

    ``scipy.spatial``'s package init loads the kd-trees, ``scipy.sparse``,
    ``scipy.linalg`` and ``scipy.special``; qhull needs none of them, only
    the LAPACK table it links against. A scipy laid out otherwise falls
    back to the package import; both give the same classes.
    """
    try:
        _load_extension("scipy.linalg.cython_lapack")
        qhull = _load_extension("scipy.spatial._qhull")
    except ImportError:
        from scipy.spatial import Delaunay, QhullError
        return Delaunay, QhullError
    return qhull.Delaunay, qhull.QhullError


Delaunay, QhullError = load_qhull()

VARIANT_STANDARD = "standard"
VARIANT_CMAD = "cmad"
# The aar rule: a point qualifies when its value reaches the elevation threshold.
VARIANT_THRESHOLD = "threshold"

METRIC_EUCLIDEAN = "euclidean"
METRIC_CHEBYSHEV = "chebyshev"
METRICS = (METRIC_EUCLIDEAN, METRIC_CHEBYSHEV)
# Delaunay edges longer than this many grid cells are dropped.
DEFAULT_MAX_EDGE_CELLS = 11.0
# The kind of an aar node; ``SpatialGraph.kind`` indexes NODE_KINDS.
KIND_POINT = "point"
NODE_KINDS = (KIND_SOURCE, KIND_TARGET, KIND_POINT)
ANOMALOUS = {None: -1, False: 0, True: 1}  # GraphNode.anomalous -> SpatialGraph.anomalous


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


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions ``starts[i] .. starts[i] + lengths[i] - 1`` of every range, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


class Adjacency(Sequence):
    """CSR adjacency, read as a sequence of neighbour lists.

    Node i's neighbours, in ascending id order, are
    ``indices[indptr[i]:indptr[i + 1]]``; ``weight[s]`` is the weight of
    the edge in slot ``s``.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, weight: np.ndarray):
        self.indptr, self.indices, self.weight = indptr, indices, weight

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, i: int) -> list[int]:
        return self.indices[self.indptr[i] : self.indptr[i + 1]].tolist()

    def __eq__(self, other) -> bool:
        return list(self) == list(other)

    @cached_property
    def _keys(self) -> np.ndarray:
        """Each slot's key ``node * n + neighbour``, ascending, then ``n * n`` above them all."""
        n = len(self)
        return np.append(np.repeat(np.arange(n), np.diff(self.indptr)) * n + self.indices, n * n)

    def slots(self, a, b) -> np.ndarray:
        """The slot of each step ``a[k] -> b[k]``, or -1 where it is not an edge."""
        a, b, n = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64), len(self)
        inside = (a >= 0) & (a < n) & (b >= 0) & (b < n)
        # A step off the nodes looks for n * n, the key that ends the slots.
        want = np.where(inside, a * n + b, n * n)
        pos = np.searchsorted(self._keys, want)
        return np.where(inside & (self._keys[pos] == want), pos, -1)


class SpatialGraph:
    """Undirected weighted graph over qualified cells, held as arrays.

    Per node: ``row``, ``col``, ``kind`` (an index into ``NODE_KINDS``),
    ``value`` and ``anomalous`` (1, 0, or -1 when absent). Per edge, in the
    order given (sorted by (u, v) in a built graph): ``u``, ``v``,
    ``weight``, ``distance``. ``adjacency`` (CSR) holds each node's
    neighbours and each slot's edge weight; ``nodes`` and ``edges``
    are views built on first read. ``params`` echoes the construction
    settings needed to rebuild edge weights during null resampling.

    Node ids must be 0..n-1 in order, and each edge must join two distinct
    nodes, appear once in either direction, weigh +1 or -1 and have a
    distance of at least 0; ``ValueError`` names the first node or edge
    that does not.
    """

    def __init__(self, nodes=(), edges=(), params: dict | None = None):
        for k, node in enumerate(nodes):
            if node.id != k:
                raise ValueError(f"node {k} has id {node.id}; ids must be 0..n-1 in order")
        self._set_arrays(
            [n.row for n in nodes], [n.col for n in nodes],
            [NODE_KINDS.index(n.kind) for n in nodes], [n.value for n in nodes],
            [ANOMALOUS[n.anomalous] for n in nodes], [e.u for e in edges], [e.v for e in edges],
            [e.weight for e in edges], [e.distance for e in edges], params,
        )

    @classmethod
    def from_arrays(cls, row, col, kind, value, anomalous, u, v, weight, distance, params=None):
        """The graph of these node and edge columns, checked as the constructor checks."""
        graph = cls.__new__(cls)
        graph._set_arrays(row, col, kind, value, anomalous, u, v, weight, distance, params)
        return graph

    def _set_arrays(self, row, col, kind, value, anomalous, u, v, weight, distance, params):
        self.row, self.col = np.asarray(row, dtype=np.int64), np.asarray(col, dtype=np.int64)
        self.kind, self.anomalous = np.asarray(kind, np.int8), np.asarray(anomalous, np.int8)
        self.value = np.asarray(value, dtype=np.float64)
        self.params = dict(params or {})
        n, u, v = len(self.row), np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        weight, distance = np.asarray(weight), np.asarray(distance, dtype=np.float64)
        repeated = np.ones(len(u), dtype=bool)
        repeated[np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)[1]] = False
        # Each invariant is tested on every edge at once; the first edge
        # that breaks any is named with the first it breaks.
        problems = {
            f"names a node outside 0..{n - 1}": (u < 0) | (u >= n) | (v < 0) | (v >= n),
            "joins a node to itself": u == v,
            "repeats an edge listed before": repeated,
            "has weight {weight!r}; a weight is +1 or -1": ~np.isin(weight, (1, -1)),
            "has distance {distance!r}; a distance is at least 0": ~(distance >= 0),
        }
        bad = np.flatnonzero(np.logical_or.reduce(list(problems.values())))
        if bad.size:
            k = int(bad[0])
            problem = next(text for text, flag in problems.items() if flag[k])
            raise ValueError(f"edge ({u[k]}, {v[k]}) " + problem.format(
                weight=weight[k].item(), distance=distance[k].item()))
        self.u, self.v, self.weight = u, v, weight.astype(np.int8)
        self.distance = distance
        ends, others = np.concatenate([u, v]), np.concatenate([v, u])
        order = np.lexsort((others, ends))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])
        self.adjacency = Adjacency(indptr, others[order], np.tile(self.weight, 2)[order])

    @property
    def n_nodes(self) -> int:
        return len(self.row)

    @property
    def n_edges(self) -> int:
        return len(self.u)

    @cached_property
    def nodes(self) -> list[GraphNode]:
        columns = (self.row, self.col, self.kind, self.value, self.anomalous)
        return [
            GraphNode(k, r, c, NODE_KINDS[t], value, (None, False, True)[a + 1])
            for k, (r, c, t, value, a) in enumerate(zip(*(a.tolist() for a in columns)))
        ]

    @cached_property
    def edges(self) -> list[GraphEdge]:
        columns = (self.u, self.v, self.weight, self.distance)
        return list(map(GraphEdge, *(a.tolist() for a in columns)))

    def nodes_of_kind(self, kind: str) -> list[int]:
        return np.flatnonzero(self.kind == NODE_KINDS.index(kind)).tolist()


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
    ends = order[sides]
    lo, hi = np.divmod(np.unique(ends.min(axis=1) * n + ends.max(axis=1)), n)
    return list(zip(lo.tolist(), hi.tolist()))


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
    i, j = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    dists = _pairwise_distance(pts[i], pts[j], metric)
    keep = dists <= max_dist
    return list(zip(i[keep].tolist(), j[keep].tolist(), dists[keep].tolist()))


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
    if not len(source_cells.cells):
        raise EmptySide(
            "no source cells qualified at the requested band",
            hint="loosen the source band or widen the window",
        )
    if not len(target_cells.cells):
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

    rows, cols = np.concatenate([source_cells.cells, target_cells.cells]).T
    values = np.concatenate([source_cells.values, target_cells.values])
    target = np.arange(len(rows)) >= len(source_cells.cells)
    # Node ids follow (row, col) order; of the entries of one cell the last
    # is kept, a target entry coming after every source entry.
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    last = np.append((rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]), True)
    keep = order[last]
    rows, cols, target, values = rows[last], cols[last], target[keep], values[keep]

    anomalous = np.full(len(rows), -1, dtype=np.int8)
    if mask is not None:
        src = np.flatnonzero(~target)
        r, c = rows[src], cols[src]
        off = np.flatnonzero((r < 0) | (r >= mask.shape[0]) | (c < 0) | (c >= mask.shape[1]))
        if off.size:
            raise MaskDimMismatch(
                f"source cell ({r[off[0]]}, {c[off[0]]}) lies outside the anomaly mask "
                f"of shape {mask.shape}"
            )
        anomalous[src] = mask[r, c]

    u = v = dists = np.zeros(0, dtype=np.int64)
    if len(rows) >= 2:
        points = np.column_stack([rows, cols])
        raw = delaunay_triangulate(points)
        kept = filter_edges_by_distance(raw, points, max_edge_cells, metric)
        if kept:
            u, v, dists = map(np.asarray, zip(*kept))
    # One state per node: its sign, or (cmad) whether it qualifies, which
    # every target node and every anomalous source node does.
    state = target | (anomalous == 1) if variant == VARIANT_CMAD else np.sign(values)
    weights = np.where(edge_ok(variant, state[u], state[v]), 1, -1)

    graph_params = {
        "variant": variant,
        "max_edge_cells": float(max_edge_cells),
        "metric": metric,
        "band_source": source_cells.band,
        "band_target": target_cells.band,
    }
    if params:
        graph_params.update(params)
    return SpatialGraph.from_arrays(
        rows, cols, target.astype(np.int8), values, anomalous, u, v, weights, dists, graph_params
    )
