"""Independent brute-force reference implementations used only by tests.

Nothing here shares code with the package: triangulation is re-derived
from the empty-circumcircle definition, path enumeration from a recursive
depth-first search, each rule's cell states from the raw grids cell by
cell, the null's draws from a word-by-word loop over the raw PCG64 stream
with integer arithmetic, rescored path position by path position, and the
score-1.0 null law in closed form, so agreement between the two routes is
evidence rather than tautology.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np


def circumcircle(a, b, c):
    """Center and squared radius of the circle through three points.

    Returns None for (near-)collinear triples, which bound no circle.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-12:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return (ux, uy), r2


def brute_delaunay_edges(points) -> set[tuple[int, int]]:
    """Delaunay edges from first principles: empty-circumcircle triples.

    A triple is a Delaunay triangle when no other point lies strictly
    inside its circumcircle; the edge set is the union over all such
    triangles. All-collinear inputs (no triangle exists) fall back to the
    chain of consecutive points along the line. Assumes general position
    otherwise (random float coordinates).
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n == 2:
        return {(0, 1)}
    # Same math as circumcircle(), batched over every triple at once so
    # large point sets stay tractable.
    idx = np.asarray(list(combinations(range(n), 3)))
    ax, ay = pts[idx[:, 0], 0], pts[idx[:, 0], 1]
    bx, by = pts[idx[:, 1], 0], pts[idx[:, 1], 1]
    cx, cy = pts[idx[:, 2], 0], pts[idx[:, 2], 1]
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    bounded = np.abs(d) >= 1e-12
    d_safe = np.where(bounded, d, 1.0)
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d_safe
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d_safe
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    d2 = (pts[None, :, 0] - ux[:, None]) ** 2 + (pts[None, :, 1] - uy[:, None]) ** 2
    rows = np.arange(len(idx))[:, None]
    d2[rows, idx] = np.inf
    empty = bounded & (d2 > (r2 - 1e-9 * (1.0 + r2))[:, None]).all(axis=1)

    if not empty.any():
        # Collinear set: sort along the line and chain the neighbors.
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        return {
            (min(int(a), int(b)), max(int(a), int(b)))
            for a, b in zip(order[:-1], order[1:])
        }
    edges: set[tuple[int, int]] = set()
    for i, j, k in idx[empty]:
        edges.add((min(i, j), max(i, j)))
        edges.add((min(j, k), max(j, k)))
        edges.add((min(i, k), max(i, k)))
    return edges


def brute_force_paths(
    adjacency: list[list[int]],
    sources: list[int],
    targets: set[int],
    max_nodes: int,
) -> set[tuple[int, ...]]:
    """Recursive DFS over simple source-to-target paths.

    Targets terminate a path and never appear in an interior; paths carry
    at most max_nodes nodes.
    """
    out: set[tuple[int, ...]] = set()

    def walk(path: list[int], seen: set[int]) -> None:
        here = path[-1]
        for nbr in adjacency[here]:
            if nbr in seen:
                continue
            if nbr in targets:
                out.add(tuple(path) + (nbr,))
            elif len(path) + 1 < max_nodes:
                path.append(nbr)
                seen.add(nbr)
                walk(path, seen)
                seen.discard(nbr)
                path.pop()
    for s in sources:
        if s in targets:
            continue
        walk([s], {s})
    return out


def coherence_weight(u, v) -> int:
    """Standard edge weight of two graph nodes: +1 when their value signs agree."""
    return 1 if np.sign(u.value) == np.sign(v.value) else -1


def cmad_weight(u, v) -> int:
    """cmad edge weight: -1 when either endpoint is a source node off the anomaly mask.

    Target endpoints qualify at the configured band by construction of the
    node set, so only source endpoints can break an edge.
    """
    for node in (u, v):
        if node.kind == "source" and not node.anomalous:
            return -1
    return 1


def edge_weights(graph) -> dict[tuple[int, int], int]:
    """Each edge's weight keyed by (u, v) and by (v, u), read from the edge columns."""
    ends = list(zip(graph.u.tolist(), graph.v.tolist()))
    weights = graph.weight.tolist()
    return {**dict(zip(ends, weights)), **dict(zip([(v, u) for u, v in ends], weights))}


def quantile_linear(sorted_values, p: float) -> float:
    """Linear-interpolation quantile at h = (n - 1) p, written longhand."""
    vals = sorted(float(v) for v in sorted_values)
    h = (len(vals) - 1) * p
    lo = int(np.floor(h))
    hi = int(np.ceil(h))
    if lo == hi:
        return vals[lo]
    return vals[lo] + (h - lo) * (vals[hi] - vals[lo])


def raw_words(bit_generator):
    """The 32-bit words of a bit generator's raw stream: each 64-bit output, low half first."""
    while True:
        value = int(bit_generator.random_raw())
        yield value % 2**32
        yield value // 2**32


def reference_subsets(bit_generator, sizes, counts) -> list[list[int]]:
    """Distinct positions per pool, drawn one word at a time (Lemire 2019).

    For a pool of n cells, word w gives m = w * n; the word is rejected
    when m mod 2**32 falls below (2**32 - n) mod n, and otherwise draws
    position m // 2**32. A pool skips rejected words and positions it
    holds already until it holds its count; the next pool reads on from
    the word after.
    """
    words = raw_words(bit_generator)
    out = []
    for n, count in zip(sizes, counts):
        drawn, held = [], set()
        while len(drawn) < count:
            m = next(words) * n
            if m % 2**32 >= (2**32 - n) % n and m // 2**32 not in held:
                drawn.append(m // 2**32)
                held.add(m // 2**32)
        out.append(drawn)
    return out


def permute_fields(source, target, seed, reads=None):
    """One null replicate: permute each field's values among its valid cells.

    ``seed`` may be an int, a SeedSequence, a Generator or a bit
    generator; the draws read its raw stream. ``reads`` holds, per field,
    the cells the replicate reads, in the order their draws are made (all
    valid cells in row-major order by default). The source field is drawn
    first, then the target field, with ``reference_subsets``: the i-th
    read cell takes the value of the i-th drawn valid cell, and the other
    valid cells take the undrawn values in row-major order. Invalid cells
    are untouched. Returns the two permuted value arrays.
    """
    bits = np.random.default_rng(seed).bit_generator
    grids = (source, target)
    if reads is None:
        reads = [[tuple(c) for c in np.argwhere(g.valid_mask).tolist()] for g in grids]
    drawn = reference_subsets(
        bits, [int(g.valid_mask.sum()) for g in grids], [len(cells) for cells in reads]
    )
    out = []
    for grid, cells, order in zip(grids, reads, drawn):
        pool = grid.values[grid.valid_mask]
        slot = np.full(grid.values.shape, -1)
        slot[grid.valid_mask] = np.arange(len(pool))
        read = [int(slot[c]) for c in cells]
        source_of = dict(zip(read, order))
        rest = iter(sorted(set(range(len(pool))) - set(order)))
        vals = grid.values.copy()
        vals[grid.valid_mask] = pool[
            [source_of[k] if k in source_of else next(rest) for k in range(len(pool))]
        ]
        out.append(vals)
    return out[0], out[1]


def reference_states(variant, grids, mask=None, interval=None, orientation=None, threshold=None):
    """Per-cell rule state of each permuted pool, read cell by cell from the raw grids.

    One pool per grid (source first), over its valid cells in row-major
    order. ``standard``: the sign of the value. ``cmad``: the anomaly bit
    of a source cell; for a target cell, whether its value has the target
    orientation and a magnitude in ``[lo, hi)``. ``threshold``: whether
    the value reaches the threshold.
    """
    pools = []
    for k, grid in enumerate(grids):
        states = []
        for r in range(grid.values.shape[0]):
            for c in range(grid.values.shape[1]):
                if not grid.valid_mask[r, c]:
                    continue
                v = float(grid.values[r, c])
                if variant == "standard":
                    states.append((v > 0) - (v < 0))
                elif variant == "threshold":
                    states.append(v >= threshold)
                elif k == 0:
                    states.append(bool(mask[r, c]))
                else:
                    oriented = v < 0 if orientation == "loss-negative" else v > 0
                    states.append(oriented and interval[0] <= abs(v) < interval[1])
        pools.append(np.array(states))
    return pools


def position_null_scores(engine, paths) -> np.ndarray:
    """Null scores of every path, rescored path position by path position.

    Reads only the inputs of a permutation-null engine (its per-cell state
    pools, each node's pool, rule and seed policy), never its scoring
    code. Each replicate draws, per pool in order, one distinct cell for
    each distinct node of the paths in that pool, in ascending node id
    order, with ``reference_subsets`` from the replicate's bit generator;
    gathers the drawn state at every (path, position) pair; and applies
    the rule edge by edge: equal states (signs) for ``standard``, both
    states true for ``cmad`` and ``threshold``. Returns an
    (n_replicates, n_paths) array of fractions k / n_edges.
    """
    nodes = sorted({i for p in paths for i in p.nodes})
    by_pool = [[i for i in nodes if engine.node_pool[i] == k] for k in range(len(engine.pools))]
    sizes = [len(pool) for pool in engine.pools]
    width = max(len(p.nodes) for p in paths)
    ids = np.zeros((len(paths), width), dtype=np.int64)
    edge_valid = np.zeros((len(paths), width - 1), dtype=bool)
    n_edges = np.zeros(len(paths), dtype=np.int64)
    for k, path in enumerate(paths):
        ids[k, : len(path.nodes)] = path.nodes
        edge_valid[k, : len(path.nodes) - 1] = True
        n_edges[k] = len(path.nodes) - 1

    out = np.zeros((engine.n_replicates, len(paths)))
    for r in range(engine.n_replicates):
        drawn = reference_subsets(
            engine.policy.generator(r).bit_generator, sizes, [len(pool) for pool in by_pool]
        )
        node_state = np.zeros(len(engine.node_pool), dtype=engine.pools[0].dtype)
        for pool, pool_ids, cells in zip(engine.pools, by_pool, drawn):
            node_state[pool_ids] = pool[cells]
        states = node_state[ids]
        if engine.variant == "standard":
            ok = (states[:, 1:] == states[:, :-1]) & edge_valid
        else:
            ok = states[:, 1:] & states[:, :-1] & edge_valid
        out[r] = ok.sum(axis=1) / n_edges
    return out


def falling(n: int, k: int) -> int:
    """Falling factorial n (n - 1) ... (n - k + 1)."""
    out = 1
    for j in range(k):
        out *= n - j
    return out


def exact_full_score_p(variant, pools, k: int) -> float:
    """Exact chance that one replicate scores a k-node path 1.0 (every edge ok).

    ``pools`` are per-cell state pools as ``reference_states`` gives them.
    A graph path (``standard``, ``cmad``) stops at its first target, so it
    is k - 1 source cells drawn without replacement plus one target cell:
    - standard: sum over signs s of falling(S_s, k-1) / falling(N_S, k-1)
      * T_s / N_T, all k states equal;
    - cmad: falling(bits, k-1) / falling(N_S, k-1) * in_band / N_T.
    An aar path (``threshold``) is k cells drawn from one pool, E of N
    elevated: falling(E, k) / falling(N, k).
    """
    if variant == "threshold":
        (pool,) = pools
        return falling(int(pool.sum()), k) / falling(len(pool), k)
    src, tgt = pools
    if variant == "cmad":
        return (falling(int(src.sum()), k - 1) / falling(len(src), k - 1)
                * int(tgt.sum()) / len(tgt))
    return sum(
        falling(int((src == s).sum()), k - 1) / falling(len(src), k - 1)
        * int((tgt == s).sum()) / len(tgt)
        for s in np.unique(src)
    )


def blocked_extent(node_ids, points, block_pairs: int = 1 << 18) -> float:
    """Largest equirectangular distance over every ordered pair of the nodes.

    The full distance matrix, without pruning, reduced ``block_pairs``
    pairs at a time; the arithmetic is the package's, element for element,
    so the maximum is comparable with ``==``.
    """
    lats = np.asarray([points[i].lat for i in node_ids])
    lons = np.asarray([points[i].lon for i in node_ids])
    if not len(lats):
        raise ValueError("component must be non-empty")
    step = max(1, block_pairs // len(lats))
    extent = 0.0
    for start in range(0, len(lats), step):
        lat_b, lon_b = lats[start:start + step, None], lons[start:start + step, None]
        dlat = lat_b - lats[None, :]
        dlon = (lon_b - lons[None, :] + 180.0) % 360.0 - 180.0
        mean_lat = np.deg2rad((lats[None, :] + lat_b) / 2.0)
        block = 111.11 * np.hypot(dlat, dlon * np.cos(mean_lat))
        extent = max(extent, float(block.max()))
    return extent


# -- reference JSON documents ----------------------------------------------
#
# The dicts the artifact writers in ``spatial_link.io`` render as text. Each
# artifact must equal ``json.dumps(<document>, indent=2) + "\n"`` byte for
# byte. The builders read only the attributes of their inputs (and the
# registration's own ``cell_center``), never the writers' templates.


def graph_document(graph, metadata: dict) -> dict:
    """graph.json: metadata, params, nodes (``anomalous`` only when set), edges."""
    nodes = []
    for n in graph.nodes:
        node = {"id": n.id, "row": n.row, "col": n.col, "kind": n.kind, "value": n.value}
        if n.anomalous is not None:
            node["anomalous"] = n.anomalous
        nodes.append(node)
    edges = [
        {"u": e.u, "v": e.v, "weight": e.weight, "distance": e.distance} for e in graph.edges
    ]
    return {"metadata": metadata, "params": graph.params, "nodes": nodes, "edges": edges}


def paths_document(paths, graph, metadata: dict) -> dict:
    """paths.json: each path's node ids, their [row, col] cells, edge weights and score."""
    out = []
    for p in paths:
        out.append(
            {
                "nodes": list(p.nodes),
                "cells": [[graph.nodes[i].row, graph.nodes[i].col] for i in p.nodes],
                "edge_weights": list(p.edge_weights),
                "score": p.score,
            }
        )
    return {"metadata": metadata, "paths": out}


def result_rows(results) -> list[dict]:
    """The rows of results.json, shared by the aar report."""
    return [
        {
            "path_index": k,
            "nodes": list(r.path.nodes),
            "observed": r.observed,
            "p_value": r.p_value,
            "significant": r.significant,
            "alpha": r.alpha,
        }
        for k, r in enumerate(results)
    ]


def results_document(results, metadata: dict) -> dict:
    return {"metadata": metadata, "results": result_rows(results)}


def aar_report_document(report, metadata: dict) -> dict:
    """The aar report: station, components with their extents, and path results."""
    station = None
    if report.station_id is not None:
        p = report.points[report.station_id]
        station = {
            "id": report.station_id,
            "lat": p.lat,
            "lon": p.lon,
            "cell": list(p.cell) if p.cell else None,
        }
    return {
        "metadata": metadata,
        "n_points": len(report.points),
        "threshold": report.graph.params["threshold"],
        "station": station,
        "components": [
            {
                "size": comp.size,
                "extent_km": comp.extent_km,
                "retained": comp.retained,
                "node_ids": list(comp.node_ids),
            }
            for comp in report.components
        ],
        "dropped_origins": report.dropped_origins,
        "results": result_rows(report.results),
    }


def geojson_document(significant, graph, registration, metadata: dict) -> dict:
    """significant.geojson: one LineString of (lon, lat) cell centers per path."""
    features = []
    for r in significant:
        coords = []
        for node_id in r.path.nodes:
            n = graph.nodes[node_id]
            lat, lon = registration.cell_center(n.row, n.col)
            coords.append([lon, lat])
        first = graph.nodes[r.path.nodes[0]]
        last = graph.nodes[r.path.nodes[-1]]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords},
                "properties": {
                    "score": r.observed,
                    "p_value": r.p_value,
                    "source_cell": [first.row, first.col],
                    "target_cell": [last.row, last.col],
                },
            }
        )
    return {"type": "FeatureCollection", "metadata": metadata, "features": features}
