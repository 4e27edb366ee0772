"""Checks of the program's artifacts against computations made apart from it.

Nothing here imports ``spatial_link``. Thresholds, qualified cells, edges,
paths, frequencies and coordinates are recomputed from the generated
inputs with numpy and scipy; p-values are tested for the add-one form and
against the exact permutation law.

Exact law: a path whose observed score is 1.0 is matched in a replicate
only when every one of its nodes meets the rule (one sign class under the
standard rule, mask bit or target band under cmad, the elevation
threshold under aar). The nodes of one pool take distinct cells, so their
permuted values are a draw without replacement and the chance is a ratio
of falling factorials of the pool's class counts. Replicates use
independent streams, so the exceedance count k is Binomial(M, p_exact).
Each path is tested on its own, and node-disjoint paths are pooled.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy import stats
from scipy.spatial import Delaunay, QhullError

# Per-path two-sided rejection mass. Comparing two versions of the program
# takes some seventy runs and tests about 1e6 paths, so 2e-9 per path keeps
# the chance of any false alarm below 1e-2.
TAIL = 1e-9
# Pooled test over node-disjoint paths: reject beyond this many standard
# deviations, and only when the pooled expected count makes the normal
# approximation sound.
POOLED_Z = 6.0
POOLED_MIN_MEAN = 50.0
KM_PER_DEGREE = 111.11
BANDS = ("moderate", "high", "anomalous")


class CheckFailed(AssertionError):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_grid(path: str) -> tuple[np.ndarray, dict]:
    with open(path + ".json") as fh:
        meta = json.load(fh)
    values = np.fromfile(path, dtype="<f4").astype(np.float64)
    return values.reshape(meta["rows"], meta["cols"]), meta


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- thresholds and qualification -----------------------------------------


def quantile(sorted_vals: np.ndarray, p: float) -> float:
    """Linear interpolation between order statistics at h = (n - 1) p."""
    h = (len(sorted_vals) - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    return float(sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo]))


def thresholds(values: np.ndarray, ub_multiplier: float = 1.5) -> dict:
    """Median, Q3 and upper Tukey fence of the loss-negative magnitudes."""
    mags = np.sort(np.abs(values[values < 0]))
    q1, med, q3 = (quantile(mags, p) for p in (0.25, 0.5, 0.75))
    return {"median": med, "q3": q3, "ub": q3 + ub_multiplier * (q3 - q1)}


def band_interval(th: dict, band: str) -> tuple[float, float]:
    return {
        "moderate": (th["median"], th["q3"]),
        "high": (th["q3"], th["ub"]),
        "anomalous": (th["ub"], math.inf),
    }[band]


def qualified(values: np.ndarray, interval) -> np.ndarray:
    lo, hi = interval
    mags = np.abs(values)
    return (values < 0) & (mags >= lo) & (mags < hi)


# -- triangulation and paths ------------------------------------------------


def delaunay_edges(points: np.ndarray) -> list[tuple[int, int]]:
    """Delaunay edges of points already in canonical order, as (i, j), i < j."""
    n = len(points)
    if n < 2:
        return []
    d = points[1:] - points[0]
    if n == 2 or np.all(d[0, 0] * d[1:, 1] - d[0, 1] * d[1:, 0] == 0):
        return [(i, i + 1) for i in range(n - 1)]  # collinear: chain
    try:
        tri = Delaunay(points)
    except QhullError as exc:
        raise CheckFailed(f"independent triangulation failed: {exc}") from exc
    edges = set()
    for a, b, c in tri.simplices:
        for u, v in ((a, b), (b, c), (a, c)):
            edges.add((int(min(u, v)), int(max(u, v))))
    return sorted(edges)


def bounded_paths(adjacency, starts, terminals, max_nodes: int) -> list[tuple[int, ...]]:
    """Depth-first enumeration of simple paths ending at the first terminal."""
    out = []
    for s in starts:
        stack = [(s, (s,))]
        while stack:
            here, path = stack.pop()
            for nbr in adjacency.get(here, ()):
                if nbr in path:
                    continue
                if nbr in terminals:
                    out.append(path + (nbr,))
                elif len(path) + 1 < max_nodes:
                    stack.append((nbr, path + (nbr,)))
    out.sort()
    return out


def adjacency_of(edges) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


# -- p-values and the exact law -------------------------------------------


def falling_ratio(n_good: int, n_pool: int, draws: int) -> float:
    """P(all of `draws` cells drawn without replacement are good)."""
    p = 1.0
    for i in range(draws):
        p *= max(n_good - i, 0) / (n_pool - i)
    return p


def exceedances(results, m: int, alpha: float, label: str) -> np.ndarray:
    """k per result from p = (1 + k) / (1 + M); checks form and decision."""
    ks = np.empty(len(results), dtype=np.int64)
    for idx, r in enumerate(results):
        p = r["p_value"]
        k = round(p * (m + 1)) - 1
        expect(0 <= k <= m, f"{label}: result {idx}: p-value {p} is outside [1/(1+M), 1]")
        expect(p == (1 + k) / (1 + m), f"{label}: result {idx}: p-value {p} is not (1+k)/(1+M)")
        expect(r["significant"] == (p < alpha), f"{label}: result {idx}: significant flag disagrees with p < alpha")
        ks[idx] = k
    return ks


def exact_law_test(ks, p_exact, m: int, node_sets, label: str) -> dict:
    """Test each k against Binomial(M, p_exact); pool node-disjoint paths."""
    ks = np.asarray(ks, dtype=np.int64)
    p = np.asarray(p_exact, dtype=np.float64)
    if len(ks) == 0:
        return {"tested": 0}
    low = stats.binom.cdf(ks, m, p)
    high = stats.binom.sf(ks - 1, m, p)
    bad = np.nonzero((low < TAIL) | (high < TAIL))[0]
    expect(
        len(bad) == 0,
        f"{label}: {len(bad)} of {len(ks)} paths outside the exact-law acceptance region "
        f"(first: k={ks[bad[0]] if len(bad) else 0}, M*p={m * p[bad[0]] if len(bad) else 0:.3f})",
    )
    mean = m * p
    sd = np.sqrt(np.maximum(mean * (1 - p), 1e-300))
    z = (ks - mean) / sd

    used: set[int] = set()
    chosen = []
    for idx, nodes in enumerate(node_sets):
        if used.isdisjoint(nodes):
            used.update(nodes)
            chosen.append(idx)
    pooled_mean = float(mean[chosen].sum())
    pooled_z = None
    if pooled_mean >= POOLED_MIN_MEAN:
        pooled_var = float((mean * (1 - p))[chosen].sum())
        pooled_z = (float(ks[chosen].sum()) - pooled_mean) / math.sqrt(pooled_var)
        expect(abs(pooled_z) <= POOLED_Z, f"{label}: pooled exact-law z = {pooled_z:.2f} over {len(chosen)} disjoint paths")
    return {
        "tested": int(len(ks)),
        "z_mean": float(z.mean()),
        "z_sd": float(z.std()),
        "disjoint": len(chosen),
        "pooled_z": pooled_z,
        "k_positive": int(np.count_nonzero(ks)),
    }


# -- pipeline artifacts ---------------------------------------------------


def check_pair(pair_dir: str, bs: str, bt: str, cfg: dict, grids: dict, reg: dict) -> dict:
    label = f"{bs}/{bt}"
    src, tgt, mask = grids["source"], grids["target"], grids.get("mask")
    cmad = cfg["variant"] == "cmad"
    graph = read_json(os.path.join(pair_dir, "graph.json"))
    expect("note" not in graph, f"{label}: pairing skipped ({graph.get('note')})")
    params = graph["params"]

    # Thresholds and qualified cells.
    th = {}
    for side, values in (("source", src), ("target", tgt)):
        th[side] = thresholds(values, cfg.get("ub_multiplier", 1.5))
        got = params[f"thresholds_{side}"]
        for key in ("median", "q3", "ub"):
            expect(close(got[key], th[side][key]), f"{label}: {side} {key} {got[key]} != {th[side][key]}")
        th[side] = got  # classify with the program's own cut points
    t_int = band_interval(th["target"], bt)
    expect(
        [float(x) for x in params["target_interval"]] == [t_int[0], t_int[1]],
        f"{label}: target_interval {params['target_interval']} != {list(t_int)}",
    )
    by_cell = {}
    for r, c in np.argwhere(qualified(src, band_interval(th["source"], bs))):
        by_cell[(int(r), int(c))] = "source"
    for r, c in np.argwhere(qualified(tgt, t_int)):
        by_cell[(int(r), int(c))] = "target"
    cells = sorted(by_cell)
    expected_nodes = []
    for k, (r, c) in enumerate(cells):
        kind = by_cell[(r, c)]
        node = {"id": k, "row": r, "col": c, "kind": kind, "value": float((src if kind == "source" else tgt)[r, c])}
        if cmad and kind == "source":
            node["anomalous"] = bool(mask[r, c] != 0)
        expected_nodes.append(node)
    expect(graph["nodes"] == expected_nodes, f"{label}: graph nodes differ from the qualified cells")

    # Edges: Delaunay of the sorted cells, cut at dmax, with rule weights.
    pts = np.asarray(cells, dtype=np.float64)
    dmax = float(cfg["dmax"])
    expected_edges = []
    for u, v in delaunay_edges(pts):
        d = float(np.sqrt(((pts[u] - pts[v]) ** 2).sum()))
        if d > dmax:
            continue
        nu, nv = expected_nodes[u], expected_nodes[v]
        if cmad:
            w = -1 if any(n["kind"] == "source" and not n["anomalous"] for n in (nu, nv)) else 1
        else:
            w = 1 if np.sign(nu["value"]) == np.sign(nv["value"]) else -1
        expected_edges.append({"u": u, "v": v, "weight": w, "distance": d})
    expect(graph["edges"] == expected_edges, f"{label}: graph edges differ from the independent Delaunay edges")

    # Paths: bounded DFS over the edges the program wrote.
    adj = adjacency_of((e["u"], e["v"]) for e in graph["edges"])
    weight = {}
    for e in graph["edges"]:
        weight[(e["u"], e["v"])] = weight[(e["v"], e["u"])] = e["weight"]
    kinds = [n["kind"] for n in graph["nodes"]]
    sources = [i for i, k in enumerate(kinds) if k == "source"]
    targets = {i for i, k in enumerate(kinds) if k == "target"}
    walks = bounded_paths(adj, sources, targets, int(cfg["max_len"]))
    paths = read_json(os.path.join(pair_dir, "paths.json"))["paths"]
    expect(len(paths) == len(walks), f"{label}: {len(paths)} paths written, {len(walks)} expected")
    for k, (walk, p) in enumerate(zip(walks, paths)):
        ws = [weight[(a, b)] for a, b in zip(walk[:-1], walk[1:])]
        expect(tuple(p["nodes"]) == walk, f"{label}: path {k} is {p['nodes']}, expected {list(walk)}")
        expect(p["cells"] == [[cells[i][0], cells[i][1]] for i in walk], f"{label}: path {k} cells")
        expect(p["edge_weights"] == ws, f"{label}: path {k} edge weights")
        expect(p["score"] == sum(1 for w in ws if w > 0) / len(ws), f"{label}: path {k} score")

    # Results: form, decisions, exact law for score-1.0 paths.
    m, alpha = int(cfg["m"]), float(cfg["alpha"])
    results = read_json(os.path.join(pair_dir, "results.json"))["results"]
    expect(len(results) == len(paths), f"{label}: {len(results)} results for {len(paths)} paths")
    for k, (r, p) in enumerate(zip(results, paths)):
        expect(r["path_index"] == k and r["nodes"] == p["nodes"], f"{label}: result {k} is not path {k}")
        expect(r["observed"] == p["score"] and r["alpha"] == alpha, f"{label}: result {k} observed/alpha")
    ks = exceedances(results, m, alpha, label)

    n0, n1 = src.size, tgt.size
    if cmad:
        good = [(int((mask != 0).sum()), int(qualified(tgt, t_int).sum()))]
    else:
        good = [
            (int((src < 0).sum()), int((tgt < 0).sum())),
            (int((src == 0).sum()), int((tgt == 0).sum())),
            (int((src > 0).sum()), int((tgt > 0).sum())),
        ]
    tested, p_exact, node_sets = [], [], []
    for k, r in enumerate(results):
        if r["observed"] != 1.0:
            continue
        a = sum(1 for i in r["nodes"] if kinds[i] == "source")
        b = len(r["nodes"]) - a
        p_exact.append(sum(falling_ratio(g0, n0, a) * falling_ratio(g1, n1, b) for g0, g1 in good))
        tested.append(k)
        node_sets.append(r["nodes"])
    law = exact_law_test(ks[tested], p_exact, m, node_sets, label)

    # Significant paths: GeoJSON from the registration, frequency tally.
    significant = [r for r in results if r["significant"]]
    features = read_json(os.path.join(pair_dir, "significant.geojson"))["features"]
    expect(len(features) == len(significant), f"{label}: {len(features)} features, {len(significant)} significant")
    for f, r in zip(features, significant):
        coords = [[reg["lon0"] + cells[i][1] * reg["dlon"], reg["lat0"] + cells[i][0] * reg["dlat"]] for i in r["nodes"]]
        got = f["geometry"]["coordinates"]
        expect(
            len(got) == len(coords) and all(close(x, y, 1e-9) for g, c in zip(got, coords) for x, y in zip(g, c)),
            f"{label}: feature coordinates differ from the registration",
        )
        props = f["properties"]
        expect(
            props["score"] == r["observed"] and props["p_value"] == r["p_value"]
            and props["source_cell"] == list(cells[r["nodes"][0]])
            and props["target_cell"] == list(cells[r["nodes"][-1]]),
            f"{label}: feature properties",
        )
    freq = np.zeros(src.shape, dtype=np.int64)
    for r in significant:
        for i in r["nodes"]:
            freq[cells[i]] += 1
    with open(os.path.join(pair_dir, "frequency.csv")) as fh:
        rows = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    got = np.asarray([[int(x) for x in line.split(",")] for line in rows], dtype=np.int64)
    expect(got.shape == freq.shape and np.array_equal(got, freq), f"{label}: frequency.csv differs from the tally")

    return {"nodes": len(cells), "edges": len(expected_edges), "paths": len(paths), "law": law}


def check_pipeline(params: dict, out_dir: str) -> dict:
    cfg = params["config"]
    grids = {name: read_grid(cfg[name])[0] for name in ("source", "target", "mask") if cfg.get(name)}
    if cfg.get("sweep_bands"):
        pairs = [(bs, bt, os.path.join(out_dir, f"{bs}_{bt}")) for bs in BANDS for bt in BANDS]
    else:
        pairs = [(cfg["band_source"], cfg["band_target"], out_dir)]
    return {f"{bs}_{bt}": check_pair(d, bs, bt, cfg, grids, params["registration"]) for bs, bt, d in pairs}


# -- aar report -------------------------------------------------------------


def equirect(lat_a, lon_a, lat_b, lon_b):
    dlat = lat_b - lat_a
    dlon = (lon_b - lon_a + 180.0) % 360.0 - 180.0
    mean_lat = np.deg2rad((lat_a + lat_b) / 2.0)
    return KM_PER_DEGREE * np.hypot(dlat, dlon * np.cos(mean_lat))


def max_extent(lats: np.ndarray, lons: np.ndarray, block: int = 512) -> float:
    """Largest pairwise distance, in row blocks so memory stays O(block * n)."""
    best = 0.0
    for s in range(0, len(lats), block):
        d = equirect(lats[s : s + block, None], lons[s : s + block, None], lats[None, :], lons[None, :])
        best = max(best, float(d.max()))
    return best


def snap(lats, lons, lat: float, lon: float, snap_km: float):
    """Nearest point id (smallest id on ties) or None beyond the radius."""
    d = equirect(lats, lons, lat, lon)
    best = int(np.argmin(d))
    return best if d[best] <= snap_km else None


def check_aar(params: dict, report_path: str) -> dict:
    values, reg = read_grid(params["values"])
    mask, _ = read_grid(params["mask"])
    report = read_json(report_path)

    cells = np.argwhere(mask != 0)
    lats = reg["lat0"] + cells[:, 0] * reg["dlat"]
    lons = reg["lon0"] + cells[:, 1] * reg["dlon"]
    pvals = values[cells[:, 0], cells[:, 1]]
    n = len(cells)
    expect(report["n_points"] == n, f"aar: {report['n_points']} points reported, {n} flagged")
    threshold = float(pvals.min())
    expect(report["threshold"] == threshold, f"aar: threshold {report['threshold']} != {threshold}")

    # Edges: Delaunay on canonically sorted (lat, lon), cut by distance.
    order = np.lexsort((lons, lats))
    pts = np.column_stack([lats[order], lons[order]])
    edges = []
    for a, b in delaunay_edges(pts):
        u, v = sorted((int(order[a]), int(order[b])))
        if equirect(lats[u], lons[u], lats[v], lons[v]) <= params["max_edge_km"]:
            edges.append((u, v))
    adj = adjacency_of(edges)

    # Components by union-find, ordered by smallest id.
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    members: dict[int, list[int]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    comps = [members[root] for root in sorted(members)]
    got = report["components"]
    expect(len(got) == len(comps), f"aar: {len(got)} components, {len(comps)} expected")
    retained = set()
    for k, (c, ids) in enumerate(zip(got, comps)):
        expect(c["node_ids"] == ids and c["size"] == len(ids), f"aar: component {k} members differ")
        ext = max_extent(lats[ids], lons[ids]) if len(ids) > 1 else 0.0
        expect(close(c["extent_km"], ext, 1e-9), f"aar: component {k} extent {c['extent_km']} != {ext}")
        expect(c["retained"] == (ext > params["min_extent_km"]), f"aar: component {k} retention")
        if c["retained"]:
            retained.update(ids)

    # Snapping: station and origins.
    snap_km = params["snap_km"]
    station = snap(lats, lons, *params["station"], snap_km)
    expect(station is not None, "aar: station does not snap")
    st = report["station"]
    expect(
        st["id"] == station and st["cell"] == cells[station].tolist()
        and st["lat"] == lats[station] and st["lon"] == lons[station],
        f"aar: station snapped to {st['id']}, expected {station}",
    )
    origin_ids = set()
    dropped = []
    for lat, lon in params["origins"]:
        node = snap(lats, lons, lat, lon, snap_km)
        if node is None or node not in retained:
            dropped.append([lat, lon])
        else:
            origin_ids.add(node)
    expect(report["dropped_origins"] == dropped, "aar: dropped origins differ")

    # Paths to the station and their results.
    walks = bounded_paths(adj, sorted(origin_ids - {station}), {station}, int(params["max_len"]))
    results = report["results"]
    expect(len(results) == len(walks), f"aar: {len(results)} results, {len(walks)} paths expected")
    m, alpha = int(params["m"]), float(params["alpha"])
    for k, (r, walk) in enumerate(zip(results, walks)):
        expect(r["path_index"] == k and tuple(r["nodes"]) == walk, f"aar: result {k} is {r['nodes']}, expected {list(walk)}")
        ok = [pvals[a] >= threshold and pvals[b] >= threshold for a, b in zip(walk[:-1], walk[1:])]
        expect(r["observed"] == sum(ok) / len(ok) and r["alpha"] == alpha, f"aar: result {k} observed/alpha")
    ks = exceedances(results, m, alpha, "aar")
    n_pool = values.size
    n_good = int((values >= threshold).sum())
    tested = [k for k, r in enumerate(results) if r["observed"] == 1.0]
    p_exact = [falling_ratio(n_good, n_pool, len(results[k]["nodes"])) for k in tested]
    # Every path ends on the station, so at most one is node-disjoint
    # from the rest: the pooled test reduces to the per-path test.
    law = exact_law_test(ks[tested], p_exact, m, [results[k]["nodes"] for k in tested], "aar")
    expect(law["tested"] == 0 or law["k_positive"] > 0, "aar: every exceedance count is zero; the law test is vacuous")
    return {"points": n, "edges": len(edges), "components": len(comps), "paths": len(walks), "law": law}


def check(mode: str, params: dict, output: str) -> dict:
    return check_pipeline(params, output) if mode == "pipeline" else check_aar(params, output)
