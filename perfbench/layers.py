"""Per-module metrics from the spans of one traced invocation.

A span's self time is its duration minus the durations of its child
spans; the program runs single-threaded, so children never overlap.
"""
from __future__ import annotations

from collections import defaultdict

# name -> unit, in the order the benchmark reports them.
METRICS = {
    "grid.prepare_s": "s",
    "grid.classify_s": "s",
    "grid.qualified_cells": "count",
    "io.load_grid_s": "s",
    "io.encode_s": "s",
    "io.write_s": "s",
    "io.bytes": "bytes",
    "io.mb_per_s": "MB/s",
    "graph.build_s": "s",
    "graph.delaunay_s": "s",
    "graph.filter_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graph.kept_ratio": "ratio",
    "paths.extract_s": "s",
    "paths.frequency_s": "s",
    "paths.candidates": "count",
    "significance.engine_s": "s",
    "significance.evaluate_s": "s",
    "significance.path_reps": "count",
    "significance.path_reps_per_s": "1/s",
    "significance.pool_cells": "count",
    "significance.node_share": "ratio",
    "significance.significant": "count",
    "aar.points_s": "s",
    "aar.graph_s": "s",
    "aar.components_s": "s",
    "aar.extent_s": "s",
    "aar.extent_pairs": "count",
    "aar.snap_s": "s",
    "aar.snap_calls": "count",
    "aar.station_paths_s": "s",
    "aar.points": "count",
    "aar.components_retained": "count",
    "pipeline.band_pair_self_s": "s",
    "pipeline.band_pairs": "count",
    "cli.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict[str, float]:
    """Aggregate [name, start, end, parent, counts] spans into METRICS."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for k, (name, start, end, _, tally) in enumerate(spans):
        self_s[name] += (end - start) - child_time[k]
        calls[name] += 1
        for key, value in (tally or {}).items():
            counts[f"{name}.{key}"] += value

    evaluate_s = self_s["significance.evaluate"]
    path_reps = 0.0
    replicate_cells = 0.0
    replicates = 0.0
    node_reads = 0.0
    pool_reads = 0.0
    for name, _, _, _, tally in spans:
        if name == "significance.evaluate":
            path_reps += tally["paths"] * tally["replicates"]
            replicate_cells += tally["pool_cells"] * tally["replicates"]
            replicates += tally["replicates"]
            node_reads += tally["path_nodes"]
            pool_reads += tally["pool_cells"]
    write_s = self_s["io.write"]
    delaunay_edges = counts["graph.delaunay.n"]
    kept_edges = counts["graph.filter.n"] + counts["aar.graph.edges"]

    out = {
        "grid.prepare_s": self_s["grid.prepare"] + self_s["grid.thresholds"] + self_s["grid.validate"],
        "grid.classify_s": self_s["grid.classify"],
        "grid.qualified_cells": counts["grid.classify.cells"],
        "io.load_grid_s": self_s["io.load_grid"],
        "io.encode_s": self_s["io.encode"],
        "io.write_s": write_s,
        "io.bytes": counts["io.write.bytes"],
        "io.mb_per_s": _ratio(counts["io.write.bytes"] / 1e6, write_s),
        "graph.build_s": self_s["graph.build"],
        "graph.delaunay_s": self_s["graph.delaunay"],
        "graph.filter_s": self_s["graph.filter"],
        "graph.nodes": counts["graph.build.nodes"] + counts["aar.graph.nodes"],
        "graph.edges": counts["graph.build.edges"] + counts["aar.graph.edges"],
        "graph.kept_ratio": _ratio(kept_edges, delaunay_edges),
        "paths.extract_s": self_s["paths.extract"],
        "paths.frequency_s": self_s["paths.frequency"],
        "paths.candidates": counts["paths.extract.n"],
        "significance.engine_s": self_s["significance.engine"],
        "significance.evaluate_s": evaluate_s,
        "significance.path_reps": path_reps,
        "significance.path_reps_per_s": _ratio(path_reps, evaluate_s),
        "significance.pool_cells": _ratio(replicate_cells, replicates),
        "significance.node_share": _ratio(node_reads, pool_reads),
        "significance.significant": counts["significance.evaluate.significant"],
        "aar.points_s": self_s["aar.points"],
        "aar.graph_s": self_s["aar.graph"],
        "aar.components_s": self_s["aar.components"],
        "aar.extent_s": self_s["aar.extent"],
        "aar.extent_pairs": counts["aar.extent.pairs"],
        "aar.snap_s": self_s["aar.snap"],
        "aar.snap_calls": calls["aar.snap"],
        "aar.station_paths_s": self_s["aar.station_paths"],
        "aar.points": counts["aar.points.n"],
        "aar.components_retained": counts["aar.components.retained"],
        "pipeline.band_pair_self_s": self_s["pipeline.band_pair"],
        "pipeline.band_pairs": calls["pipeline.band_pair"],
        "cli.self_s": self_s["cli.main"],
    }
    assert list(out) == list(METRICS)
    return out
