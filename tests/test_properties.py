"""Property tests for the grid and graph round trips and the JSON artifact layout."""
from __future__ import annotations

import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spatial_link import io
from spatial_link.aar import AarComponent, AarReport, GeoPoint
from spatial_link.errors import DimMismatch
from spatial_link.graph import GraphEdge, GraphNode, SpatialGraph
from spatial_link.grid import KIND_SOURCE, KIND_TARGET, ChangeGrid, GridRegistration
from spatial_link.paths import LinkagePath, path_score
from spatial_link.significance import SignificanceResult

import oracles
from stores import path_store, results_store

FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Finite floats with the edge cases of their JSON text drawn often.
FLOATS = st.sampled_from([-0.0, 1e-300, 1e22, 0.1]) | FINITE
# Text that json must escape: non-ASCII, quotes, control characters.
TEXT = st.text(max_size=5)


REGISTRATIONS = st.builds(
    GridRegistration,
    lat0=st.floats(-90, 90),
    lon0=st.floats(-180, 179),
    dlat=st.floats(0.01, 2),
    dlon=st.floats(0.01, 2),
    cell_km=st.floats(1, 200),
)


@st.composite
def grids(draw):
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    values = draw(arrays(np.float32, shape, elements=FLOAT32)).astype(np.float64)
    valid = draw(arrays(np.bool_, shape))
    return ChangeGrid(values=values, valid_mask=valid, registration=draw(REGISTRATIONS))


@settings(max_examples=60, deadline=None)
@given(grids())
def test_grid_round_trip(grid):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.raw")
        io.save_grid(grid, path)
        back = io.load_grid(path)
    assert back.shape == grid.shape
    assert np.array_equal(back.valid_mask, grid.valid_mask)
    assert np.array_equal(back.values, grid.values)
    assert back.registration == grid.registration


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 8))
    cells = draw(
        st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=n, max_size=n,
                 unique=True)
    )
    nodes = []
    for k, (r, c) in enumerate(cells):
        kind = draw(st.sampled_from([KIND_SOURCE, KIND_TARGET]))
        anomalous = draw(st.none() | st.booleans()) if kind == KIND_SOURCE else None
        nodes.append(GraphNode(id=k, row=r, col=c, kind=kind, value=draw(FLOATS),
                               anomalous=anomalous))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [
        GraphEdge(u=u, v=v, weight=draw(st.sampled_from([1, -1])),
                  distance=draw(st.floats(0, 20)))
        for u, v in sorted(chosen)
    ]
    params = draw(st.dictionaries(TEXT, st.none() | st.integers() | FLOATS | TEXT, max_size=3))
    return SpatialGraph(nodes=nodes, edges=edges, params=params)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_graph_json_round_trip(graph):
    back = io.graph_from_json(json.loads(io.graph_to_json(graph, io.metadata_block({}, 0))))
    assert back.nodes == graph.nodes
    assert back.edges == graph.edges
    assert back.params == graph.params
    assert back.adjacency == graph.adjacency


@st.composite
def walks_on_graphs(draw):
    """A graph with an edge and 1 to 5 walks along its edges, each weighted and scored."""
    graph = draw(graphs().filter(lambda g: g.n_edges))
    weight = {}
    for e in graph.edges:
        weight[e.u, e.v] = weight[e.v, e.u] = e.weight
    walks = []
    for _ in range(draw(st.integers(1, 5))):
        walk = [draw(st.sampled_from([i for i in range(graph.n_nodes) if graph.adjacency[i]]))]
        for _ in range(draw(st.integers(1, 5))):
            walk.append(draw(st.sampled_from(graph.adjacency[walk[-1]])))
        weights = tuple(weight[step] for step in zip(walk, walk[1:]))
        walks.append(LinkagePath(tuple(walk), weights, path_score(weights)))
    return graph, walks


# A shifted weight moves path k's last weight to the front of path k + 1's, so
# only the per-path weight counts differ from the graph's.
READER_FAULTS = ["weight-flipped", "weight-dropped", "weight-shifted", "score-changed",
                 "single-node", "off-graph"]


@settings(max_examples=150, deadline=None)
@given(walks_on_graphs(), st.sampled_from(READER_FAULTS), st.data())
def test_paths_reader_round_trips_and_names_the_faulty_path(case, fault, data):
    graph, walks = case
    doc = json.loads(io.paths_to_json(path_store(walks), graph, io.metadata_block({}, 0)))
    assert io.paths_from_json(doc, graph) == walks
    shifted = fault == "weight-shifted"
    assume(len(walks) > shifted)
    k = data.draw(st.integers(0, len(walks) - 1 - shifted))
    entry, weights, score = doc["paths"][k], list(walks[k].edge_weights), walks[k].score
    if fault == "single-node":
        del entry["nodes"][1:]
        message = f"path {k} is {entry['nodes']}; a path needs two or more nodes"
    elif fault == "off-graph":
        u = entry["nodes"][-1]
        v = data.draw(st.sampled_from([v for v in range(graph.n_nodes)
                                       if v not in graph.adjacency[u]]))
        entry["nodes"].append(v)
        message = f"path steps from node {u} to node {v}, which is not an edge of the graph"
    else:
        j = data.draw(st.integers(0, len(weights) - 1))
        if fault == "weight-flipped":
            entry["edge_weights"][j] *= -1
        elif fault == "weight-dropped":
            del entry["edge_weights"][j]
        elif shifted:
            doc["paths"][k + 1]["edge_weights"].insert(0, entry["edge_weights"].pop())
        else:
            entry["score"] = data.draw(FINITE.filter(lambda s: s != score))
        message = (f"path {k} records edge weights {entry['edge_weights']} and score "
                   f"{entry['score']!r}, but the graph gives it {weights} and {score!r}")
    with pytest.raises(DimMismatch) as info:
        io.paths_from_json(doc, graph)
    assert str(info.value) == message
    assert info.value.hint.startswith("extract the paths from this graph")


@st.composite
def scored_paths(draw):
    """A graph, paths over its nodes, their results, a significant subset and a metadata block."""
    graph = draw(graphs())
    n = graph.n_nodes
    paths = []
    if n:
        for nodes in draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=6),
                                   max_size=4)):
            weights = draw(st.lists(st.sampled_from([1, -1]), min_size=len(nodes) - 1,
                                    max_size=len(nodes) - 1))
            paths.append(LinkagePath(nodes=tuple(nodes), edge_weights=tuple(weights),
                                     score=draw(FLOATS)))
    results = [
        SignificanceResult(path=p, observed=draw(FLOATS), p_value=draw(FLOATS),
                           significant=draw(st.booleans()), alpha=draw(FLOATS))
        for p in paths
    ]
    significant = [r for r in results if draw(st.booleans())]
    echo = {"note": draw(TEXT), "alpha": draw(FLOATS)}
    metadata = io.metadata_block(echo, draw(st.integers(0, 9)))
    return graph, paths, results, significant, metadata


def layout(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=80, deadline=None)
@given(scored_paths(), REGISTRATIONS)
def test_artifact_text_is_the_json_layout_of_the_reference_documents(case, reg):
    graph, paths, results, significant, meta = case
    assert io.graph_to_json(graph, meta) == layout(oracles.graph_document(graph, meta))
    assert io.paths_to_json(path_store(paths), graph, meta) == layout(
        oracles.paths_document(paths, graph, meta)
    )
    assert io.results_to_json(results_store(results), meta) == layout(
        oracles.results_document(results, meta)
    )
    assert io.export_geojson(results_store(significant), graph, reg, meta) == layout(
        oracles.geojson_document(significant, graph, reg, meta)
    )


@st.composite
def aar_reports(draw):
    graph, _, results, _, metadata = draw(scored_paths())
    points = [
        GeoPoint(lat=draw(st.floats(-90, 90)), lon=draw(st.floats(-180, 179.9)),
                 cell=draw(st.none() | st.tuples(st.integers(0, 9), st.integers(0, 9))),
                 value=draw(FLOATS))
        for _ in range(draw(st.integers(0, 4)))
    ]
    components = [
        AarComponent(node_ids=tuple(ids), extent_km=draw(FLOATS), retained=draw(st.booleans()))
        for ids in draw(st.lists(st.lists(st.integers(0, 9), max_size=3), max_size=3))
    ]
    report = AarReport(
        points=points,
        graph=SpatialGraph(graph.nodes, graph.edges, {**graph.params, "threshold": draw(FLOATS)}),
        components=components,
        station_id=draw(st.none() | st.integers(0, len(points) - 1)) if points else None,
        results=results_store(results),
        dropped_origins=draw(st.lists(st.lists(FLOATS, min_size=2, max_size=2), max_size=2)),
    )
    return report, metadata


@settings(max_examples=60, deadline=None)
@given(aar_reports())
def test_aar_report_text_is_the_json_layout_of_the_reference_document(case):
    report, meta = case
    assert io.aar_report_to_json(report, meta) == layout(oracles.aar_report_document(report, meta))


def column_case(n_paths: int, floats, seed: int = 0):
    """A 30-node graph, ``n_paths`` paths of 2 to 6 nodes over it and their results.

    Every float column (node values, distances, scores, observed, p-values,
    alpha) cycles through ``floats``. The writers do not check that a path
    walks the graph's edges, so the paths are drawn freely.
    """
    rng = np.random.default_rng(seed)
    take = lambda n: [floats[k % len(floats)] for k in range(n)]  # noqa: E731
    nodes = [GraphNode(id=k, row=k // 6, col=k % 6, kind=(KIND_SOURCE, KIND_TARGET)[k % 2],
                       value=v, anomalous=(None, True, None, False)[k % 4])
             for k, v in enumerate(take(30))]
    edges = [GraphEdge(u=k, v=k + 1, weight=(1, -1)[k % 2], distance=d)
             for k, d in enumerate(take(29))]
    graph = SpatialGraph(nodes=nodes, edges=edges, params={"window": None})
    paths = []
    for score in take(n_paths):
        walk = tuple(rng.integers(0, 30, rng.integers(2, 7)).tolist())
        paths.append(LinkagePath(walk, tuple(rng.choice([1, -1], len(walk) - 1).tolist()), score))
    results = [SignificanceResult(p, o, q, bool(k % 3), a) for k, (p, o, q, a) in enumerate(
        zip(paths, take(n_paths), take(n_paths + 1)[1:], take(n_paths + 2)[2:]))]
    return graph, paths, results


def assert_writers_match_the_reference_documents(graph, paths, results):
    meta = io.metadata_block({"alpha": 0.1}, 3)
    reg = GridRegistration(lat0=-70.0, lon0=10.0, dlat=0.25, dlon=0.5, cell_km=25.0)
    significant = [r for r in results if r.significant]
    store = path_store(paths)
    assert io.graph_to_json(graph, meta) == layout(oracles.graph_document(graph, meta))
    text = layout(oracles.paths_document(paths, graph, meta))
    assert io.paths_to_json(store, graph, meta) == text
    text = layout(oracles.results_document(results, meta))
    assert io.results_to_json(results_store(results), meta) == text
    assert io.export_geojson(results_store(significant), graph, reg, meta) == layout(
        oracles.geojson_document(significant, graph, reg, meta)
    )


@pytest.mark.parametrize("n_paths", [0, 1, 40])
def test_stores_of_no_one_and_many_rows_that_share_every_float(n_paths):
    assert_writers_match_the_reference_documents(*column_case(n_paths, [0.1]))


def test_a_float_column_keeps_negative_zero_apart_from_zero():
    """Each float text is rendered once per bit pattern; ``-0.0 == 0.0`` must not merge them."""
    graph, paths, results = column_case(12, [-0.0, 0.0, 0.25])
    assert_writers_match_the_reference_documents(graph, paths, results)
    text = io.results_to_json(results_store(results), io.metadata_block({}, 0))
    assert '"observed": -0.0,' in text and '"observed": 0.0,' in text


@pytest.mark.parametrize("writer", ["paths_to_json", "results_to_json"])
def test_writer_peak_memory_is_below_four_documents(writer):
    """At 50,000 paths a writer holds at most four times its document at once."""
    graph, paths, results = column_case(50_000, [0.2, 0.4, 0.6, 0.8, 1.0])
    store = results_store(results)
    render = {
        "paths_to_json": lambda: io.paths_to_json(store.paths, graph, io.metadata_block({}, 0)),
        "results_to_json": lambda: io.results_to_json(store, io.metadata_block({}, 0)),
    }[writer]
    tracemalloc.start()
    try:
        size = len(render())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * size
