"""Property tests for the grid and graph round trips."""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spatial_link import io
from spatial_link.graph import GraphEdge, GraphNode, SpatialGraph
from spatial_link.grid import KIND_SOURCE, KIND_TARGET, ChangeGrid, GridRegistration

FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def grids(draw):
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    values = draw(arrays(np.float32, shape, elements=FLOAT32)).astype(np.float64)
    valid = draw(arrays(np.bool_, shape))
    registration = GridRegistration(
        lat0=draw(st.floats(-90, 90)),
        lon0=draw(st.floats(-180, 179)),
        dlat=draw(st.floats(0.01, 2)),
        dlon=draw(st.floats(0.01, 2)),
        cell_km=draw(st.floats(1, 200)),
    )
    return ChangeGrid(values=values, valid_mask=valid, registration=registration)


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
        nodes.append(GraphNode(id=k, row=r, col=c, kind=kind, value=draw(FINITE),
                               anomalous=anomalous))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [
        GraphEdge(u=u, v=v, weight=draw(st.sampled_from([1, -1])),
                  distance=draw(st.floats(0, 20)))
        for u, v in sorted(chosen)
    ]
    params = draw(st.dictionaries(st.text(max_size=5), st.none() | st.integers() | FINITE,
                                  max_size=3))
    return SpatialGraph(nodes=nodes, edges=edges, params=params)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_graph_json_round_trip(graph):
    text = json.dumps(io.graph_to_json(graph, io.metadata_block({}, 0)))
    back = io.graph_from_json(json.loads(text))
    assert back.nodes == graph.nodes
    assert back.edges == graph.edges
    assert back.params == graph.params
    assert back.adjacency == graph.adjacency
