"""The array graph store and the path store against independent oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spatial_link.errors import PathExplosion
from spatial_link.graph import NODE_KINDS, GraphEdge, GraphNode, SpatialGraph, build_graph
from spatial_link.grid import KIND_SOURCE, KIND_TARGET, CellSet
from spatial_link.paths import enumerate_walks, extract_all_paths, path_score

from oracles import brute_force_paths, edge_weights


@st.composite
def labelled_graphs(draw, max_n: int = 12):
    """A random graph of up to ``max_n`` nodes with source/target labels and +-1 weights."""
    n = draw(st.integers(2, max_n))
    kinds = draw(st.lists(st.sampled_from([KIND_SOURCE, KIND_TARGET]), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    nodes = [GraphNode(k, 0, k, kind, -1.0) for k, kind in enumerate(kinds)]
    edges = [GraphEdge(u, v, draw(st.sampled_from([1, -1])), 1.0) for u, v in chosen]
    return SpatialGraph(nodes, edges)


@settings(max_examples=150, deadline=None)
@given(labelled_graphs(), st.integers(2, 7))
def test_store_walks_weights_and_scores_match_the_oracles(graph, max_nodes):
    sources = graph.nodes_of_kind(KIND_SOURCE)
    targets = set(graph.nodes_of_kind(KIND_TARGET))
    store = extract_all_paths(graph, max_nodes=max_nodes)
    expected = sorted(brute_force_paths(graph.adjacency, sources, targets, max_nodes))
    assert [p.nodes for p in store] == expected
    weight = edge_weights(graph)
    for path in store:
        weights = tuple(weight[step] for step in zip(path.nodes[:-1], path.nodes[1:]))
        assert path.edge_weights == weights
        assert path.score == path_score(weights)


@settings(max_examples=100, deadline=None)
@given(labelled_graphs(), st.integers(2, 7), st.integers(1, 60))
def test_the_walker_raises_exactly_when_the_total_passes_the_cap(graph, max_nodes, cap):
    sources = graph.nodes_of_kind(KIND_SOURCE)
    targets = set(graph.nodes_of_kind(KIND_TARGET))
    total = len(brute_force_paths(graph.adjacency, sources, targets, max_nodes))
    if total > cap:
        with pytest.raises(PathExplosion, match=f"cap of {cap} paths"):
            enumerate_walks(graph.adjacency, sources, targets, max_nodes, cap=cap)
    else:
        assert len(enumerate_walks(graph.adjacency, sources, targets, max_nodes, cap=cap)) == total


def from_arrays(nodes, edges) -> SpatialGraph:
    flags = {None: -1, False: 0, True: 1}
    return SpatialGraph.from_arrays(
        np.array([n.row for n in nodes]), np.array([n.col for n in nodes]),
        np.array([NODE_KINDS.index(n.kind) for n in nodes]), np.array([n.value for n in nodes]),
        np.array([flags[n.anomalous] for n in nodes]), np.array([e.u for e in edges]),
        np.array([e.v for e in edges]), np.array([e.weight for e in edges]),
        np.array([e.distance for e in edges]),
    )


@settings(max_examples=100, deadline=None)
@given(labelled_graphs(max_n=8))
def test_graphs_from_objects_and_from_arrays_agree(graph):
    twin = from_arrays(graph.nodes, graph.edges)
    assert twin.nodes == graph.nodes and twin.edges == graph.edges
    assert twin.adjacency == graph.adjacency
    assert np.array_equal(twin.adjacency.indptr, graph.adjacency.indptr)
    assert np.array_equal(twin.adjacency.indices, graph.adjacency.indices)
    assert np.array_equal(twin.adjacency.weight, graph.adjacency.weight)
    weight = edge_weights(graph)
    assert twin.adjacency.weight.tolist() == [
        weight[u, v] for u, nbrs in enumerate(graph.adjacency) for v in nbrs
    ]


def first_broken_invariant(n: int, edges) -> str | None:
    """The message for the first edge, in order, that breaks an invariant, edge by edge."""
    seen = set()
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) names a node outside 0..{n - 1}"
        if u == v:
            return f"edge ({u}, {v}) joins a node to itself"
        if (u, v) in seen:
            return f"edge ({u}, {v}) repeats an edge listed before"
        if w not in (1, -1):
            return f"edge ({u}, {v}) has weight {w!r}; a weight is +1 or -1"
        seen |= {(u, v), (v, u)}
    return None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5), st.sampled_from([1, -1, 0, 2])),
             max_size=6),
)
def test_both_constructors_raise_the_same_invariant_error(n, raw_edges):
    nodes = [GraphNode(k, k, 0, KIND_SOURCE, -1.0) for k in range(n)]
    edges = [GraphEdge(u, v, w, 1.0) for u, v, w in raw_edges]
    errors = []
    for build in (SpatialGraph, from_arrays):
        try:
            build(nodes, edges)
            errors.append(None)
        except ValueError as exc:
            errors.append(str(exc))
    assert errors[0] == errors[1] == first_broken_invariant(n, raw_edges)


@st.composite
def overlapping_sides(draw):
    """Source and target cell sets, each in any order, on a small grid and sharing cells."""
    shape = draw(st.tuples(st.integers(1, 7), st.integers(1, 7)))
    grid = [(r, c) for r in range(shape[0]) for c in range(shape[1])]
    values = st.sampled_from([0.0, -1.0, 2.5]) | st.floats(-5, 5)
    sides = []
    for kind in (KIND_SOURCE, KIND_TARGET):
        cells = draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
        vals = draw(st.lists(values, min_size=len(cells), max_size=len(cells)))
        sides.append(CellSet(kind, "moderate", np.array(cells, dtype=np.int64), np.array(vals)))
    return shape, *sides, draw(arrays(np.bool_, shape))


@settings(max_examples=150, deadline=None)
@given(overlapping_sides(), st.sampled_from(["standard", "cmad"]))
def test_graph_nodes_match_a_per_cell_reference(sides, variant):
    shape, source, target, mask = sides
    # The reference keys every cell once; a target entry replaces a source one.
    by_cell = {}
    for side in (source, target):
        for cell, value in zip(map(tuple, side.cells.tolist()), side.values.tolist()):
            by_cell[cell] = (side.kind, value)
    expected = [
        GraphNode(k, r, c, kind, value,
                  bool(mask[r, c]) if variant == "cmad" and kind == KIND_SOURCE else None)
        for k, ((r, c), (kind, value)) in enumerate(sorted(by_cell.items()))
    ]
    graph = build_graph(source, target, max_edge_cells=2.0, variant=variant,
                        anomaly_mask=mask, grid_shape=shape)
    assert graph.nodes == expected
