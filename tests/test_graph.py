"""Triangulation, distance filtering, and edge-weight rules."""
from __future__ import annotations

import numpy as np
import pytest

from spatial_link.errors import DuplicatePoint, EmptySide, MaskDimMismatch
from spatial_link.grid import CellSet
from spatial_link.graph import (
    GraphEdge,
    GraphNode,
    SpatialGraph,
    _pairwise_distance,
    build_graph,
    delaunay_triangulate,
    filter_edges_by_distance,
)

from oracles import brute_delaunay_edges, cmad_weight, coherence_weight, edge_weights


def cellset(kind, cells, band="moderate") -> CellSet:
    """The cell set of these ``(row, col, value)`` triples, in this order."""
    return CellSet(
        kind, band, np.array([(r, c) for r, c, _ in cells], dtype=np.int64).reshape(-1, 2),
        np.array([v for _, _, v in cells], dtype=np.float64),
    )


class TestDelaunay:
    def test_triangle(self):
        edges = delaunay_triangulate([(0, 0), (0, 3), (2, 1)])
        assert edges == [(0, 1), (0, 2), (1, 2)]

    def test_two_points(self):
        assert delaunay_triangulate([(5, 5), (9, 9)]) == [(0, 1)]

    def test_unit_square_has_five_edges(self):
        """Four sides plus exactly one diagonal, chosen deterministically."""
        pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
        edges = delaunay_triangulate(pts)
        assert len(edges) == 5
        sides = {(0, 1), (0, 2), (1, 3), (2, 3)}
        assert sides <= set(edges)
        diagonal = set(edges) - sides
        assert diagonal in ({(0, 3)}, {(1, 2)})
        for _ in range(5):
            assert delaunay_triangulate(pts) == edges

    def test_input_order_does_not_matter(self):
        rng = np.random.default_rng(23)
        pts = [tuple(p) for p in rng.random((30, 2)) * 50]

        def edges_as_pairs(order):
            return {frozenset((order[i], order[j])) for i, j in delaunay_triangulate(order)}

        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert edges_as_pairs(pts) == edges_as_pairs(shuffled)

    def test_collinear_points_chain(self):
        pts = [(0, 0), (4, 4), (1, 1), (3, 3)]
        edges = delaunay_triangulate(pts)
        # Chain along the line: (0,0)-(1,1)-(3,3)-(4,4)
        assert set(edges) == {(0, 2), (2, 3), (1, 3)}

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePoint):
            delaunay_triangulate([(1, 1), (2, 2), (1, 1)])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            delaunay_triangulate([(0, 0)])

    def test_matches_brute_force_on_random_sets(self):
        """Edge-set equality against the empty-circumcircle definition."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 30))
            pts = [tuple(p) for p in rng.random((n, 2)) * 100]
            assert set(delaunay_triangulate(pts)) == brute_delaunay_edges(pts)

    def test_deterministic_on_lattice(self):
        pts = [(r, c) for r in range(6) for c in range(6)]
        first = delaunay_triangulate(pts)
        for _ in range(5):
            assert delaunay_triangulate(pts) == first


class TestDistanceFilter:
    def test_eleven_cell_edge_retained(self):
        pts = [(10, 10), (10, 21)]
        kept = filter_edges_by_distance([(0, 1)], pts, 11.0)
        assert [(i, j) for i, j, _ in kept] == [(0, 1)]
        assert kept[0][2] == pytest.approx(11.0)

    def test_diagonal_eight_eight_removed(self):
        pts = [(0, 0), (8, 8)]
        assert filter_edges_by_distance([(0, 1)], pts, 11.0) == []

    def test_unit_edge_retained(self):
        assert len(filter_edges_by_distance([(0, 1)], [(0, 0), (0, 1)], 11.0)) == 1

    def test_subset_and_threshold_properties(self):
        rng = np.random.default_rng(13)
        pts = [tuple(p) for p in rng.random((60, 2)) * 30]
        edges = delaunay_triangulate(pts)
        kept = filter_edges_by_distance(edges, pts, 7.5)
        kept_pairs = {(i, j) for i, j, _ in kept}
        assert kept_pairs <= set(edges)
        arr = np.asarray(pts)
        for i, j in edges:
            d = float(np.hypot(*(arr[i] - arr[j])))
            assert ((i, j) in kept_pairs) == (d <= 7.5)

    def test_matches_per_edge_distances(self):
        rng = np.random.default_rng(21)
        pts = [tuple(p) for p in rng.integers(0, 40, (80, 2)).astype(float)]
        pts = list(dict.fromkeys(pts))
        edges = delaunay_triangulate(pts)
        arr = np.asarray(pts)
        for metric in ("euclidean", "chebyshev"):
            expected = []
            for i, j in edges:
                d = float(_pairwise_distance(arr[i], arr[j], metric))
                if d <= 6.0:
                    expected.append((i, j, d))
            assert filter_edges_by_distance(edges, pts, 6.0, metric) == expected

    def test_no_edges(self):
        assert filter_edges_by_distance([], [], 3.0) == []

    def test_chebyshev_metric(self):
        pts = [(0, 0), (3, 7)]
        kept = filter_edges_by_distance([(0, 1)], pts, 7.0, metric="chebyshev")
        assert len(kept) == 1 and kept[0][2] == pytest.approx(7.0)


class TestBuildGraph:
    def test_one_source_one_target_within_range(self):
        g = build_graph(
            cellset("source", [(0, 0, -1.0)]),
            cellset("target", [(0, 5, -2.0)]),
            max_edge_cells=11.0,
        )
        assert g.n_nodes == 2 and g.n_edges == 1
        assert g.edges[0].weight == 1

    def test_distant_pair_gives_edgeless_graph(self):
        g = build_graph(
            cellset("source", [(0, 0, -1.0)]),
            cellset("target", [(0, 20, -2.0)]),
            max_edge_cells=11.0,
        )
        assert g.n_nodes == 2 and g.n_edges == 0

    def test_empty_side_raises(self):
        with pytest.raises(EmptySide):
            build_graph(cellset("source", []), cellset("target", [(0, 0, -1.0)]))
        with pytest.raises(EmptySide):
            build_graph(cellset("source", [(0, 0, -1.0)]), cellset("target", []))

    def test_sign_match_weights(self):
        """Same-sign endpoints get +1, mixed signs get -1."""
        g = build_graph(
            cellset("source", [(0, 0, -0.3), (0, 1, -0.1)]),
            cellset("target", [(0, 2, 0.2)]),
            max_edge_cells=11.0,
        )
        w = {}
        for e in g.edges:
            key = tuple(sorted((g.nodes[e.u].col, g.nodes[e.v].col)))
            w[key] = e.weight
        assert w[(0, 1)] == 1
        assert w[(1, 2)] == -1

    def test_global_sign_flip_leaves_weights_unchanged(self):
        rng = np.random.default_rng(3)
        coords = sorted({(int(r), int(c)) for r, c in rng.integers(0, 15, (20, 2))})
        values = rng.normal(size=len(coords))
        src = [(r, c, float(v)) for (r, c), v in zip(coords[:12], values[:12])]
        tgt = [(r, c, float(v)) for (r, c), v in zip(coords[12:], values[12:])]

        def flip(cells):
            return [(r, c, -v) for r, c, v in cells]

        g1 = build_graph(cellset("source", src), cellset("target", tgt), 30.0)
        g2 = build_graph(cellset("source", flip(src)), cellset("target", flip(tgt)), 30.0)
        assert [(e.u, e.v, e.weight) for e in g1.edges] == [
            (e.u, e.v, e.weight) for e in g2.edges
        ]

    def test_target_wins_dual_qualified_cell(self):
        g = build_graph(
            cellset("source", [(0, 0, -1.0), (1, 1, -1.0)]),
            cellset("target", [(1, 1, -2.0), (3, 3, -2.0)]),
            max_edge_cells=11.0,
        )
        kinds = {(n.row, n.col): n.kind for n in g.nodes}
        assert kinds[(1, 1)] == "target"
        assert g.n_nodes == 3

    def test_planted_chain_edges_survive(self):
        """A 5-cell chain at spacing 3 keeps its 4 consecutive edges."""
        chain = [(10, 10 + 3 * i) for i in range(5)]
        src = [(r, c, -1.0) for r, c in chain[:4]]
        tgt = [(chain[4][0], chain[4][1], -1.0)]
        g = build_graph(cellset("source", src), cellset("target", tgt), max_edge_cells=11.0)
        ids = {(n.row, n.col): n.id for n in g.nodes}
        edge_set = {(e.u, e.v) for e in g.edges}
        for a, b in zip(chain[:-1], chain[1:]):
            u, v = ids[a], ids[b]
            assert (min(u, v), max(u, v)) in edge_set

    def test_adjacency_matches_edges_and_is_sorted(self):
        rng = np.random.default_rng(8)
        cells = {(int(r), int(c)) for r, c in rng.integers(0, 12, (25, 2))}
        cells = sorted(cells)
        src = [(r, c, -1.0) for r, c in cells[:15]]
        tgt = [(r, c, -1.0) for r, c in cells[15:]]
        g = build_graph(cellset("source", src), cellset("target", tgt), max_edge_cells=6.0)
        seen = set()
        for u, nbrs in enumerate(g.adjacency):
            assert nbrs == sorted(nbrs)
            for v in nbrs:
                seen.add((min(u, v), max(u, v)))
        assert seen == {(e.u, e.v) for e in g.edges}


class TestCmadWeights:
    # Triangle: sources at (0,0) and (0,2), target at (1,1); every pair
    # is Delaunay-adjacent and within range.
    def build(self, mask):
        return build_graph(
            cellset("source", [(0, 0, -1.0), (0, 2, -1.0)]),
            cellset("target", [(1, 1, -1.0)]),
            max_edge_cells=11.0,
            variant="cmad",
            anomaly_mask=mask,
            grid_shape=(2, 3),
        )

    def test_all_anomalous_reinforces(self):
        g = self.build(np.array([[1, 0, 1], [0, 0, 0]], dtype=bool))
        assert g.n_edges == 3
        assert all(e.weight == 1 for e in g.edges)

    def test_one_nonanomalous_endpoint_diverges(self):
        g = self.build(np.array([[1, 0, 0], [0, 0, 0]], dtype=bool))
        weights = {}
        for e in g.edges:
            key = tuple(sorted(((g.nodes[e.u].row, g.nodes[e.u].col),
                                (g.nodes[e.v].row, g.nodes[e.v].col))))
            weights[key] = e.weight
        assert weights[((0, 0), (0, 2))] == -1  # source pair, one bit missing
        assert weights[((0, 2), (1, 1))] == -1  # source endpoint not anomalous
        assert weights[((0, 0), (1, 1))] == 1  # anomalous source + banded target

    def test_source_nodes_carry_mask_bit(self):
        g = self.build(np.array([[1, 0, 0], [0, 0, 0]], dtype=bool))
        flags = {(n.row, n.col): n.anomalous for n in g.nodes}
        assert flags[(0, 0)] is True
        assert flags[(0, 2)] is False
        assert flags[(1, 1)] is None

    def test_wrong_mask_dims_rejected(self):
        with pytest.raises(MaskDimMismatch):
            self.build(np.ones((2, 2), dtype=bool))

    def test_mask_required(self):
        with pytest.raises(ValueError):
            build_graph(
                cellset("source", [(0, 0, -1.0)]),
                cellset("target", [(0, 2, -1.0)]),
                variant="cmad",
            )


class TestEdgeRuleAgainstOracle:
    """``build_graph`` weights every edge as the per-node-pair reference rules do."""

    def random_sides(self, rng, dims=(14, 17)):
        cells = rng.permutation(dims[0] * dims[1])[:90]
        values = rng.normal(size=90)
        values[rng.random(90) < 0.1] = 0.0
        side = [(int(k // dims[1]), int(k % dims[1]), float(v)) for k, v in zip(cells, values)]
        return cellset("source", side[:50]), cellset("target", side[40:])

    @pytest.mark.parametrize("seed", range(6))
    def test_standard_weights(self, seed):
        source, target = self.random_sides(np.random.default_rng(seed))
        g = build_graph(source, target, max_edge_cells=4.0)
        assert g.n_edges > 50
        assert [e.weight for e in g.edges] == [
            coherence_weight(g.nodes[e.u], g.nodes[e.v]) for e in g.edges
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_cmad_weights(self, seed):
        rng = np.random.default_rng(100 + seed)
        source, target = self.random_sides(rng)
        mask = rng.random((14, 17)) < 0.5
        g = build_graph(source, target, max_edge_cells=4.0, variant="cmad",
                        anomaly_mask=mask, grid_shape=(14, 17))
        weights = [e.weight for e in g.edges]
        assert weights == [cmad_weight(g.nodes[e.u], g.nodes[e.v]) for e in g.edges]
        assert 1 in weights and -1 in weights


class TestSpatialGraphType:
    def test_edge_weight_lookup_is_symmetric(self):
        g = build_graph(
            cellset("source", [(0, 0, -1.0)]),
            cellset("target", [(0, 1, 2.0)]),
            max_edge_cells=5.0,
        )
        assert edge_weights(g) == {(0, 1): -1, (1, 0): -1}

    def test_nodes_of_kind(self):
        g = build_graph(
            cellset("source", [(0, 0, -1.0), (2, 0, -1.0)]),
            cellset("target", [(1, 1, -1.0)]),
            max_edge_cells=5.0,
        )
        assert g.nodes_of_kind("source") == [0, 2]
        assert g.nodes_of_kind("target") == [1]

    @pytest.mark.parametrize("ids, edges, message", [
        ((0, 1), [(0, 0)], r"edge \(0, 0\) joins a node to itself"),
        ((0, 1), [(0, 1), (1, 0)], r"edge \(1, 0\) repeats an edge listed before"),
        ((0, 1), [(0, 2)], r"edge \(0, 2\) names a node outside 0..1"),
        ((1, 0), [], "node 0 has id 1; ids must be 0..n-1 in order"),
    ])
    def test_rejects_a_broken_invariant(self, ids, edges, message):
        nodes = [GraphNode(id=i, row=k, col=0, kind="source", value=-1.0)
                 for k, i in enumerate(ids)]
        with pytest.raises(ValueError, match=message):
            SpatialGraph(nodes=nodes, edges=[GraphEdge(u, v, 1, 1.0) for u, v in edges])

    @pytest.mark.parametrize("weight", [0, 7, -2, 0.5])
    def test_rejects_a_weight_other_than_plus_or_minus_one(self, weight):
        nodes = [GraphNode(id=k, row=k, col=0, kind="source", value=-1.0) for k in range(2)]
        with pytest.raises(ValueError, match=rf"edge \(0, 1\) has weight {weight}; a weight is"):
            SpatialGraph(nodes=nodes, edges=[GraphEdge(0, 1, weight, 1.0)])
