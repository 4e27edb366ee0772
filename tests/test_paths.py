"""Bounded path enumeration against a brute-force DFS oracle."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from spatial_link import paths
from spatial_link.errors import PathExplosion
from spatial_link.graph import GraphEdge, GraphNode, SpatialGraph, build_graph, ranges
from spatial_link.grid import (
    KIND_SOURCE,
    KIND_TARGET,
    LOSS_NEGATIVE,
    CellSet,
    classify_cells,
    compute_threshold_bands,
)
from spatial_link.paths import (
    LinkagePath,
    enumerate_walks,
    extract_all_paths,
    linkage_frequency,
    path_score,
)
from spatial_link.synthetic import generate_null

from oracles import brute_force_paths
from stores import path_store


def make_graph(n_nodes, edges, target_ids, weights=None) -> SpatialGraph:
    """Small synthetic graph; node cells laid out on one row."""
    targets = set(target_ids)
    nodes = [
        GraphNode(id=i, row=0, col=i, kind="target" if i in targets else "source", value=-1.0)
        for i in range(n_nodes)
    ]
    weights = weights or {}
    edge_objs = [
        GraphEdge(u=min(u, v), v=max(u, v), weight=weights.get((min(u, v), max(u, v)), 1),
                  distance=abs(u - v))
        for u, v in edges
    ]
    return SpatialGraph(nodes=nodes, edges=edge_objs)


def random_graph(rng) -> SpatialGraph:
    n = int(rng.integers(2, 13))
    density = rng.uniform(0.1, 0.6)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    n_targets = int(rng.integers(1, max(2, n // 2)))
    target_ids = list(rng.choice(n, size=n_targets, replace=False))
    weights = {
        (u, v): int(rng.choice([-1, 1])) for u, v in edges
    }
    return make_graph(n, edges, target_ids, weights)


def walks_from(g: SpatialGraph, start: int, max_nodes: int) -> list[tuple[int, ...]]:
    """Every bounded walk from ``start`` to the first target it reaches."""
    targets = frozenset(g.nodes_of_kind(KIND_TARGET))
    return [p.nodes for p in enumerate_walks(g.adjacency, [start], targets, max_nodes)]


class TestBfsPaths:
    """Walks from one source node (``enumerate_walks``)."""

    def test_three_node_chain(self):
        g = make_graph(3, [(0, 1), (1, 2)], target_ids=[2])
        assert walks_from(g, 0, max_nodes=3) == [(0, 1, 2)]

    def test_length_bound_cuts_chain(self):
        g = make_graph(3, [(0, 1), (1, 2)], target_ids=[2])
        assert walks_from(g, 0, max_nodes=2) == []

    def test_diamond_has_two_paths(self):
        g = make_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], target_ids=[3])
        assert set(walks_from(g, 0, max_nodes=3)) == {(0, 1, 3), (0, 2, 3)}

    def test_target_interior_forbidden(self):
        """A path must stop at the first target even if more lie beyond."""
        g = make_graph(3, [(0, 1), (1, 2)], target_ids=[1, 2])
        assert walks_from(g, 0, max_nodes=3) == [(0, 1)]

    def test_source_start_required(self):
        g = make_graph(2, [(0, 1)], target_ids=[1])
        with pytest.raises(ValueError):
            walks_from(g, 1, max_nodes=11)

    def test_expansion_order_is_ascending(self):
        g = make_graph(5, [(0, 3), (0, 1), (1, 4), (3, 4)], target_ids=[4])
        assert walks_from(g, 0, max_nodes=3) == [(0, 1, 4), (0, 3, 4)]


class TestExtractAllPaths:
    def test_no_reachable_target_gives_empty_set(self):
        g = make_graph(4, [(0, 1)], target_ids=[3])
        assert extract_all_paths(g, max_nodes=4) == []

    def test_shared_suffix_keeps_paths_distinct(self):
        """Node 2 is itself a source, so the one-hop path also counts."""
        g = make_graph(4, [(0, 2), (1, 2), (2, 3)], target_ids=[3])
        paths = extract_all_paths(g, max_nodes=3)
        assert {p.nodes for p in paths} == {(0, 2, 3), (1, 2, 3), (2, 3)}

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            g = random_graph(rng)
            max_nodes = int(rng.integers(3, 7))
            sources = g.nodes_of_kind("source")
            targets = set(g.nodes_of_kind("target"))
            expected = brute_force_paths(g.adjacency, sources, targets, max_nodes)
            got = {p.nodes for p in extract_all_paths(g, max_nodes=max_nodes)}
            assert got == expected

    def test_a_length_bound_past_the_graph_is_the_node_count(self):
        """No simple walk holds more nodes than the graph, so a larger bound changes nothing."""
        assert extract_all_paths(make_graph(2, [(0, 1)], target_ids=[1]), max_nodes=10 ** 20) == [
            (0, 1)
        ]
        rng = np.random.default_rng(43)
        for _ in range(20):
            g = random_graph(rng)
            assert extract_all_paths(g, max_nodes=10 ** 20) == extract_all_paths(
                g, max_nodes=g.n_nodes
            )

    def test_monotone_in_length_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g = random_graph(rng)
            shorter = {p.nodes for p in extract_all_paths(g, max_nodes=4)}
            longer = {p.nodes for p in extract_all_paths(g, max_nodes=5)}
            assert shorter <= longer

    def test_canonical_result_order(self):
        g = make_graph(5, [(0, 1), (1, 2), (0, 2), (3, 2), (3, 1)], target_ids=[2])
        paths = extract_all_paths(g, max_nodes=3)
        keys = [(p.nodes[0], p.nodes) for p in paths]
        assert keys == sorted(keys)

    def test_thread_count_does_not_change_result(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            g = random_graph(rng)
            single = extract_all_paths(g, max_nodes=5, threads=1)
            multi = extract_all_paths(g, max_nodes=5, threads=8)
            assert [p.nodes for p in single] == [p.nodes for p in multi]

    def test_cap_exceeded_names_the_cap(self):
        # Complete bipartite-ish blob: many paths between sides.
        n = 10
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = make_graph(n, edges, target_ids=[9])
        with pytest.raises(PathExplosion, match="cap of 50"):
            extract_all_paths(g, max_nodes=8, cap=50)


def clique(n=10) -> SpatialGraph:
    """Complete graph with one target: thousands of walks from each source."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return make_graph(n, edges, target_ids=[n - 1])


class TestCap:
    def test_every_cap_below_the_total_raises(self):
        g = clique()
        starts = [0, 3, 5]
        full = enumerate_walks(g.adjacency, starts, {9}, 6)
        assert len(full) > 100
        for cap in (1, 7, 100, len(full) - 1):
            with pytest.raises(PathExplosion, match=f"cap of {cap} paths") as info:
                enumerate_walks(g.adjacency, starts, {9}, 6, cap=cap, hint="raise the cap")
            assert info.value.hint == "raise the cap"
        for cap in (len(full), len(full) + 5):
            assert enumerate_walks(g.adjacency, starts, {9}, 6, cap=cap) == full

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="cap must be positive"):
            enumerate_walks([[1], [0]], [0], {1}, 3, cap=0)

    def test_cap_is_inclusive(self):
        g = clique(6)
        total = len(extract_all_paths(g, max_nodes=5))
        assert len(extract_all_paths(g, max_nodes=5, cap=total)) == total
        with pytest.raises(PathExplosion, match=f"cap of {total - 1}"):
            extract_all_paths(g, max_nodes=5, cap=total - 1)

    def test_dense_graph_raises_before_building_the_paths(self):
        """273,054 paths exist here; only about a thousand may be held."""
        source, target = generate_null((121, 401), seed=0)
        src = classify_cells(
            source, compute_threshold_bands(source, LOSS_NEGATIVE), "high", KIND_SOURCE
        )
        tgt = classify_cells(
            target, compute_threshold_bands(target, LOSS_NEGATIVE), "high", KIND_TARGET
        )
        graph = build_graph(src, tgt, max_edge_cells=3.0)
        tracemalloc.start()
        try:
            with pytest.raises(PathExplosion, match="cap of 1000"):
                extract_all_paths(graph, max_nodes=7, cap=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_dense_clique_raises_within_one_step_budget_per_length(self):
        """A 30-clique with one target passes a cap of 1,000 within a few MiB.

        Its 22,736 unfinished walks of 3 nodes have 659,344 candidate steps
        (about 150 MB as walk rows); the walker extends at most
        ``STEP_BUDGET`` of them at a time.
        """
        g = clique(30)
        tracemalloc.start()
        try:
            with pytest.raises(PathExplosion, match="cap of 1000"):
                extract_all_paths(g, max_nodes=11, cap=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestScores:
    def test_all_positive(self):
        assert path_score([1, 1, 1]) == 1.0

    def test_mixed(self):
        assert path_score([1, -1]) == 0.5

    def test_all_negative(self):
        assert path_score([-1, -1]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            path_score([])

    def test_path_objects_carry_consistent_scores(self):
        g = make_graph(
            3, [(0, 1), (1, 2)], target_ids=[2], weights={(0, 1): 1, (1, 2): -1}
        )
        (path,) = enumerate_walks(g.adjacency, [0], [2], 3)
        assert path.edge_weights == (1, -1)
        assert path.score == pytest.approx(0.5)
        assert path.score == path_score(path.edge_weights)

    def test_score_one_iff_all_weights_positive(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            weights = rng.choice([-1, 1], size=rng.integers(1, 9)).tolist()
            s = path_score(weights)
            assert 0.0 <= s <= 1.0
            assert (s == 1.0) == all(w == 1 for w in weights)


class TestFrequency:
    def test_shared_cell_counts_all_paths(self):
        """Every path crossing a cell bumps its count, including the hub's own."""
        g = make_graph(6, [(0, 4), (1, 4), (2, 4), (3, 4), (4, 5)], target_ids=[5])
        paths = extract_all_paths(g, max_nodes=3)
        assert len(paths) == 5
        freq = linkage_frequency(paths, g, (1, 6))
        assert freq[0, 4] == 5
        assert freq[0, 5] == 5
        assert freq[0, 0] == 1

    def test_disjoint_paths_count_once(self):
        g = make_graph(4, [(0, 1), (2, 3)], target_ids=[1, 3])
        paths = extract_all_paths(g, max_nodes=2)
        freq = linkage_frequency(paths, g, (1, 4))
        assert sorted(freq.ravel().tolist()) == [1, 1, 1, 1]

    def test_empty_paths_give_zero_raster(self):
        g = make_graph(2, [], target_ids=[1])
        freq = linkage_frequency(path_store([]), g, (3, 3))
        assert not freq.any()


class TestPrune:
    def test_walks_that_cannot_reach_a_target_are_not_extended(self, monkeypatch):
        """An 8x8 block of sources whose only target lies beyond dmax.

        Without pruning every simple walk of up to 8 nodes in the block is
        expanded (470,596 neighbour reads); with it none is. ``ranges``
        gives the CSR slots of every neighbour list the walker and its hop
        search read, so it counts the reads.
        """
        block = CellSet(KIND_SOURCE, "moderate", np.argwhere(np.ones((8, 8))), -np.ones(64))
        far = CellSet(KIND_TARGET, "moderate", np.array([[20, 20]]), np.array([-1.0]))
        graph = build_graph(block, far, max_edge_cells=1.5)
        assert graph.n_nodes == 65 and graph.n_edges > 100
        reads = []

        def counted(starts, lengths):
            reads.append(int(np.sum(lengths)))
            return ranges(starts, lengths)

        monkeypatch.setattr(paths, "ranges", counted)
        assert extract_all_paths(graph, max_nodes=8) == []
        assert sum(reads) <= 4 * graph.n_nodes

    def test_walks_and_their_order_match_the_oracle(self):
        """Each start's walks come back sorted by node sequence."""
        rng = np.random.default_rng(71)
        for _ in range(60):
            g = random_graph(rng)
            targets = set(g.nodes_of_kind("target"))
            max_nodes = int(rng.integers(2, 7))
            for start in g.nodes_of_kind("source"):
                expected = brute_force_paths(g.adjacency, [start], targets, max_nodes)
                got = enumerate_walks(g.adjacency, [start], targets, max_nodes)
                assert got == sorted(expected)


class TestEnumerateWalks:
    def test_start_cannot_be_terminal(self):
        with pytest.raises(ValueError):
            enumerate_walks([[1], [0]], starts=[0], terminal={0, 1}, max_nodes=3)

    def test_max_nodes_must_allow_an_edge(self):
        with pytest.raises(ValueError):
            enumerate_walks([[1], [0]], starts=[0], terminal={1}, max_nodes=1)
