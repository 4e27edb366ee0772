"""Permutation-null engine: seeding, p-values, and oracle equivalence.

The vectorized engine is cross-checked replicate by replicate against a
slow loop that permutes the fields with permute_fields (or draws the
pools' cells longhand) and rescores each path from first principles, and
against the per-(path, position) reference scorer in oracles.py. Both
draw through the word-by-word reference sampler ``reference_subsets``.
The sampler's law is checked against enumerated permutations.
"""
from __future__ import annotations

import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chisquare

from spatial_link.errors import DimMismatch, MalformedHeader
from spatial_link.grid import (
    KIND_SOURCE,
    KIND_TARGET,
    LOSS_NEGATIVE,
    ChangeGrid,
    QUARTER_DEGREE_GLOBAL,
    classify_cells,
    compute_threshold_bands,
)
from spatial_link.graph import VARIANT_CMAD, GraphEdge, GraphNode, SpatialGraph, build_graph
from spatial_link.paths import LinkagePath, PathStore, extract_all_paths
from spatial_link import significance
from spatial_link.significance import (
    BLOCK_COUNTS,
    MAX_BLOCK,
    PermutationNull,
    SeedPolicy,
    benjamini_hochberg,
    check_node_cells,
    lemire_subsets,
    ok_edges_needed,
    p_value,
    replicate_block,
)
from spatial_link.synthetic import generate_null

from oracles import (
    exact_full_score_p, permute_fields, position_null_scores, reference_states, reference_subsets,
)
from stores import path_store


def grid_of(values, valid=None) -> ChangeGrid:
    values = np.asarray(values, dtype=float)
    valid = np.ones_like(values, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    return ChangeGrid(values=values, valid_mask=valid, registration=QUARTER_DEGREE_GLOBAL)


def two_node_engine(src_signs, tgt_signs, **kw) -> PermutationNull:
    """Hand-built standard engine: node 0 reads the source signs, node 1 the target signs."""
    return PermutationNull(
        pools=[np.asarray(src_signs, np.int8), np.asarray(tgt_signs, np.int8)],
        node_pool=np.array([0, 1]),
        policy=SeedPolicy(base_seed=7),
        **kw,
    )


def one_edge_path(score: float) -> LinkagePath:
    w = 1 if score == 1.0 else -1
    return LinkagePath(nodes=(0, 1), edge_weights=(w,), score=score)


class TestSeedPolicy:
    def test_same_index_same_stream(self):
        pol = SeedPolicy(base_seed=42)
        a = pol.generator(3).random(8)
        b = pol.generator(3).random(8)
        assert np.array_equal(a, b)

    def test_distinct_indices_distinct_streams(self):
        pol = SeedPolicy(base_seed=42)
        a = pol.generator(0).random(8)
        b = pol.generator(1).random(8)
        assert not np.array_equal(a, b)

    def test_order_of_use_is_irrelevant(self):
        pol = SeedPolicy(base_seed=9)
        late_first = [pol.generator(i).random(4) for i in (5, 1, 3)]
        in_order = [pol.generator(i).random(4) for i in (1, 3, 5)]
        assert np.array_equal(late_first[1], in_order[0])
        assert np.array_equal(late_first[2], in_order[1])
        assert np.array_equal(late_first[0], in_order[2])

    def test_base_seed_changes_stream(self):
        a = SeedPolicy(base_seed=1).generator(0).random(4)
        b = SeedPolicy(base_seed=2).generator(0).random(4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("sizes, counts, pinned", [
        ((12, 9), (5, 4), [
            ([9, 11, 0, 3, 8], [1, 8, 3, 6]),
            ([7, 8, 4, 2, 0], [5, 0, 3, 4]),
            ([7, 10, 5, 1, 11], [5, 2, 6, 4]),
        ]),
        ((86_400,), (6,), [
            ([69313, 81469, 473, 27331, 65575, 62410],),
            ([57201, 58509, 30481, 20994, 6824, 52856],),
            ([56711, 72426, 39989, 7233, 86214, 53361],),
        ]),
    ], ids=["two-pools", "one-pool"])
    def test_replicate_draws_are_pinned(self, sizes, counts, pinned):
        """The first three replicates' draws at base seed 0, for two pools and for one.

        They read only PCG64's raw stream, which NumPy keeps stable, so a
        failure means the sampler changed, and artifacts are no longer
        byte-identical to those of earlier runs with the same seed.
        """
        policy = SeedPolicy(base_seed=0)
        streams = [policy.generator(i).bit_generator for i in range(3)]
        raw = np.array([g.random_raw(16) for g in streams])
        drawn, done = lemire_subsets(raw, sizes, counts)
        assert done.all()
        got = [tuple(pool[r].tolist() for pool in drawn) for r in range(3)]
        assert got == [tuple(p) for p in pinned]
        refs = [policy.generator(i).bit_generator for i in range(3)]
        assert [tuple(reference_subsets(g, sizes, counts)) for g in refs] == got


class TestPermuteFields:
    def test_values_conserved_per_field(self):
        rng = np.random.default_rng(0)
        src = grid_of(rng.normal(size=(6, 7)))
        tgt = grid_of(rng.normal(size=(6, 7)))
        ps, pt = permute_fields(src, tgt, seed=11)
        assert sorted(ps.ravel()) == sorted(src.values.ravel())
        assert sorted(pt.ravel()) == sorted(tgt.values.ravel())

    def test_invalid_cells_untouched(self):
        vals = np.arange(12, dtype=float).reshape(3, 4)
        valid = vals % 2 == 0
        vals[~valid] = np.nan
        src = grid_of(vals, valid)
        tgt = grid_of(vals.copy(), valid.copy())
        ps, _ = permute_fields(src, tgt, seed=3)
        assert np.isnan(ps[~valid]).all()
        assert sorted(ps[valid]) == sorted(vals[valid])

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(1)
        src = grid_of(rng.normal(size=(5, 5)))
        tgt = grid_of(rng.normal(size=(5, 5)))
        a = permute_fields(src, tgt, seed=19)
        b = permute_fields(src, tgt, seed=19)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_single_valid_cell_is_fixed_point(self):
        valid = np.zeros((3, 3), dtype=bool)
        valid[1, 1] = True
        vals = np.full((3, 3), np.nan)
        vals[1, 1] = -2.5
        src = grid_of(vals, valid)
        tgt = grid_of(vals.copy(), valid.copy())
        ps, pt = permute_fields(src, tgt, seed=0)
        assert ps[1, 1] == -2.5
        assert pt[1, 1] == -2.5

    def test_generator_and_int_seed_agree(self):
        rng = np.random.default_rng(2)
        src = grid_of(rng.normal(size=(4, 4)))
        tgt = grid_of(rng.normal(size=(4, 4)))
        by_int = permute_fields(src, tgt, seed=77)
        by_gen = permute_fields(src, tgt, seed=np.random.default_rng(77))
        assert np.array_equal(by_int[0], by_gen[0])
        assert np.array_equal(by_int[1], by_gen[1])


class TestPValue:
    def test_never_exceeded(self):
        null = np.zeros(999)
        assert p_value(1.0, null) == pytest.approx(0.001)

    def test_always_exceeded(self):
        null = np.ones(999)
        assert p_value(0.0, null) == 1.0

    def test_add_one_counting(self):
        null = np.array([0.2, 0.5, 0.5, 0.9])
        # ties count as exceedances: 3 of 4 are >= 0.5
        assert p_value(0.5, null) == pytest.approx(4 / 5)

    def test_empty_null_rejected(self):
        with pytest.raises(ValueError):
            p_value(0.5, np.array([]))

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            null = rng.random(int(rng.integers(1, 40)))
            p = p_value(rng.random(), null)
            assert 1 / (null.size + 1) <= p <= 1.0


class TestBenjaminiHochberg:
    def test_partial_rejection(self):
        p = np.array([0.001, 0.013, 0.04, 0.9])
        # thresholds at alpha=0.05, m=4: 0.0125, 0.025, 0.0375, 0.05
        assert benjamini_hochberg(p, 0.05).tolist() == [True, True, False, False]

    def test_step_up_rescues_middle_value(self):
        p = np.array([0.01, 0.02, 0.021, 0.9])
        assert benjamini_hochberg(p, 0.05).tolist() == [True, True, True, False]

    def test_nothing_rejected(self):
        assert not benjamini_hochberg(np.array([0.3, 0.8]), 0.05).any()

    def test_everything_rejected(self):
        assert benjamini_hochberg(np.array([0.01, 0.02, 0.03, 0.04]), 0.05).all()

    def test_never_rejects_above_alpha(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = rng.random(12)
            rejected = benjamini_hochberg(p, 0.05)
            assert not (p[rejected] > 0.05).any() if rejected.any() else True

    def test_empty(self):
        assert benjamini_hochberg([], 0.05).size == 0


class TestHandBuiltEngine:
    def test_p_floor_when_null_never_reaches_observed(self):
        # Source pool all negative, target pool all positive: a sign-match
        # edge is impossible under any permutation.
        eng = two_node_engine([-1] * 50, [1] * 50, n_replicates=999)
        (res,) = eng.evaluate(path_store([one_edge_path(1.0)]))
        assert res.p_value == pytest.approx(0.001)
        assert res.significant

    def test_p_one_when_observed_at_minimum(self):
        eng = two_node_engine([-1] * 50, [1] * 50, n_replicates=999)
        (res,) = eng.evaluate(path_store([one_edge_path(0.0)]))
        assert res.p_value == 1.0
        assert not res.significant

    def test_half_and_half_pools_put_observed_near_median(self):
        pool = [-1] * 40 + [1] * 40
        eng = two_node_engine(pool, list(pool), n_replicates=999)
        (res,) = eng.evaluate(path_store([one_edge_path(1.0)]))
        assert res.p_value == pytest.approx(0.5, abs=0.05)

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            two_node_engine([1], [1], n_replicates=0)

    def test_alpha_domain(self):
        eng = two_node_engine([1, -1], [1, -1], n_replicates=9)
        with pytest.raises(ValueError):
            eng.evaluate(path_store([one_edge_path(1.0)]), alpha=1.0)

    def test_empty_batch(self):
        eng = two_node_engine([1], [1], n_replicates=9)
        assert eng.evaluate(path_store([])) == []


def small_instance(seed=0, dims=(18, 24), band="moderate", dmax=3.0, max_nodes=4):
    """A real graph + paths over a chain-free noise instance."""
    source, target = generate_null(dims, seed=seed)
    bands_s = compute_threshold_bands(source, LOSS_NEGATIVE)
    bands_t = compute_threshold_bands(target, LOSS_NEGATIVE)
    src_cells = classify_cells(source, bands_s, band, KIND_SOURCE)
    tgt_cells = classify_cells(target, bands_t, band, KIND_TARGET)
    graph = build_graph(src_cells, tgt_cells, max_edge_cells=dmax)
    paths = extract_all_paths(graph, max_nodes=max_nodes)
    return source, target, graph, paths


def oracle_sign_score(path: LinkagePath, graph, src_vals, tgt_vals) -> float:
    """Rescore a path from permuted fields by the sign-match rule."""
    kinds = {n.id: n.kind for n in graph.nodes}
    cells = {n.id: (n.row, n.col) for n in graph.nodes}

    def val(nid):
        r, c = cells[nid]
        return src_vals[r, c] if kinds[nid] == KIND_SOURCE else tgt_vals[r, c]

    ok = [
        np.sign(val(u)) == np.sign(val(v))
        for u, v in zip(path.nodes[:-1], path.nodes[1:])
    ]
    return sum(ok) / len(ok)


class TestEngineAgainstFieldPermutationOracle:
    def test_standard_variant_matches_slow_loop(self):
        source, target, graph, paths = small_instance(seed=4)
        assert len(paths) >= 5
        paths = paths[:12]
        m = 59
        policy = SeedPolicy(base_seed=123)
        eng = PermutationNull.for_graph(graph, source, target, policy, n_replicates=m)
        # A replicate reads the cells of the paths' distinct nodes, by node id.
        nodes = sorted({i for p in paths for i in p.nodes})
        reads = [[(graph.nodes[i].row, graph.nodes[i].col) for i in nodes
                  if graph.nodes[i].kind == kind] for kind in (KIND_SOURCE, KIND_TARGET)]

        exceed = np.zeros(len(paths), dtype=int)
        for i in range(m):
            ps, pt = permute_fields(source, target, policy.generator(i), reads)
            for k, path in enumerate(paths):
                s = oracle_sign_score(path, graph, ps, pt)
                exceed[k] += s >= path.score
        expected = (1 + exceed) / (1 + m)

        results = eng.evaluate(paths)
        got = np.array([r.p_value for r in results])
        assert np.allclose(got, expected)

    def test_thread_count_invariant(self):
        source, target, graph, paths = small_instance(seed=6)
        paths = paths[:20]
        policy = SeedPolicy(base_seed=5)
        p1 = PermutationNull.for_graph(graph, source, target, policy, n_replicates=199, threads=1)
        p8 = PermutationNull.for_graph(graph, source, target, policy, n_replicates=199, threads=8)
        r1 = [r.p_value for r in p1.evaluate(paths)]
        r8 = [r.p_value for r in p8.evaluate(paths)]
        assert r1 == r8

    def test_share_null_by_length_is_consistent(self):
        source, target, graph, paths = small_instance(seed=9, max_nodes=5)
        paths = paths[:30]
        policy = SeedPolicy(base_seed=17)
        eng = PermutationNull.for_graph(graph, source, target, policy, n_replicates=199)
        shared = eng.evaluate(paths, share_null_by_length=True)
        by_key = {}
        for r in shared:
            key = (r.path.n_nodes, r.observed)
            by_key.setdefault(key, set()).add(r.p_value)
        # same length and same observed score means the same p under sharing
        assert all(len(v) == 1 for v in by_key.values())
        for r in shared:
            assert 1 / 200 <= r.p_value <= 1.0

    def test_bh_flag_applies_step_up_decisions(self):
        source, target, graph, paths = small_instance(seed=12)
        paths = paths[:15]
        policy = SeedPolicy(base_seed=2)
        eng = PermutationNull.for_graph(graph, source, target, policy, n_replicates=99)
        plain = eng.evaluate(paths, alpha=0.05)
        corrected = eng.evaluate(paths, alpha=0.05, bh_correction=True)
        pvals = np.array([r.p_value for r in plain])
        assert [r.p_value for r in corrected] == pvals.tolist()
        want = benjamini_hochberg(pvals, 0.05)
        assert [r.significant for r in corrected] == want.tolist()

    def test_filter_significant(self):
        """Without BH a result is significant exactly when its p-value is below alpha."""
        source, target, graph, paths = small_instance(seed=4)
        policy = SeedPolicy(base_seed=123)
        eng = PermutationNull.for_graph(graph, source, target, policy, n_replicates=99)
        results = eng.evaluate(paths[:10], alpha=0.5)
        assert [r.significant for r in results] == [r.p_value < 0.5 for r in results]
        assert all(r.alpha == 0.5 for r in results)

    def test_mismatched_grids_rejected(self):
        source, target, graph, _ = small_instance(seed=4)
        hole = source.valid_mask.copy()
        n0 = graph.nodes[0]
        hole[n0.row, n0.col] = False
        vals = source.values.copy()
        vals[n0.row, n0.col] = np.nan
        broken = ChangeGrid(values=vals, valid_mask=hole, registration=source.registration)
        with pytest.raises(DimMismatch, match="invalid cell"):
            PermutationNull.for_graph(graph, broken, target, SeedPolicy(0))


class TestCmadEngineAgainstOracle:
    def build(self, seed=21, dims=(14, 18)):
        rng = np.random.default_rng(seed)
        source = grid_of(rng.normal(size=dims))
        target = grid_of(rng.normal(size=dims))
        mask = rng.random(dims) < 0.4
        bands_t = compute_threshold_bands(target, LOSS_NEGATIVE)
        src_cells = classify_cells(source, compute_threshold_bands(source, LOSS_NEGATIVE),
                                   "moderate", KIND_SOURCE)
        tgt_cells = classify_cells(target, bands_t, "moderate", KIND_TARGET)
        graph = build_graph(
            src_cells,
            tgt_cells,
            max_edge_cells=3.0,
            variant=VARIANT_CMAD,
            anomaly_mask=mask,
            grid_shape=dims,
            params={
                "target_interval": bands_t.interval("moderate"),
                "orientation_target": LOSS_NEGATIVE,
            },
        )
        paths = extract_all_paths(graph, max_nodes=4)
        return source, target, mask, bands_t, graph, paths

    def test_unknown_target_orientation_is_a_malformed_header(self):
        source, target, mask, _, graph, _ = self.build()
        graph.params["orientation_target"] = "sideways"
        with pytest.raises(MalformedHeader, match="unknown orientation 'sideways'") as info:
            PermutationNull.for_graph(graph, source, target, SeedPolicy(0), anomaly_mask=mask)
        assert info.value.hint.startswith('a cmad graph records "target_interval"')

    def test_mask_bits_travel_with_source_cells(self):
        source, target, mask, bands_t, graph, paths = self.build()
        assert len(paths) >= 3
        paths = paths[:8]
        m = 41
        policy = SeedPolicy(base_seed=31)
        eng = PermutationNull.for_graph(
            graph, source, target, policy, n_replicates=m, anomaly_mask=mask
        )

        kinds = {n.id: n.kind for n in graph.nodes}
        tgt_pool = target.values[target.valid_mask]
        bit_pool = mask[source.valid_mask]
        lo, hi = bands_t.interval("moderate")
        # Each pool draws one cell per distinct path node of its field, by node id.
        nodes = sorted({i for p in paths for i in p.nodes})
        by_pool = [[i for i in nodes if kinds[i] == kind] for kind in (KIND_SOURCE, KIND_TARGET)]
        sizes = [bit_pool.size, tgt_pool.size]

        exceed = np.zeros(len(paths), dtype=int)
        for i in range(m):
            drawn = reference_subsets(
                policy.generator(i).bit_generator, sizes, [len(ids) for ids in by_pool]
            )
            cell_of = {nid: c for ids, cells in zip(by_pool, drawn) for nid, c in zip(ids, cells)}

            def qual(nid):
                p = cell_of[nid]
                if kinds[nid] == KIND_SOURCE:
                    return bool(bit_pool[p])
                v = tgt_pool[p]
                return v < 0 and lo <= abs(v) < hi

            for k, path in enumerate(paths):
                ok = [qual(u) and qual(v) for u, v in zip(path.nodes[:-1], path.nodes[1:])]
                exceed[k] += sum(ok) / len(ok) >= path.score
        expected = (1 + exceed) / (1 + m)

        got = np.array([r.p_value for r in eng.evaluate(paths)])
        assert np.allclose(got, expected)

    def test_mask_required(self):
        source, target, mask, bands_t, graph, _ = self.build()
        with pytest.raises(ValueError, match="anomaly mask"):
            PermutationNull.for_graph(graph, source, target, SeedPolicy(0))

    def test_mask_shape_checked(self):
        source, target, mask, bands_t, graph, _ = self.build()
        with pytest.raises(ValueError, match="shape"):
            PermutationNull.for_graph(
                graph, source, target, SeedPolicy(0), anomaly_mask=mask[:-1]
            )


class TestThresholdEngineAgainstOracle:
    def test_point_field_pool_spans_all_valid_cells(self):
        rng = np.random.default_rng(77)
        dims = (10, 12)
        field = grid_of(rng.random(dims) * 30.0)
        cells = [(2, 3), (2, 5), (3, 4), (5, 5)]
        threshold = 20.0
        policy = SeedPolicy(base_seed=13)
        m = 61
        eng = PermutationNull.for_point_field(
            field, cells, threshold, policy, n_replicates=m
        )
        path = LinkagePath(nodes=(0, 1, 2), edge_weights=(1, 1), score=1.0)

        pool = field.values[field.valid_mask]
        exceed = 0
        for i in range(m):
            # The path's nodes 0, 1 and 2 each draw a cell of the whole pool.
            (drawn,) = reference_subsets(policy.generator(i).bit_generator, [pool.size], [3])
            qual = [pool[c] >= threshold for c in drawn]
            ok = [qual[0] and qual[1], qual[1] and qual[2]]
            exceed += sum(ok) / 2 >= path.score
        expected = (1 + exceed) / (1 + m)

        (res,) = eng.evaluate(path_store([path]))
        assert res.p_value == pytest.approx(expected)

    def test_point_on_invalid_cell_rejected(self):
        valid = np.ones((4, 4), dtype=bool)
        valid[1, 1] = False
        vals = np.ones((4, 4))
        vals[1, 1] = np.nan
        field = grid_of(vals, valid)
        with pytest.raises(DimMismatch, match="invalid cell"):
            PermutationNull.for_point_field(field, [(1, 1)], 0.5, SeedPolicy(0))


class TestNodeCellsOnPools:
    """Both constructors map nodes to pool slots through one typed check."""

    def holed(self, grid, cell):
        valid = grid.valid_mask.copy()
        valid[cell] = False
        vals = grid.values.copy()
        vals[cell] = np.nan
        return grid_of(vals, valid)

    def test_valid_cells_of_distinct_nodes_pass(self):
        field = self.holed(grid_of(np.ones((3, 4))), (0, 2))
        assert check_node_cells(field, [(0, 0), (0, 3), (2, 3)], [5, 6, 7], "value") is None

    @pytest.mark.parametrize("kind, field_name", [(KIND_SOURCE, "source"), (KIND_TARGET, "target")])
    def test_graph_node_on_invalid_cell(self, kind, field_name):
        source, target, graph, _ = small_instance(seed=4)
        node = next(n for n in graph.nodes if n.kind == kind)
        fields = {"source": source, "target": target}
        fields[field_name] = self.holed(fields[field_name], (node.row, node.col))
        with pytest.raises(DimMismatch) as info:
            PermutationNull.for_graph(graph, fields["source"], fields["target"], SeedPolicy(0))
        assert str(info.value) == (
            f"graph node {node.id} at cell ({node.row}, {node.col}) lies on an invalid "
            f"cell of the {field_name} field"
        )
        assert info.value.hint == "pass the fields (and mask) the graph was built from"

    def test_graph_node_off_grid(self):
        source, target, graph, _ = small_instance(seed=4)
        # Cropping the last node row puts those nodes off the grids; source
        # nodes are mapped first.
        rows = max(n.row for n in graph.nodes)
        off = [n for n in graph.nodes if n.row == rows]
        node = next((n for n in off if n.kind == KIND_SOURCE), off[0])
        with pytest.raises(DimMismatch, match=(
            rf"graph node {node.id} at cell \({node.row}, {node.col}\) lies outside "
            rf"the {rows}x24 grids"
        )):
            PermutationNull.for_graph(
                graph, grid_of(source.values[:rows]), grid_of(target.values[:rows]), SeedPolicy(0)
            )

    def test_point_off_grid(self):
        field = grid_of(np.ones((4, 4)))
        with pytest.raises(DimMismatch, match=r"graph node 1 at cell \(4, 0\) lies outside the 4x4"):
            PermutationNull.for_point_field(field, [(0, 0), (4, 0), (1, 1)], 0.5, SeedPolicy(0))

    def test_point_on_invalid_cell(self):
        field = self.holed(grid_of(np.ones((4, 4))), (1, 1))
        with pytest.raises(DimMismatch, match=r"graph node 2 at cell \(1, 1\) lies on an invalid "
                                              r"cell of the value field"):
            PermutationNull.for_point_field(field, [(0, 0), (3, 3), (1, 1)], 0.5, SeedPolicy(0))

    def test_graph_nodes_on_one_cell(self):
        nodes = [GraphNode(0, 0, 0, KIND_SOURCE, -1.0), GraphNode(1, 0, 0, KIND_SOURCE, -2.0),
                 GraphNode(2, 1, 1, KIND_TARGET, -1.0)]
        graph = SpatialGraph(nodes, [GraphEdge(0, 2, 1, 1.4), GraphEdge(1, 2, 1, 1.4)])
        field = grid_of(-np.ones((3, 3)))
        with pytest.raises(DimMismatch, match=r"graph nodes 0 and 1 both lie at cell \(0, 0\) "
                                              r"of the source field") as info:
            PermutationNull.for_graph(graph, field, field, SeedPolicy(0))
        assert info.value.hint.endswith("rebuild it with build-graph")

    def test_points_on_one_cell(self):
        field = grid_of(np.ones((4, 4)))
        with pytest.raises(DimMismatch, match=r"graph nodes 0 and 2 both lie at cell \(3, 1\)"):
            PermutationNull.for_point_field(field, [(3, 1), (0, 0), (3, 1)], 0.5, SeedPolicy(0))


def reference_p_values(scores, paths) -> list[float]:
    """Add-one p-values from an (n_replicates, n_paths) array of reference scores."""
    exceed = (scores >= np.array([p.score for p in paths])).sum(axis=0)
    return ((1 + exceed) / (1 + len(scores))).tolist()


def shared_reference_p_values(engine, paths) -> list[float]:
    """Add-one p-values under ``share_null_by_length``: the first path of a length stands in.

    The engine scores a store of the stand-ins alone, so their draws follow
    the stand-ins' distinct nodes.
    """
    first = {}
    for path in paths:
        first.setdefault(path.n_nodes, path)
    scores = position_null_scores(engine, list(first.values()))
    column = {n_nodes: k for k, n_nodes in enumerate(first)}
    return [p_value(path.score, scores[:, column[path.n_nodes]]) for path in paths]


def assert_engine_matches_reference(engine, paths):
    """Exceedance counts, shared-null p-values and the full null law agree exactly.

    Each path is also scored at every level j / n_edges its null scores
    can take; equal exceedance counts at every level pin its null law.
    """
    scores = position_null_scores(engine, paths)
    got = [r.p_value for r in engine.evaluate(path_store(paths))]
    assert got == reference_p_values(scores, paths)
    shared = [r.p_value for r in engine.evaluate(path_store(paths), share_null_by_length=True)]
    assert shared == shared_reference_p_values(engine, paths)
    levels = [replace(p, score=j / (p.n_nodes - 1)) for p in paths for j in range(p.n_nodes)]
    level_scores = scores[:, [k for k, p in enumerate(paths) for _ in p.nodes]]
    m = engine.n_replicates
    counts = [round(r.p_value * (1 + m)) - 1 for r in engine.evaluate(path_store(levels))]
    assert counts == (level_scores >= [p.score for p in levels]).sum(axis=0).tolist()
    shared = [r.p_value for r in engine.evaluate(path_store(levels), share_null_by_length=True)]
    assert shared == shared_reference_p_values(engine, levels)


def assert_pools_equal(engine, expected):
    """The engine's state pools equal the states derived from the raw grids."""
    assert len(engine.pools) == len(expected)
    for got, want in zip(engine.pools, expected):
        assert got.tolist() == want.tolist()


def path_of(nodes, score) -> LinkagePath:
    return LinkagePath(nodes=tuple(nodes), edge_weights=(1,) * (len(nodes) - 1), score=score)


@st.composite
def null_instances(draw):
    """A hand-built engine over small pools of tied states, and paths through its nodes.

    States are signs (zeros included) under ``standard`` and booleans
    under ``cmad`` and ``threshold``; the paths may share nodes and edges,
    and one path is the reverse of another, so an edge is traversed in
    both directions.
    """
    variant = draw(st.sampled_from(["standard", "cmad", "threshold"]))
    n_pools = 1 if variant == "threshold" else 2
    states = st.integers(-1, 1) if variant == "standard" else st.booleans()
    dtype = np.int8 if variant == "standard" else bool
    n_nodes = draw(st.integers(2, 7))
    node_pool = np.array(draw(st.lists(st.integers(0, n_pools - 1), min_size=n_nodes,
                                       max_size=n_nodes)))
    pools = []
    for k in range(n_pools):
        size = int((node_pool == k).sum()) + draw(st.integers(1, 5))
        pools.append(np.array(draw(st.lists(states, min_size=size, max_size=size)), dtype=dtype))
    engine = PermutationNull(
        pools=pools,
        node_pool=node_pool,
        policy=SeedPolicy(base_seed=draw(st.integers(0, 2**32 - 1))),
        n_replicates=draw(st.sampled_from([1, 7, 10, 11])),
        threads=draw(st.sampled_from([1, 3])),
        variant=variant,
    )
    walks = []
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.permutations(range(n_nodes)))
        walks.append(order[: draw(st.integers(2, n_nodes))])
    walks.append(walks[0][::-1])
    paths = [path_of(w, draw(st.integers(0, len(w) - 1)) / (len(w) - 1)) for w in walks]
    return engine, paths


@settings(max_examples=80, deadline=None)
@given(null_instances())
def test_engine_matches_position_reference(instance):
    engine, paths = instance
    assert_engine_matches_reference(engine, paths)


# Replicate counts at the edges of the null's block of 64 replicates.
BLOCK_EDGES = (1, MAX_BLOCK - 1, MAX_BLOCK, MAX_BLOCK + 1, 130)


class TestEngineAgainstPositionReference:
    """Seeded instances of each rule, 1 to 3 threads, replicate counts at the edges of a block."""

    # Both directions of the edges 0-1 and 1-2, and a path that shares them.
    WALKS = [(0, 1, 2), (2, 1, 0), (1, 0), (3, 1, 2), (0, 1)]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_standard_graph(self, threads):
        source, target, graph, paths = small_instance(seed=6, max_nodes=5)
        paths = list(paths[:40])
        paths += [path_of(p.nodes[::-1], p.score) for p in paths[:5]]
        assert replicate_block(len(paths)) == MAX_BLOCK
        for m in (31, *BLOCK_EDGES):
            engine = PermutationNull.for_graph(
                graph, source, target, SeedPolicy(base_seed=3), n_replicates=m, threads=threads
            )
            assert_pools_equal(engine, reference_states("standard", (source, target)))
            assert_engine_matches_reference(engine, paths)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_cmad_graph(self, threads):
        source, target, mask, bands_t, graph, paths = TestCmadEngineAgainstOracle().build(seed=5)
        paths = list(paths[:30]) + [path_of(p.nodes[::-1], p.score) for p in paths[:3]]
        for m in (20, *BLOCK_EDGES):
            engine = PermutationNull.for_graph(
                graph, source, target, SeedPolicy(base_seed=8), n_replicates=m,
                threads=threads, anomaly_mask=mask,
            )
            assert_pools_equal(engine, reference_states(
                "cmad", (source, target), mask=mask, interval=bands_t.interval("moderate"),
                orientation=LOSS_NEGATIVE,
            ))
            assert_engine_matches_reference(engine, paths)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_threshold_point_field(self, threads):
        rng = np.random.default_rng(4)
        field = grid_of(rng.random((6, 7)) * 30.0)
        cells = [(0, 0), (1, 2), (3, 3), (5, 6), (2, 5)]
        paths = [path_of(w, 1.0) for w in self.WALKS] + [path_of((4, 3, 2, 1, 0), 0.5)]
        for m in (16, *BLOCK_EDGES):
            engine = PermutationNull.for_point_field(
                field, cells, 12.0, SeedPolicy(base_seed=9), n_replicates=m, threads=threads
            )
            assert_pools_equal(engine, reference_states("threshold", (field,), threshold=12.0))
            assert_engine_matches_reference(engine, paths)

    def test_hand_built_ties_and_zeros(self):
        engine = PermutationNull(
            pools=[np.array([-1, 0, 1, 0, -1], np.int8), np.array([0, 1, -1, 1], np.int8)],
            node_pool=np.array([0, 1, 0, 1]),
            policy=SeedPolicy(base_seed=1),
            n_replicates=29,
            threads=3,
        )
        paths = [path_of(w, s) for w, s in zip(self.WALKS, (0.5, 1.0, 0.0, 0.5, 1.0))]
        assert_engine_matches_reference(engine, paths)


def random_engine(variant, n_nodes, n_replicates, threads, seed=0) -> PermutationNull:
    """A hand-built engine of one rule over random pools of tied states."""
    rng = np.random.default_rng(seed)
    n_pools = 1 if variant == "threshold" else 2
    node_pool = rng.integers(0, n_pools, n_nodes)
    pools = []
    for k in range(n_pools):
        size = int((node_pool == k).sum()) + 7
        if variant == "standard":
            pools.append(rng.integers(-1, 2, size).astype(np.int8))
        else:
            pools.append(rng.random(size) < 0.6)
    return PermutationNull(
        pools=pools, node_pool=node_pool, policy=SeedPolicy(base_seed=seed),
        n_replicates=n_replicates, threads=threads, variant=variant,
    )


def random_walks(n_nodes, n_paths, seed=0, max_nodes=6) -> PathStore:
    """``n_paths`` walks of 2 to ``max_nodes`` distinct nodes, scored at random levels."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, max_nodes + 1, n_paths)
    nodes = np.argsort(rng.random((n_paths, n_nodes)), axis=1)[:, :max_nodes]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    return PathStore(
        offsets,
        nodes[np.arange(max_nodes) < lengths[:, None]],
        np.ones(offsets[-1] - n_paths, dtype=np.int8),
        rng.integers(0, lengths) / (lengths - 1),
    )


class TestBlockedKernel:
    """The block rule, a store large enough to shrink the block, its memory, and its counts."""

    def test_block_rule(self):
        assert replicate_block(BLOCK_COUNTS // MAX_BLOCK) == MAX_BLOCK == 64
        assert replicate_block(20_000) == BLOCK_COUNTS // 20_000 == 52
        assert replicate_block(BLOCK_COUNTS + 1) == 1

    @pytest.mark.parametrize("variant", ["standard", "cmad", "threshold"])
    def test_store_large_enough_to_shrink_the_block(self, variant):
        """20,000 paths take blocks of 52; two threads split 107 replicates 54/53."""
        paths = random_walks(30, 20_000, seed=5, max_nodes=4)
        block = replicate_block(len(paths))
        assert block == 52
        engine = random_engine(variant, 30, 2 * block + 3, threads=2, seed=11)
        assert_engine_matches_reference(engine, list(paths))

    def test_memory_stays_near_the_block_budget(self):
        """About 200,000 paths take blocks of 5 replicates.

        Scoring 23 replicates instead of 1 adds at most the block's counts
        (float32) and their comparison (bool): 5 bytes per entry, 4.8 MiB
        here and under 5 MiB for any store. Blocks of 64 would add 61 MiB.
        """
        paths = random_walks(40, 200_000, seed=3, max_nodes=3)
        assert replicate_block(len(paths)) == 5

        def peak(m):
            engine = random_engine("standard", 40, m, threads=1, seed=3)
            tracemalloc.start()
            try:
                engine.evaluate(paths)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(23) - peak(1) < 5 * BLOCK_COUNTS

    def test_ok_edges_needed_equals_the_float_comparison(self):
        """``c >= need`` is ``c / n >= score`` for every c and every k / n, n up to 2,048.

        As ``c / n`` rounds monotonically in c, need is the first c at
        which the levels reach the score. Scores one ulp either side of
        each level, and arbitrary scores, are settled the same way.
        """
        for n in range(1, 2049):
            levels = np.arange(n + 1) / n
            assert (np.diff(levels) > 0).all()
            for scores in (levels, np.nextafter(levels, 2.0), np.nextafter(levels, -1.0)):
                want = np.searchsorted(levels, scores, side="left")
                assert ok_edges_needed(scores, np.full(n + 1, n)).tolist() == want.tolist()
        rng = np.random.default_rng(0)
        n = rng.integers(1, 2**40, 2000)
        k = rng.integers(0, n + 1)
        scores = np.concatenate([k / n, rng.random(2000)])
        n = np.concatenate([n, n])
        need = ok_edges_needed(scores, n)
        assert ((need / n >= scores) | (need == n + 1)).all()
        assert ((need == 0) | ((need - 1) / n < scores)).all()


class TestExactLaw:
    """Exceedance counts of score-1.0 paths follow the closed-form null law.

    A score-1.0 path exceeds in a replicate exactly when every edge is ok,
    an event of chance ``exact_full_score_p`` that depends only on the
    node count k and the pools' state counts. Replicates are independent,
    so each path's count is Binomial(M, p); each must lie inside the
    central interval of mass 1 - 1e-6. The fields are lopsided (source
    mostly negative, target mostly positive), so a null that leaves the
    target pool in place reads 0.73 instead of 0.39 at k = 2.
    """

    M = 999

    def fields(self, seed, dims=(30, 40)):
        rng = np.random.default_rng(seed)
        source = grid_of(rng.normal(-0.6, 1.0, dims))
        target = grid_of(rng.normal(0.6, 1.0, dims))
        return source, target, rng.random(dims) < 0.5

    def assert_within_law(self, engine, paths, variant, pools):
        paths = [p for p in paths if p.score == 1.0]
        assert {p.n_nodes for p in paths} >= {2, 3, 4}
        counts = [round(r.p_value * (1 + self.M)) - 1 for r in engine.evaluate(path_store(paths))]
        for path, count in zip(paths, counts):
            p_exact = exact_full_score_p(variant, pools, path.n_nodes)
            lo, hi = binom.interval(1 - 1e-6, self.M, p_exact)
            assert lo <= count <= hi, (path.nodes, count, lo, hi)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("variant", ["standard", "cmad"])
    def test_graph_rules(self, variant, seed):
        source, target, mask = self.fields(seed)
        bands_t = compute_threshold_bands(target, LOSS_NEGATIVE)
        src = classify_cells(source, compute_threshold_bands(source, LOSS_NEGATIVE),
                             "moderate", KIND_SOURCE)
        tgt = classify_cells(target, bands_t, "moderate", KIND_TARGET)
        interval = bands_t.interval("moderate")
        kw = {}
        if variant == "cmad":
            kw = {"variant": VARIANT_CMAD, "anomaly_mask": mask, "grid_shape": mask.shape,
                  "params": {"target_interval": interval, "orientation_target": LOSS_NEGATIVE}}
        graph = build_graph(src, tgt, max_edge_cells=2.5, **kw)
        engine = PermutationNull.for_graph(
            graph, source, target, SeedPolicy(base_seed=seed), n_replicates=self.M,
            anomaly_mask=mask if variant == "cmad" else None,
        )
        pools = reference_states(variant, (source, target), mask=mask, interval=interval,
                                 orientation=LOSS_NEGATIVE)
        self.assert_within_law(engine, extract_all_paths(graph, max_nodes=5), variant, pools)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_threshold_rule(self, seed):
        field = grid_of(np.random.default_rng(seed).random((30, 40)))
        cells = [tuple(c) for c in np.argwhere(field.values >= 0.4)[:40].tolist()]
        engine = PermutationNull.for_point_field(
            field, cells, 0.4, SeedPolicy(base_seed=seed), n_replicates=self.M
        )
        paths = [path_of(range(j, j + k), 1.0) for k in range(2, 7) for j in range(0, 30, 3)]
        pools = reference_states("threshold", (field,), threshold=0.4)
        self.assert_within_law(engine, paths, "threshold", pools)


def pack_words(words) -> np.ndarray:
    """One row of raw 64-bit output holding these 32-bit words, low half first."""
    words = np.asarray(words, dtype=np.uint64).reshape(-1, 2)
    return (words[:, 0] | (words[:, 1] << np.uint64(32)))[None, :]


class WordStream:
    """A stand-in bit generator whose raw output packs the given 32-bit words."""

    def __init__(self, words):
        self.raw = iter(pack_words(words)[0].tolist())

    def random_raw(self):
        return next(self.raw)


class TestLemireSampler:
    """The sampler's law, its reject zone, and its independence of how many words are read."""

    @pytest.mark.parametrize("n, d", [(5, 3), (7, 2)])
    def test_ordered_subsets_of_tiny_pools_are_uniform(self, n, d):
        raw = np.random.PCG64(n).random_raw((60_000, 16))
        (drawn,), done = lemire_subsets(raw, [n], [d])
        assert done.all()
        tally = Counter(map(tuple, drawn.tolist()))
        subsets = list(permutations(range(n), d))
        assert set(tally) == set(subsets)
        assert chisquare([tally[t] for t in subsets]).pvalue > 1e-6

    def test_a_word_in_the_reject_zone_is_skipped(self):
        """For n = 7 Lemire rejects w * 7 mod 2**32 below 2**32 mod 7 = 4.

        Word 613566757 gives 7 w = 2**32 + 3, so it would draw position 1 but
        is rejected; word 0 is rejected too. 2**31 then draws position 3,
        and 2**30 position 1.
        """
        words = [613_566_757, 0, 2**31, 2**31, 2**30, 2**32 - 1]
        assert [(w * 7) % 2**32 for w in words[:2]] == [3, 0]
        (drawn,), done = lemire_subsets(pack_words(words), [7], [3])
        assert done.tolist() == [True]
        # The repeat of position 3 is skipped as well; 2**32 - 1 draws 6.
        assert drawn.tolist() == [[3, 1, 6]]
        (short,), done = lemire_subsets(pack_words(words[:4]), [7], [2])
        assert done.tolist() == [False]

    def test_next_pool_starts_after_the_completing_word(self):
        # Pool of 4: 2**31 draws 2, then 2**30 draws 1 and completes it. The
        # pool of 2 reads on: 0 draws 0, then 2**31 draws 1.
        words = [2**31, 2**30, 0, 2**31, 2**31 + 1, 7]
        (a, b), done = lemire_subsets(pack_words(words), [4, 2], [2, 2])
        assert done.tolist() == [True]
        assert (a.tolist(), b.tolist()) == ([[2, 1]], [[0, 1]])
        assert reference_subsets(WordStream(words), [4, 2], [2, 2]) == [[2, 1], [0, 1]]

    @pytest.mark.parametrize("variant", ["standard", "cmad", "threshold"])
    def test_words_read_at_once_change_nothing(self, variant, monkeypatch):
        """Rows that run short read on from where they stopped, so the read size is tuning only."""
        paths = random_walks(24, 300, seed=2, max_nodes=5)
        engine = random_engine(variant, 24, 70, threads=2, seed=4)
        want = engine.evaluate(paths).p_values.tolist()
        for width in (2, 6, 30):
            monkeypatch.setattr(significance, "words_needed", lambda sizes, counts: width)
            assert engine.evaluate(paths).p_values.tolist() == want

    def test_pools_of_2_32_cells_are_refused(self):
        huge = np.broadcast_to(np.int8(1), (2**32,))
        with pytest.raises(ValueError, match="2\\*\\*32"):
            PermutationNull(pools=[huge, np.ones(3, np.int8)], node_pool=[0, 1],
                            policy=SeedPolicy(0))
        PermutationNull(pools=[huge[1:], np.ones(3, np.int8)], node_pool=[0, 1],
                        policy=SeedPolicy(0))

    def test_more_nodes_than_cells_are_refused(self):
        with pytest.raises(ValueError, match="cannot hold"):
            PermutationNull(pools=[np.ones(2, bool)], node_pool=[0, 0, 0], policy=SeedPolicy(0),
                            variant="threshold")


def enumerated_law(pools, node_pool, variant, paths):
    """Exact exceedance chance of each path at each level j, by enumerating permutations.

    Node i of pool k sits on a cell of its own (the i-th of the pool's
    nodes on cell i); every permutation of every pool is listed, and the
    pools are permuted independently. Returns {(path index, j): chance}
    that a replicate has at least j ok edges.
    """
    laws = []
    for k, pool in enumerate(pools):
        ids = [i for i in range(len(node_pool)) if node_pool[i] == k]
        perms = list(permutations(range(len(pool))))
        tally = Counter(tuple(pool[perm[c]] for c in range(len(ids))) for perm in perms)
        laws.append([(dict(zip(ids, states)), count / len(perms)) for states, count in tally.items()])
    out = Counter()
    for combo in product(*laws):
        state, chance = {}, 1.0
        for part, p in combo:
            state.update(part)
            chance *= p
        for k, path in enumerate(paths):
            ends = list(zip(path[:-1], path[1:]))
            if variant == "standard":
                ok = sum(state[u] == state[v] for u, v in ends)
            else:
                ok = sum(bool(state[u]) and bool(state[v]) for u, v in ends)
            for j in range(ok + 1):
                out[k, j] += chance
    return out


class TestExactLawBruteForce:
    """Every level of every path follows the law of enumerated permutations of pools of <= 8 cells.

    Each engine exceedance count must lie inside the central Binomial(M,
    p_exact) interval of mass 1 - 1e-6, p_exact taken over every
    permutation, so scores below 1.0 are covered as well as 1.0.
    """

    M = 999
    CASES = {
        "standard": ([np.array([-1, -1, 1, 0, -1, 1, 1, -1], np.int8),
                      np.array([1, -1, 1, 1, 0, -1, 1], np.int8)], [0, 0, 0, 0, 1, 1]),
        "cmad": ([np.array([1, 0, 1, 1, 0, 1, 0, 1], bool), np.array([1, 0, 0, 1, 1, 0, 1], bool)],
                 [0, 0, 0, 0, 1, 1]),
        "threshold": ([np.array([1, 0, 1, 1, 0, 1, 0, 1], bool)], [0, 0, 0, 0, 0]),
    }
    WALKS = {
        "standard": [(0, 1, 4), (2, 3, 1, 5), (3, 4), (0, 2, 1, 3, 5), (1, 0, 5)],
        "cmad": [(0, 1, 4), (2, 3, 1, 5), (3, 4), (0, 2, 1, 3, 5), (1, 0, 5)],
        "threshold": [(0, 1, 2), (3, 1, 4, 2), (4, 0), (0, 1, 2, 3, 4)],
    }

    @pytest.mark.parametrize("variant", ["standard", "cmad", "threshold"])
    def test_counts_follow_the_enumerated_law(self, variant):
        pools, node_pool = self.CASES[variant]
        walks = self.WALKS[variant]
        law = enumerated_law(pools, node_pool, variant, walks)
        engine = PermutationNull(pools=pools, node_pool=node_pool, policy=SeedPolicy(base_seed=5),
                                 n_replicates=self.M, variant=variant)
        levels = [(k, j) for k, w in enumerate(walks) for j in range(len(w))]
        store = path_store([path_of(walks[k], j / (len(walks[k]) - 1)) for k, j in levels])
        counts = [round(p * (1 + self.M)) - 1 for p in engine.evaluate(store).p_values.tolist()]
        assert any(0 < law[key] < 1 for key in levels)
        for key, count in zip(levels, counts):
            lo, hi = binom.interval(1 - 1e-6, self.M, min(1.0, law[key]))
            assert lo <= count <= hi, (key, count, lo, hi, law[key])
