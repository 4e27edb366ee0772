"""Grid formats, artifact serializers, and the command line front end."""
from __future__ import annotations

import argparse
import json
import os
import re

import numpy as np
import pytest

from spatial_link import __version__, cli, io
from spatial_link.aar import run_aar
from spatial_link.errors import DimMismatch, MalformedHeader
from spatial_link.graph import build_graph
from spatial_link.grid import (
    KIND_SOURCE,
    KIND_TARGET,
    LOSS_NEGATIVE,
    ChangeGrid,
    GridRegistration,
    QUARTER_DEGREE_GLOBAL,
    classify_cells,
    compute_threshold_bands,
    resample_nearest,
)
from spatial_link.paths import LinkagePath, extract_all_paths
from spatial_link.pipeline import RunConfig, run_pipeline
from spatial_link.significance import PermutationNull, SeedPolicy, SignificanceResult
from spatial_link.synthetic import chain_spec, generate

from stores import results_store


def grid_of(values, valid=None, registration=QUARTER_DEGREE_GLOBAL) -> ChangeGrid:
    values = np.asarray(values, dtype=float)
    valid = np.ones_like(values, dtype=bool) if valid is None else valid
    return ChangeGrid(values=values, valid_mask=valid, registration=registration)


class TestGridFormatA:
    def test_round_trip(self, tmp_path):
        grid = grid_of([[-1.5, 2.25], [0.5, -3.0]])
        path = str(tmp_path / "grid.raw")
        io.save_grid(grid, path)
        back = io.load_grid(path)
        assert np.array_equal(back.values, grid.values)
        assert back.valid_mask.all()
        assert back.registration == grid.registration
        assert not os.path.exists(path + ".mask")

    def test_mask_round_trip_with_nan_at_invalid(self, tmp_path):
        vals = np.array([[np.nan, 1.0], [2.0, np.nan]])
        valid = ~np.isnan(vals)
        grid = grid_of(vals, valid)
        path = str(tmp_path / "g.raw")
        io.save_grid(grid, path)
        assert os.path.exists(path + ".mask")
        back = io.load_grid(path)
        assert np.array_equal(back.valid_mask, valid)
        assert np.isnan(back.values[0, 0]) and np.isnan(back.values[1, 1])
        assert back.values[0, 1] == 1.0

    def test_payload_rounds_to_single_precision(self, tmp_path):
        grid = grid_of([[0.1, 0.2], [0.3, 0.4]])
        path = str(tmp_path / "g.raw")
        io.save_grid(grid, path)
        back = io.load_grid(path)
        assert back.values[0, 0] == float(np.float32(0.1))
        assert back.values[0, 0] != 0.1

    def test_load_by_sidecar_path(self, tmp_path):
        grid = grid_of([[1.0, -1.0]])
        path = str(tmp_path / "g.raw")
        io.save_grid(grid, path)
        back = io.load_grid(path + ".json")
        assert np.array_equal(back.values, grid.values)

    def test_sidecar_payload_path_indirection(self, tmp_path):
        np.array([1.0, 2.0, 3.0, 4.0], dtype="<f4").tofile(tmp_path / "payload.bin")
        sidecar = {
            "rows": 2, "cols": 2, "lat0": 0.0, "lon0": 0.0,
            "dlat": 1.0, "dlon": 1.0, "cell_km": 111.11,
            "payload_path": "payload.bin",
        }
        spath = tmp_path / "grid.json"
        spath.write_text(json.dumps(sidecar))
        back = io.load_grid(str(spath))
        assert back.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_payload_size_mismatch(self, tmp_path):
        grid = grid_of([[1.0, 2.0], [3.0, 4.0]])
        path = str(tmp_path / "g.raw")
        io.save_grid(grid, path)
        np.array([1.0, 2.0, 3.0], dtype="<f4").tofile(path)
        with pytest.raises(MalformedHeader, match="holds 3 values") as exc:
            io.load_grid(path)
        assert exc.value.hint == "dimension mismatch between header and payload"

    def test_missing_sidecar_field(self, tmp_path):
        grid = grid_of([[1.0]])
        path = str(tmp_path / "g.raw")
        io.save_grid(grid, path)
        doc = json.loads(open(path + ".json").read())
        del doc["cell_km"]
        open(path + ".json", "w").write(json.dumps(doc))
        with pytest.raises(MalformedHeader, match="cell_km"):
            io.load_grid(path)

    @pytest.mark.parametrize("key, value", [
        ("lat0", "10"), ("dlat", True), ("cell_km", None), ("lon0", [1.0]),
    ])
    def test_registration_fields_are_json_numbers(self, key, value, tmp_path):
        path = str(tmp_path / "g.raw")
        io.save_grid(grid_of([[1.0]]), path)
        doc = json.loads(open(path + ".json").read())
        doc[key] = value
        open(path + ".json", "w").write(json.dumps(doc))
        with pytest.raises(MalformedHeader) as exc:
            io.load_grid(path)
        assert f"{key} must be a number, got {value!r}" in str(exc.value)
        assert str(exc.value).startswith(f"sidecar {path}.json has a bad registration")
        assert exc.value.hint.startswith("required fields: rows, cols, lat0")

    def test_non_integer_dims(self, tmp_path):
        grid = grid_of([[1.0]])
        path = str(tmp_path / "g.raw")
        io.save_grid(grid, path)
        doc = json.loads(open(path + ".json").read())
        doc["rows"] = 1.5
        open(path + ".json", "w").write(json.dumps(doc))
        with pytest.raises(MalformedHeader, match="invalid dims"):
            io.load_grid(path)

    @pytest.mark.parametrize("key, dims", [("rows", "0x1"), ("cols", "1x0")])
    def test_zero_dims(self, key, dims, tmp_path):
        path = str(tmp_path / "g.raw")
        io.save_grid(grid_of([[1.0]]), path)
        doc = json.loads(open(path + ".json").read())
        doc[key] = 0
        open(path + ".json", "w").write(json.dumps(doc))
        with pytest.raises(MalformedHeader) as exc:
            io.load_grid(path)
        assert str(exc.value) == f"sidecar {path}.json declares invalid dims {dims}"

    def test_mask_size_mismatch(self, tmp_path):
        vals = np.array([[np.nan, 1.0]])
        grid = grid_of(vals, ~np.isnan(vals))
        path = str(tmp_path / "g.raw")
        io.save_grid(grid, path)
        np.zeros(5, dtype=np.uint8).tofile(path + ".mask")
        with pytest.raises(MalformedHeader, match="5 bytes"):
            io.load_grid(path)

    def test_corrupt_sidecar_json(self, tmp_path):
        path = str(tmp_path / "g.raw")
        np.zeros(1, dtype="<f4").tofile(path)
        open(path + ".json", "w").write("{not json")
        with pytest.raises(MalformedHeader, match="not valid JSON"):
            io.load_grid(path)


class TestGridFormatB:
    def test_round_trip(self, tmp_path):
        """Every cell listed, values as ``repr`` text, read back exactly."""
        path = tmp_path / "g.csv"
        path.write_text(f"row,col,value,valid\n0,0,{0.1 + 0.2!r},1\n0,1,-1.0,1\n"
                        "1,0,nan,0\n1,1,4.0,1\n")
        back = io.load_grid(str(path))
        assert np.array_equal(back.valid_mask, [[True, True], [False, True]])
        assert back.values[0, 0] == 0.1 + 0.2
        assert back.values[1, 1] == 4.0

    def test_unlisted_cells_are_invalid(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("row,col,value\n0,0,1.5\n2,3,-2.5\n")
        back = io.load_grid(str(path))
        assert back.shape == (3, 4)
        assert back.valid_mask.sum() == 2
        assert back.values[2, 3] == -2.5

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("row,col,value\n0,0,1.0\n0,0,2.0\n")
        with pytest.raises(MalformedHeader, match="duplicate cell"):
            io.load_grid(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("x,y,z\n0,0,1.0\n")
        with pytest.raises(MalformedHeader, match="header"):
            io.load_grid(str(path))

    def test_negative_index(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("row,col,value\n-1,0,1.0\n")
        with pytest.raises(MalformedHeader, match="negative cell index"):
            io.load_grid(str(path))

    @pytest.mark.parametrize("flag", ["7", "2", "-1", "1.5", "true", ""])
    def test_valid_column_is_zero_or_one(self, flag, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(f"row,col,value,valid\n0,1,2.0,1\n0,0,1.5,{flag}\n")
        with pytest.raises(MalformedHeader, match=f"{path}:3: .*valid must be 0 or 1"):
            io.load_grid(str(path))

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("row,col,value\n0,0,1.0\n1,oops,2.0\n")
        with pytest.raises(MalformedHeader, match=":3:"):
            io.load_grid(str(path))

    def test_no_cells(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("row,col,value\n")
        with pytest.raises(MalformedHeader, match="no cells"):
            io.load_grid(str(path))


class TestMetadataBlock:
    def test_fields(self):
        block = io.metadata_block({"dmax": 2.0}, seed=7)
        assert block["tool"] == "spatial-link"
        assert block["version"] == __version__
        assert block["config"] == {"dmax": 2.0}
        assert block["seed"] == 7
        assert block["null_model"] == "field-permutation"


def small_graph(variant="standard"):
    spec = chain_spec([(2, 2 + i) for i in range(4)], split_index=2, seed=3)
    source, target, _ = generate(spec, (12, 12))
    bs = compute_threshold_bands(source, LOSS_NEGATIVE)
    bt = compute_threshold_bands(target, LOSS_NEGATIVE)
    src = classify_cells(source, bs, "moderate", KIND_SOURCE)
    tgt = classify_cells(target, bt, "moderate", KIND_TARGET)
    kwargs = {}
    if variant == "cmad":
        kwargs = {"anomaly_mask": np.ones((12, 12), dtype=bool), "grid_shape": (12, 12)}
    return build_graph(src, tgt, max_edge_cells=2.0, variant=variant,
                       params={"note": "fixture"}, **kwargs), source, target


class TestGraphJson:
    def test_round_trip(self):
        graph, _, _ = small_graph()
        doc = json.loads(io.graph_to_json(graph, io.metadata_block({}, 0)))
        back = io.graph_from_json(doc)
        assert back.nodes == graph.nodes
        assert back.edges == graph.edges
        assert back.params == graph.params

    def test_round_trip_preserves_anomaly_flags(self):
        graph, _, _ = small_graph(variant="cmad")
        assert any(n.anomalous is not None for n in graph.nodes)
        doc = json.loads(io.graph_to_json(graph, io.metadata_block({}, 0)))
        back = io.graph_from_json(doc)
        assert back.nodes == graph.nodes

    @pytest.mark.parametrize("edge", [{"u": 0, "v": -1}, {"u": 3, "v": 0}])
    def test_edge_endpoint_outside_the_nodes(self, edge):
        nodes = [{"id": k, "row": k, "col": 0, "kind": KIND_SOURCE, "value": -1.0}
                 for k in range(3)]
        doc = {"nodes": nodes, "edges": [{**edge, "weight": 1, "distance": 1.0}]}
        pattern = rf"edge \({edge['u']}, {edge['v']}\) names a node outside 0..2"
        with pytest.raises(MalformedHeader, match=pattern) as info:
            io.graph_from_json(doc)
        assert info.value.hint.startswith('expected {"params"')

    @pytest.mark.parametrize("edges, pattern", [
        ([(0, 1, 1), (0, 1, 1)], r"edge \(0, 1\) repeats an edge listed before"),
        ([(0, 1, 1), (1, 0, -1)], r"edge \(1, 0\) repeats an edge listed before"),
        ([(0, 0, 1)], r"edge \(0, 0\) joins a node to itself"),
    ])
    def test_repeated_edge_or_self_loop(self, edges, pattern):
        nodes = [{"id": k, "row": k, "col": 0, "kind": KIND_SOURCE, "value": -1.0}
                 for k in range(2)]
        doc = {"nodes": nodes,
               "edges": [{"u": u, "v": v, "weight": w, "distance": 1.0} for u, v, w in edges]}
        with pytest.raises(MalformedHeader, match=pattern) as info:
            io.graph_from_json(doc)
        assert info.value.hint.startswith('expected {"params"')

    @pytest.mark.parametrize("node, edge, message", [
        ({"row": 4.7}, {}, "node row must be an integer, got 4.7"),
        ({"col": "1"}, {}, "node col must be an integer, got '1'"),
        ({"id": True}, {}, "node id must be an integer, got True"),
        ({"value": "-1.0"}, {}, "node value must be a finite number, got '-1.0'"),
        ({"value": float("nan")}, {}, "node value must be a finite number, got nan"),
        ({"kind": "sink"}, {}, "node kind must be 'source' or 'target', got 'sink'"),
        ({"anomalous": 1}, {}, "node anomalous must be true, false or absent, got 1"),
        ({}, {"v": 1.9}, "edge v must be an integer, got 1.9"),
        ({}, {"weight": 0.5}, "edge weight must be an integer, got 0.5"),
        ({}, {"weight": 7}, r"edge \(0, 1\) has weight 7; a weight is \+1 or -1"),
        ({}, {"distance": True}, "edge distance must be a finite number, got True"),
        ({}, {"distance": -5.0}, r"edge \(0, 1\) has distance -5.0; a distance is at least 0"),
    ], ids=["row-float", "col-string", "id-bool", "value-string", "value-nan", "kind-sink",
            "anomalous-int", "v-float", "weight-float", "weight-seven", "distance-bool",
            "distance-negative"])
    def test_fields_are_not_coerced(self, node, edge, message):
        nodes = [{"id": k, "row": k, "col": 0, "kind": KIND_SOURCE, "value": -1.0}
                 for k in range(2)]
        nodes[1].update(kind=KIND_TARGET)
        nodes[0].update(node)
        doc = {"nodes": nodes, "edges": [{"u": 0, "v": 1, "weight": 1, "distance": 1.0, **edge}]}
        with pytest.raises(MalformedHeader, match=message) as info:
            io.graph_from_json(doc)
        assert info.value.hint.startswith('expected {"params"')

    @pytest.mark.parametrize("key", ["nodes", "edges"])
    def test_nodes_and_edges_are_lists(self, key):
        nodes = [{"id": k, "row": k, "col": 0, "kind": KIND_SOURCE, "value": -1.0}
                 for k in range(2)]
        doc = {"nodes": nodes, "edges": [{"u": 0, "v": 1, "weight": 1, "distance": 1.0}]}
        doc[key] = {}
        with pytest.raises(MalformedHeader, match=f"{key} must be a list, got {{}}") as info:
            io.graph_from_json(doc)
        assert info.value.hint.startswith('expected {"params"')

    def test_node_ids_not_in_order(self):
        nodes = [{"id": k, "row": k, "col": 0, "kind": KIND_SOURCE, "value": -1.0}
                 for k in (0, 2, 1)]
        with pytest.raises(MalformedHeader, match="node 1 has id 2; ids must be 0..n-1") as info:
            io.graph_from_json({"nodes": nodes, "edges": []})
        assert info.value.hint.startswith('expected {"params"')

    def test_none_anomalous_is_omitted_from_json(self):
        graph, _, _ = small_graph()
        doc = json.loads(io.graph_to_json(graph, io.metadata_block({}, 0)))
        assert all("anomalous" not in n for n in doc["nodes"])


class TestPathsJson:
    def test_round_trip(self):
        graph, _, _ = small_graph()
        paths = extract_all_paths(graph, max_nodes=4)
        assert paths
        doc = json.loads(io.paths_to_json(paths, graph, io.metadata_block({}, 0)))
        assert io.paths_from_json(doc, graph) == paths
        for entry, p in zip(doc["paths"], paths):
            assert entry["cells"] == [[graph.nodes[i].row, graph.nodes[i].col] for i in p.nodes]

    def test_a_step_off_the_graph_is_named(self):
        graph, _, _ = small_graph()
        u = next(i for i in range(graph.n_nodes) if len(graph.adjacency[i]) < graph.n_nodes - 1)
        v = next(j for j in range(graph.n_nodes) if j != u and j not in graph.adjacency[u])
        doc = {"paths": [{"nodes": [u, v], "edge_weights": [1], "score": 1.0}]}
        with pytest.raises(DimMismatch, match=f"path steps from node {u} to node {v}, which is "
                           "not an edge of the graph") as info:
            io.paths_from_json(doc, graph)
        assert info.value.hint.startswith("extract the paths from this graph")

    def test_a_node_id_equal_to_the_node_count_is_out_of_range(self):
        graph, _, _ = small_graph()
        n = graph.n_nodes
        doc = {"paths": [{"nodes": [0, n], "edge_weights": [1], "score": 1.0}]}
        with pytest.raises(DimMismatch) as info:
            io.paths_from_json(doc, graph)
        assert str(info.value) == f"the paths name node ids 0 to {n}, but the graph has {n} nodes"
        assert info.value.hint.startswith("extract the paths from this graph")


    @pytest.mark.parametrize("entry, message", [
        ({"nodes": [0.2, 1]}, "path node must be an integer, got 0.2"),
        ({"nodes": [0, True]}, "path node must be an integer, got True"),
        ({"edge_weights": [1.0]}, "edge weight must be an integer, got 1.0"),
        ({"score": "1.0"}, "path score must be a finite number, got '1.0'"),
    ], ids=["node-float", "node-bool", "weight-float", "score-string"])
    def test_fields_are_not_coerced(self, entry, message):
        graph, _, _ = small_graph()
        u, v = graph.edges[0].u, graph.edges[0].v
        w = graph.edges[0].weight
        doc = {"paths": [{"nodes": [u, v], "edge_weights": [w], "score": 1.0 * (w > 0), **entry}]}
        with pytest.raises(MalformedHeader, match=message) as info:
            io.paths_from_json(doc, graph)
        assert info.value.hint.startswith('expected {"paths"')


class TestResultsJson:
    def test_layout(self):
        path = LinkagePath(nodes=(0, 1), edge_weights=(1,), score=1.0)
        res = SignificanceResult(path=path, observed=1.0, p_value=0.01,
                                 significant=True, alpha=0.05)
        doc = json.loads(io.results_to_json(results_store([res]), io.metadata_block({}, 0)))
        (entry,) = doc["results"]
        assert entry == {
            "path_index": 0,
            "nodes": [0, 1],
            "observed": 1.0,
            "p_value": 0.01,
            "significant": True,
            "alpha": 0.05,
        }


class TestAarReportJson:
    def test_results_share_the_results_json_rows(self):
        reg = GridRegistration(lat0=0.0, lon0=0.0, dlat=1.0, dlon=1.0, cell_km=111.11)
        vals = np.full((30, 8), 0.1)
        mask = np.zeros((30, 8))
        vals[:21, 5] = 10.0
        mask[:21, 5] = 1.0
        report = run_aar(grid_of(vals, registration=reg), grid_of(mask, registration=reg),
                         [(12, 5)], (20.0, 5.0), m=19, alpha=0.1, seed=2)
        meta = io.metadata_block({}, 2)
        doc = json.loads(io.aar_report_to_json(report, meta))
        assert list(doc) == ["metadata", "n_points", "threshold", "station",
                             "components", "dropped_origins", "results"]
        assert doc["results"] == json.loads(io.results_to_json(report.results, meta))["results"]
        assert doc["station"] == {"id": 20, "lat": 20.0, "lon": 5.0, "cell": [20, 5]}
        assert doc["components"] == [
            {"size": 21, "extent_km": report.components[0].extent_km, "retained": True,
             "node_ids": list(range(21))}
        ]


class TestGeoJson:
    def make_result(self, cells):
        from spatial_link.graph import GraphEdge, GraphNode, SpatialGraph

        nodes = [
            GraphNode(id=i, row=r, col=c, kind=KIND_SOURCE if i == 0 else KIND_TARGET,
                      value=-1.0)
            for i, (r, c) in enumerate(cells)
        ]
        edges = [GraphEdge(u=i, v=i + 1, weight=1, distance=1.0) for i in range(len(cells) - 1)]
        graph = SpatialGraph(nodes=nodes, edges=edges)
        path = LinkagePath(nodes=tuple(range(len(cells))),
                           edge_weights=(1,) * (len(cells) - 1), score=1.0)
        res = SignificanceResult(path=path, observed=1.0, p_value=0.004,
                                 significant=True, alpha=0.05)
        return graph, res

    def test_antarctic_cell_centers(self):
        graph, res = self.make_result([(0, 200), (0, 211)])
        meta = io.metadata_block({}, 0)
        doc = json.loads(io.export_geojson(results_store([res]), graph, QUARTER_DEGREE_GLOBAL, meta))
        assert doc["type"] == "FeatureCollection"
        (feat,) = doc["features"]
        assert feat["geometry"]["type"] == "LineString"
        assert feat["geometry"]["coordinates"] == [[-130.0, -90.0], [-127.25, -90.0]]
        assert feat["properties"] == {
            "score": 1.0,
            "p_value": 0.004,
            "source_cell": [0, 200],
            "target_cell": [0, 211],
        }

    def test_coordinates_invert_back_to_cells(self):
        cells = [(3, 7), (4, 9), (6, 9)]
        reg = GridRegistration(lat0=-60.0, lon0=10.0, dlat=0.5, dlon=0.5, cell_km=50.0)
        graph, res = self.make_result(cells)
        meta = io.metadata_block({}, 0)
        doc = json.loads(io.export_geojson(results_store([res]), graph, reg, meta))
        back = [
            (round((lat - reg.lat0) / reg.dlat), round((lon - reg.lon0) / reg.dlon))
            for lon, lat in doc["features"][0]["geometry"]["coordinates"]
        ]
        assert back == cells

    def test_empty_result_list(self):
        meta = io.metadata_block({}, 0)
        text = io.export_geojson(results_store([]), None, QUARTER_DEGREE_GLOBAL, meta)
        doc = json.loads(text)
        assert doc["features"] == []


class TestFrequencyCsv:
    def test_round_trip_with_metadata_comment(self, tmp_path):
        freq = np.array([[0, 2, 1], [3, 0, 0]], dtype=np.int64)
        path = str(tmp_path / "freq.csv")
        io.frequency_to_csv(freq, io.metadata_block({"m": 9}, 1), path)
        first = open(path).readline()
        assert first.startswith("# metadata: ")
        assert json.loads(first[len("# metadata: "):])["config"] == {"m": 9}
        back = np.loadtxt(path, dtype=np.int64, delimiter=",", comments="#", ndmin=2)
        assert np.array_equal(back, freq)

    def test_single_row_keeps_two_dims(self, tmp_path):
        path = str(tmp_path / "freq.csv")
        io.frequency_to_csv(np.array([[1, 2]]), io.metadata_block({}, 0), path)
        back = np.loadtxt(path, dtype=np.int64, delimiter=",", comments="#", ndmin=2)
        assert back.shape == (1, 2)


class TestAtomicWrites:
    def test_failed_json_encoding_keeps_previous_artifact(self, tmp_path):
        path = str(tmp_path / "results.json")
        with pytest.raises(TypeError):
            io.write_json({"bad": object()}, path)
        assert os.listdir(tmp_path) == []
        io.write_json({"results": [1, 2]}, path)
        before = open(path, "rb").read()
        # The encoder fails part-way through, after writing the first key.
        with pytest.raises(TypeError):
            io.write_json({"results": [3], "bad": object()}, path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["results.json"]

    def test_failed_csv_write_keeps_previous_artifact(self, tmp_path):
        path = str(tmp_path / "frequency.csv")
        io.frequency_to_csv(np.array([[1, 2]]), io.metadata_block({}, 0), path)
        before = open(path, "rb").read()
        with pytest.raises(TypeError):
            io.frequency_to_csv([[3], [None]], io.metadata_block({}, 0), path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["frequency.csv"]

    @pytest.mark.parametrize("torn", ["values", "valid_mask"])
    def test_failed_grid_write_keeps_previous_grid(self, tmp_path, torn):
        class Torn(np.ndarray):
            """An array whose file write stops half-way on a full disk."""

            def tofile(self, fid, *args, **kwargs):
                np.asarray(self).ravel()[: self.size // 2].tofile(fid)
                raise OSError(28, "No space left on device")

        path = str(tmp_path / "g.raw")
        vals = np.array([[np.nan, 1.0, 2.0], [3.0, 4.0, 5.0]])
        old = grid_of(vals, ~np.isnan(vals))
        io.save_grid(old, path)
        new_vals = np.array([[10.0, 11.0, np.nan], [13.0, 14.0, 15.0]])
        new = grid_of(new_vals, ~np.isnan(new_vals))
        setattr(new, torn, getattr(new, torn).view(Torn))
        with pytest.raises(OSError, match="No space"):
            io.save_grid(new, path)
        back = io.load_grid(path)
        assert np.array_equal(back.valid_mask, old.valid_mask)
        assert np.array_equal(back.values[old.valid_mask], vals[old.valid_mask])
        assert sorted(os.listdir(tmp_path)) == ["g.raw", "g.raw.json", "g.raw.mask"]


@pytest.fixture()
def instance_files(tmp_path):
    """A planted instance saved in format A, ready for CLI runs."""
    spec = chain_spec([(4, 4 + i) for i in range(6)], split_index=3, seed=8)
    source, target, _ = generate(spec, (20, 20))
    spath, tpath = str(tmp_path / "source.raw"), str(tmp_path / "target.raw")
    io.save_grid(source, spath)
    io.save_grid(target, tpath)
    return spath, tpath


class TestCli:
    def run(self, argv, capsys):
        rc = cli.main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_missing_input_file_exits_nonzero_with_module(self, tmp_path, capsys):
        rc, _, err = self.run(
            ["thresholds", "--grid", str(tmp_path / "absent.raw")], capsys
        )
        assert rc == 1
        assert "spatial-link: error [grid-core]" in err

    def test_thresholds_prints_band_json(self, instance_files, capsys):
        spath, _ = instance_files
        rc, out, _ = self.run(["thresholds", "--grid", spath], capsys)
        assert rc == 0
        doc = json.loads(out)
        bands = compute_threshold_bands(io.load_grid(spath), LOSS_NEGATIVE)
        assert doc["median"] == bands.median
        assert doc["q3"] == bands.q3
        assert doc["ub"] == bands.ub
        assert doc["orientation"] == LOSS_NEGATIVE

    def test_diff_subtracts_earlier_from_later(self, tmp_path, capsys):
        earlier = grid_of([[1.0, 2.0]])
        later = grid_of([[3.0, -1.0]])
        io.save_grid(earlier, str(tmp_path / "a.raw"))
        io.save_grid(later, str(tmp_path / "b.raw"))
        out = str(tmp_path / "d.raw")
        rc, _, _ = self.run(
            ["diff", str(tmp_path / "a.raw"), str(tmp_path / "b.raw"), "-o", out], capsys
        )
        assert rc == 0
        assert io.load_grid(out).values.tolist() == [[2.0, -3.0]]

    def test_stage_chain_matches_api(self, instance_files, tmp_path, capsys):
        """build-graph | extract-paths | significance equals the direct API."""
        spath, tpath = instance_files
        gpath = str(tmp_path / "graph.json")
        ppath = str(tmp_path / "paths.json")
        rpath = str(tmp_path / "results.json")
        base = ["--source", spath, "--target", tpath]
        rc, out, _ = self.run(
            ["build-graph", *base, "--dmax", "2.0", "-o", gpath], capsys
        )
        assert rc == 0 and "nodes" in out
        rc, _, _ = self.run(
            ["extract-paths", "--graph", gpath, "--max-len", "4", "-o", ppath], capsys
        )
        assert rc == 0
        rc, _, _ = self.run(
            ["significance", *base, "--graph", gpath, "--paths", ppath,
             "--m", "99", "--seed", "5", "-o", rpath], capsys
        )
        assert rc == 0

        source, target = io.load_grid(spath), io.load_grid(tpath)
        src = classify_cells(source, compute_threshold_bands(source, LOSS_NEGATIVE),
                             "moderate", KIND_SOURCE)
        tgt = classify_cells(target, compute_threshold_bands(target, LOSS_NEGATIVE),
                             "moderate", KIND_TARGET)
        graph = build_graph(src, tgt, max_edge_cells=2.0)
        paths = extract_all_paths(graph, max_nodes=4)
        engine = PermutationNull.for_graph(
            graph, source, target, SeedPolicy(base_seed=5), n_replicates=99
        )
        expected = engine.evaluate(paths)

        doc = json.loads(open(rpath).read())
        assert [r["nodes"] for r in doc["results"]] == [list(p.nodes) for p in paths]
        assert [r["p_value"] for r in doc["results"]] == [r.p_value for r in expected]

    @pytest.mark.parametrize("variant", ["standard", "cmad"])
    def test_stage_chain_matches_pipeline(self, variant, instance_files, tmp_path, capsys):
        """The stage subcommands write the pipeline's graph and result rows."""
        spath, tpath = instance_files
        inputs = ["--source", spath, "--target", tpath]
        if variant == "cmad":
            bits = np.random.default_rng(2).random((20, 20)) < 0.5
            mpath = str(tmp_path / "mask.raw")
            io.save_grid(grid_of(bits.astype(float)), mpath)
            inputs += ["--mask", mpath]
        flags = [*inputs, "--variant", variant, "--dmax", "2.0", "--seed", "5"]
        out_dir = str(tmp_path / "run")
        gpath, ppath, rpath = (str(tmp_path / f"{n}.json") for n in ("graph", "paths", "results"))
        for argv in (
            ["pipeline", *flags, "--max-len", "4", "--m", "99", "--out-dir", out_dir],
            ["build-graph", *flags, "-o", gpath],
            ["extract-paths", "--graph", gpath, "--max-len", "4", "-o", ppath],
            ["significance", *inputs, "--graph", gpath, "--paths", ppath,
             "--m", "99", "--seed", "5", "-o", rpath],
        ):
            assert self.run(argv, capsys)[0] == 0, argv

        def load(path):
            doc = json.loads(open(path).read())
            doc.pop("metadata")
            return doc

        assert load(gpath) == load(os.path.join(out_dir, "graph.json"))
        assert "thresholds_source" in load(gpath)["params"]
        results = load(rpath)["results"]
        assert results and results == load(os.path.join(out_dir, "results.json"))["results"]

    def stage_files(self, instance_files, tmp_path, capsys, *flags):
        spath, tpath = instance_files
        gpath, ppath = str(tmp_path / "graph.json"), str(tmp_path / "paths.json")
        self.run(["build-graph", "--source", spath, "--target", tpath, "--dmax", "2.0",
                  *flags, "-o", gpath], capsys)
        self.run(["extract-paths", "--graph", gpath, "--max-len", "3", "-o", ppath], capsys)
        return gpath, ppath

    def significance(self, capsys, tmp_path, gpath, ppath, spath, tpath, *flags):
        return self.run(
            ["significance", "--graph", gpath, "--paths", ppath, "--source", spath,
             "--target", tpath, "--m", "9", *flags, "-o", str(tmp_path / "r.json")], capsys
        )

    def test_significance_grids_smaller_than_graph(self, instance_files, tmp_path, capsys):
        gpath, ppath = self.stage_files(instance_files, tmp_path, capsys)
        small = []
        for name in instance_files:
            grid = io.load_grid(name)
            path = str(tmp_path / ("small_" + os.path.basename(name)))
            io.save_grid(grid_of(grid.values[:12, :12]), path)
            small.append(path)
        rc, _, err = self.significance(capsys, tmp_path, gpath, ppath, *small)
        assert rc == 1
        assert "spatial-link: error [grid-core]: graph node" in err
        assert "outside the 12x12 grids" in err
        assert "spatial-link: hint: pass the fields" in err

    def test_significance_checks_node_cells_with_no_paths(self, instance_files, tmp_path, capsys):
        gpath, _ = self.stage_files(instance_files, tmp_path, capsys)
        empty = tmp_path / "empty_paths.json"
        empty.write_text(json.dumps({"metadata": {}, "paths": []}))
        small = []
        for name in instance_files:
            path = str(tmp_path / ("small_" + os.path.basename(name)))
            io.save_grid(grid_of(io.load_grid(name).values[:12, :12]), path)
            small.append(path)
        rc, _, err = self.significance(capsys, tmp_path, gpath, str(empty), *small)
        assert rc == 1
        assert "outside the 12x12 grids" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("interval, expected", [
        (None, "KeyError: 'target_interval'"),
        (["a", "b"], "ValueError: could not convert string to float: 'a'"),
        ([0.5], "ValueError: not enough values to unpack"),
    ], ids=["missing", "strings", "one-bound"])
    def test_significance_bad_cmad_params(self, interval, expected, instance_files, tmp_path,
                                          capsys):
        mpath = str(tmp_path / "mask.raw")
        io.save_grid(grid_of((np.random.default_rng(2).random((20, 20)) < 0.5) * 1.0), mpath)
        gpath, ppath = self.stage_files(instance_files, tmp_path, capsys,
                                        "--variant", "cmad", "--mask", mpath)
        doc = json.loads(open(gpath).read())
        if interval is None:
            del doc["params"]["target_interval"]
        else:
            doc["params"]["target_interval"] = interval
        with open(gpath, "w") as fh:
            json.dump(doc, fh)
        rc, _, err = self.significance(capsys, tmp_path, gpath, ppath, *instance_files,
                                       "--mask", mpath)
        assert rc == 1
        assert "spatial-link: error [grid-core]: cmad graph params do not give the target " \
               f"band: {expected}" in err
        assert 'spatial-link: hint: a cmad graph records "target_interval": [lo, hi]' in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("name, value, message", [
        ("variant", "bogus", "[io-cli]: variant must be one of ('standard', 'cmad')"),
        ("orientation_source", "up", "[io-cli]: orientation_source must be one of"),
        ("orientation_target", 1, "[io-cli]: orientation_target must be one of"),
        ("band_scope", "planet", "[io-cli]: band_scope must be one of ('window', 'global')"),
        ("window", "3:1,5:15", "[grid-core]: window 3:1,5:15 is empty"),
    ], ids=["variant", "orientation-source", "orientation-target", "band-scope", "window"])
    def test_significance_hint_names_the_graph_params(self, name, value, message,
                                                       instance_files, tmp_path, capsys):
        """A setting read from graph.json is named as such, not as a flag significance lacks."""
        gpath, ppath = self.stage_files(instance_files, tmp_path, capsys)
        doc = json.loads(open(gpath).read())
        doc["params"][name] = value
        with open(gpath, "w") as fh:
            json.dump(doc, fh)
        rc, _, err = self.significance(capsys, tmp_path, gpath, ppath, *instance_files)
        assert rc == 1
        assert f"spatial-link: error {message}" in err
        assert f"spatial-link: hint: give params.{name} in {gpath} (spatial-link build-graph " \
               "writes it)" in err
        assert "--" not in err.split("hint:")[1]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["build-graph", "extract-paths", "significance", "aar"])
    def test_output_in_a_missing_directory(self, command, instance_files, tmp_path, capsys):
        spath, tpath = instance_files
        gpath, ppath = self.stage_files(instance_files, tmp_path, capsys)
        (tmp_path / "origins.json").write_text(json.dumps([{"cell": [4, 4]}]))
        out = str(tmp_path / "nodir" / "out.json")
        argv = {
            "build-graph": ["--source", spath, "--target", tpath],
            "extract-paths": ["--graph", gpath],
            "significance": ["--graph", gpath, "--paths", ppath, "--source", spath,
                             "--target", tpath, "--m", "9"],
            "aar": ["--values", spath, "--mask", tpath, "--origins",
                    str(tmp_path / "origins.json"), "--station=1,1", "--m", "9"],
        }[command]
        rc, stdout, err = self.run([command, *argv, "-o", out], capsys)
        assert rc == 1
        assert f"spatial-link: error [io-cli]: cannot write {out}: No such file or directory" in err
        assert f"spatial-link: hint: check that the directory {tmp_path / 'nodir'} exists" in err
        assert "Traceback" not in err
        assert stdout == ""
        assert not list(tmp_path.rglob("*.tmp"))
        assert not (tmp_path / "nodir").exists()

    def test_significance_node_on_invalid_cell(self, instance_files, tmp_path, capsys):
        gpath, ppath = self.stage_files(instance_files, tmp_path, capsys)
        node = next(n for n in json.loads(open(gpath).read())["nodes"] if n["kind"] == "source")
        source = io.load_grid(instance_files[0])
        valid = source.valid_mask.copy()
        valid[node["row"], node["col"]] = False
        holed = str(tmp_path / "holed.raw")
        io.save_grid(grid_of(source.values, valid), holed)
        rc, _, err = self.significance(capsys, tmp_path, gpath, ppath, holed, instance_files[1])
        assert rc == 1
        assert "spatial-link: error [grid-core]" in err
        assert "on an invalid cell of the source field" in err
        assert "spatial-link: hint:" in err

    def test_significance_cmad_graph_needs_mask(self, instance_files, tmp_path, capsys):
        mpath = str(tmp_path / "mask.raw")
        io.save_grid(grid_of(np.ones((20, 20))), mpath)
        gpath, ppath = self.stage_files(
            instance_files, tmp_path, capsys, "--variant", "cmad", "--mask", mpath
        )
        rc, _, err = self.significance(capsys, tmp_path, gpath, ppath, *instance_files)
        assert rc == 1
        assert "spatial-link: error [io-cli]: the cmad variant requires --mask" in err
        assert "spatial-link: hint:" in err

    def high_band_paths(self, instance_files, tmp_path, capsys) -> str:
        spath, tpath = instance_files
        gpath, ppath = str(tmp_path / "high.json"), str(tmp_path / "high_paths.json")
        self.run(["build-graph", "--source", spath, "--target", tpath, "--dmax", "3",
                  "--band-source", "high", "--band-target", "high", "-o", gpath], capsys)
        self.run(["extract-paths", "--graph", gpath, "--max-len", "4", "-o", ppath], capsys)
        return ppath

    def test_significance_paths_of_another_graph(self, instance_files, tmp_path, capsys):
        ppath = self.high_band_paths(instance_files, tmp_path, capsys)
        gpath = str(tmp_path / "moderate.json")
        spath, tpath = instance_files
        self.run(["build-graph", "--source", spath, "--target", tpath, "--dmax", "1.5",
                  "-o", gpath], capsys)
        rc, _, err = self.significance(capsys, tmp_path, gpath, ppath, *instance_files)
        assert rc == 1
        assert "spatial-link: error [io-cli]: path" in err
        assert "which is not an edge of the graph" in err
        assert "spatial-link: hint: extract the paths from this graph" in err
        assert not os.path.exists(tmp_path / "r.json")

    def test_significance_paths_name_nodes_past_the_graph(self, instance_files, tmp_path, capsys):
        ppath = self.high_band_paths(instance_files, tmp_path, capsys)
        gpath = str(tmp_path / "small.json")
        spath, tpath = instance_files
        self.run(["build-graph", "--source", spath, "--target", tpath, "--dmax", "1.5",
                  "--window", "0:9,0:9", "-o", gpath], capsys)
        rc, _, err = self.significance(capsys, tmp_path, gpath, ppath, *instance_files)
        assert rc == 1
        assert "but the graph has 23 nodes" in err
        assert "spatial-link: hint: extract the paths from this graph" in err

    @pytest.mark.parametrize("case", ["scores-zeroed", "one-weight-for-two-steps",
                                      "weight-flipped", "single-node"])
    def test_significance_paths_disagree_with_the_graph(self, case, instance_files, tmp_path,
                                                         capsys):
        gpath, ppath = self.stage_files(instance_files, tmp_path, capsys)
        doc = json.loads(open(ppath).read())
        k, long = next((k, p) for k, p in enumerate(doc["paths"]) if len(p["nodes"]) == 3)
        weights, score = long["edge_weights"], long["score"]
        if case == "scores-zeroed":
            for p in doc["paths"]:
                p["score"] = 0.0
            expected = "and score 0.0, but the graph gives it"
        elif case == "single-node":
            long["nodes"] = long["nodes"][:1]
            expected = f"path {k} is {long['nodes']}; a path needs two or more nodes"
        else:
            if case == "one-weight-for-two-steps":
                long["edge_weights"] = weights[:1]
            else:
                long["edge_weights"] = [-weights[0], *weights[1:]]
            expected = (f"path {k} records edge weights {long['edge_weights']} and score "
                        f"{score!r}, but the graph gives it {weights} and {score!r}")
        with open(ppath, "w") as fh:
            json.dump(doc, fh)
        rc, _, err = self.significance(capsys, tmp_path, gpath, ppath, *instance_files)
        assert rc == 1
        assert "spatial-link: error [io-cli]: path" in err and expected in err
        assert "spatial-link: hint: extract the paths from this graph" in err
        assert not os.path.exists(tmp_path / "r.json")

    def test_significance_paths_given_as_an_object(self, instance_files, tmp_path, capsys):
        gpath, ppath = self.stage_files(instance_files, tmp_path, capsys)
        with open(ppath, "w") as fh:
            json.dump({"metadata": {}, "paths": {}}, fh)
        rc, _, err = self.significance(capsys, tmp_path, gpath, ppath, *instance_files)
        assert rc == 1
        assert "spatial-link: error [io-cli]: malformed paths document" in err
        assert "paths must be a list, got {}" in err
        assert 'spatial-link: hint: expected {"paths": [' in err
        assert not os.path.exists(tmp_path / "r.json")

    def test_significance_graph_with_a_negative_distance(self, instance_files, tmp_path, capsys):
        gpath, ppath = self.stage_files(instance_files, tmp_path, capsys)
        doc = json.loads(open(gpath).read())
        doc["edges"][0]["distance"] = -5.0
        with open(gpath, "w") as fh:
            json.dump(doc, fh)
        rc, _, err = self.significance(capsys, tmp_path, gpath, ppath, *instance_files)
        assert rc == 1
        u, v = doc["edges"][0]["u"], doc["edges"][0]["v"]
        assert f"edge ({u}, {v}) has distance -5.0; a distance is at least 0" in err
        assert 'spatial-link: hint: expected {"params": {...}, "nodes": [' in err
        assert not os.path.exists(tmp_path / "r.json")

    @pytest.mark.parametrize("window, message", [
        ("3:1,5:15", "window 3:1,5:15 is empty (max index below min index)"),
        ("-1:5,0:10", "window corner (-1, 0) has negative index"),
    ], ids=["empty", "negative"])
    def test_pipeline_window_out_of_order_has_a_hint(self, window, message, instance_files,
                                                     tmp_path, capsys):
        spath, tpath = instance_files
        rc, _, err = self.run(["pipeline", "--source", spath, "--target", tpath,
                               f"--window={window}", "--out-dir", str(tmp_path / "out")], capsys)
        assert rc == 1
        assert f"spatial-link: error [grid-core]: {message}" in err
        assert "spatial-link: hint: give --window ROW0:ROW1,COL0:COL1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dims", ["3x4x5", "axb", "12"])
    def test_pipeline_rejects_bad_resample_dims(self, dims, instance_files, tmp_path, capsys):
        spath, tpath = instance_files
        rc, _, err = self.run(["pipeline", "--source", spath, "--target", tpath,
                               "--resample-source", dims, "--out-dir", str(tmp_path)], capsys)
        assert rc == 1
        assert f"spatial-link: error [io-cli]: cannot parse dims '{dims}'" in err
        assert "spatial-link: hint: give two integers" in err

    @pytest.mark.parametrize("resample", [[], ["--resample-source", "20x20"]],
                             ids=["as-is", "resampled"])
    def test_pipeline_mask_of_other_dims_fails(self, resample, instance_files, tmp_path, capsys):
        """The mask is checked at the source's own dims, before either is resampled."""
        spath, tpath = instance_files
        mpath, out = str(tmp_path / "m73.raw"), tmp_path / "out"
        io.save_grid(grid_of(np.ones((7, 3))), mpath)
        rc, stdout, err = self.run(
            ["pipeline", "--source", spath, "--target", tpath, "--variant", "cmad",
             "--mask", mpath, *resample, "--out-dir", str(out)], capsys
        )
        assert rc == 1
        assert "spatial-link: error [grid-core]: anomaly mask (7, 3) does not match" in err
        assert "spatial-link: hint: the mask must share the source grid geometry" in err
        assert stdout == ""
        assert not out.exists()

    def test_pipeline_resamples_the_mask_with_the_source(self, instance_files, tmp_path, capsys):
        """A resampled cmad run equals one on the resampled grids saved first, metadata aside."""
        spath, tpath = instance_files
        fine = io.load_grid(spath)
        coarse = ChangeGrid(values=fine.values[::2, ::2], valid_mask=fine.valid_mask[::2, ::2],
                            registration=fine.registration)
        mask = grid_of((fine.values[1::2, ::2] < 0).astype(float))
        inputs = {}
        for name, grid in (("source", coarse), ("mask", mask)):
            inputs[name] = str(tmp_path / f"{name}10.raw")
            io.save_grid(grid, inputs[name])
            inputs[name + "20"] = str(tmp_path / f"{name}20.raw")
            io.save_grid(resample_nearest(grid, 20, 20), inputs[name + "20"])
        common = ["--target", tpath, "--variant", "cmad", "--dmax", "2", "--max-len", "4",
                  "--m", "19"]
        out, out20 = str(tmp_path / "resampled"), str(tmp_path / "saved")
        assert self.run(["pipeline", *common, "--source", inputs["source"], "--mask",
                         inputs["mask"], "--resample-source", "20x20", "--out-dir", out],
                        capsys)[0] == 0
        assert self.run(["pipeline", *common, "--source", inputs["source20"], "--mask",
                         inputs["mask20"], "--out-dir", out20], capsys)[0] == 0
        for name in ("graph.json", "paths.json", "results.json"):
            doc, doc20 = (json.loads(open(os.path.join(d, name)).read()) for d in (out, out20))
            del doc["metadata"], doc20["metadata"]
            assert doc == doc20, name
        assert doc["results"]

    @pytest.mark.parametrize("case", ["resample", "csv", "synth"])
    def test_grid_too_large_to_hold_is_a_typed_error(self, case, instance_files, tmp_path,
                                                     capsys):
        """Dims of 10**15 cells, which numpy refuses at once, end in a typed error."""
        spath, tpath = instance_files
        out = tmp_path / "out"
        if case == "resample":
            argv = ["pipeline", "--source", spath, "--target", tpath,
                    "--resample-source", "1000000000000000x1", "--out-dir", str(out)]
            expected = "[grid-core]: source grid (1000000000000000, 1) and target grid (20, 20) " \
                       "differ"
        elif case == "csv":
            big = tmp_path / "big.csv"
            big.write_text("row,col,value\n1000000000000000,0,1.0\n")
            argv = ["thresholds", "--grid", str(big)]
            expected = f"[grid-core]: {big} declares a 1000000000000001x1 grid, too large to hold"
        else:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"dims": [10 ** 15, 1]}))
            argv = ["synth", "--spec", str(spec), "--out-dir", str(out)]
            expected = f"[io-cli]: bad synth spec {spec}: ValueError: dims [1000000000000000, 1] " \
                       "are too large to hold"
        rc, stdout, err = self.run(argv, capsys)
        assert rc == 1
        assert f"spatial-link: error {expected}" in err
        assert "Traceback" not in err
        assert stdout == ""
        assert not out.exists()

    def test_help_shows_each_rule(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["build-graph", "--help"])
        assert exit_info.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--variant VARIANT one of ('standard', 'cmad')" in help_text

    @pytest.mark.parametrize("command", ["build-graph", "significance", "pipeline"])
    def test_no_flag_help_is_only_a_type_rule(self, command, capsys):
        """A path or a switch has help of its own; its type rule alone says nothing."""
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        bare = re.findall(r"(--[a-z-]+(?: [A-Z_]+)?) (a string or null|a string|true or false)"
                          r"(?= -|$)", help_text)
        assert not bare

    def test_thresholds_rejects_unknown_orientation(self, instance_files, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["thresholds", "--grid", instance_files[0], "--orientation", "bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --orientation: invalid choice: 'bogus'" in err
        assert "Traceback" not in err

    def test_pipeline_writes_artifacts_and_is_thread_invariant(
        self, instance_files, tmp_path, capsys
    ):
        spath, tpath = instance_files
        config = {
            "source": spath,
            "target": tpath,
            "dmax": 2.0,
            "max_len": 4,
            "m": 99,
            "seed": 3,
        }
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        out1, out8 = str(tmp_path / "run1"), str(tmp_path / "run8")
        rc, out, _ = self.run(
            ["pipeline", "--config", str(cpath), "--out-dir", out1, "--threads", "1"], capsys
        )
        assert rc == 0
        assert "nodes=" in out and "significant=" in out
        for name in ("graph.json", "paths.json", "results.json",
                     "significant.geojson", "frequency.csv"):
            assert os.path.exists(os.path.join(out1, name)), name
        rc, _, _ = self.run(
            ["pipeline", "--config", str(cpath), "--out-dir", out8, "--threads", "8"], capsys
        )
        assert rc == 0
        a = open(os.path.join(out1, "results.json"), "rb").read()
        b = open(os.path.join(out8, "results.json"), "rb").read()
        assert a == b

    def test_pipeline_zero_significant_still_exits_zero(
        self, instance_files, tmp_path, capsys
    ):
        spath, tpath = instance_files
        out_dir = str(tmp_path / "nullrun")
        # m=9 puts the p-value floor at 0.1, above alpha, so nothing passes
        rc, out, _ = self.run(
            ["pipeline", "--source", spath, "--target", tpath, "--dmax", "2.0",
             "--max-len", "4", "--m", "9", "--out-dir", out_dir], capsys
        )
        assert rc == 0
        assert "significant=0" in out
        doc = json.loads(open(os.path.join(out_dir, "significant.geojson")).read())
        assert doc["features"] == []

    def test_pipeline_band_sweep_writes_nine_cells(self, instance_files, tmp_path, capsys):
        spath, tpath = instance_files
        out_dir = str(tmp_path / "sweep")
        rc, out, _ = self.run(
            ["pipeline", "--source", spath, "--target", tpath, "--dmax", "2.0",
             "--max-len", "3", "--m", "9", "--sweep-bands", "--out-dir", out_dir], capsys
        )
        assert rc == 0
        bands = ("moderate", "high", "anomalous")
        subdirs = sorted(os.listdir(out_dir))
        assert sorted(f"{a}_{b}" for a in bands for b in bands) == subdirs
        for sub in subdirs:
            assert os.path.exists(os.path.join(out_dir, sub, "results.json"))

    EMPTY_PAIRS = {
        ("moderate", "anomalous"): "no target cells qualified at the requested band",
        ("high", "anomalous"): "no target cells qualified at the requested band",
        ("anomalous", "moderate"): "no source cells qualified at the requested band",
        ("anomalous", "high"): "no source cells qualified at the requested band",
        ("anomalous", "anomalous"): "no source cells qualified at the requested band",
    }

    def test_pipeline_sweep_writes_every_artifact_of_an_empty_pairing(
        self, instance_files, tmp_path, capsys
    ):
        spath, tpath = instance_files
        out_dir = str(tmp_path / "sweep")
        # A tenfold upper bound leaves the anomalous band of both fields empty.
        rc, out, _ = self.run(
            ["pipeline", "--source", spath, "--target", tpath, "--sweep-bands",
             "--ub-multiplier", "10", "--dmax", "2", "--max-len", "4", "--m", "19",
             "--out-dir", out_dir], capsys
        )
        assert rc == 0
        config = RunConfig(source=spath, target=tpath, ub_multiplier=10.0, dmax=2.0, max_len=4,
                           m=19, sweep_bands=True, out_dir=str(tmp_path / "api"))
        for (band_source, band_target), note in self.EMPTY_PAIRS.items():
            assert f"{band_source}/{band_target}: skipped ({note})" in out
            sub = os.path.join(out_dir, f"{band_source}_{band_target}")
            metadata = io.metadata_block(
                {**config.echo(), "band_source": band_source, "band_target": band_target}, 0
            )
            for name, doc in (
                ("graph.json",
                 {"metadata": metadata, "note": note, "params": {}, "nodes": [], "edges": []}),
                ("paths.json", {"metadata": metadata, "note": note, "paths": []}),
                ("results.json", {"metadata": metadata, "note": note, "results": []}),
                ("significant.geojson",
                 {"type": "FeatureCollection", "metadata": metadata, "note": note,
                  "features": []}),
            ):
                assert open(os.path.join(sub, name)).read() == json.dumps(doc, indent=2) + "\n"
            assert open(os.path.join(sub, "frequency.csv")).read() == (
                "# metadata: " + json.dumps(metadata) + "\n" + ("0," * 19 + "0\n") * 20
            )

        runs = run_pipeline(config)
        assert len(runs) == 9
        for run in runs:
            note = self.EMPTY_PAIRS.get((run.band_source, run.band_target))
            assert run.note == note
            if note is not None:
                assert (run.n_nodes, run.n_edges, run.n_paths, run.n_significant) == (0, 0, 0, 0)
            sub = f"{run.band_source}_{run.band_target}"
            for name in sorted(os.listdir(os.path.join(out_dir, sub))):
                assert (open(os.path.join(config.out_dir, sub, name)).read()
                        == open(os.path.join(out_dir, sub, name)).read()), (sub, name)

        # The empty graph is a valid input of the stage commands.
        gpath = os.path.join(out_dir, "anomalous_high", "graph.json")
        ppath, rpath = str(tmp_path / "paths.json"), str(tmp_path / "results.json")
        rc, out, _ = self.run(["extract-paths", "--graph", gpath, "-o", ppath], capsys)
        assert rc == 0
        assert "0 candidates" in out
        assert json.loads(open(ppath).read())["paths"] == []
        rc, out, _ = self.run(["significance", "--graph", gpath, "--paths", ppath,
                               "--source", spath, "--target", tpath, "--m", "19",
                               "-o", rpath], capsys)
        assert rc == 0
        assert "0/0 paths" in out
        assert json.loads(open(rpath).read())["results"] == []

    def test_pipeline_single_pair_at_an_empty_band_fails(self, instance_files, tmp_path, capsys):
        spath, tpath = instance_files
        out_dir = tmp_path / "out"
        rc, _, err = self.run(
            ["pipeline", "--source", spath, "--target", tpath, "--band-source", "anomalous",
             "--ub-multiplier", "10", "--dmax", "2", "--max-len", "4", "--m", "19",
             "--out-dir", str(out_dir)], capsys
        )
        assert rc == 1
        assert "spatial-link: error [spatial-graph]: no source cells qualified" in err
        assert "spatial-link: hint: loosen the source band" in err
        assert "Traceback" not in err
        assert not os.path.exists(out_dir / "graph.json")

    def test_pipeline_single_pair_at_an_empty_band_makes_no_out_dir(
        self, instance_files, tmp_path, capsys
    ):
        spath, tpath = instance_files
        out_dir = tmp_path / "sp0"
        rc, _, err = self.run(
            ["pipeline", "--source", spath, "--target", tpath, "--band-source", "anomalous",
             "--ub-multiplier", "10", "--out-dir", str(out_dir)], capsys
        )
        assert rc == 1
        assert "spatial-link: error [spatial-graph]: no source cells qualified" in err
        assert not out_dir.exists()

    def test_pipeline_rejects_unknown_config_key(self, instance_files, tmp_path, capsys):
        spath, tpath = instance_files
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps({"source": spath, "target": tpath, "dmaax": 2.0}))
        rc, _, err = self.run(["pipeline", "--config", str(cpath)], capsys)
        assert rc == 1
        assert "unknown config keys: dmaax" in err

    def test_synth_planted_instance(self, tmp_path, capsys):
        spec = {
            "dims": [12, 12],
            "chain_cells": [[2, 2], [2, 3], [2, 4]],
            "split_index": 1,
            "band": "moderate",
            "seed": 3,
        }
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        out_dir = str(tmp_path / "inst")
        rc, _, _ = self.run(["synth", "--spec", str(spath), "--out-dir", out_dir], capsys)
        assert rc == 0
        truth = json.loads(open(os.path.join(out_dir, "truth.json")).read())
        assert truth["cells"] == spec["chain_cells"]
        source = io.load_grid(os.path.join(out_dir, "source.raw"))
        assert source.shape == (12, 12)

    def test_synth_null_instance_has_no_truth_file(self, tmp_path, capsys):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps({"dims": [8, 8], "seed": 1}))
        out_dir = str(tmp_path / "inst")
        rc, _, _ = self.run(["synth", "--spec", str(spath), "--out-dir", out_dir], capsys)
        assert rc == 0
        assert os.path.exists(os.path.join(out_dir, "source.raw"))
        assert not os.path.exists(os.path.join(out_dir, "truth.json"))

    @pytest.mark.parametrize("spec, message", [
        ({"dims": [20, 20], "chain_cells": [[4, 4], [4, 5]]}, "KeyError: 'split_index'"),
        ({"dims": [20, 20], "chain_cells": [[4.7, 4], [4, 5.9]], "split_index": 1},
         "a chain cell row must be an integer, got 4.7"),
        ({"dims": [20, 20], "chain_cells": [[4, 4], [4, "5"]], "split_index": 1},
         "a chain cell col must be an integer, got '5'"),
        ({"dims": [20, 20], "noise": {"sigma": "2"}}, "sigma must be a finite number, got '2'"),
        ({"dims": [20, 20], "noise": {"sigma": float("nan")}},
         "sigma must be a finite number, got nan"),
        ({"dims": [20, 20], "noise": {"mean": True}}, "mean must be a finite number, got True"),
        ({"dims": [20, 20], "chain_cells": [[4, 4], [4, 5]], "split_index": 1,
          "chain_values": [-1.0, "-1.0"]}, "a chain value must be a finite number, got '-1.0'"),
        ({"dims": [20, 20], "chain_cells": [[4, 4], [4, 5]], "split_index": 1,
          "max_spacing_cells": "3"}, "max_spacing_cells must be a finite number, got '3'"),
        ({"dims": [20, 20], "noise": {"name": "uniform"}}, "unknown noise model 'uniform'"),
        ({"dims": [20, 20], "noise": {"sigma": 0}}, "sigma must be positive"),
        ({"dims": [20, "x"]}, "dims must be [rows, cols] of positive integers, got [20, 'x']"),
        ({"dims": [20, 0]}, "dims must be [rows, cols] of positive integers"),
        ({"dims": [20, 20], "chain_cells": [[4, 4], [4, 5]], "split_index": 1, "band": "huge"},
         "unknown band 'huge'"),
        ([20, 20], "the spec is not a JSON object"),
        ({"dims": [8.7, 8]}, "dims must be [rows, cols] of positive integers, got [8.7, 8]"),
        ({"dims": [20, 20], "chain_cells": [[4, 4], [4, 5]], "split_index": 1.9},
         "split_index must be an integer, got 1.9"),
    ], ids=["no-split-index", "cell-float", "cell-string", "sigma-string", "sigma-nan",
            "mean-bool", "chain-value-string", "spacing-string", "noise-name", "noise-sigma",
            "dims-type", "dims-zero", "band", "not-object", "dims-float", "split-index-float"])
    def test_synth_bad_spec_fails_before_any_output(self, spec, message, tmp_path, capsys):
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        out_dir = tmp_path / "inst"
        rc, _, err = self.run(["synth", "--spec", str(spath), "--out-dir", str(out_dir)], capsys)
        assert rc == 1
        assert f"spatial-link: error [io-cli]: bad synth spec {spath}: " in err
        assert message in err
        assert "spatial-link: hint: expected {\"dims\": [rows, cols]" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("name, value, requirement", [
        ("seed", 1.5, "an integer >= 0"),
        ("seed", True, "an integer >= 0"),
        ("max_len", 4.5, "an integer >= 2"),
    ])
    def test_synth_spec_setting_out_of_range_fails_before_any_output(
        self, name, value, requirement, tmp_path, capsys
    ):
        spec = {"dims": [20, 20], "chain_cells": [[4, 4], [4, 5]], "split_index": 1, name: value}
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        out_dir = tmp_path / "inst"
        rc, _, err = self.run(["synth", "--spec", str(spath), "--out-dir", str(out_dir)], capsys)
        assert rc == 1
        assert f"spatial-link: error [io-cli]: {name} must be {requirement}, got {value!r}" in err
        assert f"spatial-link: hint: give the spec's {name} a value that is {requirement}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("case", ["paths-without-paths", "node-without-row", "graph-list",
                                      "config-list"])
    def test_malformed_input_files_are_typed_errors(self, case, instance_files, tmp_path, capsys):
        gpath, ppath = self.stage_files(instance_files, tmp_path, capsys)
        bad = tmp_path / "bad.json"
        graph = json.loads(open(gpath).read())
        del graph["nodes"][0]["row"]
        bad.write_text(json.dumps({
            "paths-without-paths": {"metadata": {}},
            "node-without-row": graph,
            "graph-list": [1, 2],
            "config-list": [["source", instance_files[0]]],
        }[case]))
        argv, expected = {
            "paths-without-paths": (
                ["significance", "--graph", gpath, "--paths", str(bad), "--source",
                 instance_files[0], "--target", instance_files[1], "-o", str(tmp_path / "r.json")],
                ("[io-cli]: malformed paths document: KeyError: 'paths'", '{"paths": ['),
            ),
            "node-without-row": (
                ["extract-paths", "--graph", str(bad), "-o", str(tmp_path / "p.json")],
                ("[io-cli]: malformed graph document: KeyError: 'row'", '"nodes": [{"id", "row"'),
            ),
            "graph-list": (
                ["extract-paths", "--graph", str(bad), "-o", str(tmp_path / "p.json")],
                ("[io-cli]: malformed graph document: TypeError: ", '"nodes": [{"id", "row"'),
            ),
            "config-list": (
                ["pipeline", "--config", str(bad), "--out-dir", str(tmp_path / "out")],
                ("[io-cli]: the config is not a JSON object", '{"source": ...'),
            ),
        }[case]
        rc, _, err = self.run(argv, capsys)
        assert rc == 1
        assert f"spatial-link: error {expected[0]}" in err
        assert "spatial-link: hint: " in err and expected[1] in err
        assert not any((tmp_path / name).exists() for name in ("r.json", "p.json", "out"))

    def test_graph_params_given_as_pairs_are_rejected(self, instance_files, tmp_path, capsys):
        gpath, _ = self.stage_files(instance_files, tmp_path, capsys)
        graph = json.loads(open(gpath).read())
        graph["params"] = [[key, value] for key, value in graph["params"].items()]
        with open(gpath, "w") as fh:
            json.dump(graph, fh)
        rc, _, err = self.run(["extract-paths", "--graph", gpath, "-o", str(tmp_path / "p.json")],
                              capsys)
        assert rc == 1
        assert "spatial-link: error [io-cli]: malformed graph document: ValueError: params " \
               "must be an object, got [['variant', 'standard']" in err
        assert 'spatial-link: hint: expected {"params": {...}, "nodes": [' in err
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("case", ["config-dmax", "paths-score", "graph-row"])
    def test_integers_too_large_are_typed_errors(self, case, instance_files, tmp_path, capsys):
        """An integer no float or int64 holds ends in a typed error, not an OverflowError."""
        gpath, ppath = self.stage_files(instance_files, tmp_path, capsys)
        spath, tpath = instance_files
        if case == "config-dmax":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"source": spath, "target": tpath, "dmax": 10 ** 400}))
            argv = ["pipeline", "--config", str(config), "--out-dir", str(tmp_path / "out")]
            expected = "[io-cli]: dmax must be a finite number > 0, got 1000"
        elif case == "paths-score":
            doc = json.loads(open(ppath).read())
            doc["paths"][0]["score"] = 10 ** 400
            with open(ppath, "w") as fh:
                json.dump(doc, fh)
            argv = ["significance", "--graph", gpath, "--paths", ppath, "--source", spath,
                    "--target", tpath, "--m", "9", "-o", str(tmp_path / "out")]
            expected = "[io-cli]: malformed paths document: ValueError: path score must be " \
                       "a finite number, got 1000"
        else:
            doc = json.loads(open(gpath).read())
            doc["nodes"][0]["row"] = 10 ** 30
            with open(gpath, "w") as fh:
                json.dump(doc, fh)
            argv = ["extract-paths", "--graph", gpath, "-o", str(tmp_path / "out")]
            expected = "[io-cli]: malformed graph document: OverflowError: "
        rc, _, err = self.run(argv, capsys)
        assert rc == 1
        assert f"spatial-link: error {expected}" in err
        assert "spatial-link: hint: " in err
        assert not (tmp_path / "out").exists()

    def test_integer_of_too_many_digits_is_a_typed_error(self, tmp_path, capsys):
        """Python reads at most 4,300 digits of an integer from text by default."""
        config = tmp_path / "config.json"
        config.write_text('{"dmax": 1' + "0" * 5000 + "}")
        rc, _, err = self.run(["pipeline", "--config", str(config), "--out-dir",
                               str(tmp_path / "out")], capsys)
        assert rc == 1
        assert f"spatial-link: error [grid-core]: {config} is not valid JSON: " in err
        assert not (tmp_path / "out").exists()

    def test_thread_setting_is_not_read_by_build_graph(
        self, instance_files, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(cli.ENV_THREADS, "lots")
        spath, tpath = instance_files
        gpath = str(tmp_path / "graph.json")
        rc, _, _ = self.run(["build-graph", "--source", spath, "--target", tpath, "-o", gpath],
                            capsys)
        assert rc == 0
        rc, _, err = self.run(["pipeline", "--source", spath, "--target", tpath,
                               "--out-dir", str(tmp_path / "out")], capsys)
        assert rc == 1
        assert "SPATIAL_LINK_THREADS='lots' is not an integer" in err

    def test_aar_end_to_end(self, tmp_path, capsys):
        reg = GridRegistration(lat0=0.0, lon0=0.0, dlat=1.0, dlon=1.0, cell_km=111.11)
        vals = np.full((50, 50), 0.1)
        mask = np.zeros((50, 50))
        for i in range(21):
            vals[i, 5], mask[i, 5] = 10.0, 1.0
        for r in range(3):
            for c in range(3):
                vals[44 + r, 30 + c], mask[44 + r, 30 + c] = 2.0, 1.0
        vpath, mpath = str(tmp_path / "v.raw"), str(tmp_path / "m.raw")
        io.save_grid(grid_of(vals, registration=reg), vpath)
        io.save_grid(grid_of(mask, registration=reg), mpath)
        opath = tmp_path / "origins.json"
        opath.write_text(json.dumps(
            {"origins": [{"cell": [12, 5]}, [14.1, 5.2], {"lat": 44.5, "lon": 30.5}]}
        ))
        rpath = str(tmp_path / "report.json")
        rc, out, _ = self.run(
            ["aar", "--values", vpath, "--mask", mpath, "--origins", str(opath),
             "--station", "20.2,5.3", "--seed", "1", "-o", rpath], capsys
        )
        assert rc == 0
        assert "30 points, 2 components (1 retained)" in out
        doc = json.loads(open(rpath).read())
        assert doc["n_points"] == 30
        assert doc["station"]["cell"] == [20, 5]
        assert doc["threshold"] == 2.0
        assert [44.5, 30.5] in doc["dropped_origins"]
        assert len(doc["results"]) == 2
        assert all(r["significant"] for r in doc["results"])

    def southern_row(self, tmp_path, lon0):
        """A 10x40 quarter-degree field from 70 S whose row 5 is elevated."""
        reg = GridRegistration(lat0=-70.0, lon0=lon0, dlat=0.25, dlon=0.25, cell_km=27.8)
        vals, mask = np.full((10, 40), 0.1), np.zeros((10, 40))
        vals[5], mask[5] = 2.0, 1.0
        vpath, mpath = str(tmp_path / "v.raw"), str(tmp_path / "m.raw")
        io.save_grid(grid_of(vals, registration=reg), vpath)
        io.save_grid(grid_of(mask, registration=reg), mpath)
        opath = tmp_path / "origins.json"
        opath.write_text(json.dumps([{"cell": [5, 0]}]))
        return ["aar", "--values", vpath, "--mask", mpath, "--origins", str(opath)]

    def test_southern_station(self, tmp_path, capsys):
        argv = self.southern_row(tmp_path, lon0=-70.0)
        rpath = str(tmp_path / "report.json")
        rc, out, _ = self.run(argv + ["--station=-68.75,-60", "--min-extent-km", "100",
                                      "--max-len", "40", "--m", "19", "-o", rpath], capsys)
        assert rc == 0
        assert "40 points, 1 components (1 retained)" in out
        doc = json.loads(open(rpath).read())
        assert doc["station"]["cell"] == [5, 39]
        assert len(doc["results"]) == 1

    def test_cell_longitude_past_180(self, tmp_path, capsys):
        argv = self.southern_row(tmp_path, lon0=175.0)
        rpath = tmp_path / "report.json"
        rc, _, err = self.run(argv + ["--station=-68.75,-179.5", "-o", str(rpath)], capsys)
        assert rc == 1
        assert "error [grid-core]: cell (5, 20) lies at latitude -68.75, longitude 180.0" in err
        assert "Traceback" not in err
        assert not rpath.exists()

    @pytest.mark.parametrize("station", ["nan,nan", "-68.75,inf"])
    def test_non_finite_station_is_unreachable(self, station, tmp_path, capsys):
        argv = self.southern_row(tmp_path, lon0=-70.0)
        rpath = tmp_path / "report.json"
        rc, _, err = self.run(argv + [f"--station={station}", "--min-extent-km", "100",
                                      "--max-len", "40", "--m", "19", "-o", str(rpath)], capsys)
        assert rc == 1
        lat, lon = station.split(",")
        assert f"spatial-link: error [aar-benchmark]: coordinate ({lat}, {lon}) is not finite" in err
        assert "Traceback" not in err
        assert not rpath.exists()

    @pytest.mark.parametrize("entry, shown", [
        ("[NaN, NaN]", "(nan, nan)"), ('{"lat": -68.75, "lon": Infinity}', "(-68.75, inf)"),
    ], ids=["nan", "inf"])
    def test_non_finite_origin_is_rejected(self, entry, shown, tmp_path, capsys):
        argv = self.southern_row(tmp_path, lon0=-70.0)
        (tmp_path / "origins.json").write_text(f'[{{"cell": [5, 0]}}, {entry}]')
        rpath = tmp_path / "report.json"
        rc, _, err = self.run(argv + ["--station=-68.75,-60", "--min-extent-km", "100",
                                      "--max-len", "40", "--m", "19", "-o", str(rpath)], capsys)
        assert rc == 1
        assert (f"spatial-link: error [io-cli]: bad origin entry in {tmp_path / 'origins.json'}: "
                f"ValueError: coordinate {shown} is not finite") in err
        assert "in finite degrees" in err
        assert "Traceback" not in err
        assert not rpath.exists()

    @pytest.mark.parametrize("entry, shown", [
        ('{"cell": [5.7, 0.2]}', "a cell row must be an integer, got 5.7"),
        ('{"cell": [5, true]}', "a cell col must be an integer, got True"),
        ('["-68.75", "-60"]', "coordinate ('-68.75', '-60') is not two JSON numbers"),
        ('{"lat": true, "lon": -60}', "coordinate (True, -60) is not two JSON numbers"),
    ], ids=["cell-float", "cell-bool", "lat-lon-strings", "lat-bool"])
    def test_origin_is_not_coerced(self, entry, shown, tmp_path, capsys):
        argv = self.southern_row(tmp_path, lon0=-70.0)
        (tmp_path / "origins.json").write_text(f'[{{"cell": [5, 0]}}, {entry}]')
        rpath = tmp_path / "report.json"
        rc, _, err = self.run(argv + ["--station=-68.75,-60", "--min-extent-km", "100",
                                      "--max-len", "40", "--m", "19", "-o", str(rpath)], capsys)
        assert rc == 1
        assert (f"spatial-link: error [io-cli]: bad origin entry in {tmp_path / 'origins.json'}: "
                f"ValueError: {shown}") in err
        assert "Traceback" not in err
        assert not rpath.exists()

    @pytest.mark.parametrize("key, value", [("lat0", float("nan")), ("cell_km", float("inf"))])
    def test_non_finite_registration(self, key, value, instance_files, tmp_path, capsys):
        spath, tpath = instance_files
        sidecar = json.loads(open(spath + ".json").read())
        sidecar[key] = value
        with open(spath + ".json", "w") as fh:
            json.dump(sidecar, fh)
        out = tmp_path / "out"
        rc, _, err = self.run(["pipeline", "--source", spath, "--target", tpath, "--dmax", "2.0",
                               "--max-len", "4", "--m", "9", "--out-dir", str(out)], capsys)
        assert rc == 1
        assert f"spatial-link: error [grid-core]: sidecar {spath}.json has a bad registration" in err
        assert "registration fields must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_station_string(self, tmp_path, capsys):
        vpath = str(tmp_path / "v.raw")
        io.save_grid(grid_of([[1.0, 1.0]]), vpath)
        opath = tmp_path / "origins.json"
        opath.write_text(json.dumps([[0.0, 0.0]]))
        rc, _, err = self.run(
            ["aar", "--values", vpath, "--mask", vpath, "--origins", str(opath),
             "--station", "nope", "-o", str(tmp_path / "r.json")], capsys
        )
        assert rc == 1
        assert "[io-cli]" in err

    def test_origins_without_key(self, tmp_path, capsys):
        vpath = str(tmp_path / "v.raw")
        io.save_grid(grid_of([[1.0, 1.0]]), vpath)
        opath = tmp_path / "origins.json"
        opath.write_text(json.dumps({"wrong": []}))
        rc, _, err = self.run(
            ["aar", "--values", vpath, "--mask", vpath, "--origins", str(opath),
             "--station", "0,0", "-o", str(tmp_path / "r.json")], capsys
        )
        assert rc == 1
        assert "no 'origins' key" in err

    @pytest.mark.parametrize("doc", [{"origins": "x"}, {"origins": None}, 5],
                             ids=["string", "null", "number"])
    def test_origins_not_a_list(self, doc, tmp_path, capsys):
        vpath = str(tmp_path / "v.raw")
        io.save_grid(grid_of([[1.0, 1.0]]), vpath)
        opath, rpath = tmp_path / "origins.json", tmp_path / "r.json"
        opath.write_text(json.dumps(doc))
        rc, _, err = self.run(
            ["aar", "--values", vpath, "--mask", vpath, "--origins", str(opath),
             "--station", "0,0", "-o", str(rpath)], capsys
        )
        assert rc == 1
        assert f"spatial-link: error [io-cli]: the origins in {opath} are not a JSON list" in err
        assert "hint: expected a JSON list or an object with an origins list" in err
        assert "Traceback" not in err
        assert not rpath.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("aar", "--m", "0"),
        ("aar", "--alpha", "1.5"),
        ("aar", "--max-len", "1"),
        ("aar", "--threads", "0"),
        ("aar", "--seed", "-1"),
        ("aar", "--max-edge-km", "0"),
        ("aar", "--snap-km", "0"),
        ("aar", "--min-extent-km", "-1"),
        ("aar", "--cap", "0"),
        ("aar", "--max-edge-km", "inf"),
        ("aar", "--snap-km", "inf"),
        ("aar", "--min-extent-km", "inf"),
        ("aar", "--threshold", "nan"),
        ("aar", "--threshold", "inf"),
        ("extract-paths", "--max-len", "1"),
        ("extract-paths", "--cap", "0"),
        ("extract-paths", "--seed", "-1"),
        ("thresholds", "--ub-multiplier", "-1"),
        ("thresholds", "--ub-multiplier", "inf"),
        ("synth", "--seed", "-1"),
        ("pipeline", "--ub-multiplier", "-1"),
        ("pipeline", "--seed", "-1"),
        ("pipeline", "--dmax", "0"),
        ("pipeline", "--alpha", "0"),
        ("pipeline", "--threads", "0"),
        ("pipeline", "--dmax", "inf"),
        ("pipeline", "--ub-multiplier", "inf"),
        ("pipeline", "--orientation-source", "up"),
        ("pipeline", "--band-target", "extreme"),
        ("pipeline", "--variant", "bogus"),
        ("pipeline", "--metric", "manhattan"),
        ("pipeline", "--band-scope", "planet"),
    ])
    def test_out_of_range_setting_fails_before_any_output(
        self, command, flag, value, instance_files, tmp_path, capsys
    ):
        spath, tpath = instance_files
        gpath = str(tmp_path / "graph.json")
        assert self.run(["build-graph", "--source", spath, "--target", tpath, "--dmax", "2.0",
                         "-o", gpath], capsys)[0] == 0
        (tmp_path / "spec.json").write_text(json.dumps({"dims": [8, 8]}))
        (tmp_path / "origins.json").write_text(json.dumps([[0.0, 0.0]]))
        out = tmp_path / "out"
        base = {
            "aar": ["--values", spath, "--mask", tpath, "--origins", str(tmp_path / "origins.json"),
                    "--station", "0,0", "-o", str(out / "report.json")],
            "extract-paths": ["--graph", gpath, "-o", str(out / "paths.json")],
            "thresholds": ["--grid", spath],
            "synth": ["--spec", str(tmp_path / "spec.json"), "--out-dir", str(out)],
            "pipeline": ["--source", spath, "--target", tpath, "--dmax", "2.0", "--max-len", "4",
                         "--m", "9", "--out-dir", str(out)],
        }[command]
        rc, stdout, err = self.run([command, *base, flag, value], capsys)
        assert rc == 1
        name = flag[2:].replace("-", "_")
        assert f"spatial-link: error [io-cli]: {name} must be" in err
        assert f"spatial-link: hint: give {flag} a value" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("name, value", [
        ("m", "nine"), ("m", 19.5), ("m", True), ("seed", 1.5), ("max_len", 4.0),
        ("threads", 2.0), ("dmax", True), ("dmax", float("inf")),
        ("bh", "false"), ("share_null", "no"), ("sweep_bands", 1), ("source", 5),
        ("target", ["t.raw"]), ("mask", 7), ("resample_source", ["a", 3]),
        ("resample_source", [15.7, 16]), ("resample_source", [12, 0]),
        ("resample_source", "12x12"), ("out_dir", 5), ("band_source", "bogus"),
        ("variant", "cmadx"),
    ])
    def test_config_setting_of_the_wrong_type_is_a_config_error(
        self, name, value, instance_files, tmp_path, capsys
    ):
        requirement = {
            "m": "an integer >= 1", "seed": "an integer >= 0", "max_len": "an integer >= 2",
            "threads": "an integer >= 1", "dmax": "a finite number > 0",
            "bh": "true or false", "share_null": "true or false", "sweep_bands": "true or false",
            "source": "a string", "target": "a string", "out_dir": "a string",
            "mask": "a string or null", "resample_source": "[rows, cols] of positive integers",
            "band_source": "one of ('moderate', 'high', 'anomalous')",
            "variant": "one of ('standard', 'cmad')",
        }[name]
        spath, tpath = instance_files
        cpath = tmp_path / "config.json"
        out_dir = str(tmp_path / "out")
        cpath.write_text(json.dumps({"source": spath, "target": tpath, "out_dir": out_dir,
                                     name: value}))
        rc, _, err = self.run(["pipeline", "--config", str(cpath)], capsys)
        assert rc == 1
        assert f"spatial-link: error [io-cli]: {name} must be {requirement}, got {value!r}" in err
        assert f"spatial-link: hint: give --{name.replace('_', '-')} " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["thresholds", "--grid", "g.raw", "--threads", "2"],
        ["diff", "a.raw", "b.raw", "-o", "c.raw", "--seed", "1"],
        ["build-graph", "--source", "s.raw", "--target", "t.raw", "-o", "g.json",
         "--threads", "2"],
        ["extract-paths", "--graph", "g.json", "-o", "p.json", "--threads", "2"],
        ["synth", "--spec", "s.json", "--out-dir", "out", "--threads", "2"],
    ], ids=lambda argv: argv[0] + argv[-2])
    def test_flags_a_command_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


class TestThreadResolution:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv(cli.ENV_THREADS, "6")
        args = argparse.Namespace(threads=2)
        assert cli._config(args, {"source": "s.raw", "target": "t.raw", "threads": 4}).threads == 2

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(cli.ENV_THREADS, "6")
        args = argparse.Namespace(threads=None)
        assert cli._config(args, {"source": "s.raw", "target": "t.raw", "threads": 4}).threads == 4

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(cli.ENV_THREADS, "6")
        assert cli._resolve_threads(None) == 6

    def test_default_one(self, monkeypatch):
        monkeypatch.delenv(cli.ENV_THREADS, raising=False)
        assert cli._resolve_threads(None) == 1

    def test_bad_env_value(self, monkeypatch):
        from spatial_link.errors import ConfigError

        for value in ("lots", "0", "-2"):
            monkeypatch.setenv(cli.ENV_THREADS, value)
            with pytest.raises(ConfigError) as exc_info:
                cli._resolve_threads(None)
            assert cli.ENV_THREADS in f"{exc_info.value} {exc_info.value.hint}"
