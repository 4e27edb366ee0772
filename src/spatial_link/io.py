"""File formats and serializers.

Grid format A is a little-endian float32 row-major payload next to a JSON
sidecar carrying dimensions and registration; invalid cells live in an
optional one-byte-per-cell mask file. Grid format B is a sparse CSV with
a ``row,col,value[,valid]`` header. All structured outputs are JSON (or
GeoJSON) with a common metadata block so any artifact can be traced back
to the exact configuration and seed that produced it; rasters are CSV
with the metadata in a leading comment line. Every writer replaces its
target atomically, so a failed write leaves the previous file in place.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import os
from contextlib import contextmanager, suppress

import numpy as np

from . import __version__
from .aar import AarReport
from .errors import (
    FINITE, INTEGER, NUMBER, ConfigError, DimMismatch, MalformedHeader, checked, is_integer,
    reading,
)
from .grid import ChangeGrid, GridRegistration
from .graph import ANOMALOUS, KIND_SOURCE, KIND_TARGET, NODE_KINDS, SpatialGraph
from .paths import PathStore, steps
from .significance import Results

TOOL_NAME = "spatial-link"
NULL_MODEL = "field-permutation"

_REGISTRATION_KEYS = tuple(f.name for f in dataclasses.fields(GridRegistration))
_SIDECAR_KEYS = ("rows", "cols", *_REGISTRATION_KEYS)


def metadata_block(config_echo: dict, seed: int, null_model: str = NULL_MODEL) -> dict:
    """The provenance header embedded verbatim in every output file."""
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "config": config_echo,
        "seed": int(seed),
        "null_model": null_model,
    }


@contextmanager
def _replacing(path: str, mode: str = "w", newline: str | None = None):
    """Open a temporary file beside ``path`` that replaces it on success.

    Readers see either the previous file or the complete new one; on any
    failure the temporary file is removed and ``path`` is left untouched.
    An ``OSError`` from opening the temporary file or from the replace (a
    missing directory, say) becomes a ``ConfigError`` naming the directory;
    one from writing the file propagates as it is.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    writing = False
    try:
        with open(tmp, mode, newline=newline) as fh:
            writing = True
            yield fh
        writing = False
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        if writing or not isinstance(exc, OSError):
            raise
        directory = os.path.dirname(os.path.abspath(path))
        raise ConfigError(
            f"cannot write {path}: {exc.strerror or exc}",
            hint=f"check that the directory {directory} exists and is writable",
        ) from exc


def write_json(doc: dict | str, path: str) -> None:
    """Write rendered JSON text as it is, or dump a dict with ``indent=2`` and a newline."""
    with _replacing(path) as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedHeader(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise MalformedHeader(f"{path} is not valid JSON: {exc}") from exc


# -- grid format A: raw payload + JSON sidecar ---------------------------


def _sidecar_path(payload_path: str) -> str:
    return payload_path + ".json"


def save_grid(grid: ChangeGrid, path: str) -> None:
    """Write a grid as float32 payload, sidecar, and optional mask file.

    The payload is stored at single precision; values that are not exactly
    representable in float32 round on the way out. The mask file is
    written (and referenced from the sidecar) only when some cell is
    invalid. Each file is replaced atomically, the sidecar last; the mask
    is written while the payload is still pending, so a failed write of
    either leaves both previous files in place.
    """
    sidecar = {"rows": grid.rows, "cols": grid.cols, **dataclasses.asdict(grid.registration)}
    with _replacing(path, "wb") as fh:
        grid.values.astype("<f4").tofile(fh)
        if not grid.valid_mask.all():
            mask_name = os.path.basename(path) + ".mask"
            with _replacing(os.path.join(os.path.dirname(path) or ".", mask_name), "wb") as mask_fh:
                grid.valid_mask.astype(np.uint8).tofile(mask_fh)
            sidecar["mask_path"] = mask_name
    write_json(sidecar, _sidecar_path(path))


def _load_grid_raw(payload_path: str, sidecar_path: str) -> ChangeGrid:
    doc = read_json(sidecar_path)
    hint = f"required fields: {', '.join(_SIDECAR_KEYS)}; the registration fields are numbers"
    for key in _SIDECAR_KEYS:
        if key not in doc:
            raise MalformedHeader(f"sidecar {sidecar_path} is missing the {key!r} field", hint)
    rows, cols = doc["rows"], doc["cols"]
    if not (is_integer(rows) and is_integer(cols)) or rows <= 0 or cols <= 0:
        raise MalformedHeader(f"sidecar {sidecar_path} declares invalid dims {rows}x{cols}")
    with reading(MalformedHeader, f"sidecar {sidecar_path} has a bad registration", hint):
        registration = GridRegistration(
            **{key: float(checked(doc[key], key, NUMBER)) for key in _REGISTRATION_KEYS}
        )

    try:
        payload = np.fromfile(payload_path, dtype="<f4")
    except OSError as exc:
        raise MalformedHeader(f"cannot read payload {payload_path}: {exc}") from exc
    if payload.size != rows * cols:
        raise MalformedHeader(
            f"payload {payload_path} holds {payload.size} values but the "
            f"header declares {rows}x{cols} = {rows * cols}",
            hint="dimension mismatch between header and payload",
        )
    values = payload.astype(np.float64).reshape(rows, cols)

    mask = np.ones((rows, cols), dtype=bool)
    if "mask_path" in doc:
        mask_file = doc["mask_path"]
        if not os.path.isabs(mask_file):
            mask_file = os.path.join(os.path.dirname(sidecar_path) or ".", mask_file)
        try:
            bits = np.fromfile(mask_file, dtype=np.uint8)
        except OSError as exc:
            raise MalformedHeader(f"cannot read mask {mask_file}: {exc}") from exc
        if bits.size != rows * cols:
            raise MalformedHeader(
                f"mask {mask_file} holds {bits.size} bytes for {rows}x{cols} cells",
                hint="dimension mismatch between header and payload",
            )
        mask = bits.reshape(rows, cols) != 0
    return ChangeGrid(values=values, valid_mask=mask, registration=registration)


# -- grid format B: sparse CSV -------------------------------------------


def _load_grid_csv(path: str) -> ChangeGrid:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise MalformedHeader(f"{path} is empty")
            header = [h.strip() for h in header]
            if header[:3] != ["row", "col", "value"] or len(header) > 4 or (
                len(header) == 4 and header[3] != "valid"
            ):
                raise MalformedHeader(
                    f"{path} header is {header}, expected row,col,value[,valid]"
                )
            entries = []
            for lineno, fields in enumerate(reader, start=2):
                if not fields:
                    continue
                with reading(MalformedHeader, f"{path}:{lineno}: bad record {fields}"):
                    r, c = int(fields[0]), int(fields[1])
                    v = float(fields[2])
                    valid = fields[3].strip() if len(fields) > 3 else "1"
                    if valid not in ("0", "1"):
                        raise ValueError(f"valid must be 0 or 1, got {fields[3]!r}")
                    ok = valid == "1"
                if r < 0 or c < 0:
                    raise MalformedHeader(f"{path}:{lineno}: negative cell index ({r}, {c})")
                entries.append((r, c, v, ok))
    except OSError as exc:
        raise MalformedHeader(f"cannot read {path}: {exc}") from exc
    if not entries:
        raise MalformedHeader(f"{path} declares no cells")
    seen = set()
    for r, c, _, _ in entries:
        if (r, c) in seen:
            raise MalformedHeader(f"{path}: duplicate cell ({r}, {c})")
        seen.add((r, c))
    rows = max(r for r, _, _, _ in entries) + 1
    cols = max(c for _, c, _, _ in entries) + 1
    try:
        values = np.zeros((rows, cols), dtype=np.float64)
        mask = np.zeros((rows, cols), dtype=bool)
    except (MemoryError, ValueError) as exc:
        raise MalformedHeader(f"{path} declares a {rows}x{cols} grid, too large to hold: {exc}")
    for r, c, v, ok in entries:
        values[r, c] = v
        mask[r, c] = ok
    return ChangeGrid(values=values, valid_mask=mask)


def load_grid(path: str) -> ChangeGrid:
    """Load a grid in format A (raw+json) or B (csv), chosen by extension.

    ``.csv`` is format B, on the quarter-degree global registration (the
    CSV format carries no geography); ``.json`` is a format A sidecar;
    anything else is a format A payload whose sidecar sits next to it at
    ``<path>.json``.
    """
    if path.endswith(".csv"):
        return _load_grid_csv(path)
    if path.endswith(".json"):
        doc = read_json(path)
        payload = doc.get("payload_path")
        if payload is None:
            payload = path[: -len(".json")]
        elif not os.path.isabs(payload):
            payload = os.path.join(os.path.dirname(path) or ".", payload)
        return _load_grid_raw(payload, path)
    return _load_grid_raw(path, _sidecar_path(path))


# -- structured artifacts -------------------------------------------------
#
# Every JSON artifact holds exactly the bytes of ``json.dumps(doc,
# indent=2)`` plus a newline: two-space indent, ASCII-escaped strings and
# ``float.__repr__`` floats. With ``indent`` set, ``json`` always takes its
# pure-Python encoder, so the writers below render the long lists (nodes,
# edges, paths, results, features) in columns: one list of texts per field,
# interleaved with the row template's fixed texts and joined once. Only the
# short head (metadata, note, params, type) goes through ``json.dumps``.
# tests/oracles.py keeps the documents they must match.

# A row's list fields close at this indent; their items sit two spaces deeper.
_FIELD = " " * 6
_BOOLS = np.array(["false", "true"], dtype=object)


def _floats(values: np.ndarray) -> list[str]:
    """json's text of each finite float, rendered once per distinct bit pattern.

    Keying on the bits, not on float equality, keeps ``-0.0`` apart from ``0.0``.
    """
    bits, inverse = np.unique(np.asarray(values, np.float64).view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _ints(values: np.ndarray) -> list[str]:
    return list(map(str, values.tolist()))


def _table(n: int, *pieces) -> list[str]:
    """The parts of a depth-1 JSON array of ``n`` rows; row k joins each piece's k-th text.

    A piece is one text shared by every row, or a list of ``n`` texts.
    """
    if not n:
        return ["[]"]
    width = len(pieces) + 1
    parts = [",\n    "] * (n * width + 1)
    parts[0] = "[\n    "
    for j, piece in enumerate(pieces, 1):
        parts[j::width] = [piece] * n if isinstance(piece, str) else piece
    parts[-1] = "\n  ]"
    return parts


def _lists(texts: np.ndarray, index: np.ndarray, offsets: np.ndarray, indent: str) -> list[str]:
    """The JSON array closed at ``indent`` of each ``texts[index[offsets[k]:offsets[k + 1]]]``.

    ``texts`` is an object array. Every list holds an item and no text a NUL:
    each item is gathered with the separator after it, a list's last with
    the close and a NUL; all lists are joined once and split at the NULs.
    """
    ends = offsets[1:] - 1
    items = (texts + f",\n{indent}  ")[index]
    items[ends] = (texts + f"\n{indent}]\0[\n{indent}  ")[index[ends]]
    lists = "".join(items.tolist()).split("\0")
    lists[0] = f"[\n{indent}  {lists[0]}"
    return lists[:-1]


def _document(head: dict, **arrays: list[str]) -> str:
    """The text of ``{**head, **arrays}``, each array given as the parts of its text at depth 1.

    ``head`` is never empty: it holds the metadata. All parts are joined once.
    """
    parts = [json.dumps(head, indent=2)[:-2]]
    for key, array in arrays.items():
        parts.append(f',\n  "{key}": ')
        parts += array
    parts.append("\n}\n")
    return "".join(parts)


def _head(metadata: dict, note: str | None, **fields) -> dict:
    """A document's head: the metadata, a note on why it has no rows if given, then ``fields``."""
    return {"metadata": metadata, **({} if note is None else {"note": note}), **fields}


def _pairs(firsts: list[str], seconds: list[str], indent: str) -> np.ndarray:
    """The JSON array ``[firsts[i], seconds[i]]`` closed at ``indent``, for each i."""
    return np.array([
        f"[\n{indent}  {a},\n{indent}  {b}\n{indent}]" for a, b in zip(firsts, seconds)
    ], dtype=object)


def node_lists(paths: PathStore) -> list[str]:
    """Each path's node-id list, as the text of a row's ``nodes`` field."""
    ids = np.array(list(map(str, range(paths.nodes.max(initial=-1) + 1))), dtype=object)
    return _lists(ids, paths.nodes, paths.offsets, _FIELD)


def graph_to_json(graph: SpatialGraph, metadata: dict, note: str | None = None) -> str:
    kinds = np.array([json.dumps(kind) for kind in NODE_KINDS], dtype=object)
    flag = ',\n      "anomalous": '
    flags = np.array(["", flag + "false", flag + "true"], dtype=object)
    nodes = _table(
        graph.n_nodes,
        '{\n      "id": ', list(map(str, range(graph.n_nodes))),
        ',\n      "row": ', _ints(graph.row), ',\n      "col": ', _ints(graph.col),
        ',\n      "kind": ', kinds[graph.kind].tolist(),
        ',\n      "value": ', _floats(graph.value), flags[graph.anomalous + 1].tolist(),
        "\n    }",
    )
    edges = _table(
        graph.n_edges,
        '{\n      "u": ', _ints(graph.u), ',\n      "v": ', _ints(graph.v),
        ',\n      "weight": ', _ints(graph.weight),
        ',\n      "distance": ', _floats(graph.distance), "\n    }",
    )
    return _document(_head(metadata, note, params=graph.params), nodes=nodes, edges=edges)


_GRAPH_LAYOUT = (
    'expected {"params": {...}, "nodes": [{"id", "row", "col", "kind", "value"}, ...], '
    '"edges": [{"u", "v", "weight", "distance"}, ...]}'
)
_PATHS_LAYOUT = 'expected {"paths": [{"nodes": [...], "edge_weights": [...], "score"}, ...]}'


_KIND = ("'source' or 'target'", lambda v: v in (KIND_SOURCE, KIND_TARGET))
_FLAG = ("true, false or absent", lambda v: v is None or isinstance(v, bool))
_LIST = ("a list", lambda v: isinstance(v, list))
_OBJECT = ("an object", lambda v: isinstance(v, dict))


def graph_from_json(doc: dict) -> SpatialGraph:
    """The graph of a graph.json document.

    ``nodes`` and ``edges`` must be lists, ``params`` an object or absent.
    Ids, rows, cols, edge ends and edge weights must be JSON integers, values
    and distances finite JSON numbers, ``anomalous`` a bool or absent, and
    ``kind`` source or target; nothing is converted. Breaking one of these
    rules or an invariant of ``SpatialGraph`` (node ids, edge ends, +1/-1
    weights, distances of at least 0) raises ``MalformedHeader``.
    """
    with reading(MalformedHeader, "malformed graph document", _GRAPH_LAYOUT):
        nodes = [(
            checked(n["id"], "node id", INTEGER), checked(n["row"], "node row", INTEGER),
            checked(n["col"], "node col", INTEGER),
            NODE_KINDS.index(checked(n["kind"], "node kind", _KIND)),
            checked(n["value"], "node value", FINITE),
            ANOMALOUS[checked(n.get("anomalous"), "node anomalous", _FLAG)],
        ) for n in checked(doc["nodes"], "nodes", _LIST)]
        edges = [(
            checked(e["u"], "edge u", INTEGER), checked(e["v"], "edge v", INTEGER),
            checked(e["weight"], "edge weight", INTEGER),
            checked(e["distance"], "edge distance", FINITE),
        ) for e in checked(doc["edges"], "edges", _LIST)]
        params = checked(doc.get("params", {}), "params", _OBJECT)
        ids, *columns = zip(*nodes) if nodes else [()] * 6
        for k, i in enumerate(ids):
            if i != k:
                raise ValueError(f"node {k} has id {i}; ids must be 0..n-1 in order")
        return SpatialGraph.from_arrays(*columns, *(zip(*edges) if edges else [()] * 4), params)


def paths_to_json(
    paths: PathStore, graph: SpatialGraph, metadata: dict, nodes=None, note: str | None = None
) -> str:
    """paths.json; ``nodes`` is ``node_lists(paths)`` when the caller has rendered it."""
    weights, steps = np.array(["-1", "0", "1"], dtype=object), paths.edge_weights + 1
    cells = _pairs(_ints(graph.row), _ints(graph.col), _FIELD + "  ")
    rows = _table(
        len(paths),
        '{\n      "nodes": ', node_lists(paths) if nodes is None else nodes,
        ',\n      "cells": ', _lists(cells, paths.nodes, paths.offsets, _FIELD),
        ',\n      "edge_weights": ', _lists(weights, steps, paths.step_offsets(), _FIELD),
        ',\n      "score": ', _floats(paths.scores), "\n    }",
    )
    return _document(_head(metadata, note), paths=rows)


def paths_from_json(doc: dict, graph: SpatialGraph) -> PathStore:
    """The paths of a paths.json document, each rebuilt from its walk on ``graph``.

    ``paths`` must be a list, node ids and edge weights JSON integers and
    the score a finite JSON number (``MalformedHeader`` otherwise). Raises
    ``DimMismatch`` when a walk names a node outside the graph, has fewer
    than two nodes or steps off an edge, or when the document's edge
    weights and score are not the ones the graph gives the walk.
    """
    ids, weights, ends, step_ends, scores = [], [], [0], [0], []
    with reading(MalformedHeader, "malformed paths document", _PATHS_LAYOUT):
        for p in checked(doc["paths"], "paths", _LIST):
            ids += [checked(i, "path node", INTEGER) for i in p["nodes"]]
            weights += [checked(w, "edge weight", INTEGER) for w in p["edge_weights"]]
            scores.append(float(checked(p["score"], "path score", FINITE)))
            ends.append(len(ids))
            step_ends.append(len(weights))
    hint = "extract the paths from this graph (spatial-link extract-paths --graph ...)"
    if ids and not 0 <= min(ids) <= max(ids) < graph.n_nodes:
        raise DimMismatch(
            f"the paths name node ids {min(ids)} to {max(ids)}, but the graph has "
            f"{graph.n_nodes} nodes",
            hint=hint,
        )
    offsets, nodes = np.array(ends), np.array(ids, dtype=np.int64)
    for k in np.flatnonzero(np.diff(offsets) < 2)[:1]:
        raise DimMismatch(
            f"path {k} is {ids[ends[k]:ends[k + 1]]}; a path needs two or more nodes", hint=hint
        )
    a, b = steps(offsets, nodes)
    slots = graph.adjacency.slots(a, b)
    for s in np.flatnonzero(slots < 0)[:1]:
        raise DimMismatch(
            f"path steps from node {a[s]} to node {b[s]}, which is not an edge of the graph",
            hint=hint,
        )
    paths = PathStore.weighted(offsets, nodes, graph.adjacency.weight[slots])
    rebuilt = (paths.step_offsets().tolist(), paths.edge_weights.tolist(), paths.scores.tolist())
    if (step_ends, weights, scores) != rebuilt:
        for k, path in enumerate(paths):
            recorded = weights[step_ends[k]:step_ends[k + 1]]
            if recorded != list(path.edge_weights) or scores[k] != path.score:
                raise DimMismatch(
                    f"path {k} records edge weights {recorded} and score {scores[k]!r}, but "
                    f"the graph gives it {list(path.edge_weights)} and {path.score!r}",
                    hint=hint,
                )
    return paths


def _result_rows(results: Results, nodes=None) -> list[str]:
    return _table(
        len(results),
        '{\n      "path_index": ', list(map(str, range(len(results)))),
        ',\n      "nodes": ', node_lists(results.paths) if nodes is None else nodes,
        ',\n      "observed": ', _floats(results.observed),
        ',\n      "p_value": ', _floats(results.p_values),
        ',\n      "significant": ', _BOOLS[results.significant.astype(np.intp)].tolist(),
        ',\n      "alpha": ', _floats(results.alpha), "\n    }",
    )


def results_to_json(results: Results, metadata: dict, nodes=None, note: str | None = None) -> str:
    """results.json; ``nodes`` is ``node_lists(results.paths)`` when the caller has rendered it."""
    return _document(_head(metadata, note), results=_result_rows(results, nodes))


def aar_report_to_json(report: AarReport, metadata: dict) -> str:
    """The aar run: station, components with their extents, and path results."""
    station = None
    if report.station_id is not None:
        p = report.points[report.station_id]
        station = {
            "id": report.station_id,
            "lat": p.lat,
            "lon": p.lon,
            "cell": list(p.cell) if p.cell else None,
        }
    head = {
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
    }
    return _document(head, results=_result_rows(report.results))


def export_geojson(
    significant: Results,
    graph: SpatialGraph,
    registration: GridRegistration,
    metadata: dict,
    note: str | None = None,
) -> str:
    """Significant paths as a GeoJSON FeatureCollection.

    Each path becomes a LineString of (lon, lat) cell centers ordered from
    the source end to the target end.
    """
    paths, features = significant.paths, ["[]"]
    # With no path to draw, no graph is read; the caller may pass None.
    if len(paths):
        lats, lons = registration.cell_center(graph.row, graph.col)
        coords = _pairs(_floats(lons), _floats(lats), _FIELD + "    ")
        cells = _pairs(_ints(graph.row), _ints(graph.col), _FIELD + "  ")
        features = _table(
            len(paths),
            '{\n      "type": "Feature",\n      "geometry": {\n        "type": "LineString",\n'
            '        "coordinates": ', _lists(coords, paths.nodes, paths.offsets, _FIELD + "  "),
            '\n      },\n      "properties": {\n        "score": ', _floats(significant.observed),
            ',\n        "p_value": ', _floats(significant.p_values),
            ',\n        "source_cell": ', cells[paths.nodes[paths.offsets[:-1]]].tolist(),
            ',\n        "target_cell": ', cells[paths.nodes[paths.offsets[1:] - 1]].tolist(),
            "\n      }\n    }",
        )
    return _document({"type": "FeatureCollection", **_head(metadata, note)}, features=features)


def frequency_to_csv(freq: np.ndarray, metadata: dict, path: str) -> None:
    """Dense per-cell counts, one grid row per line, metadata in a comment."""
    with _replacing(path) as fh:
        fh.write("# metadata: " + json.dumps(metadata) + "\n")
        for row in np.asarray(freq, dtype=np.int64).tolist():
            fh.write(",".join(map(str, row)) + "\n")
