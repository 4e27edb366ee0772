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
import json
import os
from contextlib import contextmanager, suppress

import numpy as np

from . import __version__
from .aar import AarReport
from .errors import MalformedHeader, reading
from .grid import ChangeGrid, GridRegistration
from .graph import GraphEdge, GraphNode, SpatialGraph
from .paths import LinkagePath
from .significance import SignificanceResult

TOOL_NAME = "spatial-link"
NULL_MODEL = "field-permutation"

_SIDECAR_KEYS = ("rows", "cols", "lat0", "lon0", "dlat", "dlon", "cell_km")


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
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(doc: dict, path: str) -> None:
    with _replacing(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedHeader(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    reg = grid.registration
    sidecar = {
        "rows": grid.rows,
        "cols": grid.cols,
        "lat0": reg.lat0,
        "lon0": reg.lon0,
        "dlat": reg.dlat,
        "dlon": reg.dlon,
        "cell_km": reg.cell_km,
    }
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
    for key in _SIDECAR_KEYS:
        if key not in doc:
            raise MalformedHeader(
                f"sidecar {sidecar_path} is missing the {key!r} field",
                hint=f"required fields: {', '.join(_SIDECAR_KEYS)}",
            )
    rows, cols = doc["rows"], doc["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int)) or rows <= 0 or cols <= 0:
        raise MalformedHeader(f"sidecar {sidecar_path} declares invalid dims {rows}x{cols}")
    with reading(MalformedHeader, f"sidecar {sidecar_path} has a bad registration"):
        registration = GridRegistration(
            lat0=float(doc["lat0"]),
            lon0=float(doc["lon0"]),
            dlat=float(doc["dlat"]),
            dlon=float(doc["dlon"]),
            cell_km=float(doc["cell_km"]),
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
                    ok = bool(int(fields[3])) if len(fields) > 3 else True
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
    values = np.zeros((rows, cols), dtype=np.float64)
    mask = np.zeros((rows, cols), dtype=bool)
    for r, c, v, ok in entries:
        values[r, c] = v
        mask[r, c] = ok
    return ChangeGrid(values=values, valid_mask=mask)


def save_grid_csv(grid: ChangeGrid, path: str) -> None:
    """Write every cell of a grid as format B rows (all cells listed)."""
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value", "valid"])
        for r in range(grid.rows):
            for c in range(grid.cols):
                writer.writerow([r, c, repr(float(grid.values[r, c])), int(grid.valid_mask[r, c])])


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


def graph_to_json(graph: SpatialGraph, metadata: dict) -> dict:
    nodes = []
    for n in graph.nodes:
        node = {"id": n.id, "row": n.row, "col": n.col, "kind": n.kind, "value": n.value}
        if n.anomalous is not None:
            node["anomalous"] = n.anomalous
        nodes.append(node)
    edges = [
        {"u": e.u, "v": e.v, "weight": e.weight, "distance": e.distance} for e in graph.edges
    ]
    return {"metadata": metadata, "params": graph.params, "nodes": nodes, "edges": edges}


_GRAPH_LAYOUT = (
    'expected {"params": {...}, "nodes": [{"id", "row", "col", "kind", "value"}, ...], '
    '"edges": [{"u", "v", "weight", "distance"}, ...]}'
)
_PATHS_LAYOUT = 'expected {"paths": [{"nodes": [...], "edge_weights": [...], "score"}, ...]}'


def graph_from_json(doc: dict) -> SpatialGraph:
    with reading(MalformedHeader, "malformed graph document", _GRAPH_LAYOUT):
        nodes = [
            GraphNode(
                id=int(n["id"]),
                row=int(n["row"]),
                col=int(n["col"]),
                kind=n["kind"],
                value=float(n["value"]),
                anomalous=n.get("anomalous"),
            )
            for n in doc["nodes"]
        ]
        edges = [
            GraphEdge(
                u=int(e["u"]), v=int(e["v"]), weight=int(e["weight"]), distance=float(e["distance"])
            )
            for e in doc["edges"]
        ]
        return SpatialGraph(nodes=nodes, edges=edges, params=doc.get("params", {}))


def paths_to_json(paths: list[LinkagePath], graph: SpatialGraph, metadata: dict) -> dict:
    out = []
    for p in paths:
        cells = [[graph.nodes[i].row, graph.nodes[i].col] for i in p.nodes]
        out.append(
            {
                "nodes": list(p.nodes),
                "cells": cells,
                "edge_weights": list(p.edge_weights),
                "score": p.score,
            }
        )
    return {"metadata": metadata, "paths": out}


def paths_from_json(doc: dict) -> list[LinkagePath]:
    with reading(MalformedHeader, "malformed paths document", _PATHS_LAYOUT):
        return [
            LinkagePath(
                nodes=tuple(int(i) for i in p["nodes"]),
                edge_weights=tuple(int(w) for w in p["edge_weights"]),
                score=float(p["score"]),
            )
            for p in doc["paths"]
        ]


def _result_rows(results: list[SignificanceResult]) -> list[dict]:
    return [
        {
            "path_index": k,
            "nodes": list(r.path.nodes),
            "observed": r.observed,
            "p_value": r.p_value,
            "significant": r.significant,
            "alpha": r.alpha,
        }
        for k, r in enumerate(results)
    ]


def results_to_json(results: list[SignificanceResult], metadata: dict) -> dict:
    return {"metadata": metadata, "results": _result_rows(results)}


def aar_report_to_json(report: AarReport, metadata: dict) -> dict:
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
    return {
        "metadata": metadata,
        "n_points": len(report.points),
        "threshold": report.threshold,
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
        "results": _result_rows(report.results),
    }


def export_geojson(
    significant: list[SignificanceResult],
    graph: SpatialGraph,
    registration: GridRegistration,
    metadata: dict,
) -> dict:
    """Significant paths as a GeoJSON FeatureCollection.

    Each path becomes a LineString of (lon, lat) cell centers ordered from
    the source end to the target end.
    """
    features = []
    for r in significant:
        coords = []
        for node_id in r.path.nodes:
            n = graph.nodes[node_id]
            lat, lon = registration.cell_center(n.row, n.col)
            coords.append([lon, lat])
        first = graph.nodes[r.path.nodes[0]]
        last = graph.nodes[r.path.nodes[-1]]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords},
                "properties": {
                    "score": r.observed,
                    "p_value": r.p_value,
                    "source_cell": [first.row, first.col],
                    "target_cell": [last.row, last.col],
                },
            }
        )
    return {"type": "FeatureCollection", "metadata": metadata, "features": features}


def frequency_to_csv(freq: np.ndarray, metadata: dict, path: str) -> None:
    """Dense per-cell counts, one grid row per line, metadata in a comment."""
    with _replacing(path) as fh:
        fh.write("# metadata: " + json.dumps(metadata) + "\n")
        for row in freq:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def load_frequency_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, delimiter=",", comments="#", ndmin=2)
