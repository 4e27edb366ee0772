"""Command line front end.

Subcommands mirror the pipeline stages so each intermediate artifact can
be produced, inspected, and fed forward independently: ``thresholds``,
``diff``, ``build-graph``, ``extract-paths``, ``significance``,
``pipeline``, ``synth``, and ``aar``. Thread count resolves from
``--threads``, then the config file, then the SPATIAL_LINK_THREADS
environment variable, then 1; threads split only the permutation null's
replicates.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import __version__, io
from .aar import (
    DEFAULT_AAR_ALPHA,
    DEFAULT_MAX_EDGE_KM,
    DEFAULT_MIN_EXTENT_KM,
    DEFAULT_SNAP_KM,
    run_aar,
)
from .errors import ConfigError, SpatialLinkError
from .graph import METRICS, VARIANT_CMAD, VARIANT_STANDARD
from .grid import (
    LOSS_NEGATIVE, ORIENTATIONS, RegionWindow, compute_threshold_bands, crop_region, diff_grids,
)
from .paths import DEFAULT_CAP, DEFAULT_MAX_NODES, extract_all_paths
from .pipeline import (
    SCOPE_GLOBAL,
    SCOPE_WINDOW,
    RunConfig,
    build_band_graph,
    prepare_grids,
    run_pipeline,
    score_paths,
)
from .significance import DEFAULT_REPLICATES
from .synthetic import NoiseModel, PlantSpec, chain_spec, generate, generate_null

ENV_THREADS = "SPATIAL_LINK_THREADS"


def _resolve_threads(flag_value: int | None, config_value: int | None = None) -> int:
    if flag_value is not None:
        return flag_value
    if config_value is not None:
        return config_value
    env = os.environ.get(ENV_THREADS)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"{ENV_THREADS}={env!r} is not an integer") from exc
    return 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    parser.add_argument(
        "--threads", type=int, default=None,
        help=f"worker threads for the null (default: ${ENV_THREADS} or 1)",
    )


# -- subcommand implementations -------------------------------------------


def cmd_thresholds(args) -> int:
    grid = io.load_grid(args.grid)
    window = RegionWindow.parse(args.window) if args.window else None
    if window is not None:
        grid = crop_region(grid, window)
    bands = compute_threshold_bands(grid, args.orientation, args.ub_multiplier)
    doc = {
        "grid": args.grid,
        "orientation": args.orientation,
        "window": args.window,
        "median": bands.median,
        "q3": bands.q3,
        "ub": bands.ub,
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_diff(args) -> int:
    earlier = io.load_grid(args.earlier)
    later = io.load_grid(args.later)
    io.save_grid(diff_grids(later, earlier), args.output)
    return 0


# Every RunConfig field but seed and threads has a flag of the same name
# (--max-len sets max_len); these are the flags that are not plain strings.
# Each default is None, so a flag left out keeps the config file's entry
# or else the RunConfig default.
FLAG_OPTIONS = {
    "variant": {"choices": [VARIANT_STANDARD, VARIANT_CMAD]},
    "band_scope": {"choices": [SCOPE_WINDOW, SCOPE_GLOBAL]},
    "ub_multiplier": {"type": float},
    "dmax": {"type": float, "help": "max edge length in cells"},
    "metric": {"choices": list(METRICS)},
    "max_len": {"type": int},
    "cap": {"type": int},
    "m": {"type": int, "help": "null replicates"},
    "alpha": {"type": float},
    "share_null": {"action": "store_true"},
    "bh": {"action": "store_true", "help": "Benjamini-Hochberg correction"},
    "sweep_bands": {"action": "store_true"},
    "resample_source": {"help": "ROWSxCOLS for the source grid"},
}
RUN_FIELDS = tuple(f.name for f in fields(RunConfig) if f.name not in ("seed", "threads"))
GRAPH_FIELDS = (
    "source", "target", "mask", "variant", "orientation_source", "orientation_target",
    "window", "band_source", "band_target", "band_scope", "ub_multiplier", "dmax", "metric",
)
NULL_FIELDS = ("source", "target", "mask", "m", "alpha", "share_null", "bh")
INPUT_FIELDS = ("source", "target")


def _add_config_flags(parser, names, required=()) -> None:
    for name in names:
        parser.add_argument(
            "--" + name.replace("_", "-"), default=None, required=name in required,
            **FLAG_OPTIONS.get(name, {}),
        )


def _config(args, doc: dict | None = None) -> RunConfig:
    """The RunConfig of ``doc`` with every flag that was given laid over it."""
    doc = dict(doc or {})
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            doc[f.name] = _parse_dims(value) if f.name == "resample_source" else value
    doc["threads"] = _resolve_threads(args.threads, doc.get("threads"))
    config = RunConfig.from_dict(doc)
    config.validate()
    return config


def cmd_build_graph(args) -> int:
    config = _config(args)
    graph = build_band_graph(config, prepare_grids(config), config.band_source, config.band_target)
    metadata = io.metadata_block(config.echo(), config.seed)
    io.write_json(io.graph_to_json(graph, metadata), args.output)
    print(f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges -> {args.output}")
    return 0


def cmd_extract_paths(args) -> int:
    graph = io.graph_from_json(io.read_json(args.graph))
    paths = extract_all_paths(graph, max_nodes=args.max_len, cap=args.cap)
    echo = {
        "command": "extract-paths",
        "graph": args.graph,
        "max_len": args.max_len,
        "cap": args.cap,
    }
    metadata = io.metadata_block(echo, args.seed if args.seed is not None else 0)
    io.write_json(io.paths_to_json(paths, graph, metadata), args.output)
    print(f"paths: {len(paths)} candidates -> {args.output}")
    return 0


def cmd_significance(args) -> int:
    graph = io.graph_from_json(io.read_json(args.graph))
    paths = io.paths_from_json(io.read_json(args.paths))
    # The fields are windowed and rescored exactly as the graph was built.
    built_with = ("variant", "orientation_source", "orientation_target", "window", "band_scope")
    config = _config(args, {k: graph.params[k] for k in built_with if k in graph.params})
    results = score_paths(config, graph, paths, prepare_grids(config))
    echo = {
        "command": "significance",
        "graph": args.graph,
        "paths": args.paths,
        "source": config.source,
        "target": config.target,
        "mask": config.mask,
        "m": config.m,
        "alpha": config.alpha,
        "share_null": config.share_null,
        "bh": config.bh,
    }
    metadata = io.metadata_block(echo, config.seed)
    io.write_json(io.results_to_json(results, metadata), args.output)
    n_sig = sum(1 for r in results if r.significant)
    print(f"significance: {n_sig}/{len(results)} paths at alpha={config.alpha} -> {args.output}")
    return 0


def cmd_pipeline(args) -> int:
    config = _config(args, io.read_json(args.config) if args.config else None)
    for result in run_pipeline(config):
        label = f"{result.band_source}/{result.band_target}"
        if result.note:
            print(f"{label}: skipped ({result.note})")
        else:
            print(
                f"{label}: nodes={result.n_nodes} edges={result.n_edges} "
                f"paths={result.n_paths} significant={result.n_significant}"
            )
    return 0


def _parse_dims(text: str) -> list[int]:
    parts = text.split("x") if "x" in text else text.split(",")
    if len(parts) == 2:
        try:
            return [int(part) for part in parts]
        except ValueError:
            pass
    raise ConfigError(
        f"cannot parse dims {text!r}, expected ROWSxCOLS",
        hint="give two integers, e.g. --resample-source 121x401",
    )


def cmd_synth(args) -> int:
    doc = io.read_json(args.spec)
    dims = doc.get("dims")
    if not dims or len(dims) != 2:
        raise ConfigError("synth spec must set dims: [rows, cols]")
    noise_doc = doc.get("noise", {})
    noise = NoiseModel(
        name=noise_doc.get("name", "gaussian"),
        sigma=float(noise_doc.get("sigma", 1.0)),
        mean=float(noise_doc.get("mean", 0.0)),
    )
    seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
    os.makedirs(args.out_dir, exist_ok=True)
    metadata = io.metadata_block(doc, seed)

    if "chain_cells" in doc:
        cells = [tuple(c) for c in doc["chain_cells"]]
        if "chain_values" in doc:
            spec = PlantSpec(
                chain_cells=tuple((int(r), int(c)) for r, c in cells),
                chain_values=tuple(float(v) for v in doc["chain_values"]),
                split_index=int(doc["split_index"]),
                noise=noise,
                seed=seed,
                max_spacing_cells=float(doc.get("max_spacing_cells", 11.0)),
                max_len=int(doc.get("max_len", 11)),
            )
            spec.validate()
        else:
            spec = chain_spec(
                cells,
                int(doc["split_index"]),
                band=doc.get("band", "moderate"),
                noise=noise,
                seed=seed,
                max_spacing_cells=float(doc.get("max_spacing_cells", 11.0)),
                max_len=int(doc.get("max_len", 11)),
            )
        source, target, truth = generate(spec, (int(dims[0]), int(dims[1])))
        truth_doc = {
            "metadata": metadata,
            "cells": [list(c) for c in truth.cells],
            "split_index": truth.split_index,
            "values": list(truth.values),
        }
        io.write_json(truth_doc, os.path.join(args.out_dir, "truth.json"))
    else:
        source, target = generate_null((int(dims[0]), int(dims[1])), noise, seed)

    io.save_grid(source, os.path.join(args.out_dir, "source.raw"))
    io.save_grid(target, os.path.join(args.out_dir, "target.raw"))
    print(f"synthetic instance ({dims[0]}x{dims[1]}, seed {seed}) -> {args.out_dir}")
    return 0


def cmd_aar(args) -> int:
    threads = _resolve_threads(args.threads)
    seed = args.seed if args.seed is not None else 0
    values = io.load_grid(args.values)
    mask = io.load_grid(args.mask)

    doc = io.read_json(args.origins)
    if isinstance(doc, dict):
        if "origins" not in doc:
            raise ConfigError(
                f"{args.origins} has no 'origins' key",
                hint="expected a JSON list or an object with an origins list",
            )
        raw_origins = doc["origins"]
    else:
        raw_origins = doc
    origins = []
    try:
        for entry in raw_origins:
            if isinstance(entry, dict):
                if "cell" in entry:
                    r, c = entry["cell"]
                    origins.append((int(r), int(c)))
                else:
                    origins.append((float(entry["lat"]), float(entry["lon"])))
            else:
                a, b = entry
                origins.append((float(a), float(b)))
    except (TypeError, KeyError, ValueError) as exc:
        raise ConfigError(
            f"bad origin entry in {args.origins}: {exc}",
            hint="entries are [lat, lon], {lat, lon}, or {cell: [row, col]}",
        ) from exc
    try:
        st_lat, st_lon = (float(v) for v in args.station.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse station {args.station!r}, expected lat,lon") from exc

    report = run_aar(
        values,
        mask,
        origins,
        (st_lat, st_lon),
        max_edge_km=args.max_edge_km,
        min_extent_km=args.min_extent_km,
        max_nodes=args.max_len,
        n_replicates=args.m,
        alpha=args.alpha,
        seed=seed,
        threads=threads,
        threshold=args.threshold,
        snap_km=args.snap_km,
        cap=args.cap,
    )

    echo = {
        "command": "aar",
        "values": args.values,
        "mask": args.mask,
        "origins": args.origins,
        "station": args.station,
        "max_edge_km": args.max_edge_km,
        "min_extent_km": args.min_extent_km,
        "max_len": args.max_len,
        "m": args.m,
        "alpha": args.alpha,
        "threshold": report.threshold,
        "snap_km": args.snap_km,
    }
    io.write_json(io.aar_report_to_json(report, io.metadata_block(echo, seed)), args.output)
    n_sig = sum(1 for r in report.results if r.significant)
    n_ret = sum(1 for c in report.components if c.retained)
    print(
        f"aar: {len(report.points)} points, {len(report.components)} components "
        f"({n_ret} retained), {n_sig}/{len(report.results)} significant paths -> {args.output}"
    )
    return 0


# -- parser wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatial-link",
        description="Detect statistically significant spatial linkage paths "
        "between two gridded change fields.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="print a field's banding thresholds as JSON")
    p.add_argument("--grid", required=True)
    p.add_argument("--orientation", default=LOSS_NEGATIVE, choices=ORIENTATIONS)
    p.add_argument("--window", default=None, help="inclusive r0:r1,c0:c1")
    p.add_argument("--ub-multiplier", type=float, default=1.5)
    _add_common(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("diff", help="per-cell change field LATER - EARLIER")
    p.add_argument("earlier")
    p.add_argument("later")
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("build-graph", help="build the linkage graph and write graph.json")
    _add_config_flags(p, GRAPH_FIELDS, required=INPUT_FIELDS)
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("extract-paths", help="enumerate candidate paths from graph.json")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_NODES, help="max nodes per path")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_extract_paths)

    p = sub.add_parser("significance", help="score candidate paths under the permutation null")
    p.add_argument("--graph", required=True)
    p.add_argument("--paths", required=True)
    _add_config_flags(p, NULL_FIELDS, required=INPUT_FIELDS)
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("pipeline", help="full run: bands, graph, paths, significance, artifacts")
    p.add_argument("--config", default=None, help="JSON config; flags override its entries")
    _add_config_flags(p, RUN_FIELDS)
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("synth", help="generate a planted or null synthetic instance")
    p.add_argument("--spec", required=True, help="JSON instance spec")
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("aar", help="transport benchmark over one point field")
    p.add_argument("--values", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--origins", required=True, help="JSON list of [lat, lon] or {cell: [r, c]}")
    p.add_argument("--station", required=True, help="lat,lon")
    p.add_argument("--max-edge-km", type=float, default=DEFAULT_MAX_EDGE_KM)
    p.add_argument("--min-extent-km", type=float, default=DEFAULT_MIN_EXTENT_KM)
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--m", type=int, default=DEFAULT_REPLICATES)
    p.add_argument("--alpha", type=float, default=DEFAULT_AAR_ALPHA)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--snap-km", type=float, default=DEFAULT_SNAP_KM)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_aar)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpatialLinkError as exc:
        print(f"spatial-link: error [{exc.module}]: {exc}", file=sys.stderr)
        if exc.hint:
            print(f"spatial-link: hint: {exc.hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
