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
import gc
import inspect
import json
import math
import os
import sys
from dataclasses import asdict, fields
from typing import get_args, get_type_hints

from . import __version__, io
from .aar import run_aar
from .errors import FINITE, INTEGER, ConfigError, SpatialLinkError, checked, is_number, reading
from .graph import DEFAULT_MAX_EDGE_CELLS
from .grid import (
    DEFAULT_UB_MULTIPLIER, LOSS_NEGATIVE, ORIENTATIONS, RegionWindow, compute_threshold_bands,
    crop_region, diff_grids,
)
from .paths import DEFAULT_CAP, DEFAULT_MAX_NODES, extract_all_paths
from .pipeline import (
    RANGE_RULES, RunConfig, build_band_graph, check_range, is_dims, prepare_grids, run_pipeline,
    score_paths,
)
from .synthetic import DEFAULT_SIGMA, NoiseModel, PlantSpec, chain_spec, generate, generate_null

ENV_THREADS = "SPATIAL_LINK_THREADS"
_SYNTH_LAYOUT = (
    'expected {"dims": [rows, cols], "seed", "noise": {"name": "gaussian", "sigma" > 0}, '
    '"chain_cells", "split_index", "chain_values" or "band": moderate|high|anomalous}'
)


def _resolve_threads(flag_value: int | None) -> int:
    """The flag's (or config file's) thread count, else $SPATIAL_LINK_THREADS, else 1."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_THREADS)
    if not env:
        return 1
    with reading(ConfigError, f"{ENV_THREADS}={env!r} is not an integer"):
        threads = int(env)
    check_range("threads", threads, given_as=ENV_THREADS)
    return threads


# -- subcommand implementations -------------------------------------------


def cmd_thresholds(args) -> int:
    grid = io.load_grid(args.grid)
    window = RegionWindow.parse(args.window) if args.window else None
    if window is not None:
        grid = crop_region(grid, window)
    bands = compute_threshold_bands(grid, args.orientation, args.ub_multiplier)
    doc = {name: getattr(args, name) for name in ("grid", "orientation", "window")}
    print(json.dumps({**doc, **asdict(bands)}, indent=2))
    return 0


def cmd_diff(args) -> int:
    earlier = io.load_grid(args.earlier)
    later = io.load_grid(args.later)
    io.save_grid(diff_grids(later, earlier), args.output)
    return 0


# Every RunConfig field, and each aar setting, has a flag of the same name
# (--max-len sets max_len) of the type the field or run_aar keyword
# declares: a bool is a switch, an int or a float (or None) a number,
# anything else text. A flag without help of its own shows its rule, so a
# choice flag lists its values. Each default is None, so a flag
# left out keeps the config file's entry or else the RunConfig default; a
# command that runs without a RunConfig sets its defaults with set_defaults.
DECLARED = {**get_type_hints(run_aar), **get_type_hints(RunConfig)}
KIND_OPTIONS = {bool: {"action": "store_true"}, int: {"type": int}, float: {"type": float}}
FLAG_HELP = {
    "window": "inclusive r0:r1,c0:c1",
    "dmax": "max edge length in cells",
    "max_len": "max nodes per path",
    "m": "null replicates",
    "seed": "base seed (default 0)",
    "threads": f"null worker threads (default: ${ENV_THREADS} or 1)",
    "bh": "Benjamini-Hochberg correction",
    "resample_source": "ROWSxCOLS for the source grid",
}
RUN_FIELDS = tuple(f.name for f in fields(RunConfig))
GRAPH_FIELDS = (
    "source", "target", "mask", "variant", "orientation_source", "orientation_target",
    "window", "band_source", "band_target", "band_scope", "ub_multiplier", "dmax", "metric",
    "seed",
)
NULL_FIELDS = ("source", "target", "mask", "m", "alpha", "share_null", "bh")
INPUT_FIELDS = ("source", "target")
PATHS_FIELDS = ("max_len", "cap", "seed")
# aar's settings, each a flag and a keyword of run_aar, in the order the
# report's metadata echoes them. The echo leaves out the last two, cap and
# seed; the seed has a metadata entry of its own.
AAR_FIELDS = (
    "max_edge_km", "min_extent_km", "max_len", "m", "alpha", "threshold", "snap_km", "cap", "seed",
)
AAR_ECHO = ("values", "mask", "origins", "station") + AAR_FIELDS[:-2]


def _add_config_flags(parser, names, required=()) -> None:
    """Declare one flag per setting, once per command; main range-checks those with a rule."""
    for name in names:
        kind = next((t for t in get_args(DECLARED[name]) if t is not type(None)), DECLARED[name])
        parser.add_argument(
            "--" + name.replace("_", "-"), default=None, required=name in required,
            help=FLAG_HELP.get(name) or RANGE_RULES[name][0], **KIND_OPTIONS.get(kind, {}),
        )
    parser.set_defaults(checked=tuple(name for name in names if name in RANGE_RULES))


def _config(args, doc: dict | None = None, given_as: dict | None = None) -> RunConfig:
    """The RunConfig of ``doc`` with every flag that was given laid over it, validated."""
    if doc is not None and not isinstance(doc, dict):
        raise ConfigError("the config is not a JSON object", hint='write {"source": ..., ...}')
    doc = dict(doc or {})
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            doc[f.name] = _parse_dims(value) if f.name == "resample_source" else value
    if hasattr(args, "threads"):
        # Only the commands that run the null read the thread setting.
        doc["threads"] = _resolve_threads(doc.get("threads"))
    config = RunConfig.from_dict(doc)
    config.validate(given_as)
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
    echo = {"command": "extract-paths", "graph": args.graph}
    echo.update((name, getattr(args, name)) for name in PATHS_FIELDS if name != "seed")
    metadata = io.metadata_block(echo, args.seed)
    io.write_json(io.paths_to_json(paths, graph, metadata), args.output)
    print(f"paths: {len(paths)} candidates -> {args.output}")
    return 0


def cmd_significance(args) -> int:
    graph = io.graph_from_json(io.read_json(args.graph))
    paths = io.paths_from_json(io.read_json(args.paths), graph)
    # The fields are windowed and rescored exactly as the graph was built.
    built_with = ("variant", "orientation_source", "orientation_target", "window", "band_scope")
    doc = {k: graph.params[k] for k in built_with if k in graph.params}
    given_as = {k: f"params.{k} in {args.graph} (spatial-link build-graph writes it)" for k in doc}
    config = _config(args, doc, given_as)
    results = score_paths(config, graph, paths, prepare_grids(config))
    echo = {"command": "significance", "graph": args.graph, "paths": args.paths}
    echo.update((name, getattr(config, name)) for name in NULL_FIELDS)
    metadata = io.metadata_block(echo, config.seed)
    io.write_json(io.results_to_json(results, metadata), args.output)
    n_sig = int(results.significant.sum())
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
    what = f"cannot parse dims {text!r}, expected ROWSxCOLS"
    with reading(ConfigError, what, hint="give two integers, e.g. --resample-source 121x401"):
        rows, cols = (int(part) for part in parts)
    return [rows, cols]


def _synth_instance(doc, seed_flag: int | None):
    """Seed, source and target fields, and planted truth (or None) of a synth spec."""
    if not isinstance(doc, dict):
        raise ValueError("the spec is not a JSON object")
    seed = seed_flag if seed_flag is not None else doc.get("seed", 0)
    check_range("seed", seed, given_as="the spec's seed")
    dims = doc.get("dims")
    if not is_dims(dims):
        raise ValueError(f"dims must be [rows, cols] of positive integers, got {dims!r}")
    noise_doc = doc.get("noise", {})
    noise = NoiseModel(
        name=noise_doc.get("name", "gaussian"),
        sigma=noise_doc.get("sigma", DEFAULT_SIGMA),
        mean=noise_doc.get("mean", 0.0),
    )
    if "chain_cells" not in doc:
        return (seed, *generate_null(dims, noise, seed), None)
    cells = tuple(
        (checked(r, "a chain cell row", INTEGER), checked(c, "a chain cell col", INTEGER))
        for r, c in doc["chain_cells"]
    )
    max_len = doc.get("max_len", DEFAULT_MAX_NODES)
    check_range("max_len", max_len, given_as="the spec's max_len")
    shared = dict(
        split_index=checked(doc["split_index"], "split_index", INTEGER),
        noise=noise,
        seed=seed,
        max_spacing_cells=float(checked(
            doc.get("max_spacing_cells", DEFAULT_MAX_EDGE_CELLS), "max_spacing_cells", FINITE
        )),
        max_len=max_len,
    )
    if "chain_values" in doc:
        values = tuple(float(checked(v, "a chain value", FINITE)) for v in doc["chain_values"])
        spec = PlantSpec(chain_cells=cells, chain_values=values, **shared)
    else:
        spec = chain_spec(cells, band=doc.get("band", "moderate"), **shared)
    return (seed, *generate(spec, dims))


def cmd_synth(args) -> int:
    doc = io.read_json(args.spec)
    # The whole instance is made before anything is written.
    with reading(ConfigError, f"bad synth spec {args.spec}", _SYNTH_LAYOUT):
        try:
            seed, source, target, truth = _synth_instance(doc, args.seed)
        except MemoryError as exc:
            raise ValueError(f"dims {doc['dims']} are too large to hold: {exc}") from exc
    os.makedirs(args.out_dir, exist_ok=True)
    if truth is not None:
        truth_doc = {
            "metadata": io.metadata_block(doc, seed),
            "cells": [list(c) for c in truth.cells],
            "split_index": truth.split_index,
            "values": list(truth.values),
        }
        io.write_json(truth_doc, os.path.join(args.out_dir, "truth.json"))
    io.save_grid(source, os.path.join(args.out_dir, "source.raw"))
    io.save_grid(target, os.path.join(args.out_dir, "target.raw"))
    print(f"synthetic instance ({source.rows}x{source.cols}, seed {seed}) -> {args.out_dir}")
    return 0


def cmd_aar(args) -> int:
    threads = _resolve_threads(args.threads)
    values = io.load_grid(args.values)
    mask = io.load_grid(args.mask)

    doc = io.read_json(args.origins)
    layout = "expected a JSON list or an object with an origins list"
    if isinstance(doc, dict) and "origins" not in doc:
        raise ConfigError(f"{args.origins} has no 'origins' key", hint=layout)
    entries = doc["origins"] if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise ConfigError(f"the origins in {args.origins} are not a JSON list", hint=layout)
    origins = []
    hint = "entries are [lat, lon] or {lat, lon} in finite degrees, or {cell: [row, col]}"
    with reading(ConfigError, f"bad origin entry in {args.origins}", hint):
        for entry in entries:
            if isinstance(entry, dict) and "cell" in entry:
                r, c = entry["cell"]
                r, c = checked(r, "a cell row", INTEGER), checked(c, "a cell col", INTEGER)
                origins.append((r, c))
                continue
            lat, lon = (entry["lat"], entry["lon"]) if isinstance(entry, dict) else entry
            if not (is_number(lat) and is_number(lon)):
                raise ValueError(f"coordinate ({lat!r}, {lon!r}) is not two JSON numbers")
            if not math.isfinite(lat) or not math.isfinite(lon):
                raise ValueError(f"coordinate ({lat:g}, {lon:g}) is not finite")
            origins.append((float(lat), float(lon)))
    with reading(ConfigError, f"cannot parse station {args.station!r}", "give --station=LAT,LON"):
        st_lat, st_lon = (float(v) for v in args.station.split(","))

    report = run_aar(
        values, mask, origins, (st_lat, st_lon), threads=threads,
        **{n: getattr(args, n) for n in AAR_FIELDS},
    )
    echo = {"command": "aar", **{n: getattr(args, n) for n in AAR_ECHO}}
    # The threshold the graph was built with, which a left-out flag leaves to the data.
    echo["threshold"] = report.graph.params["threshold"]
    io.write_json(io.aar_report_to_json(report, io.metadata_block(echo, args.seed)), args.output)
    n_sig = int(report.results.significant.sum())
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
    _add_config_flags(p, ("window", "ub_multiplier"))
    p.set_defaults(func=cmd_thresholds, ub_multiplier=DEFAULT_UB_MULTIPLIER)

    p = sub.add_parser("diff", help="per-cell change field LATER - EARLIER")
    p.add_argument("earlier")
    p.add_argument("later")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("build-graph", help="build the linkage graph and write graph.json")
    _add_config_flags(p, GRAPH_FIELDS, required=INPUT_FIELDS)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("extract-paths", help="enumerate candidate paths from graph.json")
    p.add_argument("--graph", required=True)
    _add_config_flags(p, PATHS_FIELDS)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_extract_paths, max_len=DEFAULT_MAX_NODES, cap=DEFAULT_CAP, seed=0)

    p = sub.add_parser("significance", help="score candidate paths under the permutation null")
    p.add_argument("--graph", required=True)
    p.add_argument("--paths", required=True)
    _add_config_flags(p, NULL_FIELDS + ("seed", "threads"), required=INPUT_FIELDS)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("pipeline", help="full run: bands, graph, paths, significance, artifacts")
    p.add_argument("--config", default=None, help="JSON config; flags override its entries")
    _add_config_flags(p, RUN_FIELDS)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("synth", help="generate a planted or null synthetic instance")
    p.add_argument("--spec", required=True, help="JSON instance spec")
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p, ("seed",))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("aar", help="transport benchmark over one point field")
    p.add_argument("--values", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--origins", required=True, help="JSON list of [lat, lon] or {cell: [r, c]}")
    p.add_argument(
        "--station", required=True,
        help="LAT,LON in degrees; write --station=LAT,LON, as a southern latitude starts with '-'",
    )
    _add_config_flags(p, AAR_FIELDS + ("threads",))
    p.add_argument("-o", "--output", required=True)
    # A flag left out takes run_aar's default, which the report's echo records.
    defaults = inspect.signature(run_aar).parameters
    p.set_defaults(func=cmd_aar, **{name: defaults[name].default for name in AAR_FIELDS})

    return parser


def main(argv=None) -> int:
    # The imported modules live until exit. Freezing them once keeps every
    # later collection, those at exit included, from walking them again;
    # objects made afterwards are collected as before.
    if not gc.get_freeze_count():
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in getattr(args, "checked", ()):
            if getattr(args, name) is not None:
                check_range(name, getattr(args, name))
        return args.func(args)
    except SpatialLinkError as exc:
        print(f"spatial-link: error [{exc.module}]: {exc}", file=sys.stderr)
        if exc.hint:
            print(f"spatial-link: hint: {exc.hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
