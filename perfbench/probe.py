"""Child-process launcher for the set-up probe and the traced run.

    python3 probe.py --root DIR --stop-at-graph -- <cli arguments>
    python3 probe.py --root DIR --trace FILE -- <cli arguments>

With ``--stop-at-graph`` the process exits at the first call of
``build_graph`` (pipeline) or ``build_aar_graph`` (aar), so its lifetime is
the set-up a run pays before graph construction: interpreter start, the
``spatial_link.cli`` import, input loads and banding.

With ``--trace`` each hooked function is wrapped where the program looks it
up (a module global or a class attribute). A wrapper records a span (name,
start, end, parent) plus counts taken from the call's arguments and
result. Spans stay in memory and are written to FILE as JSON when the
command returns. A hook that names a missing attribute is an error, so a
rename in the program cannot silently empty a layer.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time


COUNT_SPAN = "probe.count"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counts]
        self.stack = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, None]
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                # The count is the tracer's work, not the program's: record it
                # as a sibling span so it leaves the parent's self time.
                c0 = time.perf_counter()
                span[4] = counter(args, kwargs, result)
                tracer.spans.append([COUNT_SPAN, c0, time.perf_counter(), parent, None])
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


# -- counters: pure functions of (args, kwargs, result) -------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_cells(args, kwargs, result):
    return {"cells": len(result.cells)}


def _count_graph(args, kwargs, result):
    return {"nodes": result.n_nodes, "edges": result.n_edges}


def _count_len(args, kwargs, result):
    return {"n": len(result)}


def _count_bytes(args, kwargs, result):
    # write_json(doc, path) and frequency_to_csv(freq, metadata, path)
    return {"bytes": os.path.getsize(kwargs["path"] if "path" in kwargs else args[-1])}


def _count_engine(args, kwargs, result):
    return {"pool_cells": int(sum(len(p) for p in result.pools))}


def _count_evaluate(args, kwargs, result):
    engine = args[0]
    paths = _arg(args, kwargs, 1, "paths")
    nodes = {i for p in paths for i in p.nodes}
    return {
        "paths": len(paths),
        "replicates": engine.n_replicates,
        "pool_cells": int(sum(len(p) for p in engine.pools)),
        "path_nodes": len(nodes),
        "significant": sum(1 for r in result if r.significant),
    }


def _count_extent(args, kwargs, result):
    n = len(list(_arg(args, kwargs, 0, "node_ids")))
    return {"pairs": n * (n - 1) // 2}


def _count_components(args, kwargs, result):
    return {"retained": sum(1 for c in result if c.retained)}


# (owner, attribute, span name, counter). The owner is a module of the
# package, or "module:Class" for a class attribute.
HOOKS = [
    ("cli", "run_pipeline", "pipeline.run", None),
    ("cli", "run_aar", "aar.run", None),
    ("pipeline", "prepare_grids", "grid.prepare", None),
    ("pipeline", "compute_threshold_bands", "grid.thresholds", None),
    ("pipeline", "classify_cells", "grid.classify", _count_cells),
    ("grid:ChangeGrid", "__post_init__", "grid.validate", None),
    ("pipeline", "_run_band_pair", "pipeline.band_pair", None),
    ("pipeline", "build_graph", "graph.build", _count_graph),
    ("graph", "delaunay_triangulate", "graph.delaunay", _count_len),
    ("aar", "delaunay_triangulate", "graph.delaunay", _count_len),
    ("graph", "filter_edges_by_distance", "graph.filter", _count_len),
    ("pipeline", "extract_all_paths", "paths.extract", _count_len),
    ("aar", "enumerate_walks", "paths.extract", _count_len),
    ("pipeline", "linkage_frequency", "paths.frequency", None),
    ("significance:PermutationNull", "for_graph", "significance.engine", _count_engine),
    ("significance:PermutationNull", "for_point_field", "significance.engine", _count_engine),
    ("significance:PermutationNull", "evaluate", "significance.evaluate", _count_evaluate),
    ("io", "load_grid", "io.load_grid", None),
    ("io", "graph_to_json", "io.encode", None),
    ("io", "paths_to_json", "io.encode", None),
    ("io", "results_to_json", "io.encode", None),
    ("io", "export_geojson", "io.encode", None),
    ("io", "write_json", "io.write", _count_bytes),
    ("io", "frequency_to_csv", "io.write", _count_bytes),
    ("aar", "elevated_points", "aar.points", _count_len),
    ("aar", "build_aar_graph", "aar.graph", _count_graph),
    ("aar", "connected_components", "aar.components", _count_components),
    ("aar", "component_extent", "aar.extent", _count_extent),
    ("aar", "snap_to_node", "aar.snap", None),
    ("aar", "station_path_significance", "aar.station_paths", None),
]


class HookError(RuntimeError):
    pass


def _owner(spec):
    module_name, _, class_name = spec.partition(":")
    module = importlib.import_module(f"spatial_link.{module_name}")
    if not class_name:
        return module
    if not hasattr(module, class_name):
        raise HookError(f"spatial_link.{module_name} has no class {class_name}")
    return getattr(module, class_name)


def install(tracer, hooks=HOOKS):
    """Wrap every hooked attribute in place; raise on any missing one."""
    for spec, attr, name, counter in hooks:
        owner = _owner(spec)
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if raw is None:
                raise HookError(f"spatial_link.{spec} has no attribute {attr}")
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, counter)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, counter))
        else:
            if not hasattr(owner, attr):
                raise HookError(f"spatial_link.{spec} has no attribute {attr}")
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counter))


def _stop(*args, **kwargs):
    sys.stdout.flush()
    os._exit(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/spatial_link")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stop-at-graph", action="store_true")
    mode.add_argument("--trace", metavar="FILE")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    if args.stop_at_graph:
        from spatial_link import aar, cli, pipeline

        for owner, attr in ((pipeline, "build_graph"), (aar, "build_aar_graph")):
            if not hasattr(owner, attr):
                raise HookError(f"{owner.__name__} has no attribute {attr}")
            setattr(owner, attr, _stop)
        cli.main(cli_args)
        print("probe: the command ended before building a graph", file=sys.stderr)
        return 3

    tracer = Tracer()
    from spatial_link import cli

    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    tracer.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
