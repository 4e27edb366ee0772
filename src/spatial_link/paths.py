"""Bounded enumeration of candidate linkage paths through the graph.

A candidate path starts at a source node, walks distinct nodes, and
terminates at the first target node it reaches, so target nodes never
appear in a path interior. One walker, ``enumerate_walks``, serves both
modes: it walks each start breadth-first, in one thread, against one
running path cap, and returns the walks sorted, so the path list is
deterministic and independent of hash seeds. A walk is not extended once
no target lies within the nodes it has left.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import PathExplosion
from .graph import KIND_SOURCE, KIND_TARGET, SpatialGraph

DEFAULT_MAX_NODES = 11
DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class LinkagePath:
    """An ordered node walk from a source cell to its terminal target cell.

    ``score`` is the fraction of traversed edges carrying weight +1 and is
    fixed at construction from the real (unpermuted) edge weights.
    """

    nodes: tuple[int, ...]
    edge_weights: tuple[int, ...]
    score: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def path_score(edge_weights: tuple[int, ...] | list[int]) -> float:
    """Fraction of +1 weights along a path; requires at least one edge."""
    if len(edge_weights) == 0:
        raise ValueError("a path must traverse at least one edge")
    positive = sum(1 for w in edge_weights if w > 0)
    return positive / len(edge_weights)


def _terminal_hops(adjacency: list[list[int]], terminal: frozenset[int] | set[int]) -> list[float]:
    """Fewest edges from each node to a terminal node (infinity if none is reachable).

    A breadth-first search from all terminals at once; a shortest route
    never passes through a terminal, as that nearer one would end it.
    """
    hops = [0 if node in terminal else math.inf for node in range(len(adjacency))]
    queue = deque(terminal)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if hops[v] == math.inf:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def enumerate_walks(
    adjacency: list[list[int]],
    starts: Iterable[int],
    terminal: frozenset[int] | set[int],
    max_nodes: int,
    cap: int = DEFAULT_CAP,
    hint: str | None = None,
) -> list[tuple[int, ...]]:
    """Every simple walk from a start to the first terminal node it reaches, sorted.

    Each start is walked breadth-first, in the order given, with neighbours
    in ascending id order. A walk never revisits a node, never passes
    through a terminal node and carries at most ``max_nodes`` nodes; no
    start may itself be terminal. A walk never steps to a node with no
    terminal within the nodes it has left, as such a walk never ends.

    All starts share one budget: ``PathExplosion`` (carrying ``hint``) is
    raised the moment the walks found pass ``cap``, so at most ``cap + 1``
    are ever held.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    if max_nodes < 2:
        raise ValueError("max_nodes must allow at least one edge")
    hops = _terminal_hops(adjacency, terminal)
    out: list[tuple[int, ...]] = []
    for start in starts:
        if start in terminal:
            raise ValueError(f"start node {start} is a terminal node")
        queue: deque[tuple[int, ...]] = deque([(start,)])
        while queue:
            walk = queue.popleft()
            seen = set(walk)
            left = max_nodes - 1 - len(walk)
            for nbr in adjacency[walk[-1]]:
                if nbr in seen or hops[nbr] > left:
                    continue
                if nbr in terminal:
                    out.append(walk + (nbr,))
                    if len(out) > cap:
                        raise PathExplosion(
                            f"path enumeration passed the cap of {cap} paths", hint=hint
                        )
                else:
                    queue.append(walk + (nbr,))
    out.sort()
    return out


def to_linkage_paths(walks: list[tuple[int, ...]], graph: SpatialGraph) -> list[LinkagePath]:
    """Turn node walks into paths, weighting each step with the graph's edge weight."""
    paths = []
    for walk in walks:
        weights = tuple(map(graph.edge_weight, walk[:-1], walk[1:]))
        paths.append(LinkagePath(nodes=walk, edge_weights=weights, score=path_score(weights)))
    return paths


def extract_all_paths(
    graph: SpatialGraph,
    max_nodes: int = DEFAULT_MAX_NODES,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> list[LinkagePath]:
    """Enumerate candidate paths from every source node.

    Sources are walked one after another in id order, in one thread, and
    the result is sorted by (source node id, node sequence). Raises
    ``PathExplosion`` as soon as the running total exceeds ``cap``;
    partial results are never returned. ``threads`` is accepted for
    compatibility and unused: the walk is pure Python, so threads only
    contend for the interpreter lock.
    """
    walks = enumerate_walks(
        graph.adjacency,
        graph.nodes_of_kind(KIND_SOURCE),
        frozenset(graph.nodes_of_kind(KIND_TARGET)),
        max_nodes,
        cap,
        hint="lower --max-len or --dmax, tighten the bands, or raise --cap",
    )
    return to_linkage_paths(walks, graph)


def linkage_frequency(
    paths: list[LinkagePath], graph: SpatialGraph, shape: tuple[int, int]
) -> np.ndarray:
    """Per-cell count of how many of the given paths visit each cell."""
    cells = np.asarray([(n.row, n.col) for n in graph.nodes], dtype=np.int64).reshape(-1, 2)
    ids = np.fromiter((i for p in paths for i in p.nodes), dtype=np.int64)
    freq = np.zeros(shape, dtype=np.int64)
    np.add.at(freq, (cells[ids, 0], cells[ids, 1]), 1)
    return freq
