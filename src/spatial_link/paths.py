"""Bounded enumeration of candidate linkage paths through the graph.

A candidate path starts at a source node, walks distinct nodes, and
terminates at the first target node it reaches, so target nodes never
appear in a path interior. One walker, ``enumerate_walks``, serves both
modes: it extends batches of unfinished walks over the graph's CSR
adjacency, a bounded number of steps at a time, under one running path
cap, and returns a ``PathStore`` sorted by node sequence, so the path list
is deterministic. A walk is not extended once no target lies within the
nodes it has left.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import PathExplosion
from .graph import KIND_SOURCE, KIND_TARGET, Adjacency, SpatialGraph, ranges

DEFAULT_MAX_NODES = 11
DEFAULT_CAP = 1_000_000
# Candidate steps the walker extends at once.
STEP_BUDGET = 1 << 12


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


def _split(flat: list, offsets: list[int]) -> list[tuple]:
    return [tuple(flat[a:b]) for a, b in zip(offsets, offsets[1:])]


def steps(offsets: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (from, to) nodes of each step of the walks ``nodes[offsets[k]:offsets[k + 1]]``."""
    at = ranges(offsets[:-1], np.diff(offsets) - 1)
    return nodes[at], nodes[at + 1]


@dataclass(eq=False)
class PathStore(Sequence):
    """Paths as arrays; its items are ``LinkagePath`` views, built on read.

    Path k visits ``nodes[offsets[k]:offsets[k + 1]]``, takes the steps
    ``edge_weights[offsets[k] - k:offsets[k + 1] - k - 1]`` and scores
    ``scores[k]``. A slice is a store. A store equals any sequence of the
    same paths, or of the same walks as node tuples.
    """

    offsets: np.ndarray
    nodes: np.ndarray
    edge_weights: np.ndarray
    scores: np.ndarray

    @classmethod
    def weighted(cls, offsets, nodes, edge_weights) -> "PathStore":
        """The store of these walks and step weights, each scored by ``path_score``'s rule."""
        n_steps = np.diff(offsets) - 1
        if (n_steps < 1).any():
            raise ValueError("a path must traverse at least one edge")
        positive = np.concatenate([[0], np.cumsum(edge_weights > 0)])
        scores = np.diff(positive[offsets - np.arange(len(offsets))]) / n_steps
        return cls(offsets, nodes, edge_weights.astype(np.int8), scores)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def step_offsets(self) -> np.ndarray:
        return self.offsets - np.arange(len(self.offsets))

    def __iter__(self):
        weights = _split(self.edge_weights.tolist(), self.step_offsets().tolist())
        walks = _split(self.nodes.tolist(), self.offsets.tolist())
        return map(LinkagePath, walks, weights, self.scores.tolist())

    def __getitem__(self, index):
        return self.take(index) if isinstance(index, slice) else next(iter(self.take([index])))

    def take(self, index) -> "PathStore":
        """The store of the paths at ``index`` (positions or a boolean mask), in that order."""
        index = np.arange(len(self))[index]
        lengths = np.diff(self.offsets)[index]
        return PathStore(
            np.concatenate([[0], np.cumsum(lengths)]),
            self.nodes[ranges(self.offsets[index], lengths)],
            self.edge_weights[ranges(self.step_offsets()[index], lengths - 1)],
            self.scores[index],
        )

    def __eq__(self, other) -> bool:
        other = list(other)
        return len(other) == len(self) and all(
            (path.nodes if isinstance(item, tuple) else path) == item
            for path, item in zip(self, other)
        )


def _terminal_hops(adjacency: Adjacency, terminal: np.ndarray, within: int) -> np.ndarray:
    """Fewest edges from each node to a terminal node, or ``within + 1`` if more.

    A breadth-first search from all terminals at once; a shortest route
    never passes through a terminal, as that nearer one would end it.
    """
    hops = np.full(len(adjacency), within + 1, dtype=np.int64)
    frontier = np.flatnonzero(terminal)
    for level in range(within + 1):
        hops[frontier] = level
        first = adjacency.indptr[frontier]
        reached = adjacency.indices[ranges(first, adjacency.indptr[frontier + 1] - first)]
        frontier = np.unique(reached[hops[reached] > within])
    return hops


def enumerate_walks(
    adjacency: Adjacency,
    starts: Iterable[int],
    terminal: Iterable[int],
    max_nodes: int,
    cap: int = DEFAULT_CAP,
    hint: str | None = None,
) -> PathStore:
    """Every simple walk from a start to the first terminal node it reaches, sorted.

    A walk never revisits a node, never passes through a terminal node and
    carries at most ``max_nodes`` nodes; no start may itself be terminal. A
    walk never steps to a node with no terminal within the nodes it has
    left, as such a walk never ends. Each step carries its CSR slot, which
    gives its edge weight.

    Unfinished walks wait in batches of one length, and the batch of the
    longest walks is extended first, ``STEP_BUDGET`` candidate steps at a
    time (or one walk's, if more). All starts share one budget: ``PathExplosion``
    (carrying ``hint``) is raised as soon as the walks found pass ``cap``.
    So besides the starts the walker holds at most ``cap + STEP_BUDGET``
    finished walks and, per walk length, one batch of at most
    ``STEP_BUDGET`` unfinished ones.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    if max_nodes < 2:
        raise ValueError("max_nodes must allow at least one edge")
    max_nodes = min(max_nodes, max(len(adjacency), 2))  # no simple walk is longer
    starts = np.fromiter(starts, dtype=np.int64)
    is_terminal = np.zeros(len(adjacency), dtype=bool)
    is_terminal[np.fromiter(terminal, dtype=np.int64)] = True
    if is_terminal[starts].any():
        raise ValueError(f"start node {starts[np.argmax(is_terminal[starts])]} is a terminal node")
    hops = _terminal_hops(adjacency, is_terminal, max_nodes - 1)
    starts = starts[hops[starts] < max_nodes]
    # Walks and their step slots, padded with -1 to max_nodes nodes; a
    # waiting batch records how many nodes its walks hold.
    walks, slots = np.full((len(starts), max_nodes), -1), np.full((len(starts), max_nodes - 1), -1)
    walks[:, 0] = starts
    waiting, found, total = [(walks, slots, 1)], [(walks[:0], slots[:0])], 0
    while waiting:
        walks, slots, depth = waiting.pop()
        first = adjacency.indptr[walks[:, depth - 1]]
        degree = adjacency.indptr[walks[:, depth - 1] + 1] - first
        cut = max(1, int(np.searchsorted(np.cumsum(degree), STEP_BUDGET, side="right")))
        if cut < len(walks):
            waiting.append((walks[cut:], slots[cut:], depth))
            walks, slots, first, degree = walks[:cut], slots[:cut], first[:cut], degree[:cut]
        parent, slot = np.repeat(np.arange(len(walks)), degree), ranges(first, degree)
        nbr = adjacency.indices[slot]
        ok = np.flatnonzero(hops[nbr] < max_nodes - depth)
        ok = ok[(walks[parent[ok]] != nbr[ok, None]).all(axis=1)]
        walks, slots = walks[parent[ok]], slots[parent[ok]]
        walks[:, depth], slots[:, depth - 1] = nbr[ok], slot[ok]
        done = is_terminal[nbr[ok]]
        total += int(done.sum())
        if total > cap:
            raise PathExplosion(f"path enumeration passed the cap of {cap} paths", hint=hint)
        found.append((walks[done], slots[done]))
        if not done.all():
            waiting.append((walks[~done], slots[~done], depth + 1))
    walks, slots = (np.concatenate(column) for column in zip(*found))
    order = np.lexsort(walks.T[::-1])
    walks, slots = walks[order], slots[order]
    return PathStore.weighted(
        np.concatenate([[0], np.cumsum((walks >= 0).sum(axis=1))]),
        walks[walks >= 0],
        adjacency.weight[slots[slots >= 0]],
    )


def extract_all_paths(
    graph: SpatialGraph,
    max_nodes: int = DEFAULT_MAX_NODES,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> PathStore:
    """Enumerate candidate paths from every source node.

    The result is sorted by (source node id, node sequence). Raises
    ``PathExplosion`` as soon as the running total exceeds ``cap``;
    partial results are never returned. ``threads`` is accepted for
    compatibility and unused.
    """
    return enumerate_walks(
        graph.adjacency,
        graph.nodes_of_kind(KIND_SOURCE),
        graph.nodes_of_kind(KIND_TARGET),
        max_nodes,
        cap,
        hint="lower --max-len or --dmax, tighten the bands, or raise --cap",
    )


def linkage_frequency(paths: PathStore, graph: SpatialGraph, shape: tuple[int, int]) -> np.ndarray:
    """Per-cell count of how many of the given paths visit each cell."""
    ids = paths.nodes
    freq = np.zeros(shape, dtype=np.int64)
    np.add.at(freq, (graph.row[ids], graph.col[ids]), 1)
    return freq
