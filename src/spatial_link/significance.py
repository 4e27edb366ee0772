"""Permutation-null significance testing of candidate linkage paths.

The null model holds path geometry fixed and permutes field values among
the valid cells of each field independently, recomputing each path's
coherence score per replicate. Under a permutation, the cells read at a
pool's distinct path nodes form a uniformly random ordered subset of the
pool, so each replicate draws that subset directly (``lemire_subsets``)
from the raw output of its own PCG64 stream. Replicate seeds derive from a
single base seed through a pure function of the replicate index, so
results are independent of evaluation order and thread count. The
reported p-value uses the add-one estimator (1 + #{null >= observed}) /
(1 + M), which is never zero and is exact under the discrete permutation
distribution.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, MalformedHeader, reading
from .grid import KIND_SOURCE, ORIENTATIONS, ChangeGrid, in_band
from .graph import (
    NODE_KINDS, VARIANT_CMAD, VARIANT_STANDARD, VARIANT_THRESHOLD, SpatialGraph, edge_ok,
)
from .paths import LinkagePath, PathStore, steps

DEFAULT_REPLICATES = 999
DEFAULT_ALPHA = 0.05
# The null scores replicates in blocks of at most MAX_BLOCK, holding at
# most BLOCK_COUNTS (path, replicate) ok-edge counts at once.
MAX_BLOCK = 64
BLOCK_COUNTS = 1 << 20
# Pools are sampled with 32-bit words, so a pool holds fewer than 2**32 cells.
WORD = 1 << 32


@dataclass(frozen=True)
class SeedPolicy:
    """Pure derivation of per-replicate random streams from one base seed.

    Replicate ``i`` uses the child sequence of ``base_seed`` with spawn key
    ``(i,)``, so any subset of replicates can be generated in any order,
    on any thread, with identical results.
    """

    base_seed: int

    def generator(self, index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.base_seed, spawn_key=(index,))
        )


@dataclass(frozen=True)
class SignificanceResult:
    path: LinkagePath
    observed: float
    p_value: float
    significant: bool
    alpha: float


@dataclass(eq=False)
class Results:
    """Decisions on a path store, as arrays; its items are ``SignificanceResult`` views."""

    paths: PathStore
    observed: np.ndarray
    p_values: np.ndarray
    significant: np.ndarray
    alpha: np.ndarray

    @classmethod
    def empty(cls) -> "Results":
        paths = PathStore.weighted(np.zeros(1, np.int64), np.zeros(0, np.int64), np.zeros(0))
        return cls(paths, paths.scores, paths.scores, np.zeros(0, dtype=bool), paths.scores)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return map(SignificanceResult, self.paths, *(a.tolist() for a in self._columns()))

    def __eq__(self, other) -> bool:
        return list(self) == list(other)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.observed, self.p_values, self.significant, self.alpha

    def take(self, index) -> "Results":
        """The results at ``index`` (positions or a boolean mask), in that order."""
        return Results(self.paths.take(index), *(a[index] for a in self._columns()))


def p_value(observed: float, null: np.ndarray) -> float:
    """Add-one upper-tail p-value of an observed score against null scores."""
    null = np.asarray(null)
    if null.size == 0:
        raise ValueError("p_value requires at least one null replicate")
    return float((1 + np.count_nonzero(null >= observed)) / (1 + null.size))


def benjamini_hochberg(p_values, alpha: float) -> np.ndarray:
    """Step-up false discovery rate decisions at level alpha."""
    p = np.asarray(p_values, dtype=float)
    m = p.size
    if m == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    below = ranked <= (np.arange(1, m + 1) / m) * alpha
    decisions = np.zeros(m, dtype=bool)
    if below.any():
        k = int(np.nonzero(below)[0][-1])
        decisions[order[: k + 1]] = True
    return decisions


def check_node_cells(grid: ChangeGrid, cells, ids, field: str) -> None:
    """Raise ``DimMismatch`` unless each cell is a valid cell of ``grid`` of one node only.

    ``cells`` holds one (row, col) per node and ``ids`` the node ids. The
    first cell in that order that lies outside the grid or on an invalid
    cell of ``field`` is named, by its node id, in the ``DimMismatch``
    raised for it. ``PermutationNull.for_graph`` checks all source nodes
    before any target node, so it names the lowest bad source node id if
    there is one, else the lowest bad target node id. The null draws a cell
    of its own for each node, so two nodes on one cell are a
    ``DimMismatch`` too.
    """
    rows, cols = np.asarray(cells, dtype=np.int64).reshape(-1, 2).T
    off = (rows < 0) | (rows >= grid.rows) | (cols < 0) | (cols >= grid.cols)
    bad = np.flatnonzero(off | ~grid.valid_mask[np.where(off, 0, rows), np.where(off, 0, cols)])
    if bad.size:
        k = int(bad[0])
        where = f"on an invalid cell of the {field} field"
        if off[k]:
            where = f"outside the {grid.rows}x{grid.cols} grids"
        raise DimMismatch(
            f"graph node {ids[k]} at cell ({rows[k]}, {cols[k]}) lies {where}",
            hint="pass the fields (and mask) the graph was built from",
        )
    flat = rows * grid.cols + cols
    _, first = np.unique(flat, return_index=True)
    if len(first) < len(flat):
        k = int(np.setdiff1d(np.arange(len(flat)), first)[0])
        j = int(np.flatnonzero(flat == flat[k])[0])
        raise DimMismatch(
            f"graph nodes {ids[j]} and {ids[k]} both lie at cell ({rows[k]}, {cols[k]}) of the "
            f"{field} field",
            hint="a graph has one node per cell of each field; rebuild it with build-graph",
        )


def replicate_block(n_paths: int) -> int:
    """Replicates scored at once over ``n_paths`` paths, holding at most BLOCK_COUNTS counts."""
    return max(1, min(MAX_BLOCK, BLOCK_COUNTS // n_paths))


def ok_edges_needed(scores: np.ndarray, n_edges: np.ndarray) -> np.ndarray:
    """Fewest ok edges k with ``k / n_edges >= score``, per path; ``n_edges + 1`` if none.

    ``k / n_edges`` rounds monotonically in k, so a replicate with c ok
    edges scores at least ``score`` exactly when c reaches this count. The
    estimate ``ceil(score * n_edges)`` is off by at most one either way,
    and each way is settled by that float comparison itself.
    """
    need = np.clip(np.ceil(scores * n_edges), 0, n_edges + 1)
    need -= (need > 0) & ((need - 1) / n_edges >= scores)
    need += (need <= n_edges) & (need / n_edges < scores)
    return need


def lemire_subsets(raw: np.ndarray, sizes, counts) -> tuple[list[np.ndarray], np.ndarray]:
    """Distinct uniform positions per pool, drawn from each row of raw PCG64 output.

    ``raw`` is an (R, H) uint64 array; each value gives two 32-bit words,
    low half first. For a pool of ``n`` cells a word ``w`` gives
    ``m = w * n``: it is accepted iff ``m mod 2**32 >= (2**32 - n) % n``
    (Lemire 2019) and then draws position ``m >> 32``. Pools are drawn in
    order; each takes words in stream order, skipping rejected words and
    positions it holds already, until it holds its count, and the next
    pool starts at the word after the one that completed it. Returns one
    (R, count) int64 array per pool, positions in draw order, and a mask
    of the rows whose words sufficed for every pool; the arrays' other
    rows are undefined.
    """
    words = raw.astype("<u8", copy=False).view("<u4").reshape(len(raw), -1).astype(np.uint64)
    rows, width = words.shape
    shift = width.bit_length()
    start, done, out = np.zeros(rows, np.int64), np.ones(rows, bool), []
    for n, d in zip(sizes, counts):
        if d == 0:
            out.append(np.zeros((rows, 0), np.int64))
            continue
        # Words before the earliest row's start are no row's to draw.
        lo = int(start.min())
        cols = np.arange(lo, width)
        m = words[:, lo:] * np.uint64(n)
        valid = ((m & np.uint64(WORD - 1)) >= (WORD - n) % n) & (cols >= start[:, None])
        pos = (m >> np.uint64(32)).view(np.int64)
        # Invalid words draw position n. Sorting (position, column) keys
        # puts the words of one position in stream order, so each word
        # after the first of its position repeats it.
        pos[~valid] = n
        keys = (pos << shift) | cols
        # Small pools' keys fit int32, which sorts about three times faster.
        if (n + 1) << shift < 2**31:
            keys = keys.astype(np.int32)
        keys.sort(axis=1)
        drawn_pos = keys >> shift
        repeat = drawn_pos[:, 1:] == drawn_pos[:, :-1]
        valid[np.nonzero(repeat)[0], (keys[:, 1:][repeat] & ((1 << shift) - 1)) - lo] = False
        held = np.cumsum(valid, axis=1, dtype=np.int32)
        full = held[:, -1] >= d
        drawn = np.zeros((rows, d), np.int64)
        drawn[full] = pos[valid & (held <= d) & full[:, None]].reshape(-1, d)
        out.append(drawn)
        done &= full
        start = lo + np.argmax(held >= d, axis=1) + 1
    return out, done


def words_needed(sizes, counts) -> int:
    """Words per replicate that draw every pool's count with room to spare; an even number.

    Drawing the j-th distinct position of n takes n / (n - j) accepted
    words on average, with variance j n / (n - j)**2. The total mean plus
    four standard deviations and eight words leaves few rows short.
    """
    mean = var = 0.0
    for n, d in zip(sizes, counts):
        j = np.arange(d, dtype=float)
        mean += float((n / (n - j)).sum()) * WORD / (WORD - WORD % n)
        var += float((j * n / (n - j) ** 2).sum())
    return 2 * int(np.ceil((mean + 4 * np.sqrt(var) + 8) / 2))


class PermutationNull:
    """Vectorized permutation-null engine over a batch of paths.

    ``pools`` holds, per permuted field, the rule state of each valid
    cell: its sign (``standard``), its anomaly bit for the source field or
    its oriented in-band test for the target field (``cmad``), or whether
    it reaches the threshold (``threshold``). The constructors derive the
    states; permuting the states is permuting the values. ``node_pool``
    gives the pool each node reads, and the nodes of one pool lie on
    distinct cells of it. One replicate draws, per pool, as many distinct
    uniform cells as the pool has distinct path nodes, reads their states
    for those nodes, and rescores every path from one ok-bit per distinct
    path edge. Scores are fractions k / n_edges, so a null score is
    compared with the observed score of the same path as counts: its k
    against the fewest ok edges that reach the observed score.
    """

    def __init__(
        self,
        *,
        pools: list[np.ndarray],
        node_pool: np.ndarray,
        policy: SeedPolicy,
        n_replicates: int = DEFAULT_REPLICATES,
        threads: int = 1,
        variant: str = VARIANT_STANDARD,
    ):
        if n_replicates < 1:
            raise ValueError("n_replicates must be at least 1")
        self.pools = [np.asarray(p) for p in pools]
        self.node_pool = np.asarray(node_pool, dtype=np.int64)
        sizes = [len(p) for p in self.pools]
        if max(sizes) >= WORD:
            raise ValueError(f"a pool holds {max(sizes)} cells; the null draws from under 2**32")
        nodes = np.bincount(self.node_pool, minlength=len(sizes))
        if (nodes > sizes).any():
            raise ValueError(f"pools of {sizes} cells cannot hold {nodes.tolist()} distinct nodes")
        self.policy = policy
        self.n_replicates = int(n_replicates)
        self.threads = max(1, int(threads))
        self.variant = variant

    # -- constructors ---------------------------------------------------

    @classmethod
    def for_graph(
        cls,
        graph: SpatialGraph,
        source: ChangeGrid,
        target: ChangeGrid,
        policy: SeedPolicy,
        n_replicates: int = DEFAULT_REPLICATES,
        threads: int = 1,
        anomaly_mask: np.ndarray | None = None,
    ) -> "PermutationNull":
        """Engine for a graph built over two change fields.

        The grids must be the same (already cropped) fields the graph was
        built from. Under the ``cmad`` variant the graph params must carry
        the target band interval and orientation (else ``MalformedHeader``),
        and the anomaly mask must be supplied: its bits are the source
        states.
        """
        variant = graph.params.get("variant", VARIANT_STANDARD)
        cells = np.column_stack([graph.row, graph.col])
        node_pool = (graph.kind != NODE_KINDS.index(KIND_SOURCE)).astype(np.int64)
        for k, (grid, field) in enumerate(((source, "source"), (target, "target"))):
            ids = np.flatnonzero(node_pool == k)
            check_node_cells(grid, cells[ids], ids, field)

        if variant == VARIANT_CMAD:
            if anomaly_mask is None:
                raise ValueError("cmad variant requires the anomaly mask")
            mask = np.asarray(anomaly_mask, dtype=bool)
            if mask.shape != source.shape:
                raise ValueError(
                    f"anomaly mask shape {mask.shape} does not match grid shape {source.shape}"
                )
            hint = (
                'a cmad graph records "target_interval": [lo, hi] and "orientation_target": '
                f"one of {list(ORIENTATIONS)} in its params; rebuild it with build-graph"
            )
            with reading(MalformedHeader, "cmad graph params do not give the target band", hint):
                lo, hi = (float(bound) for bound in graph.params["target_interval"])
                in_target_band = in_band(
                    target.values[target.valid_mask], graph.params["orientation_target"], lo, hi
                )
            pools = [mask[source.valid_mask], in_target_band]
        else:
            pools = [np.sign(g.values[g.valid_mask]).astype(np.int8) for g in (source, target)]

        return cls(
            pools=pools,
            node_pool=node_pool,
            policy=policy,
            n_replicates=n_replicates,
            threads=threads,
            variant=variant,
        )

    @classmethod
    def for_point_field(
        cls,
        values_grid: ChangeGrid,
        cells: list[tuple[int, int]],
        threshold: float,
        policy: SeedPolicy,
        n_replicates: int = DEFAULT_REPLICATES,
        threads: int = 1,
    ) -> "PermutationNull":
        """Engine for a single-field point graph scored by a threshold rule.

        ``cells[i]`` is the grid cell of node i. The permutation pool holds
        ``value >= threshold`` for every valid cell of the field, not just
        the point cells, so a null replicate can place sub-threshold values
        onto the path.
        """
        n = len(cells)
        check_node_cells(values_grid, cells, range(n), "value")
        return cls(
            pools=[values_grid.values[values_grid.valid_mask] >= float(threshold)],
            node_pool=np.zeros(n, dtype=np.int64),
            policy=policy,
            n_replicates=n_replicates,
            threads=threads,
            variant=VARIANT_THRESHOLD,
        )

    # -- scoring --------------------------------------------------------

    def _draw(self, block: range, counts: list[int], width: int) -> list[np.ndarray]:
        """Each pool's drawn positions for the replicates of ``block``, a row per replicate.

        Each replicate reads ``width`` words of its stream at once; a row
        that runs short reads as many words again, from where it stopped,
        until every pool is drawn.
        """
        sizes = [len(p) for p in self.pools]
        streams = [self.policy.generator(i).bit_generator for i in block]
        raw = np.array([g.random_raw(width // 2) for g in streams])
        rows = np.arange(len(streams))
        out = [np.empty((len(streams), d), np.int64) for d in counts]
        while True:
            drawn, done = lemire_subsets(raw, sizes, counts)
            for positions, part in zip(out, drawn):
                positions[rows[done]] = part[done]
            if done.all():
                return out
            rows, raw = rows[~done], raw[~done]
            raw = np.concatenate([raw, [streams[r].random_raw(raw.shape[1]) for r in rows]], axis=1)

    def _run(self, paths: PathStore) -> np.ndarray:
        """Exceedance counts per path: replicates scoring at least the observed score.

        The stream contract. Replicate ``i`` reads only the raw output of
        the PCG64 bit generator of ``policy.generator(i)``, never a
        ``Generator`` method, so its draws depend only on the seed. Each
        pool (source, then target; the one pool of a point field) draws as
        many distinct positions as it has distinct path nodes in the store,
        by ``lemire_subsets``; its j-th position is read for its j-th
        distinct path node in ascending node id order. The positions of
        one pool are a uniformly random ordered subset of it, as the cells
        under those nodes are after a permutation, so the null's law is the
        permutation law; a path's draws depend on the store's distinct
        node set. How many words a replicate reads at once is tuning only.

        Replicates are scored in blocks of ``replicate_block(n_paths)``.
        Each replicate of a block sets its own row of a (block x distinct
        path node) state matrix; the block then reduces the matrix to one
        ok-bit per replicate and distinct (undirected) path edge, packs each
        edge's bits into one word of lanes, a lane per replicate, and counts
        the ok edges of every path by adding the words of its steps, for
        all its replicates at once. A path exceeds in a replicate when its
        count reaches ``ok_edges_needed``. Each thread takes one contiguous
        range of replicates and splits it into blocks, so the counts are
        the same for every block size and thread count.
        """
        n_paths, (a, b) = len(paths), steps(paths.offsets, paths.nodes)
        # Edge (u, v) and (v, u) share the key min * n + max.
        n = len(self.node_pool)
        edge_keys, step_edge = np.unique(
            np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True
        )
        nodes, ends = np.unique(
            np.concatenate([edge_keys // n, edge_keys % n]), return_inverse=True
        )
        end_a, end_b = ends[: len(edge_keys)], ends[len(edge_keys):]
        n_edges = np.diff(paths.step_offsets())
        # Longest paths first, so the paths with a j-th step are a prefix
        # of them; columns[j] holds the edge of each one's j-th step.
        order = np.argsort(-n_edges, kind="stable")
        first_step = paths.step_offsets()[:-1][order]
        reaching = np.cumsum(np.bincount(n_edges)[::-1])[-2::-1]
        columns = [step_edge[first_step[:k] + j] for j, k in enumerate(reaching)]
        # A block packs the ok bits of each edge into one lane of `bits` per
        # replicate, in words of up to 64 bits. Summed over a path's steps,
        # a lane counts its ok edges, which stay below 2**(bits - 1), so no
        # lane carries into the next; adding 2**(bits - 1) - need then sets
        # the lane's top bit exactly when the count reaches the need.
        size = replicate_block(n_paths)
        bits = next(w for w in (8, 16, 32) if len(columns) < 1 << (w - 1))
        word = np.dtype(f"u{min(64, 1 << (size * bits - 1).bit_length()) // 8}")
        per_word = 8 * word.itemsize // bits
        n_words = -(-size // per_word)
        lane = np.dtype(f"u{bits // 8}")
        ones = word.type(sum(1 << bits * i for i in range(per_word)))
        need = ok_edges_needed(paths.scores, n_edges)[order]
        bias = ((1 << bits - 1) - need).astype(word) * ones
        if n_words > 1:
            bias = bias[:, None]
        # The path-node slots of each pool's nodes, in ascending node id order.
        slots = [np.flatnonzero(self.node_pool[nodes] == k) for k in range(len(self.pools))]
        counts = [len(s) for s in slots]
        width = words_needed([len(p) for p in self.pools], counts)
        m = self.n_replicates

        def run_range(indices: range) -> np.ndarray:
            ge = np.zeros(n_paths, dtype=np.uint64)
            state = np.empty((size, len(nodes)), dtype=self.pools[0].dtype)
            lanes = np.zeros((len(edge_keys), n_words * per_word), lane)
            packed = lanes.view(word) if n_words > 1 else lanes.view(word)[:, 0]
            total, part = np.empty((2, n_paths) + packed.shape[1:], word)
            top = np.zeros(n_words * per_word, lane)
            for start in range(indices.start, indices.stop, size):
                block = range(start, min(start + size, indices.stop))
                rows = state[: len(block)]
                drawn = self._draw(block, counts, width)
                for states, where, positions in zip(self.pools, slots, drawn):
                    rows[:, where] = states[positions]
                lanes[:, : len(block)] = edge_ok(self.variant, rows[:, end_a], rows[:, end_b]).T
                np.take(packed, columns[0], axis=0, out=total, mode="wrap")
                for column in columns[1:]:
                    head = part[: len(column)]
                    np.take(packed, column, axis=0, out=head, mode="wrap")
                    total[: len(column)] += head
                # The mask keeps the top bits of the block's own lanes only.
                top[: len(block)], top[len(block):] = 1 << bits - 1, 0
                total += bias
                total &= top.view(word)
                # One bit per lane that reached its need, summed into the top lane.
                total >>= bits - 1
                total *= ones
                total >>= 8 * word.itemsize - bits
                ge += total if n_words == 1 else total.sum(axis=1, dtype=np.uint64)
            return ge

        step = -(-m // self.threads)
        parts = [range(s, min(s + step, m)) for s in range(0, m, step)]
        if len(parts) == 1:
            # On a worker thread the blocks' buffers would come from that
            # thread's own malloc arena, which keeps their pages afterwards.
            ge = run_range(parts[0])
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                ge = np.sum(list(pool.map(run_range, parts)), axis=0)
        out = np.empty(n_paths, dtype=np.int64)
        out[order] = ge
        return out

    def evaluate(
        self,
        paths: PathStore,
        alpha: float = DEFAULT_ALPHA,
        share_null_by_length: bool = False,
        bh_correction: bool = False,
    ) -> Results:
        """Score a store of paths and decide significance at level alpha.

        With ``share_null_by_length`` the null distribution is computed
        once per path length (using the first path of that length) and
        reused for all equal-length paths, which is a valid shortcut
        because under value permutation the null score law of a path
        depends on the path only through its length and node composition.
        The first path of a length stands in once per distinct observed
        score of that length, in one store of stand-ins. Whatever else a
        store holds, the states a replicate draws at any path's distinct
        nodes follow the permutation law, so each stand-in's replicate
        scores are draws from its own null law, and its copies share them.
        """
        if not 0 < alpha < 1:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not len(paths):
            return Results.empty()

        if share_null_by_length:
            lengths = np.diff(paths.offsets)
            _, first, by_length = np.unique(lengths, return_index=True, return_inverse=True)
            keys = np.stack([lengths, paths.scores])
            _, key_first, by_key = np.unique(keys, axis=1, return_index=True, return_inverse=True)
            stand_ins = paths.take(first[by_length[key_first]])
            stand_ins.scores = paths.scores[key_first]
            ge = self._run(stand_ins)[by_key.reshape(-1)]
        else:
            ge = self._run(paths)
        pvals = (1 + ge) / (1 + self.n_replicates)

        if bh_correction:
            decisions = benjamini_hochberg(pvals, alpha)
        else:
            decisions = pvals < alpha
        return Results(paths, paths.scores, pvals, decisions, np.full(len(paths), float(alpha)))
