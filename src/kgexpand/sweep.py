"""One snapshot as integer arrays, and one batched Brandes sweep over it.

``snapshot_index`` builds a ``KnowledgeGraph``'s self-loop-free undirected
adjacency straight from its triples: the sorted node keys, an int32 CSR with
the degrees and component labels, a self-loop flag per node, and each edge
once in the order networkx's view of the graph would yield it. Every
per-snapshot metric reads this index; no stage builds a networkx graph. Its
``rows``, built once, lay the CSR out in degree order for every neighbour sum.
``distance_sweep`` runs Brandes' algorithm (J. Math. Sociol. 25:163,
2001) in its algebraic, level-synchronous form (Kepner and Gilbert, *Graph
Algorithms in the Language of Linear Algebra*, SIAM 2011): a batch of sources
advances one BFS level per step, each step one sum of the frontier over
every node's neighbours, and the dependencies are then accumulated level by
level back towards the sources. One sweep gives every distance-based value
of a snapshot: betweenness on the whole graph and on its largest component,
the integer distance sums, reach counts and eccentricities (mean SPL,
diameter, closeness), and the depth rows of chosen sources.

Path counts are sums of integers, so they are exact; betweenness differs
from networkx's only by the order of its float sums (within 1e-12 relative).
Distances are integers, and closeness uses networkx's formula on them, so
both are exact. This module imports numpy when it loads; the CLI imports the
analysis modules only in the commands that use them, so loading the CLI or
``run`` does not load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .core import KnowledgeGraph

# A batch of sources works on about eight arrays of one float64 per node and
# source (depths, path counts, dependencies and their temporaries); the batch
# is narrowed so that each stays under BATCH_BYTES, about 32 MiB in all.
BATCH_BYTES = 1 << 22
BATCH_COLUMNS = 256


@dataclass
class SnapshotIndex:
    """A graph's self-loop-free undirected view as arrays; node ``i`` is ``nodes[i]``."""

    nodes: list                 # sorted node keys
    indptr: np.ndarray          # int32 CSR row pointers, len(nodes) + 1
    indices: np.ndarray         # int32 neighbour indices, ascending within a row
    degree: np.ndarray          # int32, from indptr
    component: np.ndarray       # int32: the smallest node index of i's component
    lcc: np.ndarray             # indices of the largest component, ascending
    self_loop: np.ndarray       # bool: the graph has a triple from i to itself
    # int32 (m, 2): each edge once as (lower, higher) index, in the order
    # ``undirected_view(self_loops=False).edges()`` yields them: by lower
    # index, then by the first triple that joins the pair
    edges: np.ndarray

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """The CSR rows as lists of ints, for the kernels that walk them in Python."""
        ptr, ind = self.indptr.tolist(), self.indices.tolist()
        return [ind[ptr[i]:ptr[i + 1]] for i in range(len(self.nodes))]

    @cached_property
    def rows(self) -> NeighbourRows:
        """The CSR in degree order, for the batched neighbour sums."""
        return NeighbourRows(self.indptr[:-1], self.degree, self.indices)

    def lcc_degrees(self) -> dict:
        """Node key -> degree over the largest component, in key order."""
        degree = self.degree.tolist()
        return {self.nodes[i]: degree[i] for i in self.lcc.tolist()}


def snapshot_index(g: KnowledgeGraph) -> SnapshotIndex:
    """Index ``g``'s sorted node keys and its undirected adjacency, relation
    kinds and direction dropped and self-loops left out.

    The largest component is the one holding the smallest key among those
    of the largest size, as in ``core.largest_component``.
    """
    nodes = sorted(g.node_keys)
    n = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    triples = g.triples()
    ends = np.fromiter((pos[v] for s, _, t in triples for v in (s, t)),
                       dtype=np.int64, count=2 * len(triples)).reshape(-1, 2)
    loop = ends[:, 0] == ends[:, 1]
    self_loop = np.zeros(n, dtype=bool)
    self_loop[ends[loop, 0]] = True
    ends = np.sort(ends[~loop], axis=1)
    pair_keys, first = np.unique(ends[:, 0] * n + ends[:, 1], return_index=True)
    first.sort()                        # each pair at its first triple, in order
    edges = ends[first[np.argsort(ends[first, 0], kind="stable")]].astype(np.int32)
    lower, higher = np.divmod(pair_keys, max(n, 1))
    arcs = np.sort(np.concatenate((pair_keys, higher * n + lower)))
    rows, cols = np.divmod(arcs, max(n, 1))   # both ways, by row then column
    degree = np.bincount(rows, minlength=n).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(degree, out=indptr[1:])
    indices = cols.astype(np.int32)
    component = np.arange(n, dtype=np.int32)
    if indices.size:
        # min-label propagation with pointer jumping: labels only fall, and a
        # label is always a node of the same component
        has = degree > 0
        starts = indptr[:-1][has]
        while True:
            label = component.copy()
            label[has] = np.minimum(label[has],
                                    np.minimum.reduceat(component[indices], starts))
            label = label[label]
            if np.array_equal(label, component):
                break
            component = label
    sizes = np.bincount(component, minlength=n)
    lcc = (np.flatnonzero(component == int(np.argmax(sizes))) if n
           else np.zeros(0, dtype=np.int64))
    return SnapshotIndex(nodes, indptr, indices, degree, component, lcc,
                         self_loop, edges)


@dataclass
class DistanceSweep:
    """Every distance-based value of one indexed graph, from one sweep."""

    index: SnapshotIndex
    dist_sum: np.ndarray        # int64: hops from i summed over the nodes it reaches
    reach: np.ndarray           # nodes i reaches, itself included
    eccentricity: np.ndarray    # most hops from i to a node it reaches
    betweenness: dict | None    # normalized, on the whole graph; None if not swept
    lcc_betweenness: dict | None    # normalized, on the largest component alone
    rows: dict                  # kept source -> hops to every node, -1 unreachable,
                                # as ``hop_dtype(len(index.nodes))``

    def closeness(self) -> dict:
        """Closeness scaled by component size, by networkx's exact formula."""
        n = len(self.index.nodes)
        out = {}
        for v, total, reach in zip(self.index.nodes, self.dist_sum.tolist(),
                                   self.reach.tolist()):
            value = 0.0
            if total > 0:
                value = (reach - 1.0) / total
                value *= (reach - 1.0) / (n - 1)
            out[v] = value
        return out

    def depths(self, sources) -> dict:
        """Hop rows (-1 where unreachable) of ``sources``, by node index; rows
        the sweep did not keep come from one forward pass over just those."""
        missing = np.asarray(sorted(set(sources) - self.rows.keys()), dtype=np.int64)
        out = {s: self.rows[s] for s in sources if s in self.rows}
        if missing.size:
            rows = self.index.rows
            dtype = hop_dtype(len(self.index.nodes))
            for batch in _batches(self.index, missing):
                depth, _, _ = rows.forward(rows.row_of[batch])
                out.update(zip(batch.tolist(), depth[rows.row_of].T.astype(dtype)))
        return out


def hop_dtype(n: int) -> type:
    """int16 when it holds every hop count of an ``n``-node graph (at most
    ``n - 1``) and -1, else int32: the dtype of the kept hop rows."""
    return np.int16 if n < 1 << 15 else np.int32


def _batches(index: SnapshotIndex, sources: np.ndarray):
    width = max(1, min(BATCH_COLUMNS, BATCH_BYTES // (8 * max(1, len(index.nodes)))))
    for start in range(0, len(sources), width):
        yield sources[start:start + width]


class NeighbourRows:
    """An adjacency in degree order, as slices that numpy sums without a loop
    over nodes.

    Row ``r`` is node ``order[r]``, so the rows of degree above ``k`` are a
    prefix; slice ``k`` holds the row of the ``k``-th neighbour of each of
    them. Summing neighbours is one gather-and-add per slice, and
    ``np.add.reduceat`` over the CSR was 8x slower at 500 nodes. Node ``i``'s
    neighbours are ``indices[starts[i]:starts[i] + lengths[i]]``.
    """

    def __init__(self, starts: np.ndarray, lengths: np.ndarray,
                 indices: np.ndarray) -> None:
        n = len(lengths)
        self.order = np.argsort(-lengths, kind="stable")
        self.row_of = np.empty(n, dtype=np.int64)
        self.row_of[self.order] = np.arange(n)
        lengths = lengths[self.order]
        widest = int(lengths[0]) if n else 0
        counts = np.searchsorted(-lengths, -np.arange(widest), side="left")
        starts = starts[self.order]
        self.slices = [(c, self.row_of[indices[starts[:c] + k]])
                       for k, c in enumerate(counts.tolist())]

    def neighbour_sums(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Row r of the result is the sum of x's rows over r's neighbours,
        added in slice order onto ``out`` (zeros when None), which is returned."""
        out = np.zeros_like(x) if out is None else out
        for count, nbr in self.slices:
            out[:count] += x[nbr]
        return out

    def forward(self, sources: np.ndarray):
        """BFS from each source row at once: hops (-1 where unreachable) and
        shortest-path counts, one column per source, and the deepest level."""
        cols = np.arange(len(sources))
        depth = np.full((len(self.order), len(sources)), -1, dtype=np.int32)
        depth[sources, cols] = 0
        sigma = np.zeros(depth.shape)
        sigma[sources, cols] = 1.0
        frontier, level = sigma.copy(), 0
        while True:
            reached = self.neighbour_sums(frontier)
            new = (reached > 0.0) & (depth < 0)
            if not new.any():
                return depth, sigma, level
            level += 1
            depth[new] = level
            frontier = np.where(new, reached, 0.0)
            sigma += frontier

    def dependencies(self, depth: np.ndarray, sigma: np.ndarray,
                     deepest: int) -> np.ndarray:
        """Brandes' dependency of each source on each row, zero at the sources."""
        delta = np.zeros_like(sigma)
        for level in range(deepest, 1, -1):
            coeff = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma),
                              where=depth == level)
            pulled = self.neighbour_sums(coeff)
            delta = np.where(depth == level - 1, sigma * pulled, delta)
        return delta


def _normalized(nodes: list, raw: np.ndarray) -> dict:
    """networkx's normalization of undirected betweenness over ``len(nodes)`` nodes."""
    n = len(nodes)
    if n > 2:
        raw = raw * (1 / ((n - 1) * (n - 2)))
    return dict(zip(nodes, raw.tolist()))


def distance_sweep(index: SnapshotIndex, keep=(), *,
                   betweenness: bool = True) -> DistanceSweep:
    """One sweep from every node of ``index``; keeps the hop rows of the node
    indices in ``keep``.

    With ``betweenness`` False only the forward BFS runs: the distances, but
    no betweenness tables.
    """
    n = len(index.nodes)
    keep = set(keep)
    rows = index.rows
    dist_sum = np.zeros(n, dtype=np.int64)
    reach = np.zeros(n, dtype=np.int64)
    eccentricity = np.zeros(n, dtype=np.int64)
    raw = np.zeros(n)                   # by row, like everything in the batch loop
    kept = {}
    dtype = hop_dtype(n)
    for sources in _batches(index, np.arange(n)):
        depth, sigma, deepest = rows.forward(rows.row_of[sources])
        dist_sum[sources] = np.maximum(depth, 0).sum(axis=0, dtype=np.int64)
        reach[sources] = (depth >= 0).sum(axis=0)
        eccentricity[sources] = depth.max(axis=0)
        for col, s in enumerate(sources.tolist()):
            if s in keep:
                kept[s] = depth[rows.row_of, col].astype(dtype)
        if betweenness:
            delta = rows.dependencies(depth, sigma, deepest)
            raw += delta.sum(axis=1)
    bc = lcc_bc = None
    if betweenness:
        raw = raw[rows.row_of]
        bc = _normalized(index.nodes, raw)
        # a source's dependencies stay in its component, so the component's
        # nodes hold its own betweenness, short of normalizing by its size
        lcc_bc = bc if len(index.lcc) == n else _normalized(
            [index.nodes[i] for i in index.lcc.tolist()], raw[index.lcc])
    return DistanceSweep(index, dist_sum, reach, eccentricity, bc, lcc_bc, kept)
