"""Per-snapshot and cross-snapshot network metrics.

Every per-snapshot metric reads what its caller builds once per snapshot:
its ``sweep.SnapshotIndex`` (the self-loop-free undirected adjacency as an
int32 CSR, straight from the triples) and one ``sweep.DistanceSweep`` of that
index. Every distance-based value (betweenness, closeness, mean SPL,
diameter, sampled pair distances) reads the sweep. The other kernels read the
index, and none imports networkx:

- one triangle pass (degree-ordered, Latapy, Theor. Comput. Sci. 407, 2008)
  gives local clustering, its mean and transitivity;
- k-core numbers come from Batagelj and Zaversnik's bucket algorithm, and
  articulation points from an iterative Hopcroft-Tarjan search;
- eigenvector centrality is networkx's power iteration, float for float;
- assortativity (``pearson``) walks the index's edges in the order networkx's
  view yields them, so its float sums are networkx's.

Each keeps networkx's integer formulas and the order of its float sums, so
the values are networkx's to the bit (``tests/oracles.py`` and the
differential tests hold the references). ``louvain`` runs every level, merge
trial and modularity sum on neighbour lists: the index's, and at each
aggregate level the members' rows relabelled. Its local-move phase stops at
the first fixed point and counts links into one scratch list indexed by
community id; on graphs past ``MERGE_REFINE_MAX_NODES`` it also skips nodes
whose choice cannot have changed. Every decision compares exact integers,
(2m)^2 / 2 times a modularity change: each move (ties go to the smallest
community id, so no candidate list is sorted), each merge trial (from the
phase's returned gain and one pass per searched state) and the choice of
restart (the sum of its gains), so ``_modularity`` runs once, for the
returned value. A partition is one canonical label list throughout (ids by
smallest member), and merge-refine results are memoized per call, keyed by
it. None of this changes a move, a partition or a modularity bit against the
plain algorithm in ``tests/oracles.py``. The cross-snapshot state (the pair
ledger, ``HubTracker`` and ``BridgeTracker``) is folded one snapshot at a
time over global node ids. ``hub_emergence`` and ``bridge_analysis`` fold
through the same trackers, so they are no independent reference:
``tests/oracles.py``' ``summarize_hubs`` and ``summarize_bridges`` are. All
seeded operations are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# unused here; perfbench/tracer.py patches each module binding ``largest_component``
from .core import KnowledgeGraph, Snapshot, largest_component  # noqa: F401
from .errors import EmptyGraph, UndefinedMetric
from .sweep import (DistanceSweep, NeighbourRows, SnapshotIndex, distance_sweep,
                    hop_dtype, snapshot_index)

LOUVAIN_RESTARTS = 5
LOUVAIN_SMALL_RESTARTS = 16       # order traps are likelier on tiny graphs
MERGE_REFINE_MAX_NODES = 64
EIGENVECTOR_TOL = 1e-8
EIGENVECTOR_MAX_ITER = 1000


# ---------------------------------------------------------------------------
# basic per-snapshot metrics


@dataclass
class BasicMetrics:
    nodes: int
    edges: int
    avg_degree: float
    max_degree: int
    self_loops: int
    lcc_size: int
    avg_clustering: float


def basic_metrics(g: KnowledgeGraph, index: SnapshotIndex,
                  local_clustering: list[float]) -> BasicMetrics:
    """Counts, degrees and self-loops of ``g``; the size of its largest
    component, from ``index``, its index; and the mean of ``local_clustering``
    (``clustering`` of that index), summed in key order as networkx's
    ``average_clustering`` sums it."""
    if g.node_count == 0:
        raise EmptyGraph("basic_metrics needs at least one node")
    return BasicMetrics(
        nodes=g.node_count,
        edges=g.edge_count,
        avg_degree=2.0 * g.edge_count / g.node_count,
        max_degree=g.max_degree(),
        self_loops=g.self_loop_count,
        lcc_size=len(index.lcc),
        avg_clustering=sum(local_clustering) / len(local_clustering),
    )


def triangles(index: SnapshotIndex) -> np.ndarray:
    """Triangles through each node (int64, index order), from one pass.

    Each edge is oriented from its lower- to its higher-ranked end, by
    degree and then index, so every out-list is short, and each triangle is
    the one pair of out-neighbours of its lowest-ranked corner that is itself
    an edge (Latapy, Theor. Comput. Sci. 407, 2008). All those pairs are
    looked up at once in the sorted edge keys.
    """
    n = len(index.nodes)
    count = np.zeros(n, dtype=np.int64)
    if not len(index.edges):
        return count
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), index.degree))] = np.arange(n)
    source = np.repeat(np.arange(n), index.degree)
    up = rank[source] < rank[index.indices]
    tail, head = source[up], index.indices[up].astype(np.int64)
    # for each out-arc, the arcs after it in its tail's out-list; both lists
    # are grouped by tail, in index order
    group_end = np.cumsum(np.bincount(tail, minlength=n))[tail]
    later = group_end - np.arange(len(tail)) - 1
    first = np.repeat(np.arange(len(tail)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    a, b = head[first], head[second]
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    edge_keys = np.sort(index.edges[:, 0].astype(np.int64) * n + index.edges[:, 1])
    closed = edge_keys[np.searchsorted(edge_keys, keys).clip(max=len(edge_keys) - 1)] == keys
    for corner in (tail[first[closed]], a[closed], b[closed]):
        count += np.bincount(corner, minlength=n)
    return count


def clustering(index: SnapshotIndex, triangle_counts: np.ndarray) -> list[float]:
    """Local clustering of each node in index order from its ``triangles``
    count ``T``, by networkx's formula: 2T / (d (d - 1)), and 0 where T = 0."""
    local = np.zeros(len(index.nodes))
    closed = triangle_counts > 0
    degree = index.degree[closed].astype(np.float64)
    local[closed] = 2.0 * triangle_counts[closed] / (degree * (degree - 1))
    return local.tolist()


def spl_and_diameter(sweep: DistanceSweep) -> tuple[float, int]:
    """Exact mean shortest-path length and diameter of the swept graph's
    largest component, from its integer distance sums and eccentricities."""
    lcc = sweep.index.lcc
    n = len(lcc)
    if n == 0:
        raise EmptyGraph("empty graph has no path lengths")
    if n == 1:
        return 0.0, 0
    total = int(sweep.dist_sum[lcc].sum())
    return total / (n * (n - 1)), int(sweep.eccentricity[lcc].max())


# ---------------------------------------------------------------------------
# community structure


def _modularity(adj: list[list[int]], m: int, labels: list[int]) -> float:
    """Standard modularity of the canonical ``labels`` of the indexed
    adjacency ``adj`` with ``m`` edges, summed over the communities in id order."""
    if m == 0:
        return 0.0
    internal = [0] * (max(labels) + 1)      # twice each community's internal edges
    degree_sum = [0] * len(internal)
    for c, row in zip(labels, adj):
        degree_sum[c] += len(row)
        internal[c] += sum(1 for u in row if labels[u] == c)
    q = 0.0
    for links, total in zip(internal, degree_sum):
        q += links // 2 / m - (total / (2.0 * m)) ** 2
    return q


def _canonical(labels: list[int]) -> list[int]:
    """``labels`` renumbered by first appearance in index order, so each
    community's id is the rank of its smallest member."""
    ids: dict[int, int] = {}
    return [ids.setdefault(c, len(ids)) for c in labels]


def _louvain_one_level(adj: list[list[int]], degree: list[int], m2: int, order,
                       node_comm: list[int], *, skip_settled: bool = False) -> int:
    """Local-moving phase over ``node_comm`` (node -> community id, in place).

    Each row of ``adj`` lists a node's neighbours once per edge, every degree
    is an integer and ``m2`` is twice the edge count, so each choice is made
    in exact integers (Blondel et al., J. Stat. Mech. P10008, 2008). For a
    node of degree k with w_c links into community c, whose degree sum is
    tot_c, ``base = k (tot_old - k) - m2 w_old`` is the value of leaving for
    a fresh community (the old sum counting the node), staying is worth 0,
    and joining c is worth ``m2 w_c - k tot_c + base``, which is ``(2m)^2 / 2``
    times the change in modularity. The node takes the best value if it is
    positive: a community it touches wins only by a strict ``>``, a fresh
    community wins ties against it, and ties among the touched go to the
    smallest id. Joining the old community is worth -k^2, so it never wins.
    Only positive values move, so it terminates; a node's choice depends on
    the current state alone, so once ``len(order)`` nodes in a row have
    stayed, a further sweep would move nothing, and it returns.

    Returns the summed value of its moves, ``(2m)^2 / 2`` times the change
    in modularity, exact on any graph: positive exactly when a node moved.

    A node's links are counted into one scratch list indexed by community
    id, and only the slots it touched are scanned and reset.

    With ``skip_settled``, a node that stayed is settled: it is not evaluated
    again, and counts as staying, until a node joins its community (whose
    total degree rose) or leaves a community it touched (whose total degree
    fell; a neighbour's move is such a leave). Each community lists the
    settled nodes to wake on either event. Any other change only lowers the
    values of moving, so the moves, and the result, are the same as without
    skipping (the order-preserving form of Traag's queue-based local move,
    Phys. Rev. E 92, 032801, 2015).
    """
    tot = [0] * (max(node_comm) + 1)     # the next fresh id is its length
    for v, c in enumerate(node_comm):
        tot[c] += degree[v]
    weight = [0] * len(tot)
    if skip_settled:
        settled = [False] * len(adj)
        # community -> settled nodes to wake when a node leaves / joins it
        leave_watch: list[list[int]] = [[] for _ in tot]
        join_watch: list[list[int]] = [[] for _ in tot]
    total = 0
    n = len(order)
    stays = 0
    while stays < n:
        for v in order:
            if stays == n:
                break
            if skip_settled and settled[v]:
                stays += 1
                continue
            c_old = node_comm[v]
            k = degree[v]
            touched = []
            for u in adj[v]:
                c = node_comm[u]
                w = weight[c]
                if not w:
                    touched.append(c)
                weight[c] = w + 1
            base = k * (tot[c_old] - k) - m2 * weight[c_old]
            # best is the value of the best choice less base: a fresh
            # community's is 0 and staying's is -base; win is the touched
            # community that holds it, or -1
            best = 0 if base > 0 else -base
            win = -1
            for c in touched:
                value = m2 * weight[c] - k * tot[c]
                weight[c] = 0
                if value > best or value == best and c < win:
                    best, win = value, c
            if win < 0:
                if base <= 0:
                    stays += 1
                    if skip_settled:
                        settled[v] = True
                        for c in touched:
                            leave_watch[c].append(v)
                        join_watch[c_old].append(v)
                    continue
                win = len(tot)
                tot.append(0)
                weight.append(0)
                if skip_settled:
                    leave_watch.append([])
                    join_watch.append([])
            stays = 0
            total += best + base
            tot[c_old] -= k
            tot[win] += k
            node_comm[v] = win
            if skip_settled:
                for u in leave_watch[c_old]:
                    settled[u] = False
                leave_watch[c_old] = []
                for u in join_watch[win]:
                    settled[u] = False
                join_watch[win] = []
    return total


def _louvain_once(adj: list[list[int]], degree: list[int], m2: int,
                  rng: random.Random) -> tuple[list[int], int]:
    """One full Louvain run (local moves + aggregation) from the level-0
    adjacency ``adj`` and its degrees, which it leaves as they are. An
    aggregate level's row is its members' rows relabelled, less its own
    label, and its degree is its members' sum. It stops at the first level
    whose local moves gain nothing, that is, move no node. Levels larger
    than ``MERGE_REFINE_MAX_NODES`` skip settled nodes.

    Returns the communities' canonical labels and the sum of the levels'
    gains: ``(2m)^2 / 2`` times their modularity less that of the singletons,
    since modularity at a level is that of the partition it induces below."""
    membership = list(range(len(adj)))      # node -> node of the current level
    score = 0
    while True:
        order = list(range(len(adj)))
        rng.shuffle(order)
        node_comm = list(range(len(adj)))
        gain = _louvain_one_level(adj, degree, m2, order, node_comm,
                                  skip_settled=len(adj) > MERGE_REFINE_MAX_NODES)
        if not gain:
            break
        score += gain
        relabel = {c: i for i, c in enumerate(sorted(set(node_comm)))}
        label = [relabel[c] for c in node_comm]
        membership = [label[v] for v in membership]
        new_adj: list[list[int]] = [[] for _ in relabel]
        new_degree = [0] * len(relabel)
        for v, row in enumerate(adj):
            cv = label[v]
            new_degree[cv] += degree[v]
            new_adj[cv] += [label[u] for u in row if label[u] != cv]
        adj, degree = new_adj, new_degree
    return _canonical(membership), score


def _merge_refine(adj: list[list[int]], degree: list[int], m: int,
                  labels: list[int], memo: dict) -> tuple[list[int], int]:
    """Escape shallow local optima by merging community pairs and re-splitting.

    Greedy single-node moves cannot leave states whose improvement needs a
    transient loss (two mutually attracted nodes that belong in different
    communities, say). Tentatively merging a pair of communities and re-running
    the local-move phase performs exactly that escape; a merge is kept only
    when the refit partition scores strictly higher.

    Each trial is scored in integers: one pass over ``adj`` per searched
    state gives each community's degree sum ``tot`` and the links ``e_ij``
    between each pair, merging i and j changes ``(2m)^2 / 2`` times the
    modularity by ``2m e_ij - tot_i tot_j``, and the local moves add what
    ``_louvain_one_level`` returns. A trial is kept exactly when that sum is
    positive, that is, when the modularity rises.

    Takes and returns canonical labels, with the summed score of the kept
    trials, ``(2m)^2 / 2`` times the modularity gained. The search from a
    partition is deterministic, and restarts often reach the same partitions,
    so ``memo`` maps every partition visited in one ``louvain`` call (its
    labels' tuple) to the search's result and the score gained from it on.
    """
    visited = []            # (state, the summed score of the trials before it)
    score = 0
    improved = True
    while improved:
        state = tuple(labels)
        if state in memo:
            labels, rest = memo[state]
            score += rest
            break
        visited.append((state, score))
        improved = False
        size = max(labels) + 1
        members: list[list[int]] = [[] for _ in range(size)]
        tot = [0] * size
        links = [0] * (size * size)     # links[i * size + j]: edges between i and j
        for v, row in enumerate(adj):
            c = labels[v]
            members[c].append(v)
            tot[c] += len(row)
            base = c * size
            for u in row:
                links[base + labels[u]] += 1
        for i in range(size):
            for j in range(i + 1, size):
                node_comm = labels.copy()
                for v in members[j]:
                    node_comm[v] = i
                gain = (2 * m * links[i * size + j] - tot[i] * tot[j]
                        + _louvain_one_level(adj, degree, 2 * m, range(len(adj)), node_comm))
                if gain > 0:
                    labels = _canonical(node_comm)
                    score += gain
                    improved = True
                    break
            if improved:
                break
    for state, before in visited:
        memo[state] = (labels, score - before)
    return labels, score


def louvain(index: SnapshotIndex, seed: int = 0) -> tuple[dict, float]:
    """Seeded greedy modularity optimization on an indexed (self-loop-free)
    graph; best of a few deterministic restarts.

    Every restart, every merge trial and the modularity read the index's
    neighbour lists and carry a partition as canonical labels. Every
    decision compares exact integers, and ties go by community id, so the
    order within a row changes nothing. Node visiting order is shuffled from
    the seed. Small graphs additionally get the merge-and-resplit polish
    after each restart. A restart is kept when its score, ``(2m)^2 / 2``
    times its modularity less that of the singletons, is strictly higher
    than every earlier one's (an edgeless graph keeps the singletons):
    modularities of a graph that differ do so by at least 1/(4 m^2), so this
    keeps the restart the float modularities pick. Returns a
    node-to-community-id map and the modularity of that partition, computed
    from the partition itself. Community ids are assigned by each
    community's smallest member so the labeling is reproducible.
    """
    if not index.nodes:
        raise EmptyGraph("louvain needs at least one node")
    nodes, adj = index.nodes, index.adjacency
    degree = [len(nbrs) for nbrs in adj]
    m = len(index.edges)
    refine = len(nodes) <= MERGE_REFINE_MAX_NODES
    restarts = LOUVAIN_SMALL_RESTARTS if refine else LOUVAIN_RESTARTS
    best, best_score = list(range(len(nodes))), 0
    memo: dict = {}
    for j in range(restarts if m else 0):
        cand, score = _louvain_once(adj, degree, 2 * m, random.Random(seed * restarts + j))
        if refine:
            cand, gain = _merge_refine(adj, degree, m, cand, memo)
            score += gain
        if score > best_score:
            best, best_score = cand, score
    return dict(zip(nodes, best)), _modularity(adj, m, best)


def bridge_indices(index: SnapshotIndex, partition: dict) -> np.ndarray:
    """Indices of the nodes whose neighbors span more than one community of
    the partition, ascending."""
    if not index.indices.size:
        return np.zeros(0, dtype=np.int64)
    community = np.array([partition[v] for v in index.nodes])
    linked = np.flatnonzero(index.degree > 0)
    seen, starts = community[index.indices], index.indptr[linked]
    spans = np.minimum.reduceat(seen, starts) != np.maximum.reduceat(seen, starts)
    return linked[spans]


# ---------------------------------------------------------------------------
# degree-structure metrics


def pearson(xs: list[float], ys: list[float]) -> float | None:
    """Pearson correlation of paired samples; None when either has zero variance."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx <= 0.0 or vy <= 0.0:
        return None
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / math.sqrt(vx * vy)


def assortativity(index: SnapshotIndex) -> float:
    """Degree assortativity (Newman, Phys. Rev. E 67, 026126, 2003): the Pearson
    correlation of the degrees at the two ends of every edge, taken both ways.

    The edges are taken in the index's (networkx's view) order, which fixes
    the order of the float sums."""
    if len(index.edges) < 2:
        raise UndefinedMetric("assortativity needs at least two edges")
    ends = index.degree[index.edges]
    r = pearson(ends.ravel().tolist(), ends[:, ::-1].ravel().tolist())
    if r is None:
        raise UndefinedMetric("assortativity is undefined on a regular graph")
    return r


def transitivity(index: SnapshotIndex, triangle_counts: np.ndarray) -> float:
    """Fraction of closed triplets from the ``triangles`` counts, by networkx's
    integer sums; 0.0 when the graph has no triangle."""
    closed = 2 * int(triangle_counts.sum())
    if closed == 0:
        return 0.0
    degree = index.degree.astype(np.int64)
    return closed / int((degree * (degree - 1)).sum())


def core_numbers(index: SnapshotIndex) -> list[int]:
    """Core number of each node, in index order, by Batagelj and Zaversnik's
    O(m) bucket algorithm (arXiv cs/0310049, 2003)."""
    adj = index.adjacency
    degree = index.degree.tolist()
    order = np.argsort(index.degree, kind="stable")
    vert = order.tolist()                   # nodes by current degree
    pos = [0] * len(vert)                   # node -> its place in vert
    for i, v in enumerate(vert):
        pos[v] = i
    # bucket d starts at the first node of current degree d
    bucket = np.searchsorted(index.degree[order],
                             np.arange(max(degree, default=0) + 1)).tolist()
    for i in range(len(vert)):
        v = vert[i]
        for u in adj[v]:
            du = degree[u]
            if du > degree[v]:
                # move u to the front of its bucket, then shrink the bucket
                pu, pw = pos[u], bucket[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bucket[du] += 1
                degree[u] = du - 1
    return degree


def kcore(index: SnapshotIndex) -> tuple[int, int]:
    """Maximal k with a non-empty k-core, and that core's node count."""
    if not index.nodes:
        return 0, 0
    core = core_numbers(index)
    max_k = max(core)
    return max_k, core.count(max_k)


def articulation_points(index: SnapshotIndex) -> set:
    """Nodes whose removal increases the number of connected components, by
    an iterative Hopcroft-Tarjan depth-first search (CACM 16(6), 1973)."""
    adj = index.adjacency
    disc = [0] * len(adj)                   # discovery time, 0 while unvisited
    low = [0] * len(adj)
    points = set()
    clock = 0
    for root in range(len(adj)):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        children = 0
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for u in nbrs:
                if not disc[u]:
                    clock += 1
                    disc[u] = low[u] = clock
                    stack.append((u, v, iter(adj[u])))
                    break
                if u != parent and disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                stack.pop()
                if parent == root:
                    children += 1
                elif parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        points.add(parent)
        if children > 1:
            points.add(root)
    return {index.nodes[i] for i in sorted(points)}


# ---------------------------------------------------------------------------
# centralities


@dataclass
class CentralityTable:
    betweenness: dict
    closeness: dict
    eigenvector: dict | None             # None when power iteration did not converge


def eigenvector_centrality(index: SnapshotIndex, *, self_loops: bool) -> dict | None:
    """networkx's ``eigenvector_centrality`` (power iteration on A + I, with
    ``EIGENVECTOR_TOL`` and ``EIGENVECTOR_MAX_ITER``) on the index, with a
    self-loop's 1 on the diagonal of A when ``self_loops``; None when it has
    not converged.

    It follows networkx float for float: each node starts from its last
    value and adds its neighbours' last values in ascending key order, its
    own at its sorted place when it has a self-loop; the vector is divided by
    its ``math.hypot``, and the L1 change is summed in key order by the
    builtin ``sum``. The neighbour sums run on the index's degree-ordered
    ``rows``, or with self-loops on a table of the same layout over the CSR
    with each self-loop inserted at its sorted place in its row.
    """
    n = len(index.nodes)
    if self_loops and index.self_loop.any():
        loops = np.flatnonzero(index.self_loop)
        rows = np.concatenate((np.repeat(np.arange(n), index.degree), loops))
        cols = np.concatenate((index.indices, loops))
        length = index.degree + index.self_loop
        table = NeighbourRows(np.cumsum(length) - length, length,
                              cols[np.lexsort((cols, rows))])
    else:
        table = index.rows
    x = np.full(n, 1 / n)
    for _ in range(EIGENVECTOR_MAX_ITER):
        last = x
        ordered = last[table.order]
        x = table.neighbour_sums(ordered, out=ordered.copy())[table.row_of]
        x = x / (math.hypot(*x.tolist()) or 1)
        if sum(np.abs(x - last).tolist()) < n * EIGENVECTOR_TOL:
            return dict(zip(index.nodes, x.tolist()))
    return None


def centralities(sweep: DistanceSweep, *, self_loops: bool = False) -> CentralityTable:
    """Normalized betweenness, component-scaled closeness, eigenvector scores.

    Betweenness and closeness come from ``sweep``; a self-loop changes no
    shortest path. Eigenvector centrality runs on the swept index, with its
    self-loops on the diagonal when ``self_loops``; when it fails to converge
    the other two tables are still returned and ``eigenvector`` is None.
    """
    if not sweep.index.nodes:
        raise EmptyGraph("centralities need at least one node")
    return CentralityTable(sweep.betweenness, sweep.closeness(),
                           eigenvector_centrality(sweep.index, self_loops=self_loops))


# ---------------------------------------------------------------------------
# sampled shortest-path distribution


def sampled_spl_distribution(sweep: DistanceSweep, samples: int = 2000,
                             seed: int = 0) -> dict[int, int]:
    """Distance histogram, by hop count ascending, over uniformly sampled node
    pairs (with replacement) of the swept graph's largest component.

    Pairs are drawn over the component's sorted nodes; their distances are
    the sweep's depth rows of the drawn sources."""
    if samples < 1:
        raise ValueError("samples must be positive")
    lcc = sweep.index.lcc.tolist()
    if not lcc:
        raise EmptyGraph("cannot sample paths in an empty graph")
    if len(lcc) < 2:
        return {}
    pairs = _sample_pairs(lcc, samples, random.Random(seed))
    hist = Counter(pair_hops(sweep, pairs).tolist())
    return dict(sorted(hist.items()))


# ---------------------------------------------------------------------------
# newly connected pair tracking, over global node ids


def node_ids(ids: dict, nodes: list) -> np.ndarray:
    """The global id of each of ``nodes`` in ``ids``, which numbers each key
    it has not seen next, so ``list(ids)`` holds every key in id order."""
    return np.fromiter((ids.setdefault(v, len(ids)) for v in nodes), dtype=np.int64,
                       count=len(nodes))


def _grown(values: np.ndarray, ids: np.ndarray, fill: int) -> np.ndarray:
    """``values`` by global id, extended with ``fill`` to cover every id in ``ids``."""
    extra = int(ids.max(initial=-1)) + 1 - len(values)
    return (np.append(values, np.full(extra, fill, dtype=values.dtype)) if extra > 0
            else values)


@dataclass
class PairDistanceLedger:
    """Each sampled pair's last hop count (-1 unreachable, -2 never sampled) at
    (id of its lower key, id of its higher key), ids from ``node_ids(ids, ...)``."""

    ids: dict = field(default_factory=dict)
    hops: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int16))
    last_iteration: int = -1


@dataclass
class PairStats:
    newly_connected: int
    shortened: int


def _sample_pairs(nodes: list[int], samples: int | None,
                  rng: random.Random) -> list[tuple[int, int]]:
    """Every pair of the distinct ``nodes``, or ``samples`` pairs drawn as
    ``rng.choice(nodes)`` twice, the second redrawn while it repeats the
    first. ``choice``'s draw is inlined: ``getrandbits(k)``, k the bit length
    of ``len(nodes)``, until one is below ``len(nodes)``; the stream and the
    pairs are ``choice``'s (``tests/oracles.py`` keeps that version)."""
    if samples is None:
        return [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    n = len(nodes)
    k = n.bit_length()
    bits = rng.getrandbits
    pairs = []
    for _ in range(samples):
        i = bits(k)
        while i >= n:
            i = bits(k)
        j = bits(k)
        while j >= n or j == i:
            j = bits(k)
        u, v = nodes[i], nodes[j]
        pairs.append((u, v) if u <= v else (v, u))
    return pairs


def draw_pairs(seed: int, iteration: int, n: int,
               samples: int | None = 1000) -> list[tuple[int, int]]:
    """The node-index pairs the pair ledger reads at ``iteration`` on a graph
    of ``n`` nodes: ``samples`` draws from the sampling ``seed``, or every
    unordered pair for ``samples=None``. Draw them before the sweep, so it
    keeps the depth rows of their first nodes."""
    if n < 2:
        return []
    rng = random.Random(seed * 1_000_003 + iteration)
    return _sample_pairs(list(range(n)), samples, rng)


def pair_hops(sweep: DistanceSweep, pairs: list[tuple[int, int]]) -> np.ndarray:
    """The hop count of each of ``pairs`` in the swept graph, -1 where unreachable."""
    rows = sweep.depths({u for u, _ in pairs})
    return np.array([rows[i].item(j) for i, j in pairs], dtype=np.int64)


def newly_connected_pairs(ledger: PairDistanceLedger, iteration: int, gid: np.ndarray,
                          pairs: list[tuple[int, int]], hops: np.ndarray) -> PairStats:
    """Count and record ``pairs`` (``draw_pairs``; node ``i`` has global id
    ``gid[i]``) of ``hops`` (``pair_hops``) that became reachable or closer
    since their last record. A pair with none only sets a baseline; one drawn
    twice is its own prior the second time."""
    if ledger.last_iteration >= iteration:
        raise ValueError(
            f"ledger already saw iteration {ledger.last_iteration}; got {iteration}")
    ledger.last_iteration = iteration
    u, v = gid[np.asarray(pairs, dtype=np.int64).reshape(-1, 2)].T
    size = len(ledger.hops)
    if gid.max(initial=-1) >= size:     # regrown by 256 ids at a time
        pad = -(-(int(gid.max()) + 1 - size) // 256) * 256
        ledger.hops = np.pad(ledger.hops.astype(hop_dtype(size + pad), copy=False),
                             (0, pad), constant_values=-2)
    _, first = np.unique(u * len(ledger.hops) + v, return_index=True)
    prior, d = ledger.hops[u[first], v[first]], hops[first]
    ledger.hops[u, v] = hops
    reached = d >= 0
    return PairStats(int(np.count_nonzero(reached & (prior == -1))),
                     int(np.count_nonzero(reached & (prior >= 0) & (d < prior))))


# ---------------------------------------------------------------------------
# hub emergence


@dataclass
class HubEmergence:
    top_hubs: list[str]
    trajectories: dict[str, dict[int, int]]
    t_emerge: dict[str, int]


class HubTracker:
    """Each node's greatest LCC degree and emergence iteration, by global node
    id, folded in iteration order. The top hubs are chosen at the end, so
    every node's LCC degree history is kept, as each snapshot's changes to
    it: the ids whose degree changed, and the new degree (-1 out of the LCC)."""

    def __init__(self, d_emerge: int = 5) -> None:
        self.d_emerge = d_emerge
        self.max_deg = np.zeros(0, dtype=np.int64)      # -1: never in an LCC
        self.t_emerge = np.zeros(0, dtype=np.int64)     # -1: not emerged
        self.degree = np.zeros(0, dtype=np.int64)       # the last snapshot's, -1 out
        self.changes: list[tuple[int, np.ndarray, np.ndarray]] = []

    def add(self, iteration: int, gid: np.ndarray, degree: np.ndarray) -> None:
        """One snapshot's LCC: its nodes' global ids and their degrees."""
        last, self.t_emerge = _grown(self.degree, gid, -1), _grown(self.t_emerge, gid, -1)
        self.degree = np.full(len(last), -1, dtype=np.int64)
        self.degree[gid] = degree
        self.max_deg = np.maximum(_grown(self.max_deg, gid, -1), self.degree)
        self.t_emerge[(self.degree > self.d_emerge) & (self.t_emerge < 0)] = iteration
        changed = np.flatnonzero(self.degree != last)
        self.changes.append((iteration, changed.astype(np.int32),
                             self.degree[changed].astype(np.int32)))

    def summary(self, keys: list, top_n: int = 10) -> HubEmergence:
        """The ``top_n`` hubs by (-max degree, key) and their trajectories;
        node id ``i`` is ``keys[i]``."""
        max_deg = self.max_deg.tolist()
        top = sorted((i for i, d in enumerate(max_deg) if d >= 0),
                     key=lambda i: (-max_deg[i], keys[i]))[:top_n]
        trajectories: dict[int, dict[int, int]] = {i: {} for i in top}
        degree = dict.fromkeys(top, -1)
        for iteration, gid, changed in self.changes:
            hit = np.isin(gid, top)
            degree.update(zip(gid[hit].tolist(), changed[hit].tolist()))
            for i, d in degree.items():
                if d >= 0:
                    trajectories[i][iteration] = d
        return HubEmergence(
            [keys[i] for i in top], {keys[i]: trajectories[i] for i in top},
            {keys[i]: t for i, t in enumerate(self.t_emerge.tolist()) if t >= 0})


def hub_emergence(series: list[Snapshot], d_emerge: int = 5,
                  top_n: int = 10) -> HubEmergence:
    """Degree trajectories of the strongest hubs on each snapshot's LCC.

    A node emerges at the first iteration where its LCC degree exceeds
    ``d_emerge``; top hubs are ranked by their maximum degree over time.
    """
    if len(series) == 0:
        raise EmptyGraph("empty snapshot series")
    ids: dict[str, int] = {}
    tracker = HubTracker(d_emerge)
    for snap in sorted(series, key=lambda s: s.iteration):
        # a snapshot can be empty when early extractions failed: its lcc is too
        index = snapshot_index(snap.graph)
        tracker.add(snap.iteration, node_ids(ids, index.nodes)[index.lcc],
                    index.degree[index.lcc])
    return tracker.summary(list(ids), top_n)


# ---------------------------------------------------------------------------
# bridge-node series


@dataclass
class BridgeSeries:
    bridge_sets: dict[int, set[str]]
    persistence: dict[str, int]
    presence_nodes: list[str]
    presence_iterations: list[int]
    presence: list[list[bool]]


class BridgeTracker:
    """Each node's bridge persistence and first bridge iteration, by global
    node id, and the bridge ids of each iteration below ``window``, folded
    in iteration order."""

    def __init__(self, window: int = 200) -> None:
        self.window = window
        self.persistence = np.zeros(0, dtype=np.int64)
        self.t_first = np.zeros(0, dtype=np.int64)      # -1: never a bridge
        self.early: list[tuple[int, np.ndarray]] = []

    def add(self, iteration: int, gid: np.ndarray) -> None:
        """One snapshot's bridge nodes, by global id."""
        self.persistence = _grown(self.persistence, gid, 0)
        self.t_first = _grown(self.t_first, gid, -1)
        self.persistence[gid] += 1
        self.t_first[gid[self.t_first[gid] < 0]] = iteration
        if iteration < self.window:
            self.early.append((iteration, gid))

    def summary(self, keys: list, top_nodes: int = 100) -> tuple[dict, list, list, list]:
        """``BridgeSeries``' fields but its bridge sets: presence rows are the
        ``top_nodes`` first bridges below ``window``, by (first iteration,
        key); node id ``i`` is ``keys[i]``."""
        t_first = self.t_first.tolist()
        early = sorted((i for i, t in enumerate(t_first) if 0 <= t < self.window),
                       key=lambda i: (t_first[i], keys[i]))[:top_nodes]
        columns = [set(gid.tolist()) for _, gid in self.early]
        return ({keys[i]: c for i, c in enumerate(self.persistence.tolist()) if c},
                [keys[i] for i in early], [it for it, _ in self.early],
                [[i in column for column in columns] for i in early])


def bridge_analysis(series: list[Snapshot], seed: int = 0, *,
                    window: int = 200, top_nodes: int = 100) -> BridgeSeries:
    """Per-snapshot bridge sets, persistence counts, and a presence matrix.

    The presence matrix covers the first ``window`` iterations and the
    ``top_nodes`` earliest-appearing bridge nodes, rows sorted by first
    appearance.
    """
    if len(series) == 0:
        raise EmptyGraph("empty snapshot series")
    ids: dict[str, int] = {}
    tracker, bridge_sets = BridgeTracker(window), {}
    for snap in sorted(series, key=lambda s: s.iteration):
        index = snapshot_index(snap.graph)
        found = ({index.nodes[i] for i in bridge_indices(index, louvain(index, seed)[0])}
                 if snap.graph.node_count else set())
        bridge_sets[snap.iteration] = found
        tracker.add(snap.iteration, node_ids(ids, sorted(found)))
    return BridgeSeries(bridge_sets, *tracker.summary(list(ids), top_nodes))


# ---------------------------------------------------------------------------
# betweenness time series


@dataclass
class BetweennessSeries:
    iterations: list[int]
    nodes: list[str]
    values: list[list[float]]       # [iteration index][node index], absent -> 0.0


def betweenness_timeseries(series: list[Snapshot]) -> BetweennessSeries:
    """Normalized betweenness of every node over time; absent nodes score 0.

    ``analyze`` writes betweenness rows to metrics.csv only for the nodes
    present in each snapshot, so it has no rows for those zeros.
    """
    if len(series) == 0:
        raise EmptyGraph("empty snapshot series")
    per_iter = {snap.iteration: distance_sweep(snapshot_index(snap.graph)).betweenness
                for snap in series}
    iterations = sorted(per_iter)
    tables = [per_iter[it] for it in iterations]
    nodes = sorted({v for bc in tables for v in bc})
    values = [[bc.get(v, 0.0) for v in nodes] for bc in tables]
    return BetweennessSeries(iterations, nodes, values)
