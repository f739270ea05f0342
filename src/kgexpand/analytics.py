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
differential tests hold the references). ``louvain`` runs every level,
merge trial and modularity sum on neighbour lists: the index's, and at each
aggregate level the members' rows relabelled. Its local-move phase stops at
the first fixed point and counts links into one scratch list indexed by
community id; on graphs past ``MERGE_REFINE_MAX_NODES`` it also skips nodes
whose choice cannot have changed. Every decision compares exact integers,
(2m)^2 / 2 times a modularity change: each move (ties go to the smallest
community id, so no candidate list is sorted), each merge trial (from the
phase's returned gain and one pass per searched state) and the choice of
restart (the sum of its gains), so ``_modularity`` runs once, for the
returned value. Merge-refine results are memoized per call, keyed by the
partition. None of this changes a move, a partition or a modularity bit
against the plain algorithm in ``tests/oracles.py``. The
series functions build their own indexes, as references for
``report.analyze_series``' one pass. All seeded operations are
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .core import KnowledgeGraph, Snapshot, largest_component
from .errors import EmptyGraph, UndefinedMetric
from .sweep import (DistanceSweep, NeighbourRows, SnapshotIndex, distance_sweep,
                    snapshot_index)

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


def _modularity(adj: list[list[int]], m: int, communities: list[set[int]]) -> float:
    """Standard modularity of a partition of the indexed adjacency ``adj``
    with ``m`` edges, summed over the communities in the given order."""
    if m == 0:
        return 0.0
    q = 0.0
    for comm in communities:
        internal = sum(1 for v in comm for u in adj[v] if u in comm) // 2
        degree_sum = sum(len(adj[v]) for v in comm)
        q += internal / m - (degree_sum / (2.0 * m)) ** 2
    return q


def _communities(labels) -> list[set[int]]:
    """Nodes grouped by the community of each ``(node, community)`` pair, in
    order of each community's first pair."""
    groups: dict = {}
    for v, c in labels:
        groups.setdefault(c, set()).add(v)
    return list(groups.values())


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
                  rng: random.Random) -> tuple[list[set[int]], int]:
    """One full Louvain run (local moves + aggregation) from the level-0
    adjacency ``adj`` and its degrees, which it leaves as they are. An
    aggregate level's row is its members' rows relabelled, less its own
    label, and its degree is its members' sum. It stops at the first level
    whose local moves gain nothing, that is, move no node. Levels larger
    than ``MERGE_REFINE_MAX_NODES`` skip settled nodes.

    Returns the communities and the sum of the levels' gains: ``(2m)^2 / 2``
    times the modularity of the communities less that of the singletons,
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
    return _communities(enumerate(membership)), score


def _merge_refine(adj: list[list[int]], degree: list[int], m: int,
                  communities: list[set[int]], memo: dict) -> tuple[list[set[int]], int]:
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

    Returns the communities and the summed score of the kept trials,
    ``(2m)^2 / 2`` times the modularity gained. The search from a partition
    is deterministic, and restarts often reach the same partitions, so
    ``memo`` maps every partition visited in one ``louvain`` call to the
    search's result and the score gained from that partition on.
    """
    comms = sorted((sorted(c) for c in communities), key=min)
    visited = []            # (state, the summed score of the trials before it)
    score = 0
    improved = True
    while improved:
        state = tuple(map(tuple, comms))
        if state in memo:
            comms, rest = memo[state]
            score += rest
            break
        visited.append((state, score))
        improved = False
        size = len(comms)
        labels = [0] * len(adj)
        for cid, comm in enumerate(comms):
            for v in comm:
                labels[v] = cid
        tot = [0] * size
        links = [0] * (size * size)     # links[i * size + j]: edges between i and j
        for v, row in enumerate(adj):
            base = labels[v] * size
            tot[labels[v]] += len(row)
            for u in row:
                links[base + labels[u]] += 1
        for i in range(size):
            for j in range(i + 1, size):
                node_comm = labels.copy()
                for v in comms[j]:
                    node_comm[v] = i
                gain = (2 * m * links[i * size + j] - tot[i] * tot[j]
                        + _louvain_one_level(adj, degree, 2 * m, range(len(adj)), node_comm))
                if gain > 0:
                    groups = _communities(enumerate(node_comm))
                    comms = sorted((sorted(c) for c in groups), key=min)
                    score += gain
                    improved = True
                    break
            if improved:
                break
    for state, before in visited:
        memo[state] = (comms, score - before)
    return [set(c) for c in comms], score


def louvain(index: SnapshotIndex, seed: int = 0) -> tuple[dict, float]:
    """Seeded greedy modularity optimization on an indexed (self-loop-free)
    graph; best of a few deterministic restarts.

    Every restart, every merge trial and the modularity read the index's
    neighbour lists. Every decision compares exact integers, and ties go by
    community id, so the order within a row changes nothing. Node visiting
    order is shuffled from the seed. Small graphs additionally get the
    merge-and-resplit polish after each restart. A restart is kept when its
    score, ``(2m)^2 / 2`` times its modularity less that of the singletons,
    is strictly higher than every earlier one's: modularities of a graph
    that differ do so by at least 1/(4 m^2), so this keeps the restart the
    float modularities pick. Returns a node-to-community-id map and the
    modularity of that partition, computed from the partition itself.
    Community ids are assigned by each community's smallest member so the
    labeling is reproducible.
    """
    if not index.nodes:
        raise EmptyGraph("louvain needs at least one node")
    nodes, adj = index.nodes, index.adjacency
    degree = [len(nbrs) for nbrs in adj]
    m = len(index.edges)
    if m == 0:
        communities = [{i} for i in range(len(nodes))]
    else:
        refine = len(nodes) <= MERGE_REFINE_MAX_NODES
        restarts = LOUVAIN_SMALL_RESTARTS if refine else LOUVAIN_RESTARTS
        best: list[set[int]] = []
        best_score = -1
        memo: dict = {}
        for j in range(restarts):
            cand, score = _louvain_once(adj, degree, 2 * m,
                                        random.Random(seed * restarts + j))
            if refine:
                cand, gain = _merge_refine(adj, degree, m, cand, memo)
                score += gain
            if score > best_score:
                best, best_score = cand, score
        communities = sorted(best, key=min)
    partition = {nodes[v]: cid for cid, comm in enumerate(communities)
                 for v in sorted(comm)}
    return partition, _modularity(adj, m, communities)


def bridge_nodes(index: SnapshotIndex, partition: dict) -> set:
    """Nodes whose neighbors span more than one community of the partition."""
    if not index.indices.size:
        return set()
    community = np.array([partition[v] for v in index.nodes])
    linked = np.flatnonzero(index.degree > 0)
    seen, starts = community[index.indices], index.indptr[linked]
    spans = np.minimum.reduceat(seen, starts) != np.maximum.reduceat(seen, starts)
    return {index.nodes[i] for i in linked[spans].tolist()}


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


@dataclass
class SplSample:
    histogram: dict[int, int]
    sampled: int


def sampled_spl_distribution(sweep: DistanceSweep, samples: int = 2000,
                             seed: int = 0) -> SplSample:
    """Distance histogram over uniformly sampled node pairs (with replacement)
    of the swept graph's largest component.

    Pairs are drawn over the component's sorted nodes; their distances are
    the sweep's depth rows of the drawn sources."""
    if samples < 1:
        raise ValueError("samples must be positive")
    lcc = sweep.index.lcc.tolist()
    if not lcc:
        raise EmptyGraph("cannot sample paths in an empty graph")
    if len(lcc) < 2:
        return SplSample({}, 0)
    pairs = _sample_pairs(lcc, samples, random.Random(seed))
    rows = sweep.depths({u for u, _ in pairs})
    hist: dict[int, int] = {}
    for u, v in pairs:
        d = rows[u].item(v)
        hist[d] = hist.get(d, 0) + 1
    return SplSample(dict(sorted(hist.items())), samples)


# ---------------------------------------------------------------------------
# newly connected pair tracking


UNREACHABLE = None
_NO_RECORD = object()


@dataclass
class PairDistanceLedger:
    """Last known shortest-path distances of previously sampled node pairs."""

    seed: int = 0
    records: dict[tuple[str, str], int | None] = field(default_factory=dict)
    last_iteration: int = -1


@dataclass
class PairStats:
    newly_connected: int
    shortened: int
    with_prior: int


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


def draw_pairs(ledger: PairDistanceLedger, iteration: int, n: int,
               samples: int | None = 1000) -> list[tuple[int, int]]:
    """The node-index pairs ``newly_connected_pairs`` reads at ``iteration`` on
    a graph of ``n`` nodes: ``samples`` draws from the ledger's seed, or every
    unordered pair for ``samples=None``. Draw them before the sweep, so it
    keeps the depth rows of their first nodes."""
    if n < 2:
        return []
    rng = random.Random(ledger.seed * 1_000_003 + iteration)
    return _sample_pairs(list(range(n)), samples, rng)


def newly_connected_pairs(ledger: PairDistanceLedger, iteration: int,
                          sweep: DistanceSweep,
                          pairs: list[tuple[int, int]]) -> PairStats:
    """Count ``pairs`` (from ``draw_pairs``) of the swept graph that became
    reachable or closer since their last record.

    Pairs without a prior record only establish a baseline. The ledger is
    updated in place; it records pairs by node key.
    """
    if ledger.last_iteration >= iteration:
        raise ValueError(
            f"ledger already saw iteration {ledger.last_iteration}; got {iteration}"
        )
    nodes, records = sweep.index.nodes, ledger.records
    rows = sweep.depths({u for u, _ in pairs})
    newly = shortened = with_prior = 0
    for i, j in pairs:
        d = rows[i].item(j)
        dist = d if d >= 0 else UNREACHABLE
        key = (nodes[i], nodes[j])
        prior = records.get(key, _NO_RECORD)
        if prior is not _NO_RECORD:
            with_prior += 1
            if prior is UNREACHABLE and dist is not UNREACHABLE:
                newly += 1
            elif prior is not UNREACHABLE and dist is not UNREACHABLE and dist < prior:
                shortened += 1
        records[key] = dist
    ledger.last_iteration = iteration
    return PairStats(newly, shortened, with_prior)


# ---------------------------------------------------------------------------
# hub emergence


@dataclass
class HubEmergence:
    top_hubs: list[str]
    trajectories: dict[str, dict[int, int]]
    t_emerge: dict[str, int]
    mean_degree: dict[int, float]


def summarize_hubs(degrees_by_iter: dict[int, dict[str, int]], d_emerge: int = 5,
                   top_n: int = 10) -> HubEmergence:
    """Hub trajectories from each iteration's LCC degrees ({} for an empty snapshot)."""
    max_deg: dict[str, int] = {}
    t_emerge: dict[str, int] = {}
    for it in sorted(degrees_by_iter):
        for v, d in degrees_by_iter[it].items():
            if d > max_deg.get(v, -1):
                max_deg[v] = d
            if d > d_emerge and v not in t_emerge:
                t_emerge[v] = it
    top_hubs = sorted(max_deg, key=lambda v: (-max_deg[v], v))[:top_n]
    trajectories = {
        v: {it: degs[v] for it, degs in sorted(degrees_by_iter.items()) if v in degs}
        for v in top_hubs
    }
    mean_degree = {it: sum(deg.values()) / len(deg) if deg else 0.0
                   for it, deg in degrees_by_iter.items()}
    return HubEmergence(top_hubs, trajectories, t_emerge, mean_degree)


def hub_emergence(series: list[Snapshot], d_emerge: int = 5,
                  top_n: int = 10) -> HubEmergence:
    """Degree trajectories of the strongest hubs on each snapshot's LCC.

    A node emerges at the first iteration where its LCC degree exceeds
    ``d_emerge``; top hubs are ranked by their maximum degree over time.
    """
    if len(series) == 0:
        raise EmptyGraph("empty snapshot series")
    # a snapshot can be empty when early extractions failed
    degrees_by_iter = {}
    for snap in series:
        degrees_by_iter[snap.iteration] = {}
        if snap.graph.node_count:
            index = snapshot_index(largest_component(snap.graph))
            degrees_by_iter[snap.iteration] = dict(zip(index.nodes,
                                                       index.degree.tolist()))
    return summarize_hubs(degrees_by_iter, d_emerge, top_n)


# ---------------------------------------------------------------------------
# bridge-node series


@dataclass
class BridgeSeries:
    bridge_sets: dict[int, set[str]]
    persistence: dict[str, int]
    presence_nodes: list[str]
    presence_iterations: list[int]
    presence: list[list[bool]]


def summarize_bridges(bridge_sets: dict[int, set[str]], *, window: int = 200,
                      top_nodes: int = 100) -> BridgeSeries:
    """Persistence counts and presence matrix from per-iteration bridge sets."""
    persistence: dict[str, int] = {}
    t_first: dict[str, int] = {}
    for it in sorted(bridge_sets):
        for v in bridge_sets[it]:
            persistence[v] = persistence.get(v, 0) + 1
            t_first.setdefault(v, it)
    window_iters = [it for it in sorted(bridge_sets) if it < window]
    early = sorted((v for v, t in t_first.items() if t < window),
                   key=lambda v: (t_first[v], v))[:top_nodes]
    presence = [[v in bridge_sets[it] for it in window_iters] for v in early]
    return BridgeSeries(bridge_sets, persistence, early, window_iters, presence)


def bridge_analysis(series: list[Snapshot], seed: int = 0, *,
                    window: int = 200, top_nodes: int = 100) -> BridgeSeries:
    """Per-snapshot bridge sets, persistence counts, and a presence matrix.

    The presence matrix covers the first ``window`` iterations and the
    ``top_nodes`` earliest-appearing bridge nodes, rows sorted by first
    appearance.
    """
    if len(series) == 0:
        raise EmptyGraph("empty snapshot series")
    bridge_sets: dict[int, set[str]] = {}
    for snap in series:
        index = snapshot_index(snap.graph)
        bridge_sets[snap.iteration] = (bridge_nodes(index, louvain(index, seed)[0])
                                       if snap.graph.node_count else set())
    return summarize_bridges(bridge_sets, window=window, top_nodes=top_nodes)


# ---------------------------------------------------------------------------
# betweenness time series


@dataclass
class BetweennessSeries:
    iterations: list[int]
    nodes: list[str]
    values: list[list[float]]       # [iteration index][node index], absent -> 0.0
    mean: list[float]
    max: list[float]


def betweenness_timeseries(series: list[Snapshot]) -> BetweennessSeries:
    """Normalized betweenness of every node over time; absent nodes score 0."""
    if len(series) == 0:
        raise EmptyGraph("empty snapshot series")
    per_iter = {snap.iteration: distance_sweep(snapshot_index(snap.graph)).betweenness
                for snap in series}
    iterations = sorted(per_iter)
    tables = [per_iter[it] for it in iterations]
    nodes = sorted({v for bc in tables for v in bc})
    values = [[bc.get(v, 0.0) for v in nodes] for bc in tables]
    mean = [sum(bc.values()) / len(bc) if bc else 0.0 for bc in tables]
    max_ = [max(bc.values(), default=0.0) for bc in tables]
    return BetweennessSeries(iterations, nodes, values, mean, max_)
