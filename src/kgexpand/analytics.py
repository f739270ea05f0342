"""Per-snapshot and cross-snapshot network metrics.

Per-snapshot metrics read views that their caller builds once per snapshot:
the undirected simple view with self-loops left out, or its largest
component's view; none strips self-loops or builds a view itself. The series
functions build their own, as references for ``report.analyze_series``' one
pass. Assortativity is computed here (``pearson``), so the analysis does not
import ``scipy.stats``. All seeded operations are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import networkx as nx

from .core import KnowledgeGraph, Snapshot, largest_component
from .errors import EmptyGraph, NotConnected, UndefinedMetric

LOUVAIN_RESTARTS = 5
LOUVAIN_SMALL_RESTARTS = 16       # order traps are likelier on tiny graphs
MERGE_REFINE_MAX_NODES = 64


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


def basic_metrics(g: KnowledgeGraph, simple: nx.Graph, lcc: nx.Graph) -> BasicMetrics:
    """Counts, degrees and self-loops of ``g``, the mean clustering of its
    self-loop-free view ``simple``, and the size of its largest component's view."""
    if g.node_count == 0:
        raise EmptyGraph("basic_metrics needs at least one node")
    return BasicMetrics(
        nodes=g.node_count,
        edges=g.edge_count,
        avg_degree=2.0 * g.edge_count / g.node_count,
        max_degree=g.max_degree(),
        self_loops=g.self_loop_count,
        lcc_size=lcc.number_of_nodes(),
        avg_clustering=nx.average_clustering(simple) if simple.number_of_edges() else 0.0,
    )


def spl_and_diameter(lcc: nx.Graph) -> tuple[float, int]:
    """Exact mean shortest-path length and diameter of a connected graph."""
    n = lcc.number_of_nodes()
    if n == 0:
        raise EmptyGraph("empty graph has no path lengths")
    if not nx.is_connected(lcc):
        raise NotConnected("spl_and_diameter needs a connected graph")
    if n == 1:
        return 0.0, 0
    total = 0
    diameter = 0
    for src in lcc:
        lengths = nx.single_source_shortest_path_length(lcc, src)
        total += sum(lengths.values())
        diameter = max(diameter, max(lengths.values()))
    return total / (n * (n - 1)), diameter


# ---------------------------------------------------------------------------
# community structure


def modularity_of(g: nx.Graph, communities: list[set]) -> float:
    """Standard modularity of a partition; graph must be self-loop free."""
    m = g.number_of_edges()
    if m == 0:
        return 0.0
    q = 0.0
    for comm in communities:
        internal = sum(1 for u, v in g.edges(comm) if u in comm and v in comm)
        degree_sum = sum(d for _, d in g.degree(comm))
        q += internal / m - (degree_sum / (2.0 * m)) ** 2
    return q


def _louvain_one_level(adj: dict, degree: dict, m2: float, order: list,
                       node_comm: dict) -> bool:
    """Local-moving phase; only strictly positive gains move, so it terminates."""
    sigma_tot: dict = {}
    for v, c in node_comm.items():
        sigma_tot[c] = sigma_tot.get(c, 0.0) + degree[v]
    fresh = max(node_comm.values()) + 1
    improved = False
    moved = True
    while moved:
        moved = False
        for v in order:
            c_old = node_comm[v]
            k_v = degree[v]
            weight_to: dict = {}
            for u, w in adj[v].items():
                c = node_comm[u]
                weight_to[c] = weight_to.get(c, 0.0) + w
            sigma_tot[c_old] -= k_v
            stay = weight_to.get(c_old, 0.0) - k_v * sigma_tot[c_old] / m2
            best_c, best_gain = c_old, 0.0
            if -stay > 1e-12:
                # isolating v into a fresh community beats staying put
                best_c, best_gain = fresh, -stay
            for c in sorted(weight_to):
                if c == c_old:
                    continue
                gain = weight_to[c] - k_v * sigma_tot[c] / m2 - stay
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            sigma_tot[best_c] = sigma_tot.get(best_c, 0.0) + k_v
            if best_c != c_old:
                node_comm[v] = best_c
                moved = improved = True
                if best_c == fresh:
                    fresh += 1
    return improved


def _louvain_once(g: nx.Graph, rng: random.Random) -> list[set]:
    """One full Louvain run (local moves + aggregation) on a self-loop-free graph."""
    nodes = sorted(g.nodes)
    membership = {v: i for i, v in enumerate(nodes)}
    adj: dict = {i: {} for i in range(len(nodes))}
    for u, v in g.edges():
        iu, iv = membership[u], membership[v]
        adj[iu][iv] = adj[iu].get(iv, 0.0) + 1.0
        adj[iv][iu] = adj[iv].get(iu, 0.0) + 1.0
    loops = {i: 0.0 for i in adj}
    m2 = 2.0 * g.number_of_edges()
    while True:
        degree = {v: sum(adj[v].values()) + 2.0 * loops[v] for v in adj}
        order = sorted(adj)
        rng.shuffle(order)
        node_comm = {v: v for v in adj}
        if not _louvain_one_level(adj, degree, m2, order, node_comm):
            break
        membership = {orig: node_comm[agg] for orig, agg in membership.items()}
        comm_ids = sorted(set(node_comm.values()))
        relabel = {c: i for i, c in enumerate(comm_ids)}
        membership = {orig: relabel[c] for orig, c in membership.items()}
        new_adj: dict = {i: {} for i in range(len(comm_ids))}
        new_loops = {i: 0.0 for i in range(len(comm_ids))}
        for v in adj:
            cv = relabel[node_comm[v]]
            new_loops[cv] += loops[v]
            for u, w in adj[v].items():
                if u < v:
                    continue
                cu = relabel[node_comm[u]]
                if cu == cv:
                    new_loops[cv] += w
                else:
                    new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
                    new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
        adj, loops = new_adj, new_loops
    groups: dict = {}
    for v, c in membership.items():
        groups.setdefault(c, set()).add(v)
    return list(groups.values())


def _merge_refine(g: nx.Graph, communities: list[set]) -> list[set]:
    """Escape shallow local optima by merging community pairs and re-splitting.

    Greedy single-node moves cannot leave states whose improvement needs a
    transient loss (two mutually attracted nodes that belong in different
    communities, say). Tentatively merging a pair of communities and re-running
    the local-move phase performs exactly that escape; a merge is kept only
    when the refit partition scores strictly higher.
    """
    nodes = sorted(g.nodes)
    adj = {v: {u: 1.0 for u in g.neighbors(v) if u != v} for v in nodes}
    degree = {v: float(len(adj[v])) for v in adj}
    m2 = 2.0 * g.number_of_edges()
    comms = sorted((sorted(c) for c in communities), key=min)
    best_q = modularity_of(g, [set(c) for c in comms])
    improved = True
    while improved:
        improved = False
        for i in range(len(comms)):
            for j in range(i + 1, len(comms)):
                node_comm = {}
                for cid, comm in enumerate(comms):
                    for v in comm:
                        node_comm[v] = i if cid == j else cid
                _louvain_one_level(adj, degree, m2, nodes, node_comm)
                groups: dict = {}
                for v, c in node_comm.items():
                    groups.setdefault(c, set()).add(v)
                q = modularity_of(g, list(groups.values()))
                if q > best_q + 1e-9:
                    comms = sorted((sorted(c) for c in groups.values()), key=min)
                    best_q = q
                    improved = True
                    break
            if improved:
                break
    return [set(c) for c in comms]


def louvain(g: nx.Graph, seed: int = 0) -> tuple[dict, float]:
    """Seeded greedy modularity optimization on a self-loop-free graph; best of
    a few deterministic restarts.

    Node visiting order is shuffled from the seed. Small graphs additionally
    get the merge-and-resplit polish after each restart. Returns a
    node-to-community-id map and the modularity of that partition, recomputed
    from the partition itself. Community ids are assigned by each community's
    smallest member so the labeling is reproducible.
    """
    if g.number_of_nodes() == 0:
        raise EmptyGraph("louvain needs at least one node")
    if g.number_of_edges() == 0:
        communities = [{v} for v in sorted(g.nodes)]
    else:
        refine = g.number_of_nodes() <= MERGE_REFINE_MAX_NODES
        restarts = LOUVAIN_SMALL_RESTARTS if refine else LOUVAIN_RESTARTS
        best: list[set] | None = None
        best_q = float("-inf")
        for j in range(restarts):
            rng = random.Random(seed * restarts + j)
            cand = _louvain_once(g, rng)
            if refine:
                cand = _merge_refine(g, cand)
            q = modularity_of(g, cand)
            if q > best_q + 1e-12:
                best, best_q = cand, q
        communities = sorted((set(c) for c in best), key=min)
    partition = {v: cid for cid, comm in enumerate(communities) for v in comm}
    return partition, modularity_of(g, communities)


def bridge_nodes(g: nx.Graph, partition: dict) -> set:
    """Nodes whose neighbors span more than one community of the partition."""
    bridges = set()
    for v in g:
        seen = {partition[u] for u in g.neighbors(v) if u != v}
        if len(seen) > 1:
            bridges.add(v)
    return bridges


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


def assortativity(g: nx.Graph) -> float:
    """Degree assortativity (Newman, Phys. Rev. E 67, 026126, 2003): the Pearson
    correlation of the degrees at the two ends of every edge, taken both ways."""
    if g.number_of_edges() < 2:
        raise UndefinedMetric("assortativity needs at least two edges")
    degree = dict(g.degree())
    xs = [degree[v] for e in g.edges() for v in e]
    ys = [degree[v] for u, w in g.edges() for v in (w, u)]
    r = pearson(xs, ys)
    if r is None:
        raise UndefinedMetric("assortativity is undefined on a regular graph")
    return r


def transitivity(g: nx.Graph) -> float:
    """Fraction of closed triplets; 0.0 when the graph has no triples."""
    return nx.transitivity(g)


def kcore(g: nx.Graph) -> tuple[int, int]:
    """Maximal k with a non-empty k-core, and that core's node count."""
    if g.number_of_nodes() == 0:
        return 0, 0
    core = nx.core_number(g)
    max_k = max(core.values())
    return max_k, sum(1 for v in core.values() if v == max_k)


def articulation_points(g: nx.Graph) -> set:
    """Nodes whose removal increases the number of connected components."""
    return set(nx.articulation_points(g))


# ---------------------------------------------------------------------------
# centralities


@dataclass
class CentralityTable:
    betweenness: dict
    closeness: dict
    eigenvector: dict | None
    eigenvector_converged: bool = True


def centralities(g: nx.Graph, *, betweenness: dict | None = None, eig_tol: float = 1e-8,
                 eig_max_iter: int = 1000) -> CentralityTable:
    """Normalized betweenness, component-scaled closeness, eigenvector scores.

    Eigenvector centrality uses power iteration; when it fails to converge the
    other two tables are still returned and the failure is flagged. A
    ``betweenness`` table already computed on ``g`` is used as is.
    """
    if g.number_of_nodes() == 0:
        raise EmptyGraph("centralities need at least one node")
    if betweenness is None:
        betweenness = nx.betweenness_centrality(g, normalized=True)
    closeness = nx.closeness_centrality(g)
    try:
        eigenvector = nx.eigenvector_centrality(g, max_iter=eig_max_iter, tol=eig_tol)
        converged = True
    except nx.PowerIterationFailedConvergence:
        eigenvector = None
        converged = False
    return CentralityTable(betweenness, closeness, eigenvector, converged)


# ---------------------------------------------------------------------------
# sampled shortest-path distribution


@dataclass
class SplSample:
    histogram: dict[int, int]
    sampled: int
    unreachable: int


def sampled_spl_distribution(g: nx.Graph, samples: int = 2000,
                             seed: int = 0) -> SplSample:
    """Distance histogram over uniformly sampled LCC node pairs (with replacement)."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if g.number_of_nodes() == 0:
        raise EmptyGraph("cannot sample paths in an empty graph")
    comps = list(nx.connected_components(g))
    max_size = max(len(c) for c in comps)
    lcc_nodes = sorted(min((c for c in comps if len(c) == max_size), key=min))
    if len(lcc_nodes) < 2:
        return SplSample({}, 0, 0)
    cache: dict = {}
    hist: dict[int, int] = {}
    unreachable = 0
    for u, v in _sample_pairs(lcc_nodes, samples, random.Random(seed)):
        if u not in cache:
            cache[u] = nx.single_source_shortest_path_length(g, u)
        d = cache[u].get(v)
        if d is None:
            unreachable += 1
        else:
            hist[d] = hist.get(d, 0) + 1
    return SplSample(dict(sorted(hist.items())), samples, unreachable)


# ---------------------------------------------------------------------------
# newly connected pair tracking


UNREACHABLE = None


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


def _sample_pairs(nodes: list[str], samples: int | None,
                  rng: random.Random) -> list[tuple[str, str]]:
    if samples is None:
        return [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    pairs = []
    for _ in range(samples):
        u = rng.choice(nodes)
        v = rng.choice(nodes)
        while v == u:
            v = rng.choice(nodes)
        pairs.append((u, v) if u <= v else (v, u))
    return pairs


def newly_connected_pairs(ledger: PairDistanceLedger, iteration: int, g: nx.Graph,
                          samples: int | None = 1000) -> PairStats:
    """Count sampled pairs of ``g`` that became reachable or closer since their last record.

    Pairs without a prior record only establish a baseline. ``samples=None``
    enumerates every unordered pair. The ledger is updated in place.
    """
    if ledger.last_iteration >= iteration:
        raise ValueError(
            f"ledger already saw iteration {ledger.last_iteration}; got {iteration}"
        )
    nodes = sorted(g.nodes)
    if len(nodes) < 2:
        ledger.last_iteration = iteration
        return PairStats(0, 0, 0)
    rng = random.Random(ledger.seed * 1_000_003 + iteration)
    pairs = _sample_pairs(nodes, samples, rng)
    cache: dict = {}
    newly = shortened = with_prior = 0
    for u, v in pairs:
        if u not in cache:
            cache[u] = nx.single_source_shortest_path_length(g, u)
        dist = cache[u].get(v, UNREACHABLE)
        if (u, v) in ledger.records:
            with_prior += 1
            prior = ledger.records[(u, v)]
            if prior is UNREACHABLE and dist is not UNREACHABLE:
                newly += 1
            elif prior is not UNREACHABLE and dist is not UNREACHABLE and dist < prior:
                shortened += 1
        ledger.records[(u, v)] = dist
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
    return summarize_hubs({
        snap.iteration: dict(
            largest_component(snap.graph).undirected_view(self_loops=False).degree())
        if snap.graph.node_count else {}
        for snap in series}, d_emerge, top_n)


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
        und = snap.graph.undirected_view(self_loops=False)
        bridge_sets[snap.iteration] = (bridge_nodes(und, louvain(und, seed)[0])
                                       if snap.graph.node_count else set())
    return summarize_bridges(bridge_sets, window=window, top_nodes=top_nodes)


# ---------------------------------------------------------------------------
# betweenness time series


@dataclass
class BetweennessSeries:
    iterations: list[int]
    nodes: list[str]
    values: list[list[float]]       # [iteration index][node index], absent -> 0.0
    top_nodes: list[str]
    mean: list[float]
    max: list[float]

    def trace(self, node: str) -> list[float]:
        col = self.nodes.index(node)
        return [row[col] for row in self.values]


def summarize_betweenness(per_iter: dict[int, dict[str, float]],
                          top_n: int = 10) -> BetweennessSeries:
    """Align per-iteration betweenness tables over all nodes; absent nodes score 0."""
    iterations = sorted(per_iter)
    nodes = sorted({v for bc in per_iter.values() for v in bc})
    values = [[per_iter[it].get(v, 0.0) for v in nodes] for it in iterations]
    peak = {v: max(per_iter[it].get(v, 0.0) for it in iterations) for v in nodes}
    top_nodes = sorted(nodes, key=lambda v: (-peak[v], v))[:top_n]
    mean = [sum(per_iter[it].values()) / len(per_iter[it]) if per_iter[it] else 0.0
            for it in iterations]
    max_ = [max(per_iter[it].values(), default=0.0) for it in iterations]
    return BetweennessSeries(iterations, nodes, values, top_nodes, mean, max_)


def betweenness_timeseries(series: list[Snapshot],
                           top_n: int = 10) -> BetweennessSeries:
    """Normalized betweenness of every node over time; absent nodes score 0."""
    if len(series) == 0:
        raise EmptyGraph("empty snapshot series")
    return summarize_betweenness({
        snap.iteration: nx.betweenness_centrality(snap.graph.undirected_view(),
                                                  normalized=True)
        for snap in series}, top_n)
