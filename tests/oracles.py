"""Independent brute-force oracles for the metric suite.

Everything here recomputes metrics from first principles (Floyd-Warshall
distances, explicit path enumeration, subset enumeration, exhaustive set
partitions, dense eigendecomposition) so the production implementations are
checked against genuinely different algorithms. Where a fast path replaced a
simple one (the GraphML writer, the longest-path extractors, Louvain), the
simple one is kept here as its reference.
"""

from __future__ import annotations

import itertools
import math
import random
import xml.etree.ElementTree as ET

import networkx as nx
import numpy as np
from scipy.special import zeta

from kgexpand.analytics import (
    LOUVAIN_RESTARTS,
    LOUVAIN_SMALL_RESTARTS,
    MERGE_REFINE_MAX_NODES,
    centralities,
)
from kgexpand.core import largest_component
from kgexpand.errors import EmptyGraph, TrivialPath
from kgexpand.paths import ExtractedPath

INF = float("inf")


# ---------------------------------------------------------------------------
# distances


def floyd_warshall(g: nx.Graph) -> dict:
    nodes = list(g.nodes)
    dist = {u: {v: (0 if u == v else INF) for v in nodes} for u in nodes}
    for u, v in g.edges():
        if u != v:
            dist[u][v] = dist[v][u] = 1
    for k in nodes:
        for i in nodes:
            dik = dist[i][k]
            if dik == INF:
                continue
            for j in nodes:
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


def spl_diameter(g: nx.Graph) -> tuple[float, int]:
    dist = floyd_warshall(g)
    nodes = list(g.nodes)
    values = [dist[u][v] for u, v in itertools.combinations(nodes, 2)]
    assert all(v < INF for v in values), "oracle expects a connected graph"
    if not values:
        return 0.0, 0
    return sum(values) / len(values), int(max(values))


# ---------------------------------------------------------------------------
# clustering / triangles


def _simple_neighbors(g: nx.Graph, v) -> set:
    return {u for u in g.neighbors(v) if u != v}


def clustering_coefficient(g: nx.Graph, v) -> float:
    nbrs = sorted(_simple_neighbors(g, v))
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = sum(1 for a, b in itertools.combinations(nbrs, 2) if g.has_edge(a, b))
    return 2.0 * links / (k * (k - 1))


def average_clustering(g: nx.Graph) -> float:
    nodes = list(g.nodes)
    return sum(clustering_coefficient(g, v) for v in nodes) / len(nodes)


def transitivity(g: nx.Graph) -> float:
    triangles = 0
    triples = 0
    for v in g.nodes:
        nbrs = sorted(_simple_neighbors(g, v))
        triples += len(nbrs) * (len(nbrs) - 1) // 2
        triangles += sum(1 for a, b in itertools.combinations(nbrs, 2)
                         if g.has_edge(a, b))
    return triangles / triples if triples else 0.0


# ---------------------------------------------------------------------------
# degree correlation


def assortativity(g: nx.Graph) -> float:
    degrees = dict(g.degree())
    xs, ys = [], []
    for u, v in g.edges():
        if u == v:
            continue
        xs.extend([degrees[u], degrees[v]])
        ys.extend([degrees[v], degrees[u]])
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / math.sqrt(vx * vy)


# ---------------------------------------------------------------------------
# k-core by subset enumeration


def kcore(g: nx.Graph) -> tuple[int, int]:
    """Max k with a non-empty k-core, plus that core's size, via all subsets."""
    nodes = [v for v in g.nodes]
    n = len(nodes)
    best_k = 0
    members_at_best: set = set(nodes)
    for mask in range(1, 1 << n):
        subset = {nodes[i] for i in range(n) if mask >> i & 1}
        min_deg = min(
            sum(1 for u in _simple_neighbors(g, v) if u in subset) for v in subset
        )
        if min_deg > best_k:
            best_k = min_deg
            members_at_best = set(subset)
        elif min_deg == best_k:
            members_at_best |= subset
    if best_k == 0:
        return 0, n
    # the k-core is the union of all subgraphs with min degree >= k
    return best_k, len(members_at_best)


# ---------------------------------------------------------------------------
# articulation points by removal


def _components(nodes: set, adjacency: dict) -> int:
    remaining = set(nodes)
    count = 0
    while remaining:
        count += 1
        stack = [remaining.pop()]
        while stack:
            v = stack.pop()
            for u in adjacency[v]:
                if u in remaining:
                    remaining.remove(u)
                    stack.append(u)
    return count


def articulation_points(g: nx.Graph) -> set:
    nodes = set(g.nodes)
    adjacency = {v: _simple_neighbors(g, v) for v in nodes}
    base = _components(nodes, adjacency)
    points = set()
    for v in nodes:
        rest = nodes - {v}
        if not rest:
            continue
        sub_adj = {u: adjacency[u] - {v} for u in rest}
        if _components(rest, sub_adj) > base - (0 if adjacency[v] else 1):
            points.add(v)
    return points


# ---------------------------------------------------------------------------
# betweenness by shortest-path enumeration


def betweenness(g: nx.Graph) -> dict:
    """Normalized betweenness via depth-limited enumeration of shortest paths."""
    nodes = sorted(g.nodes)
    n = len(nodes)
    dist = floyd_warshall(g)
    adjacency = {v: sorted(_simple_neighbors(g, v)) for v in nodes}
    score = {v: 0.0 for v in nodes}

    def paths_between(s, t, d):
        """Yield every simple path of length exactly d from s to t."""
        stack = [(s, [s])]
        while stack:
            v, path = stack.pop()
            if len(path) - 1 == d:
                if v == t:
                    yield path
                continue
            for u in adjacency[v]:
                if u not in path and dist[u][t] <= d - len(path):
                    stack.append((u, path + [u]))

    for s, t in itertools.combinations(nodes, 2):
        d = dist[s][t]
        if d == INF:
            continue
        sigma = 0
        through: dict = {}
        for path in paths_between(s, t, d):
            sigma += 1
            for v in path[1:-1]:
                through[v] = through.get(v, 0) + 1
        for v, count in through.items():
            score[v] += count / sigma
    if n > 2:
        factor = 2.0 / ((n - 1) * (n - 2))
        score = {v: s * factor for v, s in score.items()}
    return score


# ---------------------------------------------------------------------------
# closeness with component scaling


def closeness(g: nx.Graph) -> dict:
    dist = floyd_warshall(g)
    n = len(g)
    out = {}
    for v in g.nodes:
        reachable = [d for u, d in dist[v].items() if u != v and d < INF]
        if not reachable or n == 1:
            out[v] = 0.0
            continue
        r = len(reachable)
        out[v] = (r / sum(reachable)) * (r / (n - 1))
    return out


# ---------------------------------------------------------------------------
# eigenvector centrality by dense eigendecomposition


def eigenvector(g: nx.Graph) -> dict:
    nodes = sorted(g.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for u, v in g.edges():
        a[index[u]][index[v]] = 1.0
        a[index[v]][index[u]] = 1.0
    values, vectors = np.linalg.eigh(a)
    principal = vectors[:, int(np.argmax(values))]
    if principal.sum() < 0:
        principal = -principal
    principal = np.abs(principal)
    principal /= np.linalg.norm(principal)
    return {v: float(principal[index[v]]) for v in nodes}


# ---------------------------------------------------------------------------
# modularity, exhaustive partitions, bridges


def modularity(g: nx.Graph, communities) -> float:
    m = g.number_of_edges()
    if m == 0:
        return 0.0
    degrees = dict(g.degree())
    q = 0.0
    for comm in communities:
        inside = sum(1 for u, v in itertools.combinations(sorted(comm), 2)
                     if g.has_edge(u, v))
        dsum = sum(degrees[v] for v in comm)
        q += inside / m - (dsum / (2.0 * m)) ** 2
    return q


def set_partitions(items: list):
    """All partitions of a list into non-empty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] | {first}] + partition[i + 1:]
        yield partition + [{first}]


def best_modularity_slow(g: nx.Graph) -> float:
    return max(modularity(g, p) for p in set_partitions(sorted(g.nodes)))


def best_modularity(g: nx.Graph) -> float:
    """Exhaustive-search optimum via bitmask partitions (feasible to ~12 nodes)."""
    nodes = sorted(g.nodes)
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adj = [0] * n
    m = 0
    for u, v in g.edges():
        if u == v:
            continue
        m += 1
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    if m == 0:
        return 0.0
    deg = [a.bit_count() for a in adj]
    two_m = 2.0 * m
    best = -1.0

    def q_of(blocks):
        q = 0.0
        for b in blocks:
            internal = 0
            dsum = 0
            x = b
            while x:
                i = (x & -x).bit_length() - 1
                internal += (adj[i] & b).bit_count()
                dsum += deg[i]
                x &= x - 1
            q += internal / two_m - (dsum / two_m) ** 2
        return q

    blocks: list[int] = []

    def assign(i):
        nonlocal best
        if i == n:
            best = max(best, q_of(blocks))
            return
        bit = 1 << i
        for j in range(len(blocks)):
            blocks[j] |= bit
            assign(i + 1)
            blocks[j] &= ~bit
        blocks.append(bit)
        assign(i + 1)
        blocks.pop()

    assign(0)
    return best


def bridge_nodes(g: nx.Graph, partition: dict) -> set:
    out = set()
    for v in g.nodes:
        communities = {partition[u] for u in _simple_neighbors(g, v)}
        if len(communities) > 1:
            out.add(v)
    return out


# ---------------------------------------------------------------------------
# Louvain on the networkx graph: the reference for ``analytics.louvain``, which
# indexes the nodes once and shares one adjacency across restarts


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


# ---------------------------------------------------------------------------
# snapshot series


def validate_supergraph(snapshots) -> None:
    """Raise ValueError unless each snapshot holds its predecessor's nodes and edges."""
    for prev, cur in zip(snapshots, snapshots[1:]):
        if not prev.graph.node_keys <= cur.graph.node_keys:
            raise ValueError(
                f"snapshot {cur.iteration} lost nodes present at {prev.iteration}")
        if not set(prev.graph.triples()) <= set(cur.graph.triples()):
            raise ValueError(
                f"snapshot {cur.iteration} lost edges present at {prev.iteration}")


# ---------------------------------------------------------------------------
# graph generators for the oracle suites


def random_connected_graph(n: int, extra_edges: int, seed: int,
                           self_loop_prob: float = 0.0) -> nx.Graph:
    """Random spanning tree plus extra random edges; optionally a self-loop."""
    rng = random.Random(seed)
    g = nx.Graph()
    nodes = [f"n{i:02d}" for i in range(n)]
    g.add_nodes_from(nodes)
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    for i in range(1, n):
        g.add_edge(shuffled[i], rng.choice(shuffled[:i]))
    for _ in range(extra_edges):
        u, v = rng.sample(nodes, 2)
        g.add_edge(u, v)
    if rng.random() < self_loop_prob:
        v = rng.choice(nodes)
        g.add_edge(v, v)
    return g


def atlas_connected_graphs() -> list[nx.Graph]:
    """Every connected graph on 1..7 nodes, up to isomorphism."""
    from networkx.generators.atlas import graph_atlas_g

    graphs = []
    for g in graph_atlas_g():
        if g.number_of_nodes() >= 1 and nx.is_connected(g):
            graphs.append(nx.relabel_nodes(g, {v: f"n{v:02d}" for v in g.nodes}))
    return graphs


# ---------------------------------------------------------------------------
# synthetic degree-sequence generators for the power-law fitter


def sample_discrete_power_law(alpha: float, xmin: int, n: int, seed: int) -> list[int]:
    """Inverse-CDF sampling with an exact CDF table and zeta tail fallback."""
    rng = np.random.default_rng(seed)
    top = 200_000
    xs = np.arange(xmin, top + 1)
    cdf = 1.0 - zeta(alpha, xs + 1) / zeta(alpha, xmin)
    u = rng.random(n)
    idx = np.searchsorted(cdf, u, side="left")
    out = []
    for i, j in enumerate(idx):
        if j < len(xs):
            out.append(int(xs[j]))
        else:
            # binary search beyond the table using the zeta tail directly
            lo, hi = top, top * 4
            while 1.0 - zeta(alpha, hi + 1) / zeta(alpha, xmin) < u[i]:
                lo, hi = hi, hi * 4
            while lo < hi:
                mid = (lo + hi) // 2
                if 1.0 - zeta(alpha, mid + 1) / zeta(alpha, xmin) < u[i]:
                    lo = mid + 1
                else:
                    hi = mid
            out.append(int(lo))
    return out


def sample_geometric(p: float, xmin: int, n: int, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return (xmin + rng.geometric(p, n) - 1).tolist()


# ---------------------------------------------------------------------------
# GraphML serialization


def write_graphml_etree(g, path, node_attrs=None) -> None:
    """The ElementTree GraphML writer that ``graphml_io.write_graphml`` must match.

    Builds the whole tree, indents it with ``ET.indent`` and lets ElementTree
    serialize it; the fast writer's output must equal this file byte for byte.
    """
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    ET.SubElement(root, "key", id="d0", attrib={
        "for": "node", "attr.name": "label", "attr.type": "string"})
    ET.SubElement(root, "key", id="d1", attrib={
        "for": "edge", "attr.name": "relation", "attr.type": "string"})
    extra_ids: dict[str, str] = {}
    for i, name in enumerate(sorted(node_attrs or {})):
        key_id = f"d{i + 2}"
        extra_ids[name] = key_id
        values = node_attrs[name].values()
        ET.SubElement(root, "key", id=key_id, attrib={
            "for": "node", "attr.name": name,
            "attr.type": "long" if all(isinstance(v, int) for v in values) else "double"})
    graph_el = ET.SubElement(root, "graph", edgedefault="directed")
    for key in sorted(g.node_keys):
        node_el = ET.SubElement(graph_el, "node", id=key)
        label_el = ET.SubElement(node_el, "data", key="d0")
        label_el.text = g.display(key)
        for name, key_id in extra_ids.items():
            if key in node_attrs[name]:
                value = node_attrs[name][key]
                data_el = ET.SubElement(node_el, "data", key=key_id)
                data_el.text = repr(value if isinstance(value, int) else float(value))
    for i, (src, kind, tgt) in enumerate(g.triples()):
        edge_el = ET.SubElement(graph_el, "edge", id=f"e{i}", source=src, target=tgt)
        rel_el = ET.SubElement(edge_el, "data", key="d1")
        rel_el.text = kind
    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    tree.write(path, encoding="utf-8", xml_declaration=True)


# ---------------------------------------------------------------------------
# longest shortest paths, one view, one BFS and one full sort per call


def _lexicographic_shortest_path(g: nx.Graph, source, target, dist_from_target) -> list:
    d = dist_from_target[source]
    path = [source]
    current = source
    for step in range(d, 0, -1):
        current = min(u for u in g.neighbors(current)
                      if dist_from_target.get(u) == step - 1)
        path.append(current)
    return path


def _attach_metrics(und: nx.Graph, nodes: list) -> dict:
    table = centralities(und)
    return {
        "degree": {v: float(und.degree(v)) for v in nodes},
        "betweenness": {v: table.betweenness[v] for v in nodes},
        "closeness": {v: table.closeness[v] for v in nodes},
    }


def diameter_path(g):
    """The reference for ``paths.diameter_path``: the LCC's own view and BFS."""
    if g.node_count == 0:
        raise EmptyGraph("diameter_path needs a non-empty graph")
    lcc = largest_component(g)
    und = lcc.undirected_view(self_loops=False)
    if und.number_of_nodes() == 1:
        raise TrivialPath("largest component is a single node")
    dist = {v: nx.single_source_shortest_path_length(und, v) for v in und}
    ecc = {v: max(dist[v].values()) for v in und}
    diameter = max(ecc.values())
    source = min(v for v in und if ecc[v] == diameter)
    target = min(v for v, d in dist[source].items() if d == diameter)
    nodes = _lexicographic_shortest_path(und, source, target, dist[target])
    return ExtractedPath(
        nodes=nodes,
        displays=[g.display(v) for v in nodes],
        node_metrics=_attach_metrics(g.undirected_view(self_loops=False), nodes),
        source_eccentricity=ecc[source],
        terminal_eccentricity=ecc[target],
    )


def top_k_longest_paths(g, k: int = 5) -> list:
    """The reference for ``paths.top_k_longest_paths``: every pair, fully sorted."""
    if g.node_count == 0:
        raise EmptyGraph("top_k_longest_paths needs a non-empty graph")
    und = g.undirected_view(self_loops=False)
    dist = {v: nx.single_source_shortest_path_length(und, v) for v in und}
    pairs = []
    for u in und:
        for v, d in dist[u].items():
            if u < v:
                pairs.append((-d, u, v))
    pairs.sort()
    metrics_cache = None
    paths = []
    for _, u, v in pairs[:k]:
        nodes = _lexicographic_shortest_path(und, u, v, dist[v])
        if metrics_cache is None:
            metrics_cache = _attach_metrics(und, list(und.nodes))
        paths.append(ExtractedPath(
            nodes=nodes,
            displays=[g.display(n) for n in nodes],
            node_metrics={m: {n: metrics_cache[m][n] for n in nodes}
                          for m in metrics_cache},
            source_eccentricity=max(dist[u].values()),
            terminal_eccentricity=max(dist[v].values()),
        ))
    return paths
