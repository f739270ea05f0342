"""Independent brute-force oracles for the metric suite.

Everything here recomputes metrics from first principles (Floyd-Warshall
distances, explicit path enumeration, subset enumeration, exhaustive set
partitions, dense eigendecomposition) so the production implementations are
checked against genuinely different algorithms.
"""

from __future__ import annotations

import itertools
import math
import random
import xml.etree.ElementTree as ET

import networkx as nx
import numpy as np
from scipy.special import zeta

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
