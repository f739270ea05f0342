"""Longest-shortest-path extraction, path metrics, and agentic reasoning drivers.

Paths live on the undirected view of the largest component. All ranking and
tie-breaking is lexicographic so repeated extraction is identical. Functions
that take an optional ``table`` accept a precomputed ``centralities`` of the
self-loop-free undirected view and compute it themselves otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from .analytics import CentralityTable, centralities, louvain, pearson
from .core import KnowledgeGraph, largest_component
from .errors import EmptyGraph, GeneratorError, NonConvergent, TrivialPath
from .prompts import (
    BRIDGE_SYNERGY_TEMPLATE,
    BUILDING_BLOCK_TEMPLATE,
    FINAL_DISCOVERY_TEMPLATE,
    NODE_INSIGHT_TEMPLATE,
    PAIR_SYNERGY_TEMPLATE,
    RELATION_INSIGHT_TEMPLATE,
    SYNTHESIS_TEMPLATE,
)
from .sessions import GeneratorSession

PATH_METRIC_NAMES = ("degree", "betweenness", "closeness", "eigenvector",
                     "pagerank", "clustering", "density")


@dataclass
class ExtractedPath:
    """A shortest path with node metrics attached from the full graph."""

    nodes: list[str]                      # identity keys, in path order
    displays: list[str]
    node_metrics: dict[str, dict[str, float]]   # metric name -> node -> value
    source_eccentricity: int
    terminal_eccentricity: int

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    def render(self) -> str:
        return " -> ".join(self.displays)


def _lexicographic_shortest_path(g: nx.Graph, source: str, target: str,
                                 dist_from_target: dict[str, int]) -> list[str]:
    """Smallest node sequence among shortest source->target paths.

    Greedy works here: at step k any node with d(target) = d - k has a
    neighbor one step closer, so the smallest eligible neighbor always
    extends to a full shortest path.
    """
    d = dist_from_target[source]
    path = [source]
    current = source
    for step in range(d, 0, -1):
        current = min(u for u in g.neighbors(current)
                      if dist_from_target.get(u) == step - 1)
        path.append(current)
    return path


def _attach_metrics(und: nx.Graph, nodes: list[str],
                    table: CentralityTable | None) -> dict[str, dict[str, float]]:
    table = table or centralities(und)
    return {
        "degree": {v: float(und.degree(v)) for v in nodes},
        "betweenness": {v: table.betweenness[v] for v in nodes},
        "closeness": {v: table.closeness[v] for v in nodes},
    }


def diameter_path(g: KnowledgeGraph,
                  table: CentralityTable | None = None) -> ExtractedPath:
    """A shortest path realizing the maximum eccentricity of the LCC."""
    if g.node_count == 0:
        raise EmptyGraph("diameter_path needs a non-empty graph")
    lcc = largest_component(g, "undirected")
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
        node_metrics=_attach_metrics(g.undirected_view(self_loops=False), nodes, table),
        source_eccentricity=ecc[source],
        terminal_eccentricity=ecc[target],
    )


def top_k_longest_paths(g: KnowledgeGraph, k: int = 5,
                        table: CentralityTable | None = None) -> list[ExtractedPath]:
    """The k longest shortest paths over distinct unordered endpoint pairs."""
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
    metrics_cache: dict[str, dict[str, float]] | None = None
    paths = []
    for _, u, v in pairs[:k]:
        nodes = _lexicographic_shortest_path(und, u, v, dist[v])
        ecc_u = max(dist[u].values())
        ecc_v = max(dist[v].values())
        if metrics_cache is None:
            metrics_cache = _attach_metrics(und, list(und.nodes), table)
        paths.append(ExtractedPath(
            nodes=nodes,
            displays=[g.display(n) for n in nodes],
            node_metrics={m: {n: metrics_cache[m][n] for n in nodes}
                          for m in metrics_cache},
            source_eccentricity=ecc_u,
            terminal_eccentricity=ecc_v,
        ))
    return paths


# ---------------------------------------------------------------------------
# path-level metric correlations


@dataclass
class PathMetrics:
    means: dict[str, float]        # metric name -> mean over path nodes
    density: float


@dataclass
class CorrelationMatrix:
    metrics: tuple[str, ...]
    matrix: list[list[float | None]]    # None marks undefined (zero variance)

    def value(self, a: str, b: str) -> float | None:
        return self.matrix[self.metrics.index(a)][self.metrics.index(b)]


def induced_path_graph(g: KnowledgeGraph, path: ExtractedPath) -> KnowledgeGraph:
    """Subgraph induced by the path's nodes, for GraphML export."""
    sub = KnowledgeGraph()
    keep = set(path.nodes)
    for key in path.nodes:
        sub.add_node(g.display(key))
    for src, kind, tgt in g.triples():
        if src in keep and tgt in keep:
            sub.add_edge(g.display(src), kind, g.display(tgt))
    return sub


def path_metrics(path: ExtractedPath, und: nx.Graph,
                 node_tables: dict[str, dict[str, float]]) -> PathMetrics:
    """Means of the node tables over the path, and the density of the subgraph
    the path induces in the graph's self-loop-free view ``und``."""
    nodes = path.nodes
    means = {name: sum(node_tables[name][v] for v in nodes) / len(nodes)
             for name in node_tables}
    sub = und.subgraph(nodes)
    n = len(nodes)
    possible = n * (n - 1) / 2
    means["density"] = sub.number_of_edges() / possible if possible else 0.0
    return PathMetrics(means=means, density=means["density"])


def _node_tables(g: KnowledgeGraph, und: nx.Graph,
                 table: CentralityTable | None) -> dict[str, dict[str, float]]:
    table = table or centralities(und)
    if table.eigenvector is None:
        raise NonConvergent("eigenvector centrality did not converge")
    pagerank = nx.pagerank(g.directed_simple_view(), alpha=0.85, tol=1e-8)
    clustering = nx.clustering(und)
    return {
        "degree": {v: float(d) for v, d in und.degree()},
        "betweenness": table.betweenness,
        "closeness": table.closeness,
        "eigenvector": table.eigenvector,
        "pagerank": pagerank,
        "clustering": clustering,
    }


def path_metric_correlations(paths: list[ExtractedPath], g: KnowledgeGraph,
                             table: CentralityTable | None = None) -> CorrelationMatrix:
    """Pearson correlations of path-level metric means across paths."""
    if len(paths) < 3:
        raise ValueError("need at least three paths to correlate")
    und = g.undirected_view(self_loops=False)
    tables = _node_tables(g, und, table)
    per_path = [path_metrics(p, und, tables) for p in paths]
    columns = {name: [pm.means[name] for pm in per_path] for name in PATH_METRIC_NAMES}
    matrix: list[list[float | None]] = []
    for a in PATH_METRIC_NAMES:
        row: list[float | None] = []
        for b in PATH_METRIC_NAMES:
            row.append(1.0 if a == b else pearson(columns[a], columns[b]))
        matrix.append(row)
    return CorrelationMatrix(metrics=PATH_METRIC_NAMES, matrix=matrix)


# ---------------------------------------------------------------------------
# agentic reasoning over a path


@dataclass
class ReasoningReport:
    path: ExtractedPath
    mode: str                                   # "agentic" | "compositional"
    node_insights: list[tuple[str, str]] = field(default_factory=list)
    relation_insights: list[tuple[str, str]] = field(default_factory=list)
    synthesis: str = ""
    building_blocks: list[tuple[str, str]] = field(default_factory=list)
    pairwise_synergies: list[str] = field(default_factory=list)
    bridge_synergies: list[str] = field(default_factory=list)
    final_discovery: str = ""

    def to_markdown(self) -> str:
        lines = ["# Knowledge Path Report", "", "## Extracted Path", "",
                 self.path.render(), ""]
        if self.mode == "agentic":
            lines += ["## Node Insights", ""]
            for concept, text in self.node_insights:
                lines += [f"### {concept}", "", text, ""]
            lines += ["## Relationship Insights", ""]
            for relation, text in self.relation_insights:
                lines += [f"### {relation}", "", text, ""]
            lines += ["## Final Synthesized Discovery", "", self.synthesis, ""]
        else:
            lines += ["## Building Blocks (Step A)", ""]
            for concept, text in self.building_blocks:
                lines += [f"### {concept}", "", text, ""]
            lines += ["## Pairwise Synergies (Step B)", ""]
            for text in self.pairwise_synergies:
                lines += [text, ""]
            lines += ["## Bridge Synergies (Step C)", ""]
            for text in self.bridge_synergies:
                lines += [text, ""]
            lines += ["## Final Discovery (Step D)", "", self.final_discovery, ""]
        return "\n".join(lines)


def _ask(gen: GeneratorSession, prompt: str) -> str:
    try:
        return gen.complete(prompt)
    except GeneratorError as exc:
        return f"[generation failed: {exc}]"


def _render_relation(g: KnowledgeGraph, a: str, b: str) -> str:
    """Deterministic rendering of the relation between two adjacent concepts."""
    linking = sorted(t for t in g.triples()
                     if (t[0], t[2]) in ((a, b), (b, a)))
    src, kind, tgt = linking[0]
    return f"{g.display(src)} -- {kind} -- {g.display(tgt)}"


def agentic_path_report(path: ExtractedPath, g: KnowledgeGraph,
                        gen: GeneratorSession) -> ReasoningReport:
    """One insight per node, one per consecutive relation, then one synthesis."""
    if path.length < 1:
        raise TrivialPath("agentic reasoning needs a path with at least one edge")
    report = ReasoningReport(path=path, mode="agentic")
    for display in path.displays:
        text = _ask(gen, NODE_INSIGHT_TEMPLATE.format(concept=display))
        report.node_insights.append((display, text))
    for a, b in zip(path.nodes, path.nodes[1:]):
        rendered = _render_relation(g, a, b)
        text = _ask(gen, RELATION_INSIGHT_TEMPLATE.format(relationship=rendered))
        report.relation_insights.append((rendered, text))
    insights = "\n".join(text for _, text in
                         report.node_insights + report.relation_insights)
    report.synthesis = _ask(gen, SYNTHESIS_TEMPLATE.format(insights=insights))
    return report


def compositional_pipeline(path: ExtractedPath, g: KnowledgeGraph,
                           gen: GeneratorSession,
                           final_gen: GeneratorSession | None = None,
                           group_size: int = 3) -> ReasoningReport:
    """Building blocks, pairwise synergies, bridge synergies, final discovery.

    Step D goes to ``final_gen`` (possibly a larger model); it defaults to the
    Step A-C session.
    """
    if path.length < 2:
        raise TrivialPath("compositional reasoning needs a path with at least two edges")
    final_gen = final_gen if final_gen is not None else gen
    report = ReasoningReport(path=path, mode="compositional")
    for display in path.displays:
        text = _ask(gen, BUILDING_BLOCK_TEMPLATE.format(concept=display))
        report.building_blocks.append((display, text))
    blocks = report.building_blocks
    for (name_a, block_a), (name_b, block_b) in zip(blocks, blocks[1:]):
        prompt = PAIR_SYNERGY_TEMPLATE.format(
            block_a=f"{name_a}: {block_a}", block_b=f"{name_b}: {block_b}")
        report.pairwise_synergies.append(_ask(gen, prompt))
    synergies = report.pairwise_synergies
    for i in range(0, len(synergies), group_size):
        group = "\n".join(synergies[i:i + group_size])
        report.bridge_synergies.append(
            _ask(gen, BRIDGE_SYNERGY_TEMPLATE.format(synergies=group)))
    materials = "\n".join(
        [f"{name}: {text}" for name, text in blocks]
        + report.pairwise_synergies + report.bridge_synergies)
    report.final_discovery = _ask(
        final_gen, FINAL_DISCOVERY_TEMPLATE.format(materials=materials))
    return report


# ---------------------------------------------------------------------------
# graph-informed context prompt


def graph_context_prompt(g: KnowledgeGraph, task: str, seed: int = 0,
                         top_hubs: int = 10, top_communities: int = 5,
                         reps_per_community: int = 3,
                         edges_per_hub: int = 5) -> str:
    """Prepend hub/community/relationship context from the graph to a task prompt."""
    if g.node_count == 0:
        raise EmptyGraph("graph_context_prompt needs a non-empty graph")
    und = g.undirected_view(self_loops=False)
    table = centralities(und)
    hubs = sorted(und.nodes, key=lambda v: (-table.betweenness[v], v))[:top_hubs]
    if table.eigenvector is not None:
        influencers = sorted(und.nodes,
                             key=lambda v: (-table.eigenvector[v], v))[:top_hubs]
    else:
        influencers = hubs
    partition, _ = louvain(und, seed)
    members: dict[int, list[str]] = {}
    for v, cid in partition.items():
        members.setdefault(cid, []).append(v)
    ranked_comms = sorted(members.values(), key=lambda m: (-len(m), min(m)))
    lines = ["Knowledge graph context:",
             "Key hubs (betweenness): " + ", ".join(g.display(v) for v in hubs),
             "Influencers (eigenvector): " + ", ".join(g.display(v) for v in influencers),
             "Communities:"]
    for comm in ranked_comms[:top_communities]:
        reps = sorted(comm, key=lambda v: (-und.degree(v), v))[:reps_per_community]
        lines.append(f"- {len(comm)} concepts: "
                     + ", ".join(g.display(v) for v in reps))
    lines.append("Key relationships:")
    seen: set[tuple[str, str, str]] = set()
    for hub in hubs:
        incident = [t for t in g.triples() if hub in (t[0], t[2])]
        incident.sort(key=lambda t: (-und.degree(t[2] if t[0] == hub else t[0]),
                                     t[0], t[1], t[2]))
        for triple in incident[:edges_per_hub]:
            if triple in seen:
                continue
            seen.add(triple)
            src, kind, tgt = triple
            lines.append(f"- {g.display(src)} -- {kind} -- {g.display(tgt)}")
    return "\n".join(lines) + f"\n\n{task}"
