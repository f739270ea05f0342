"""Longest-shortest-path extraction, path metrics, and agentic reasoning drivers.

Paths live on the undirected view of the largest component. All ranking and
tie-breaking is lexicographic so repeated extraction is identical. The path
functions share one ``PathTables`` of the final graph: one sweep of its
``sweep.SnapshotIndex`` keeping every node's hop row, as int16 below 32768
nodes (``sweep.hop_dtype``), and the centrality table read from that same
sweep. Degrees, local clustering and path densities read the index too, so
no networkx graph is built.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .analytics import CentralityTable, centralities, clustering, pearson, triangles
# unused here; perfbench/tests/test_perfbench.py pins ``paths.louvain`` in DIRECT_BINDINGS
from .analytics import louvain  # noqa: F401
# unused here; perfbench/tracer.py patches each module binding ``largest_component``
from .core import KnowledgeGraph, largest_component  # noqa: F401
from .errors import EmptyGraph, GeneratorError, NonConvergent, TrivialPath
from .prompts import (
    BRIDGE_SYNERGY_TEMPLATE,
    BUILDING_BLOCK_TEMPLATE,
    FINAL_DISCOVERY_TEMPLATE,
    NODE_INSIGHT_TEMPLATE,
    PAIR_SYNERGY_TEMPLATE,
    RELATION_INSIGHT_TEMPLATE,
    SYNTHESIS_TEMPLATE,
    render_triple,
)
from .sessions import GeneratorSession
from .sweep import DistanceSweep, SnapshotIndex, distance_sweep, snapshot_index

PATH_METRIC_NAMES = ("degree", "betweenness", "closeness", "eigenvector",
                     "pagerank", "clustering", "density")
BRIDGE_GROUP_SIZE = 3       # pairwise synergies per bridge-synergy prompt
PAGERANK_ALPHA = 0.85
PAGERANK_TOL = 1e-8
PAGERANK_MAX_ITER = 100


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


def _lexicographic_shortest_path(index: SnapshotIndex, source: int,
                                 to_target) -> list[int]:
    """Node indices of the smallest shortest path from node index ``source``
    to the target whose hop row is ``to_target``.

    Greedy works here: at step k any node with d(target) = d - k has a
    neighbor one step closer, so the first eligible neighbour of a CSR row
    (ascending, and index order is key order) extends to a full shortest path.
    """
    path = [source]
    for step in range(int(to_target[source]) - 1, -1, -1):
        nbrs = index.indices[index.indptr[path[-1]]:index.indptr[path[-1] + 1]]
        path.append(int(nbrs[(to_target[nbrs] == step).argmax()]))
    return path


@dataclass
class PathTables:
    """What every path function reads of the final graph, built once."""

    sweep: DistanceSweep                # of ``g``'s index, every hop row kept
    centrality: CentralityTable         # ``centralities(sweep)``


def path_tables(g: KnowledgeGraph) -> PathTables:
    """The all-rows sweep of ``g``'s index and its centralities."""
    if g.node_count == 0:
        raise EmptyGraph("paths need a non-empty graph")
    sweep = distance_sweep(snapshot_index(g), keep=range(g.node_count))
    return PathTables(sweep, centralities(sweep))


def _extracted_path(g: KnowledgeGraph, tables: PathTables,
                    source: int, target: int) -> ExtractedPath:
    sweep = tables.sweep
    path = _lexicographic_shortest_path(sweep.index, source, sweep.rows[target])
    nodes = [sweep.index.nodes[i] for i in path]
    return ExtractedPath(
        nodes=nodes,
        displays=[g.display(v) for v in nodes],
        node_metrics={
            "degree": dict(zip(nodes, sweep.index.degree[path].astype(float).tolist())),
            "betweenness": {v: tables.centrality.betweenness[v] for v in nodes},
            "closeness": {v: tables.centrality.closeness[v] for v in nodes},
        },
        source_eccentricity=int(sweep.eccentricity[source]),
        terminal_eccentricity=int(sweep.eccentricity[target]),
    )


def diameter_path(g: KnowledgeGraph, tables: PathTables) -> ExtractedPath:
    """A shortest path realizing the maximum eccentricity of the LCC.

    Distances within the LCC are those of the whole view, so the sweep gives
    its eccentricities and the smallest source and target at the diameter.
    """
    lcc = tables.sweep.index.lcc
    if len(lcc) == 1:
        raise TrivialPath("largest component is a single node")
    ecc = tables.sweep.eccentricity[lcc]
    source = int(lcc[ecc.argmax()])
    target = int((tables.sweep.rows[source] == ecc.max()).argmax())
    return _extracted_path(g, tables, source, target)


def top_k_longest_paths(g: KnowledgeGraph, tables: PathTables,
                        k: int = 5) -> list[ExtractedPath]:
    """The k longest shortest paths over distinct unordered endpoint pairs."""
    rows, k = tables.sweep.rows, max(k, 0)

    def candidates():
        """(-hops, u, v) of each row's k longest reachable pairs u < v: they
        hold the row's share of the k longest, which nsmallest keeps in O(k)."""
        for u in range(len(rows)):
            row = rows[u][u + 1:]
            longest = (-row).argsort(kind="stable")[:k].tolist()
            yield from ((-int(row[v]), u, u + 1 + v) for v in longest if row[v] > 0)

    pairs = heapq.nsmallest(k, candidates())
    return [_extracted_path(g, tables, u, v) for _, u, v in pairs]


# ---------------------------------------------------------------------------
# path-level metric correlations


@dataclass
class CorrelationMatrix:
    metrics: tuple[str, ...]
    matrix: list[list[float | None]]    # None marks undefined (zero variance)


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


def path_metrics(path: ExtractedPath, index: SnapshotIndex,
                 node_tables: dict[str, dict[str, float]]) -> dict[str, float]:
    """Means of the node tables over the path, and the density of the subgraph
    the path induces in the graph's ``index``, by metric name."""
    nodes = path.nodes
    means = {name: sum(node_tables[name][v] for v in nodes) / len(nodes)
             for name in node_tables}
    members = {bisect_left(index.nodes, v) for v in nodes}
    links = sum(u in members for v in members for u in index.adjacency[v]) // 2
    possible = len(nodes) * (len(nodes) - 1) / 2
    means["density"] = links / possible if possible else 0.0
    return means


def pagerank(g: KnowledgeGraph) -> dict[str, float]:
    """PageRank of ``g``'s directed simple view (relation kinds collapsed,
    self-loops kept), by power iteration in numpy.

    It follows networkx's scipy backend step by step: out-edges normalized
    by row, a dangling node's mass spread uniformly, and a stop once the L1
    change falls below ``N * PAGERANK_TOL``; after ``PAGERANK_MAX_ITER``
    iterations it raises NonConvergent. Only the order of float sums differs.
    """
    nodes = sorted(g.node_keys)
    n = len(nodes)
    if n == 0:
        return {}
    pos = {v: i for i, v in enumerate(nodes)}
    edges = np.array(sorted({(pos[s], pos[t]) for s, _, t in g.triples()}),
                     dtype=np.int64).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    out_degree = np.bincount(src, minlength=n)
    weight = 1.0 / out_degree[src]
    dangling = np.flatnonzero(out_degree == 0)
    uniform = np.full(n, 1.0 / n)
    x = uniform
    for _ in range(PAGERANK_MAX_ITER):
        last = x
        spread = np.bincount(dst, weights=last[src] * weight, minlength=n)
        x = (PAGERANK_ALPHA * (spread + last[dangling].sum() * uniform)
             + (1 - PAGERANK_ALPHA) * uniform)
        if np.absolute(x - last).sum() < n * PAGERANK_TOL:
            return dict(zip(nodes, x.tolist()))
    raise NonConvergent(f"pagerank did not converge in {PAGERANK_MAX_ITER} iterations")


def _node_tables(g: KnowledgeGraph, tables: PathTables) -> dict[str, dict[str, float]]:
    index, table = tables.sweep.index, tables.centrality
    if table.eigenvector is None:
        raise NonConvergent("eigenvector centrality did not converge")
    return {
        "degree": dict(zip(index.nodes, index.degree.astype(float).tolist())),
        "betweenness": table.betweenness,
        "closeness": table.closeness,
        "eigenvector": table.eigenvector,
        "pagerank": pagerank(g),
        "clustering": dict(zip(index.nodes, clustering(index, triangles(index)))),
    }


def path_metric_correlations(g: KnowledgeGraph, tables: PathTables,
                             paths: list[ExtractedPath]) -> CorrelationMatrix:
    """Pearson correlations of path-level metric means across paths."""
    if len(paths) < 3:
        raise ValueError("need at least three paths to correlate")
    node_tables = _node_tables(g, tables)
    per_path = [path_metrics(p, tables.sweep.index, node_tables) for p in paths]
    columns = {name: [means[name] for means in per_path] for name in PATH_METRIC_NAMES}
    matrix = [[1.0 if a == b else pearson(columns[a], columns[b])
               for b in PATH_METRIC_NAMES] for a in PATH_METRIC_NAMES]
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
    return render_triple(g, min(t for t in g.triples()
                                if (t[0], t[2]) in ((a, b), (b, a))))


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
                           final_gen: GeneratorSession | None = None) -> ReasoningReport:
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
    for i in range(0, len(synergies), BRIDGE_GROUP_SIZE):
        group = "\n".join(synergies[i:i + BRIDGE_GROUP_SIZE])
        report.bridge_synergies.append(
            _ask(gen, BRIDGE_SYNERGY_TEMPLATE.format(synergies=group)))
    materials = "\n".join(
        [f"{name}: {text}" for name, text in blocks]
        + report.pairwise_synergies + report.bridge_synergies)
    report.final_discovery = _ask(
        final_gen, FINAL_DISCOVERY_TEMPLATE.format(materials=materials))
    return report
