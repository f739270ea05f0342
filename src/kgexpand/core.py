"""Global knowledge-graph data model: labels, merging, views, components.

The global graph is a directed multigraph on relation kinds: the triple
(source, kind, target) is the unit of identity, so IS-A and RELATES-TO edges
between the same pair of concepts coexist. Node identity is the case-folded,
whitespace-collapsed form of the label; the first display spelling seen wins.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import networkx as nx

from .errors import EmptyGraph, InvalidLabel

_WS_RUN = re.compile(r"\s+")
# characters outside XML 1.0's Char production: a snapshot holding one is unreadable
_NON_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

DEFAULT_RELATION = "RELATES-TO"


@dataclass(frozen=True)
class ConceptLabel:
    """A normalized concept label: display form plus case-folded identity key."""

    display: str
    key: str


def normalize_label(raw: str) -> ConceptLabel:
    """Trim and collapse whitespace; case preserved for display, folded for identity.

    Raises InvalidLabel when nothing is left after trimming, or when a
    character is left that XML cannot hold (a control character, a lone
    surrogate, U+FFFE or U+FFFF).
    """
    display = _WS_RUN.sub(" ", str(raw)).strip()
    if not display:
        raise InvalidLabel(f"label is empty after normalization: {raw!r}")
    if _NON_XML_CHAR.search(display):
        raise InvalidLabel(f"label has a character XML cannot hold: {raw!r}")
    return ConceptLabel(display=display, key=display.casefold())


def normalize_relation(raw: str) -> str:
    """Uppercase a relation tag, collapsing internal whitespace; hyphens survive."""
    kind = _WS_RUN.sub(" ", str(raw)).strip().upper()
    if not kind:
        raise InvalidLabel(f"relation kind is empty: {raw!r}")
    if _NON_XML_CHAR.search(kind):
        raise InvalidLabel(f"relation kind has a character XML cannot hold: {raw!r}")
    return kind


@dataclass
class MergeDelta:
    added_nodes: int = 0
    added_edges: int = 0


class KnowledgeGraph:
    """Directed labeled multigraph of concepts; the evolving global graph."""

    def __init__(self) -> None:
        # identity key -> first-seen display label
        self._nodes: dict[str, str] = {}
        # (source key, KIND, target key)
        self._edges: set[tuple[str, str, str]] = set()

    # -- construction -------------------------------------------------

    def add_node(self, raw: str) -> str:
        label = normalize_label(raw)
        if label.key not in self._nodes:
            self._nodes[label.key] = label.display
        return label.key

    def add_edge(self, source: str, kind: str, target: str) -> bool:
        """Insert a triple; returns True when it was genuinely new."""
        kind = normalize_relation(kind)  # a rejected relation adds no node
        src = self.add_node(source)
        tgt = self.add_node(target)
        triple = (src, kind, tgt)
        if triple in self._edges:
            return False
        self._edges.add(triple)
        return True

    def copy(self) -> "KnowledgeGraph":
        dup = KnowledgeGraph()
        dup._nodes = dict(self._nodes)
        dup._edges = set(self._edges)
        return dup

    # -- accessors ----------------------------------------------------

    @property
    def node_keys(self) -> set[str]:
        return set(self._nodes)

    def display(self, key: str) -> str:
        return self._nodes[key]

    def display_map(self) -> dict[str, str]:
        return dict(self._nodes)

    def triples(self) -> list[tuple[str, str, str]]:
        """Edge triples in deterministic sorted order."""
        return sorted(self._edges)

    def has_edge(self, source_key: str, kind: str, target_key: str) -> bool:
        return (source_key, kind, target_key) in self._edges

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def self_loop_count(self) -> int:
        return sum(1 for s, _, t in self._edges if s == t)

    def degree(self, key: str) -> int:
        """Total in+out degree in the multigraph; a self-loop counts twice."""
        return sum((s == key) + (t == key) for s, _, t in self._edges)

    def max_degree(self) -> int:
        """Largest ``degree`` over all nodes, in one pass over the edges."""
        counts = Counter(v for s, _, t in self._edges for v in (s, t))
        return max(counts.values(), default=0)

    # -- views ----------------------------------------------------------

    def directed_simple_view(self) -> nx.DiGraph:
        """Directed view with parallel kinds collapsed (for PageRank-style scores)."""
        g = nx.DiGraph()
        g.add_nodes_from(sorted(self._nodes))
        g.add_edges_from((s, t) for s, _, t in self.triples())
        return g

    def undirected_view(self, *, self_loops: bool = True) -> nx.Graph:
        """Undirected simple view: direction dropped, parallel edges collapsed."""
        g = nx.Graph()
        g.add_nodes_from(sorted(self._nodes))
        for s, _, t in self.triples():
            if s == t and not self_loops:
                continue
            g.add_edge(s, t)
        return g


def merge_local(global_graph: KnowledgeGraph, local: KnowledgeGraph) -> MergeDelta:
    """Append a local graph to the global one; duplicates are ignored.

    Nodes merge on identity key, edges on the full (source, kind, target)
    triple. Returns counts of genuinely new nodes and edges.
    """
    delta = MergeDelta()
    before = global_graph.node_count
    for key, display in local._nodes.items():
        if key not in global_graph._nodes:
            global_graph._nodes[key] = display
    delta.added_nodes = global_graph.node_count - before
    for triple in local.triples():
        if triple not in global_graph._edges:
            global_graph._edges.add(triple)
            delta.added_edges += 1
    return delta


def largest_component(g: KnowledgeGraph) -> KnowledgeGraph:
    """Induced subgraph on the largest component, edges taken as undirected.

    Ties between equal-sized components go to the one containing the
    lexicographically smallest node key.
    """
    if g.node_count == 0:
        raise EmptyGraph("cannot take the largest component of an empty graph")
    # union-find over the triples: no graph view is built
    union_find = nx.utils.UnionFind(g._nodes)
    for s, _, t in g._edges:
        union_find.union(s, t)
    components = list(union_find.to_sets())
    max_size = max(len(c) for c in components)
    best = min((c for c in components if len(c) == max_size), key=min)
    sub = KnowledgeGraph()
    sub._nodes = {k: g._nodes[k] for k in sorted(best)}
    sub._edges = {(s, k, t) for s, k, t in g._edges if s in best and t in best}
    return sub


@dataclass(frozen=True)
class Snapshot:
    """One iteration's graph, read back from its file or live while it is written."""

    iteration: int
    graph: KnowledgeGraph
