"""Global knowledge-graph data model: labels, merging, views, components.

The global graph is a directed multigraph on relation kinds: the triple
(source, kind, target) is the unit of identity, so IS-A and RELATES-TO edges
between the same pair of concepts coexist. Node identity is the case-folded,
whitespace-collapsed form of the label; the first display spelling seen wins.
A graph only grows, and it is its own growth log: nodes and triples are kept
in the order they were first added, and ``added_since`` reads the log's tail.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import TYPE_CHECKING

from .errors import EmptyGraph, InvalidLabel

if TYPE_CHECKING:
    import networkx as nx

_WS_RUN = re.compile(r"\s+")
# characters outside XML 1.0's Char production: a snapshot holding one is unreadable
_NON_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

DEFAULT_RELATION = "RELATES-TO"


@dataclass(frozen=True)
class ConceptLabel:
    """A normalized concept label: display form plus case-folded identity key."""

    display: str
    key: str


def _label(raw) -> ConceptLabel:
    display = _WS_RUN.sub(" ", str(raw)).strip()
    if not display:
        raise InvalidLabel(f"label is empty after normalization: {raw!r}")
    if _NON_XML_CHAR.search(display):
        raise InvalidLabel(f"label has a character XML cannot hold: {raw!r}")
    return ConceptLabel(display=display, key=display.casefold())


def _relation(raw) -> str:
    kind = _WS_RUN.sub(" ", str(raw)).strip().upper()
    if not kind:
        raise InvalidLabel(f"relation kind is empty: {raw!r}")
    if _NON_XML_CHAR.search(kind):
        raise InvalidLabel(f"relation kind has a character XML cannot hold: {raw!r}")
    return kind


# Parsing, the synthetic generator and read_graphml meet the same few thousand
# raw labels over and over, so each normalizer keeps a bounded cache. Only a
# plain str of at most LABEL_CACHE_CHARS characters is cached: that keeps 1,
# True and "1" apart, lets any other input (unhashable ones too) through
# uncached, and bounds the cache's memory. A call that raises is not cached.
LABEL_CACHE_SIZE = 1 << 13
LABEL_CACHE_CHARS = 256
_cached_label = lru_cache(maxsize=LABEL_CACHE_SIZE)(_label)
_cached_relation = lru_cache(maxsize=LABEL_CACHE_SIZE)(_relation)


def normalize_label(raw: str) -> ConceptLabel:
    """Trim and collapse whitespace; case preserved for display, folded for identity.

    Raises InvalidLabel when nothing is left after trimming, or when a
    character is left that XML cannot hold (a control character, a lone
    surrogate, U+FFFE or U+FFFF).
    """
    if type(raw) is str and len(raw) <= LABEL_CACHE_CHARS:
        return _cached_label(raw)
    return _label(raw)


def normalize_relation(raw: str) -> str:
    """Uppercase a relation tag, collapsing internal whitespace; hyphens survive."""
    if type(raw) is str and len(raw) <= LABEL_CACHE_CHARS:
        return _cached_relation(raw)
    return _relation(raw)


@dataclass
class MergeDelta:
    added_nodes: int = 0
    added_edges: int = 0


class KnowledgeGraph:
    """Directed labeled multigraph of concepts; the evolving global graph."""

    def __init__(self) -> None:
        # identity key -> first-seen display label, in the order first added
        self._nodes: dict[str, str] = {}
        # (source key, KIND, target key) -> None, in the order first added
        self._edges: dict[tuple[str, str, str], None] = {}

    # -- construction -------------------------------------------------

    def add_node(self, raw: str) -> str:
        label = normalize_label(raw)
        if label.key not in self._nodes:
            self._nodes[label.key] = label.display
        return label.key

    def add_edge(self, source: str, kind: str, target: str) -> bool:
        """Insert a triple; returns True when it was genuinely new."""
        kind = normalize_relation(kind)  # a rejected relation adds no node
        return self.add_keyed_edge(self.add_node(source), kind, self.add_node(target))

    def add_keyed_edge(self, src: str, kind: str, tgt: str) -> bool:
        """Insert a triple from parts already normalized: the identity keys
        of two nodes present and a normalized relation. Returns True when it
        was genuinely new."""
        triple = (src, kind, tgt)
        if triple in self._edges:
            return False
        self._edges[triple] = None
        return True

    def copy(self) -> "KnowledgeGraph":
        dup = KnowledgeGraph()
        dup._nodes = dict(self._nodes)
        dup._edges = dict(self._edges)
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

    def added_since(self, nodes: int, edges: int) -> tuple[list, list]:
        """The node keys and triples added after the first ``nodes`` keys and
        ``edges`` triples, each in the order they were added."""
        return (list(islice(self._nodes, nodes, None)),
                list(islice(self._edges, edges, None)))

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def self_loop_count(self) -> int:
        return sum(1 for s, _, t in self._edges if s == t)

    def max_degree(self) -> int:
        """Largest in+out multigraph degree (a self-loop counts twice), in one pass."""
        counts = Counter(v for s, _, t in self._edges for v in (s, t))
        return max(counts.values(), default=0)

    # -- views ----------------------------------------------------------

    def undirected_view(self, *, self_loops: bool = True) -> nx.Graph:
        """Undirected simple view: direction dropped, parallel edges collapsed.

        No stage calls it: the analysis reads ``sweep.snapshot_index``. It
        gives a networkx graph for work outside the pipeline, the tests'
        oracles among it, so it imports networkx on call.
        """
        import networkx as nx

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
    triple; the new ones are appended in the local graph's order. Returns
    counts of genuinely new nodes and edges.
    """
    nodes, edges = global_graph.node_count, global_graph.edge_count
    for key, display in local._nodes.items():
        global_graph._nodes.setdefault(key, display)
    global_graph._edges.update(local._edges)
    return MergeDelta(global_graph.node_count - nodes, global_graph.edge_count - edges)


def largest_component(g: KnowledgeGraph) -> KnowledgeGraph:
    """Induced subgraph on the largest component, edges taken as undirected.

    Ties between equal-sized components go to the one containing the
    lexicographically smallest node key: ``sweep.snapshot_index(g).lcc``.
    """
    if g.node_count == 0:
        raise EmptyGraph("cannot take the largest component of an empty graph")
    from .sweep import snapshot_index  # on call: loading core loads no numpy

    index = snapshot_index(g)
    best = {index.nodes[i] for i in index.lcc.tolist()}
    sub = KnowledgeGraph()
    sub._nodes = {k: g._nodes[k] for k in sorted(best)}
    sub._edges = {(s, k, t): None for s, k, t in g._edges if s in best and t in best}
    return sub


@dataclass(frozen=True)
class Snapshot:
    """One iteration's graph, read back from its file or live while it is written."""

    iteration: int
    graph: KnowledgeGraph
