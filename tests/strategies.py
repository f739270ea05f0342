"""Hypothesis strategies shared across the property suites."""

from __future__ import annotations

from hypothesis import strategies as st

from kgexpand.core import KnowledgeGraph, normalize_label

LABEL_ALPHABET = "abcdefg XYZ-"

labels = st.text(alphabet=LABEL_ALPHABET, min_size=1, max_size=12).filter(
    lambda s: s.strip()
)

# labels that need escaping in XML, plus non-ASCII written raw
XML_LABEL_ALPHABET = LABEL_ALPHABET + "&<>\"'éü"

xml_labels = st.text(alphabet=XML_LABEL_ALPHABET, min_size=1, max_size=12).filter(
    lambda s: s.strip()
)

relation_kinds = st.sampled_from(
    ["IS-A", "RELATES-TO", "INFLUENCES", "HAS", "SIMILAR-TO", "ENABLES"]
)


@st.composite
def knowledge_graphs(draw, max_edges: int = 12, unique_pairs: bool = False,
                     label_strategy=labels) -> KnowledgeGraph:
    """Small random KnowledgeGraphs; ``unique_pairs`` keeps one kind per pair."""
    g = KnowledgeGraph()
    seen_pairs = set()
    pool = st.tuples(label_strategy, relation_kinds, label_strategy)
    for src, kind, tgt in draw(st.lists(pool, max_size=max_edges)):
        if unique_pairs:
            pair = (normalize_label(src).key, normalize_label(tgt).key)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
        g.add_edge(src, kind, tgt)
    for extra in draw(st.lists(label_strategy, max_size=3)):
        g.add_node(extra)
    return g
