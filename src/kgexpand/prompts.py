"""Prompt templates used by the expansion loop and the path-reasoning agents."""

from __future__ import annotations

from .core import KnowledgeGraph

# the synthetic generator tells prompts apart by these phrases of the templates
FORMAT_REQUEST = "Output the graph as a Python dictionary"
QUESTION_REQUEST = "Reply only with the new question"

OPEN_ENDED_DEFAULT_PROMPT = "Discuss an interesting idea in bio-inspired materials science."

TOPIC_INITIAL_TEMPLATE = "Describe a way to design {topic}."

OPEN_ENDED_FOLLOWUP_TEMPLATE = """\
Consider this list of topics/keywords. Formulate a creative follow-up question to ask about a totally new concept.
Your question should include at least one of the original topics/keywords.
Original list of topics/keywords:
{entities}
Reply only with the new question. The new question is:"""

TOPIC_FOLLOWUP_TEMPLATE = """\
Consider this list of keywords. Considering the broad topic of {topic}, formulate a creative follow-up question to ask about a totally new aspect. Your question should include at least one of the original keywords.
Original list of keywords:
{entities}
Reply only with the new question. The new question is:"""

FORMAT_TEMPLATE = """\
You are an AI that extracts information from structured text and outputs a graph in Python dictionary format compatible with NetworkX.
Given the following structured text:
{raw_graph}
Output the graph as a Python dictionary without any additional text or explanations. Ensure the dictionary is properly formatted for immediate evaluation in Python."""

NODE_INSIGHT_TEMPLATE = "Analyze concept {concept} in a novel scientific context."

RELATION_INSIGHT_TEMPLATE = "Analyze relationship {relationship} and hypothesize new implications."

SYNTHESIS_TEMPLATE = "Synthesize a novel discovery from {insights}."

BUILDING_BLOCK_TEMPLATE = (
    "Provide a concise definition, principles, and a property conducive to synergy "
    "for the concept {concept}."
)

PAIR_SYNERGY_TEMPLATE = (
    "Create a pairwise synergy by merging the adjacent building blocks below into a "
    "short, compositional statement that unifies their respective features.\n"
    "{block_a}\n{block_b}"
)

BRIDGE_SYNERGY_TEMPLATE = (
    "Consolidate the following synergy statements into a single bridge synergy that "
    "captures their cross-cutting themes.\n{synergies}"
)

FINAL_DISCOVERY_TEMPLATE = (
    "Integrate all building blocks and synergies below into an expanded, coherent "
    "final discovery, referencing both the prior statements and each concept's "
    "defining traits.\n{materials}"
)


def render_triple(graph: KnowledgeGraph, triple: tuple[str, str, str]) -> str:
    src, kind, tgt = triple
    return f"{graph.display(src)} -- {kind} -- {graph.display(tgt)}"


def list_entities_and_relations(g: KnowledgeGraph) -> str:
    """Newline-joined node labels followed by edge triples of a local graph."""
    lines = [g.display(k) for k in sorted(g.node_keys)]
    lines.extend(render_triple(g, t) for t in g.triples())
    return "\n".join(lines)


def build_initial_prompt(cfg) -> str:
    """Initial question: verbatim prompt in open-ended mode, topic template otherwise."""
    if cfg.mode == "topic":
        return TOPIC_INITIAL_TEMPLATE.format(topic=cfg.topic)
    return cfg.prompt


def build_followup_prompt(recent: KnowledgeGraph, cfg) -> str:
    """Follow-up question prompt seeded with the latest extracted entities."""
    entities = list_entities_and_relations(recent)
    if cfg.mode == "topic":
        return TOPIC_FOLLOWUP_TEMPLATE.format(topic=cfg.topic, entities=entities)
    return OPEN_ENDED_FOLLOWUP_TEMPLATE.format(entities=entities)


def build_format_prompt(raw_graph: str) -> str:
    return FORMAT_TEMPLATE.format(raw_graph=raw_graph)
