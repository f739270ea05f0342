"""Parsing of raw generator output into local concept graphs.

The generator wraps its reasoning in <|thinking|> ... <|/thinking|> markers and,
when asked to reformat, replies with a Python-style adjacency map:

    {source: {target: {"relation": KIND}, ...}, ...}

Single or double quotes, trailing commas and surrounding prose are tolerated;
the first balanced top-level brace block wins.
"""

from __future__ import annotations

import ast
import enum
import re
import warnings
from dataclasses import dataclass, field

from .core import DEFAULT_RELATION, KnowledgeGraph, normalize_relation
from .errors import InvalidLabel, MalformedLiteral, NoGraphFound

THINK_OPEN = "<|thinking|>"
THINK_CLOSE = "<|/thinking|>"

_GRAPH_HEADER = re.compile(r"^\s*graph\s*:?\s*$", re.IGNORECASE | re.MULTILINE)


class IsolationStatus(enum.Enum):
    WELL_FORMED = "well-formed"
    NO_MARKERS = "no-markers"       # degraded: whole text used
    UNTERMINATED = "unterminated"   # degraded: opener without closer


def isolate_reasoning(text: str) -> tuple[str, IsolationStatus]:
    """Return the substring between the first opening and first closing marker.

    Missing markers degrade gracefully: no opener returns the whole text, an
    unterminated opener returns everything after it.
    """
    start = text.find(THINK_OPEN)
    if start < 0:
        return text, IsolationStatus.NO_MARKERS
    start += len(THINK_OPEN)
    end = text.find(THINK_CLOSE, start)
    if end < 0:
        return text[start:], IsolationStatus.UNTERMINATED
    return text[start:end], IsolationStatus.WELL_FORMED


def locate_graph_section(block: str) -> str:
    """Return the text following a line labeled "graph"; the whole block if absent."""
    m = _GRAPH_HEADER.search(block)
    if m is None:
        return block
    return block[m.end():]


@dataclass
class LocalGraph:
    """Graph parsed from one iteration's output, with provenance."""

    graph: KnowledgeGraph = field(default_factory=KnowledgeGraph)
    iteration: int = -1
    warnings: int = 0  # edges accepted with defaulted relation or dropped entries

    @property
    def is_empty(self) -> bool:
        return self.graph.node_count == 0


def _find_brace_block(text: str) -> tuple[int, int]:
    """Locate the first balanced top-level {...} block, quote-aware."""
    start = text.find("{")
    if start < 0:
        raise NoGraphFound("no opening brace in reply")
    depth = 0
    quote: str | None = None
    i = start
    while i < len(text):
        ch = text[i]
        if quote is not None:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return start, i + 1
        i += 1
    raise MalformedLiteral("unbalanced braces in reply")


def _coerce_label(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float, bool)):
        return str(value)
    raise InvalidLabel(f"cannot use {type(value).__name__} as a concept label")


def parse_graph_literal(text: str, iteration: int = -1) -> LocalGraph:
    """Parse the first balanced adjacency-map literal in ``text``.

    Raises NoGraphFound when there is no brace block at all and
    MalformedLiteral when the block is not a readable map of maps. Entries
    that are individually unusable (empty labels, non-map attributes) are
    dropped and counted as warnings; a missing relation tag defaults to
    RELATES-TO, also counted.
    """
    start, end = _find_brace_block(text)
    try:
        with warnings.catch_warnings():
            # generator text is untrusted; bad escape sequences are its problem
            warnings.simplefilter("ignore")
            obj = ast.literal_eval(text[start:end])
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError) as exc:
        raise MalformedLiteral(f"brace block is not a Python literal: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLiteral(f"top level is {type(obj).__name__}, expected dict")

    local = LocalGraph(iteration=iteration)
    for raw_src, targets in obj.items():
        try:
            src_label = _coerce_label(raw_src)
            src_key = local.graph.add_node(src_label)
        except InvalidLabel:
            local.warnings += 1
            continue
        if targets is None:
            continue
        if not isinstance(targets, dict):
            local.warnings += 1
            continue
        for raw_tgt, attrs in targets.items():
            try:
                tgt_label = _coerce_label(raw_tgt)
            except InvalidLabel:
                local.warnings += 1
                continue
            kind = None
            if isinstance(attrs, dict):
                kind = attrs.get("relation")
            elif attrs is not None:
                local.warnings += 1
                continue
            if not isinstance(kind, str) or not kind.strip():
                kind = DEFAULT_RELATION
                local.warnings += 1
            try:
                local.graph.add_edge(
                    local.graph.display(src_key), normalize_relation(kind), tgt_label
                )
            except InvalidLabel:
                local.warnings += 1
    return local


def serialize_graph_literal(graph: KnowledgeGraph) -> str:
    """Render a graph as the adjacency-map literal the parser accepts.

    The literal carries one relation per (source, target) pair; when several
    kinds exist the lexicographically smallest is kept.
    """
    adj: dict[str, dict[str, str]] = {}
    for src, kind, tgt in graph.triples():
        inner = adj.setdefault(graph.display(src), {})
        tgt_disp = graph.display(tgt)
        if tgt_disp not in inner or kind < inner[tgt_disp]:
            inner[tgt_disp] = kind
    for key in graph.display_map().values():
        adj.setdefault(key, {})
    parts = []
    for src in sorted(adj):
        inner = ", ".join(
            f"{tgt!r}: {{'relation': {kind!r}}}" for tgt, kind in sorted(adj[src].items())
        )
        parts.append(f"{src!r}: {{{inner}}}")
    return "{" + ", ".join(parts) + "}"


@dataclass
class ExtractionOutcome:
    local: LocalGraph
    retries_used: int = 0
    skipped: bool = False
    last_error: str = ""


def extract_with_retry(session, raw_reasoning: str, max_retries: int = 2,
                       iteration: int = -1) -> ExtractionOutcome:
    """Ask the generator to format ``raw_reasoning`` as a literal and parse it.

    Parse failures retry up to ``max_retries`` times with the error appended
    to the prompt; exhaustion yields an empty LocalGraph flagged as skipped.
    Transport failures propagate.
    """
    from .prompts import build_format_prompt  # local import to avoid a cycle

    prompt = build_format_prompt(raw_reasoning)
    last_error = ""
    for attempt in range(max_retries + 1):
        ask = prompt
        if last_error:
            ask = (
                f"{prompt}\n"
                f"Your previous reply could not be parsed ({last_error}). "
                "Output only the dictionary."
            )
        reply = session.complete(ask)
        try:
            local = parse_graph_literal(reply, iteration=iteration)
            return ExtractionOutcome(local=local, retries_used=attempt)
        except (NoGraphFound, MalformedLiteral) as exc:
            last_error = str(exc)
    return ExtractionOutcome(
        local=LocalGraph(iteration=iteration),
        retries_used=max_retries,
        skipped=True,
        last_error=last_error,
    )
