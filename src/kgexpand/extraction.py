"""Parsing of raw generator output into local concept graphs.

The generator wraps its reasoning in <|thinking|> ... <|/thinking|> markers and,
when asked to reformat, replies with a Python-style adjacency map:

    {source: {target: {"relation": KIND}, ...}, ...}

Single or double quotes, trailing commas and surrounding prose are tolerated;
the first balanced top-level brace block wins. Replies are untrusted input:
one longer than ``MAX_REPLY_CHARS`` is rejected before it is read.

A reply is read in one linear pass when its map keeps to a small grammar:
maps at most three deep whose keys are quoted strings or ``None`` and whose
values are maps, quoted strings or ``None``, with blanks (space, tab, CR, LF)
between tokens and strings holding no backslash, line break, NUL or lone
surrogate. One ``re.findall`` from the first ``{`` gives the tokens, and the
nested dicts are built from them directly. Everything else (escapes, numbers,
``True``, lists, tuples, comments, string prefixes, adjacent strings, deeper
nesting, unbalanced braces) goes the general way: the quote-aware brace scan,
which rejects braces nested deeper than ``MAX_BRACE_DEPTH``, then
``ast.literal_eval`` of the block. Both ways give the same dicts, so a reply
gives the same graph and warnings, or the same exception type, either way.
"""

from __future__ import annotations

import ast
import enum
import re
import warnings
from dataclasses import dataclass, field
from itertools import islice

from .core import DEFAULT_RELATION, KnowledgeGraph, normalize_relation
from .errors import InvalidLabel, MalformedLiteral, NoGraphFound

THINK_OPEN = "<|thinking|>"
THINK_CLOSE = "<|/thinking|>"

# The adjacency map nests three deep ({source: {target: {"relation": ...}}}).
MAX_BRACE_DEPTH = 8
MAX_REPLY_CHARS = 1_000_000

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
    """Graph parsed from one iteration's output, with its warning count."""

    graph: KnowledgeGraph = field(default_factory=KnowledgeGraph)
    warnings: int = 0  # edges accepted with defaulted relation or dropped entries

    @property
    def is_empty(self) -> bool:
        return self.graph.node_count == 0


# what the brace scan stops at; every other character leaves its state alone
_BRACE_SCAN_STOPS = re.compile(r"""[{}'"\\]""")


def _find_brace_block(text: str) -> tuple[int, int]:
    """Locate the first balanced top-level {...} block, quote-aware; a block
    nested deeper than ``MAX_BRACE_DEPTH`` is malformed.

    Inside quotes a backslash escapes the next character; outside them it is
    plain text.
    """
    start = text.find("{")
    if start < 0:
        raise NoGraphFound("no opening brace in reply")
    depth = 0
    quote: str | None = None
    escaped_to = start  # a stop before this offset was escaped by a backslash
    for m in _BRACE_SCAN_STOPS.finditer(text, start):
        i = m.start()
        if i < escaped_to:
            continue
        ch = text[i]
        if quote is not None:
            if ch == "\\":
                escaped_to = i + 2
            elif ch == quote:
                quote = None
        elif ch == "{":
            depth += 1
            if depth > MAX_BRACE_DEPTH:
                raise MalformedLiteral(
                    f"braces nest deeper than {MAX_BRACE_DEPTH} in reply")
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return start, i + 1
        elif ch != "\\":
            quote = ch
    raise MalformedLiteral("unbalanced braces in reply")


def _coerce_label(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float, bool)):
        return str(value)
    raise InvalidLabel(f"cannot use {type(value).__name__} as a concept label")


# One token of the fast grammar after any blanks: a quoted string with no
# backslash, line break, NUL or surrogate, a punctuation mark, None, or, when
# none of these fits, the whole rest of the text. That last one may begin with
# a quote and be read as a string, but it comes last, so no map closes after it
# and the reply goes the general way. ``re`` compiles the pattern on first use
# and keeps it, so a process that parses no reply does not pay the compile
# (0.8 ms, mostly the surrogate ranges).
_TOKEN = (r"""[ \t\r\n]*('[^'\\\r\n\x00\ud800-\udfff]*'"""
          r"""|"[^"\\\r\n\x00\ud800-\udfff]*"|[{}:,]|None|[\s\S]+)""")
_FAST_DEPTH = 3                     # {source: {target: {"relation": KIND}}}
_KEY, _COLON, _VALUE, _NEXT = range(4)  # what the fast parser reads next


def _fast_literal(text: str) -> dict | None:
    """The map opening at the first ``{`` of ``text``, built from one token
    list; None when there is no ``{`` or the map leaves the fast grammar
    before its closing brace."""
    start = text.find("{")
    if start < 0:
        return None
    tokens = re.findall(_TOKEN, text[start:])
    outer: list[tuple[dict, object]] = []   # each enclosing map and its open key
    current: dict = {}
    key = None
    state = _KEY
    for tok in islice(tokens, 1, None):     # the first token is the opening brace
        c = tok[0]
        if state == _NEXT:
            if c == ",":
                state = _KEY
                continue
            if c != "}":
                return None
        elif state == _COLON:
            if c != ":":
                return None
            state = _VALUE
            continue
        elif state == _KEY:
            if c == "'" or c == '"':
                key, state = tok[1:-1], _COLON
                continue
            if tok == "None":
                key, state = None, _COLON
                continue
            if c != "}":
                return None
        else:
            if c == "'" or c == '"':
                current[key] = tok[1:-1]
            elif tok == "None":
                current[key] = None
            elif c == "{" and len(outer) < _FAST_DEPTH - 1:
                outer.append((current, key))
                current, state = {}, _KEY
                continue
            else:
                return None
            state = _NEXT
            continue
        # a closing brace
        if not outer:
            return current
        inner = current
        current, key = outer.pop()
        current[key] = inner
        state = _NEXT
    return None


def _literal(text: str) -> object:
    """The value of the first balanced brace block of ``text``."""
    obj = _fast_literal(text)
    if obj is not None:
        return obj
    start, end = _find_brace_block(text)
    try:
        with warnings.catch_warnings():
            # generator text is untrusted; bad escape sequences are its problem
            warnings.simplefilter("ignore")
            return ast.literal_eval(text[start:end])
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError) as exc:
        raise MalformedLiteral(f"brace block is not a Python literal: {exc}") from exc


def parse_graph_literal(text: str) -> LocalGraph:
    """Parse the first balanced adjacency-map literal in ``text``.

    Raises NoGraphFound when there is no brace block at all and
    MalformedLiteral when the block is not a readable map of maps, or when
    the reply is over ``MAX_REPLY_CHARS`` or nests braces deeper than
    ``MAX_BRACE_DEPTH``. Entries
    that are individually unusable (empty labels, non-map attributes) are
    dropped and counted as warnings; a missing relation tag defaults to
    RELATES-TO, also counted.
    """
    if len(text) > MAX_REPLY_CHARS:
        raise MalformedLiteral(
            f"reply has {len(text)} characters, over the cap of {MAX_REPLY_CHARS}")
    obj = _literal(text)
    if not isinstance(obj, dict):
        raise MalformedLiteral(f"top level is {type(obj).__name__}, expected dict")

    local = LocalGraph()
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
                # a rejected relation adds no target node, as in ``add_edge``
                kind = normalize_relation(kind)
                tgt_key = local.graph.add_node(tgt_label)
            except InvalidLabel:
                local.warnings += 1
                continue
            local.graph.add_keyed_edge(src_key, kind, tgt_key)
    return local


def serialize_graph_literal(graph: KnowledgeGraph) -> str:
    """Render a graph as the adjacency-map literal the parser accepts.

    The literal carries one relation per (source, target) pair; when several
    kinds exist the lexicographically smallest is kept. A node on no edge at
    all gets an empty entry; a target is a node by being one.
    """
    adj: dict[str, dict[str, str]] = {}
    targets = set()
    for src, kind, tgt in graph.triples():
        inner = adj.setdefault(graph.display(src), {})
        tgt_disp = graph.display(tgt)
        if tgt_disp not in inner or kind < inner[tgt_disp]:
            inner[tgt_disp] = kind
        targets.add(tgt)
    for key, display in graph.display_map().items():
        if key not in targets:
            adj.setdefault(display, {})
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


def extract_with_retry(session, raw_reasoning: str,
                       max_retries: int = 2) -> ExtractionOutcome:
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
            local = parse_graph_literal(reply)
            return ExtractionOutcome(local=local, retries_used=attempt)
        except (NoGraphFound, MalformedLiteral) as exc:
            last_error = str(exc)
    return ExtractionOutcome(
        local=LocalGraph(),
        retries_used=max_retries,
        skipped=True,
        last_error=last_error,
    )
