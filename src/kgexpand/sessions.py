"""Text-generator sessions: remote HTTP endpoint and deterministic synthetic double.

Every session is a plain string-in/string-out exchange from the loop's point
of view. A run without an endpoint uses the synthetic generator, which answers
reasoning prompts with a marker-wrapped block whose graph section grows by
preferential attachment, so desk-scale runs produce plausibly scale-free
degree sequences without a live model. Its concept names come from a fixed
vocabulary of 20 adjectives and 20 nouns, numbered once every pair is used.
"""

from __future__ import annotations

import json
import os
import random
import re
from typing import Protocol

from .core import KnowledgeGraph
from .errors import GeneratorError
from .extraction import MAX_REPLY_CHARS, THINK_CLOSE, THINK_OPEN, serialize_graph_literal
from .prompts import FORMAT_REQUEST, QUESTION_REQUEST

TOKEN_ENV_VAR = "KGEXPAND_API_TOKEN"
TRANSPORT_RETRIES = 1   # extra attempts after a failed request
# The largest reply body read. JSON spells one character in at most 12 bytes
# (a surrogate pair of \u escapes), so a text at ``MAX_REPLY_CHARS`` always
# fits, with room left for the rest of the payload.
MAX_REPLY_BYTES = 16 * MAX_REPLY_CHARS
_CHUNK_BYTES = 1 << 16


class GeneratorSession(Protocol):
    def complete(self, prompt: str) -> str: ...


class EchoSession:
    """Returns the prompt itself; handy for template and count contracts."""

    def __init__(self) -> None:
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        return prompt


class HTTPGeneratorSession:
    """Single-turn completion client for a remote text endpoint.

    Sends ``{"model", "prompt", "max_tokens"}`` as JSON and accepts either a
    bare ``{"text": ...}`` reply or a completions-style ``{"choices": [...]}``
    whose text is a string; any other reply shape fails at once.
    The auth token comes from the environment, never from config files.
    Timeouts, connection errors and 5xx replies are retried
    ``TRANSPORT_RETRIES`` times; a 4xx reply fails at once, since the same
    request would be refused again. So does a body over ``MAX_REPLY_BYTES``,
    which is read no further, and a body that is not JSON.
    """

    def __init__(self, endpoint: str, model: str = "default",
                 max_tokens: int = 2048, timeout: float = 300.0,
                 temperature: float | None = None) -> None:
        self.endpoint = endpoint
        self.model = model
        self.max_tokens = max_tokens
        self.timeout = timeout
        self.temperature = temperature   # None defers to the endpoint default

    def complete(self, prompt: str) -> str:
        import requests  # only the HTTP generator needs it; loading the CLI must not

        body = {"model": self.model, "prompt": prompt, "max_tokens": self.max_tokens}
        if self.temperature is not None:
            body["temperature"] = self.temperature
        headers = {"Content-Type": "application/json"}
        if token := os.environ.get(TOKEN_ENV_VAR):
            headers["Authorization"] = f"Bearer {token}"
        for attempt in range(TRANSPORT_RETRIES + 1):
            try:
                with requests.post(self.endpoint, json=body, headers=headers,
                                   timeout=self.timeout, stream=True) as resp:
                    if 400 <= resp.status_code < 500:
                        raise GeneratorError(f"endpoint {self.endpoint} refused the "
                                             f"request: HTTP {resp.status_code}")
                    resp.raise_for_status()
                    reply = _read_capped(resp)
                break
            except requests.RequestException as exc:
                if attempt == TRANSPORT_RETRIES:
                    raise GeneratorError(f"endpoint {self.endpoint} failed: {exc}") from exc
        try:
            payload = json.loads(reply)
        except RecursionError:              # the decoder's stack, not the transport
            raise GeneratorError("reply JSON nests too deeply") from None
        except ValueError as exc:           # invalid JSON, or bytes that are not UTF-8
            raise GeneratorError(f"reply is not JSON: {exc}") from None
        return _reply_text(payload)


def _read_capped(resp) -> bytearray:
    """The body of a streamed response; over ``MAX_REPLY_BYTES`` it is an error."""
    body = bytearray()
    for chunk in resp.iter_content(chunk_size=_CHUNK_BYTES):
        body += chunk
        if len(body) > MAX_REPLY_BYTES:
            raise GeneratorError(f"reply body is over the cap of {MAX_REPLY_BYTES} bytes")
    return body


def _reply_text(payload: object) -> str:
    """The text of a decoded reply, ``{"text": str}`` or ``{"choices": [{"text":
    str}, ...]}``; any other shape, a non-string text included, is an error."""
    text = None
    if isinstance(payload, dict):
        text = payload.get("text")
        choices = payload.get("choices")
        if "text" not in payload and isinstance(choices, list) and choices:
            text = choices[0].get("text") if isinstance(choices[0], dict) else None
    if not isinstance(text, str):
        raise GeneratorError(f"unrecognized reply shape: {_shape(payload)}")
    return text


def _shape(value: object, depth: int = 3) -> str:
    """A JSON value's keys and types, ``depth`` levels down, for error messages."""
    if depth and isinstance(value, dict):
        return "{" + ", ".join(f"{k!r}: {_shape(v, depth - 1)}"
                               for k, v in sorted(value.items())) + "}"
    if depth and isinstance(value, list):
        return f"[{_shape(value[0], depth - 1)}, ...]" if value else "[]"
    return "null" if value is None else type(value).__name__


_ADJECTIVES = (
    "Adaptive", "Hierarchical", "Self-Healing", "Bio-Inspired", "Resilient",
    "Porous", "Layered", "Programmable", "Sustainable", "Impact-Resistant",
    "Gradient", "Recyclable", "Stimuli-Responsive", "Lightweight", "Hybrid",
    "Mineralized", "Fibrous", "Anisotropic", "Multifunctional", "Tough",
)

_NOUNS = (
    "Composites", "Interfaces", "Microstructures", "Networks", "Coatings",
    "Hydrogels", "Lattices", "Membranes", "Scaffolds", "Ceramics",
    "Polymers", "Architectures", "Fibers", "Metamaterials", "Gradients",
    "Nanostructures", "Alloys", "Laminates", "Foams", "Barriers",
)

_RELATIONS = ("RELATES-TO", "RELATES-TO", "RELATES-TO", "IS-A", "INFLUENCES",
              "HAS", "SIMILAR-TO", "ENABLES")

_TRIPLE_LINE = re.compile(r"^(.*?)\s+--\s+([A-Z][A-Z -]*?)\s+-->\s+(.*?)$")


class SyntheticGenerator:
    """Deterministic stand-in for a graph-reasoning model.

    Reasoning prompts grow an internal concept graph: each call mints a few
    new concepts that attach to existing ones proportionally to degree, plus
    occasional existing-existing and self-loop edges. Formatting prompts are
    answered by re-emitting the quoted triples as an adjacency-map literal;
    follow-up prompts get a fresh question. Fully reproducible from the seed.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._concepts: list[str] = []
        self._attach: list[int] = []   # node indices repeated per degree unit
        self._pairs: set[tuple[int, int]] = set()
        self.calls = 0

    # -- concept bookkeeping -------------------------------------------

    def _mint_concept(self) -> int:
        i = len(self._concepts)
        adj = _ADJECTIVES[i % len(_ADJECTIVES)]
        noun = _NOUNS[(i // len(_ADJECTIVES)) % len(_NOUNS)]
        serial = i // (len(_ADJECTIVES) * len(_NOUNS))
        name = f"{adj} {noun}" + (f" {serial + 1}" if serial else "")
        self._concepts.append(name)
        return i

    def _pick_existing(self) -> int:
        # the first ``_grow``, which mints the first concepts, emits two triples
        return self._rng.choice(self._attach)

    def _emit(self, u: int, kind: str, v: int,
              out: list[tuple[str, str, str]]) -> None:
        if (u, v) in self._pairs or (v, u) in self._pairs:
            return
        self._pairs.add((u, v))
        self._attach.extend((u, v))
        out.append((self._concepts[u], kind, self._concepts[v]))

    def _grow(self) -> list[tuple[str, str, str]]:
        """Advance the internal graph one step; returns new triples."""
        rng = self._rng
        out: list[tuple[str, str, str]] = []
        if not self._concepts:
            a, b, c = self._mint_concept(), self._mint_concept(), self._mint_concept()
            self._emit(a, rng.choice(_RELATIONS), b, out)
            self._emit(b, rng.choice(_RELATIONS), c, out)
        for _ in range(rng.randint(2, 3)):
            new = self._mint_concept()
            for _ in range(rng.randint(2, 3)):
                anchor = self._pick_existing()
                if anchor == new:
                    continue
                if rng.random() < 0.8:
                    self._emit(new, rng.choice(_RELATIONS), anchor, out)
                else:
                    self._emit(anchor, rng.choice(_RELATIONS), new, out)
        if rng.random() < 0.35 and len(self._attach) >= 2:
            u, v = self._pick_existing(), self._pick_existing()
            if u != v:
                self._emit(u, rng.choice(_RELATIONS), v, out)
        if rng.random() < 0.03:
            u = self._pick_existing()
            self._emit(u, "RELATES-TO", u, out)
        return out

    # -- prompt handling -------------------------------------------------

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if FORMAT_REQUEST in prompt:
            return self._format_reply(prompt)
        if QUESTION_REQUEST in prompt:
            return self._question_reply()
        return self._reasoning_reply()

    def _reasoning_reply(self) -> str:
        triples = self._grow()
        lines = "\n".join(f"{s} -- {k} --> {t}" for s, k, t in triples)
        lead = triples[0][0] if triples else self._concepts[0]
        return (
            f"{THINK_OPEN}\n"
            "The question points to several interlocking concepts worth mapping.\n\n"
            "graph:\n"
            f"{lines}\n"
            f"{THINK_CLOSE}\n"
            f"In short, {lead} anchors the emerging picture."
        )

    def _format_reply(self, prompt: str) -> str:
        g = KnowledgeGraph()
        for line in prompt.splitlines():
            m = _TRIPLE_LINE.match(line.strip())
            if m:
                g.add_edge(*m.groups())
        return serialize_graph_literal(g)

    def _question_reply(self) -> str:
        rng = self._rng
        a = self._concepts[self._pick_existing()] if self._concepts else "new materials"
        b = self._concepts[self._pick_existing()] if self._concepts else "design"
        verb = rng.choice(("shape", "constrain", "amplify", "stabilize"))
        return f"How could {a} {verb} the behavior of {b} in an unexplored setting?"
