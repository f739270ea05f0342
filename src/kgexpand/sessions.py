"""Text-generator sessions: remote HTTP endpoint and deterministic synthetic double.

Every session is a plain string-in/string-out exchange from the loop's point
of view. The synthetic generator answers reasoning prompts with a
marker-wrapped block whose graph section grows by preferential attachment, so
desk-scale runs produce plausibly scale-free degree sequences without a live
model.
"""

from __future__ import annotations

import os
import random
import re
from typing import Protocol

from .errors import GeneratorError
from .extraction import THINK_CLOSE, THINK_OPEN

TOKEN_ENV_VAR = "KGEXPAND_API_TOKEN"
TRANSPORT_RETRIES = 1   # extra attempts after a failed request


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
    bare ``{"text": ...}`` reply or a completions-style ``{"choices": [...]}``.
    The auth token comes from the environment, never from config files.
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
        last_exc: Exception | None = None
        for _ in range(TRANSPORT_RETRIES + 1):
            try:
                resp = requests.post(self.endpoint, json=body,
                                     headers=headers, timeout=self.timeout)
                resp.raise_for_status()
                payload = resp.json()
                if "text" in payload:
                    return payload["text"]
                if "choices" in payload and payload["choices"]:
                    return payload["choices"][0]["text"]
                raise GeneratorError(f"unrecognized reply shape: {sorted(payload)}")
            except (requests.RequestException, ValueError, KeyError) as exc:
                last_exc = exc
        raise GeneratorError(f"endpoint {self.endpoint} failed: {last_exc}") from last_exc


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

    def __init__(self, seed: int, vocabulary_size: int = 20) -> None:
        if vocabulary_size < 10:
            raise ValueError("vocabulary_size must be at least 10")
        self.seed = seed
        self.vocabulary_size = vocabulary_size
        self._rng = random.Random(seed)
        self._concepts: list[str] = []
        self._attach: list[int] = []   # node indices repeated per degree unit
        self._pairs: set[tuple[int, int]] = set()
        self.calls = 0

    # -- concept bookkeeping -------------------------------------------

    def _mint_concept(self) -> int:
        i = len(self._concepts)
        base = min(self.vocabulary_size, len(_ADJECTIVES))
        adj = _ADJECTIVES[i % base]
        noun = _NOUNS[(i // base) % len(_NOUNS)]
        serial = i // (base * len(_NOUNS))
        name = f"{adj} {noun}" + (f" {serial + 1}" if serial else "")
        self._concepts.append(name)
        return i

    def _pick_existing(self) -> int:
        if not self._attach:
            return self._rng.randrange(len(self._concepts))
        return self._rng.choice(self._attach)

    def _emit(self, u: int, kind: str, v: int,
              out: list[tuple[str, str, str]]) -> None:
        if u != v and ((u, v) in self._pairs or (v, u) in self._pairs):
            return
        if u == v and (u, u) in self._pairs:
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
        if "Output the graph as a Python dictionary" in prompt:
            return self._format_reply(prompt)
        if "Reply only with the new question" in prompt:
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
        adj: dict[str, dict[str, str]] = {}
        for line in prompt.splitlines():
            m = _TRIPLE_LINE.match(line.strip())
            if not m:
                continue
            src, kind, tgt = m.group(1).strip(), m.group(2).strip(), m.group(3).strip()
            if src and tgt:
                adj.setdefault(src, {}).setdefault(tgt, kind)
        parts = []
        for src in adj:
            inner = ", ".join(f"'{t}': {{'relation': '{k}'}}" for t, k in adj[src].items())
            parts.append(f"'{src}': {{{inner}}}")
        return "{" + ", ".join(parts) + "}"

    def _question_reply(self) -> str:
        rng = self._rng
        a = self._concepts[self._pick_existing()] if self._concepts else "new materials"
        b = self._concepts[self._pick_existing()] if self._concepts else "design"
        verb = rng.choice(("shape", "constrain", "amplify", "stabilize"))
        return f"How could {a} {verb} the behavior of {b} in an unexplored setting?"
