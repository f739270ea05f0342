"""The iterative expansion loop: question, reasoning, extraction, merge, snapshot.

Each iteration asks the generator a question, isolates the reasoning block,
reformats its graph section into a parseable literal, merges the parsed local
graph into the global one, writes a GraphML snapshot, and asks the generator
for a follow-up question built from the latest extracted entities. Skipped
iterations (parse exhaustion, or a reasoning reply over ``MAX_REPLY_CHARS``,
which is never sent back) still write an unchanged snapshot so the series
stays index-dense.
"""

from __future__ import annotations

import logging
import time
import traceback
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

from .core import KnowledgeGraph, MergeDelta, Snapshot, merge_local
from .errors import ConfigError
from .extraction import (
    MAX_REPLY_CHARS,
    ExtractionOutcome,
    IsolationStatus,
    LocalGraph,
    extract_with_retry,
    isolate_reasoning,
    locate_graph_section,
)
from .graphml_io import (MANIFEST_FILENAME, SNAPSHOT_STEM, SnapshotStore, remove_numbered,
                         write_csv, write_json)
from .prompts import OPEN_ENDED_DEFAULT_PROMPT, build_followup_prompt, build_initial_prompt
from .sessions import (
    MIN_VOCABULARY_SIZE,
    GeneratorSession,
    HTTPGeneratorSession,
    SyntheticGenerator,
)

log = logging.getLogger(__name__)

RECORDS_FILENAME = "run_records.csv"


# the values each ``RunConfig`` field annotation admits; only a bool field a bool
_FIELD_KINDS = {"str": str, "int": int, "bool": bool, "float": (int, float),
                "float | None": (int, float, type(None))}


@dataclass
class RunConfig:
    mode: str = "open-ended"            # "open-ended" | "topic"
    prompt: str = OPEN_ENDED_DEFAULT_PROMPT
    topic: str = ""
    iterations: int = 10
    seed: int = 0
    vocabulary_size: int = 20
    snapshot_dir: str = "snapshots"
    max_retries: int = 2
    synthetic: bool = True
    endpoint: str = ""
    model: str = "default"
    max_tokens: int = 2048
    timeout: float = 300.0
    temperature: float | None = None

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) != (f.type == "bool")
                    or not isinstance(value, _FIELD_KINDS[f.type])):
                raise ConfigError(f"{f.name} must be of type {f.type}, "
                                  f"got {type(value).__name__} {value!r}")
        if self.mode not in ("open-ended", "topic"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be at least 0, got {self.max_retries}")
        if self.synthetic and self.vocabulary_size < MIN_VOCABULARY_SIZE:
            raise ConfigError("the synthetic generator's vocabulary_size must be at "
                              f"least {MIN_VOCABULARY_SIZE}, got {self.vocabulary_size}")
        if self.mode == "topic" and not self.topic.strip():
            raise ConfigError("topic mode needs a non-empty topic")
        if not self.synthetic and not self.endpoint:
            raise ConfigError("non-synthetic runs need an endpoint URL")

    def build_session(self) -> GeneratorSession:
        if self.synthetic:
            return SyntheticGenerator(seed=self.seed,
                                      vocabulary_size=self.vocabulary_size)
        return HTTPGeneratorSession(endpoint=self.endpoint, model=self.model,
                                    max_tokens=self.max_tokens, timeout=self.timeout,
                                    temperature=self.temperature)


@dataclass
class IterationRecord:
    iteration: int
    question: str
    reasoning_length: int
    added_nodes: int
    added_edges: int
    retries: int
    skipped: bool


@dataclass
class RunResult:
    graph: KnowledgeGraph               # the final global graph
    records: list[IterationRecord]
    snapshot_dir: Path


def _write_records(path: Path, records: list[IterationRecord]) -> None:
    # one column per field, in field order
    write_csv(path, [f.name for f in fields(IterationRecord)], map(astuple, records))


def _write_manifest(path: Path, cfg: RunConfig, records: list[IterationRecord],
                    started: float, aborted: str = "") -> None:
    write_json(path, {
        "config": asdict(cfg),
        "seeds": {"loop": cfg.seed},
        "iterations_completed": len(records),
        "skip_events": [r.iteration for r in records if r.skipped],
        "started_unix": started,
        "elapsed_seconds": time.time() - started,
        "aborted": aborted,
    })


def run(cfg: RunConfig, gen: GeneratorSession | None = None) -> RunResult:
    """Execute exactly ``cfg.iterations`` expansion iterations.

    Deterministic for the synthetic generator with a fixed seed. Each iteration
    writes the live graph as its snapshot. When any exception stops the loop
    (a generator failure, a full disk, an interrupt), the completed iterations'
    snapshots stay on disk and the one being written is absent, never
    truncated; ``run_records.csv`` and the run manifest are written for the
    completed iterations with the exception in ``aborted``, and it propagates.
    First a manifest of no completed iterations replaces an earlier run's, so a
    run killed outright reads as empty; then an earlier, longer run's snapshots
    past ``cfg.iterations`` are removed.
    """
    cfg.validate()
    if gen is None:
        gen = cfg.build_session()
    store = SnapshotStore(cfg.snapshot_dir)
    store.directory.mkdir(parents=True, exist_ok=True)
    started = time.time()
    _write_manifest(store.directory / MANIFEST_FILENAME, cfg, [], started)
    remove_numbered(store.directory, SNAPSHOT_STEM, cfg.iterations)
    global_graph = KnowledgeGraph()
    records: list[IterationRecord] = []
    question = build_initial_prompt(cfg)
    try:
        for i in range(cfg.iterations):
            response = gen.complete(question)
            block, status = isolate_reasoning(response)
            if status is not IsolationStatus.WELL_FORMED:
                log.debug("iteration %d: degraded reasoning isolation (%s)",
                          i, status.value)
            if len(response) > MAX_REPLY_CHARS:
                outcome = ExtractionOutcome(LocalGraph(), skipped=True, last_error=(
                    f"reasoning reply has {len(response)} characters, over the "
                    f"cap of {MAX_REPLY_CHARS}"))
            else:
                outcome = extract_with_retry(gen, locate_graph_section(block),
                                             cfg.max_retries)
            delta: MergeDelta = merge_local(global_graph, outcome.local.graph)
            store.write(Snapshot(i, global_graph))
            followup = build_followup_prompt(outcome.local.graph, cfg)
            next_question = gen.complete(followup).strip()
            records.append(IterationRecord(
                iteration=i,
                question=question,
                reasoning_length=len(block),
                added_nodes=delta.added_nodes,
                added_edges=delta.added_edges,
                retries=outcome.retries_used,
                skipped=outcome.skipped,
            ))
            if outcome.skipped:
                log.info("iteration %d skipped after %d retries: %s",
                         i, outcome.retries_used, outcome.last_error)
            question = next_question
    except BaseException as exc:
        # the completed iterations' records, whatever stopped the loop; a
        # failure to write them is logged and does not replace ``exc``
        aborted = "".join(traceback.format_exception_only(exc)).strip()
        try:
            _write_records(store.directory / RECORDS_FILENAME, records)
            _write_manifest(store.directory / MANIFEST_FILENAME, cfg, records,
                            started, aborted=aborted)
        except Exception:
            log.exception("could not write the records of the aborted run")
        raise
    _write_records(store.directory / RECORDS_FILENAME, records)
    _write_manifest(store.directory / MANIFEST_FILENAME, cfg, records, started)
    return RunResult(graph=global_graph, records=records, snapshot_dir=store.directory)
