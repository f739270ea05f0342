"""The iterative expansion loop: question, reasoning, extraction, merge, snapshot.

Each iteration asks the generator a question, isolates the reasoning block,
reformats its graph section into a parseable literal, merges the parsed local
graph into the global one, writes a GraphML snapshot, and asks the generator
for a follow-up question built from the latest extracted entities. Skipped
iterations (parse exhaustion) still write an unchanged snapshot so the series
stays index-dense.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .core import KnowledgeGraph, MergeDelta, Snapshot, merge_local
from .errors import ConfigError, GeneratorError
from .extraction import (
    IsolationStatus,
    extract_with_retry,
    isolate_reasoning,
    locate_graph_section,
)
from .graphml_io import SnapshotStore
from .prompts import OPEN_ENDED_DEFAULT_PROMPT, build_followup_prompt, build_initial_prompt
from .sessions import GeneratorSession, HTTPGeneratorSession, SyntheticGenerator

log = logging.getLogger(__name__)

RECORDS_FILENAME = "run_records.csv"
MANIFEST_FILENAME = "manifest.json"


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
        if self.mode not in ("open-ended", "topic"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "question", "reasoning_length",
                         "added_nodes", "added_edges", "retries", "skipped"])
        for r in records:
            writer.writerow([r.iteration, r.question, r.reasoning_length,
                             r.added_nodes, r.added_edges, r.retries, int(r.skipped)])


def _write_manifest(path: Path, cfg: RunConfig, records: list[IterationRecord],
                    started: float, aborted: str = "") -> None:
    manifest = {
        "config": asdict(cfg),
        "seeds": {"loop": cfg.seed},
        "iterations_completed": len(records),
        "skip_events": [r.iteration for r in records if r.skipped],
        "started_unix": started,
        "elapsed_seconds": time.time() - started,
        "aborted": aborted,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run(cfg: RunConfig, gen: GeneratorSession | None = None) -> RunResult:
    """Execute exactly ``cfg.iterations`` expansion iterations.

    Deterministic for the synthetic generator with a fixed seed. Each iteration
    writes the live graph as its snapshot; on an unrecoverable generator
    failure the partial series stays on disk and the error propagates.
    """
    cfg.validate()
    if gen is None:
        gen = cfg.build_session()
    store = SnapshotStore(cfg.snapshot_dir)
    store.directory.mkdir(parents=True, exist_ok=True)
    started = time.time()
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
            raw_graph = locate_graph_section(block)
            outcome = extract_with_retry(gen, raw_graph, cfg.max_retries, iteration=i)
            delta: MergeDelta = merge_local(global_graph, outcome.local.graph)
            store.write(Snapshot(i, global_graph))
            followup = build_followup_prompt(outcome.local, cfg)
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
    except GeneratorError as exc:
        _write_records(store.directory / RECORDS_FILENAME, records)
        _write_manifest(store.directory / MANIFEST_FILENAME, cfg, records,
                        started, aborted=str(exc))
        raise
    _write_records(store.directory / RECORDS_FILENAME, records)
    _write_manifest(store.directory / MANIFEST_FILENAME, cfg, records, started)
    return RunResult(graph=global_graph, records=records, snapshot_dir=store.directory)
