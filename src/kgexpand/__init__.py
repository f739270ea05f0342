"""Iterative knowledge-graph expansion with temporal network analytics."""

from .core import (
    ConceptLabel,
    KnowledgeGraph,
    MergeDelta,
    Snapshot,
    largest_component,
    merge_local,
    normalize_label,
)
from .extraction import (
    LocalGraph,
    extract_with_retry,
    isolate_reasoning,
    parse_graph_literal,
    serialize_graph_literal,
)
from .loop import IterationRecord, RunConfig, RunResult, run
from .sessions import (
    EchoSession,
    GeneratorSession,
    HTTPGeneratorSession,
    SyntheticGenerator,
)

__version__ = "0.1.0"

__all__ = [
    "ConceptLabel",
    "EchoSession",
    "GeneratorSession",
    "HTTPGeneratorSession",
    "IterationRecord",
    "KnowledgeGraph",
    "LocalGraph",
    "MergeDelta",
    "RunConfig",
    "RunResult",
    "Snapshot",
    "SyntheticGenerator",
    "extract_with_retry",
    "isolate_reasoning",
    "largest_component",
    "merge_local",
    "normalize_label",
    "parse_graph_literal",
    "run",
    "serialize_graph_literal",
]
