import http.server
import json
import threading

import pytest

from kgexpand.core import KnowledgeGraph
from kgexpand.errors import ConfigError, GeneratorError
from kgexpand.extraction import THINK_CLOSE, THINK_OPEN
from kgexpand.graphml_io import SnapshotStore
from kgexpand.loop import RECORDS_FILENAME, RunConfig, run
from kgexpand.prompts import build_followup_prompt, build_initial_prompt
from kgexpand.sessions import HTTPGeneratorSession, SyntheticGenerator
from kgexpand.extraction import parse_graph_literal


# ---------------------------------------------------------------------------
# prompt construction


def test_topic_initial_prompt():
    cfg = RunConfig(mode="topic", topic="impact resistant materials")
    assert build_initial_prompt(cfg) == (
        "Describe a way to design impact resistant materials.")


def test_open_ended_default_prompt():
    cfg = RunConfig()
    assert build_initial_prompt(cfg) == (
        "Discuss an interesting idea in bio-inspired materials science.")


def test_empty_topic_fails_validation():
    with pytest.raises(ConfigError):
        RunConfig(mode="topic", topic="  ").validate()


def test_followup_prompt_lists_entities_and_relations():
    local = parse_graph_literal("{'A': {'B': {'relation': 'HAS'}}}")
    prompt = build_followup_prompt(local, RunConfig())
    assert "A\nB\nA -- HAS -- B" in prompt
    assert "totally new concept" in prompt


def test_followup_prompt_with_empty_local_graph():
    local = parse_graph_literal("{}")
    prompt = build_followup_prompt(local, RunConfig())
    assert "Original list of topics/keywords:\n\n" in prompt


def test_topic_followup_mentions_broad_topic():
    local = parse_graph_literal("{}")
    cfg = RunConfig(mode="topic", topic="impact resistant materials")
    prompt = build_followup_prompt(local, cfg)
    assert "Considering the broad topic of impact resistant materials" in prompt
    assert "totally new aspect" in prompt


# ---------------------------------------------------------------------------
# synthetic generator


def test_first_reasoning_reply_is_well_formed():
    gen = SyntheticGenerator(seed=1)
    reply = gen.complete("Discuss an interesting idea in bio-inspired materials science.")
    assert reply.startswith(THINK_OPEN.rstrip())
    assert THINK_CLOSE in reply
    assert " --> " in reply


def test_same_seed_gives_identical_transcript():
    def transcript(seed):
        gen = SyntheticGenerator(seed=seed)
        out = []
        for _ in range(5):
            r = gen.complete("question?")
            out.append(r)
            out.append(gen.complete(
                "Output the graph as a Python dictionary\n" + r))
            out.append(gen.complete("Reply only with the new question."))
        return out

    assert transcript(11) == transcript(11)
    assert transcript(11) != transcript(12)


def test_vocabulary_size_floor():
    with pytest.raises(ValueError):
        SyntheticGenerator(seed=1, vocabulary_size=9)


def test_format_reply_parses_back_to_emitted_triples():
    gen = SyntheticGenerator(seed=5)
    reasoning = gen.complete("anything")
    literal = gen.complete("Output the graph as a Python dictionary\n" + reasoning)
    local = parse_graph_literal(literal)
    assert local.graph.edge_count >= 1
    assert local.warnings == 0


# ---------------------------------------------------------------------------
# the run loop


class OneTripleSession:
    """Emits a single fixed triple each iteration."""

    def complete(self, prompt):
        if "Output the graph as a Python dictionary" in prompt:
            return "{'Alpha': {'Beta': {'relation': 'HAS'}}}"
        if "Reply only with the new question" in prompt:
            return "What next?"
        return f"{THINK_OPEN}\ngraph:\nAlpha -- HAS --> Beta\n{THINK_CLOSE}"


def test_single_iteration_run(tmp_path):
    cfg = RunConfig(iterations=1, snapshot_dir=str(tmp_path))
    result = run(cfg, OneTripleSession())
    series = SnapshotStore(result.snapshot_dir).load()
    assert len(series) == 1
    g = series.final.graph
    assert (g.node_count, g.edge_count) == (2, 1)
    assert (tmp_path / "graph_iteration_0.graphml").exists()
    assert (tmp_path / RECORDS_FILENAME).exists()


def test_snapshot_filenames_are_index_dense(tmp_path):
    cfg = RunConfig(iterations=4, seed=3, snapshot_dir=str(tmp_path))
    run(cfg)
    names = sorted(p.name for p in tmp_path.glob("graph_iteration_*.graphml"))
    assert names == [f"graph_iteration_{i}.graphml" for i in range(4)]


def test_rerun_is_byte_identical(tmp_path):
    files = {}
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        cfg = RunConfig(iterations=50, seed=7, snapshot_dir=str(out))
        run(cfg)
        files[attempt] = {p.name: p.read_bytes() for p in out.glob("*.graphml")}
        files[attempt][RECORDS_FILENAME] = (out / RECORDS_FILENAME).read_bytes()
    assert files["a"] == files["b"]
    assert len(files["a"]) == 51


def test_series_is_supergraph_monotone(tmp_path):
    cfg = RunConfig(iterations=30, seed=9, snapshot_dir=str(tmp_path))
    result = run(cfg)
    series = SnapshotStore(result.snapshot_dir).load()
    series.validate_supergraph()
    counts = [(s.graph.node_count, s.graph.edge_count) for s in series]
    assert counts == sorted(counts)


class ScriptedLoopSession:
    """Good triples except on one iteration, where formatting always fails."""

    def __init__(self, bad_iteration):
        self.bad_iteration = bad_iteration
        self.iteration = -1

    def complete(self, prompt):
        if "Output the graph as a Python dictionary" in prompt:
            if self.iteration == self.bad_iteration:
                return "nothing parseable"
            return ("{'Concept %d': {'Concept %d': {'relation': 'HAS'}}}"
                    % (self.iteration, self.iteration + 1))
        if "Reply only with the new question" in prompt:
            return "And then?"
        self.iteration += 1
        return f"{THINK_OPEN}\ngraph:\nx -- HAS --> y\n{THINK_CLOSE}"


def test_skipped_iteration_still_writes_snapshot(tmp_path):
    session = ScriptedLoopSession(bad_iteration=1)
    cfg = RunConfig(iterations=3, snapshot_dir=str(tmp_path), max_retries=1)
    result = run(cfg, session)
    assert [r.skipped for r in result.records] == [False, True, False]
    assert len(list(tmp_path.glob("*.graphml"))) == 3
    counts = [s.graph.edge_count for s in SnapshotStore(result.snapshot_dir).load()]
    assert counts[1] == counts[0]  # unchanged snapshot on the skipped iteration


def test_transport_failure_preserves_partial_series(tmp_path):
    class DyingSession(OneTripleSession):
        def __init__(self):
            self.calls = 0

        def complete(self, prompt):
            self.calls += 1
            if self.calls > 4:
                raise GeneratorError("endpoint gone")
            return super().complete(prompt)

    cfg = RunConfig(iterations=5, snapshot_dir=str(tmp_path))
    with pytest.raises(GeneratorError):
        run(cfg, DyingSession())
    assert (tmp_path / "graph_iteration_0.graphml").exists()
    assert (tmp_path / RECORDS_FILENAME).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["aborted"]


def test_run_writes_the_live_graph_without_copying_it(tmp_path, monkeypatch):
    def no_copy(self):
        raise AssertionError("run copied the global graph")

    monkeypatch.setattr(KnowledgeGraph, "copy", no_copy)
    result = run(RunConfig(iterations=5, seed=3, snapshot_dir=str(tmp_path)))
    series = SnapshotStore(tmp_path).load()
    assert [s.iteration for s in series] == list(range(5))
    assert series.final.graph.triples() == result.graph.triples()
    assert series.final.graph.display_map() == result.graph.display_map()


def test_records_one_per_iteration(tmp_path):
    cfg = RunConfig(iterations=6, seed=2, snapshot_dir=str(tmp_path))
    result = run(cfg)
    assert [r.iteration for r in result.records] == list(range(6))
    assert all(r.question for r in result.records)


# ---------------------------------------------------------------------------
# HTTP session


class _Handler(http.server.BaseHTTPRequestHandler):
    fail_first = False
    seen_headers = []

    def do_POST(self):
        cls = type(self)
        cls.seen_headers.append(dict(self.headers))
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if cls.fail_first:
            cls.fail_first = False
            self.send_response(500)
            self.end_headers()
            return
        reply = json.dumps({"text": f"echo:{body['prompt']}"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_endpoint():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()


def test_http_session_round_trip(http_endpoint):
    session = HTTPGeneratorSession(endpoint=http_endpoint, model="m", timeout=5)
    assert session.complete("hello") == "echo:hello"


def test_http_session_retries_transport_once(http_endpoint):
    _Handler.fail_first = True
    session = HTTPGeneratorSession(endpoint=http_endpoint, timeout=5)
    assert session.complete("after retry") == "echo:after retry"


def test_http_session_sends_token_from_env(http_endpoint, monkeypatch):
    monkeypatch.setenv("KGEXPAND_API_TOKEN", "sekrit")
    _Handler.seen_headers.clear()
    HTTPGeneratorSession(endpoint=http_endpoint, timeout=5).complete("x")
    assert _Handler.seen_headers[-1].get("Authorization") == "Bearer sekrit"


def test_http_session_failure_raises_after_retries():
    session = HTTPGeneratorSession(endpoint="http://127.0.0.1:9/complete",
                                   timeout=0.2)
    with pytest.raises(GeneratorError):
        session.complete("unreachable")
