import csv
import errno
import http.server
import json
import logging
import threading

import pytest

from kgexpand.cli import main
from kgexpand.core import KnowledgeGraph, Snapshot
from kgexpand.errors import ConfigError, GeneratorError
from kgexpand.extraction import MAX_REPLY_CHARS, THINK_CLOSE, THINK_OPEN
from kgexpand.graphml_io import SnapshotStore
from kgexpand import loop
from kgexpand.loop import RECORDS_FILENAME, RunConfig, run
from kgexpand import prompts
from kgexpand.prompts import build_followup_prompt, build_initial_prompt
from kgexpand.sessions import MAX_REPLY_BYTES, HTTPGeneratorSession, SyntheticGenerator
from kgexpand.extraction import parse_graph_literal

from . import oracles


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


def test_negative_max_retries_fails_validation():
    with pytest.raises(ConfigError, match="max_retries"):
        RunConfig(max_retries=-1).validate()
    RunConfig(max_retries=0).validate()


def test_small_synthetic_vocabulary_fails_validation():
    with pytest.raises(ConfigError, match="vocabulary_size"):
        RunConfig(vocabulary_size=9).validate()
    RunConfig(vocabulary_size=10).validate()


@pytest.mark.parametrize("flags", [["--max-retries", "-1"], ["--vocabulary", "3"]])
def test_run_rejects_bad_config_with_an_error_line(capsys, tmp_path, flags):
    out = tmp_path / "snaps"
    assert main(["run", "--synthetic", "--iterations", "2", "--out", str(out),
                 *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_followup_prompt_lists_entities_and_relations():
    local = parse_graph_literal("{'A': {'B': {'relation': 'HAS'}}}")
    prompt = build_followup_prompt(local.graph, RunConfig())
    assert "A\nB\nA -- HAS -- B" in prompt
    assert "totally new concept" in prompt


def test_followup_prompt_with_empty_local_graph():
    local = parse_graph_literal("{}")
    prompt = build_followup_prompt(local.graph, RunConfig())
    assert "Original list of topics/keywords:\n\n" in prompt


def test_topic_followup_mentions_broad_topic():
    local = parse_graph_literal("{}")
    cfg = RunConfig(mode="topic", topic="impact resistant materials")
    prompt = build_followup_prompt(local.graph, cfg)
    assert "Considering the broad topic of impact resistant materials" in prompt
    assert "totally new aspect" in prompt


def test_each_template_holds_the_request_the_synthetic_generator_routes_by():
    # SyntheticGenerator.complete answers a prompt holding FORMAT_REQUEST with a
    # graph literal and one holding QUESTION_REQUEST with a question
    assert prompts.FORMAT_REQUEST in prompts.FORMAT_TEMPLATE
    assert prompts.QUESTION_REQUEST not in prompts.FORMAT_TEMPLATE
    for template in (prompts.OPEN_ENDED_FOLLOWUP_TEMPLATE, prompts.TOPIC_FOLLOWUP_TEMPLATE):
        assert prompts.QUESTION_REQUEST in template
        assert prompts.FORMAT_REQUEST not in template


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
    series = list(SnapshotStore(result.snapshot_dir).snapshots())
    assert len(series) == 1
    g = series[-1].graph
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


def test_a_shorter_rerun_into_the_same_directory_leaves_no_earlier_file(tmp_path):
    # a longer run of another seed, and .partial files that killed writes
    # leave: after the shorter run the directory holds what it alone writes,
    # and the file no run wrote
    out, fresh = tmp_path / "snaps", tmp_path / "fresh"
    run(RunConfig(iterations=12, seed=1, snapshot_dir=str(out)))
    (out / "graph_iteration_20.graphml.partial").write_text("<graphml")
    (out / "graph_iteration_3.graphml.partial").write_text("<graphml")
    (out / "notes.txt").write_text("not a run's")
    run(RunConfig(iterations=6, seed=2, snapshot_dir=str(out)))
    run(RunConfig(iterations=6, seed=2, snapshot_dir=str(fresh)))
    names = {p.name for p in fresh.iterdir()}
    assert {p.name for p in out.iterdir()} == names | {"notes.txt"}
    for name in names - {"manifest.json"}:      # the manifest holds timestamps
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    assert SnapshotStore(out).final().iteration == 5


def test_series_is_supergraph_monotone(tmp_path):
    cfg = RunConfig(iterations=30, seed=9, snapshot_dir=str(tmp_path))
    result = run(cfg)
    series = list(SnapshotStore(result.snapshot_dir).snapshots())
    oracles.validate_supergraph(series)
    counts = [(s.graph.node_count, s.graph.edge_count) for s in series]
    assert counts == sorted(counts)


def test_supergraph_validation_catches_lost_edges():
    g1 = KnowledgeGraph()
    g1.add_edge("A", "HAS", "B")
    series = [Snapshot(0, g1), Snapshot(1, KnowledgeGraph())]
    with pytest.raises(ValueError):
        oracles.validate_supergraph(series)


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
    counts = [s.graph.edge_count for s in SnapshotStore(result.snapshot_dir).snapshots()]
    assert counts[1] == counts[0]  # unchanged snapshot on the skipped iteration


def test_reasoning_reply_over_the_cap_skips_the_iteration(tmp_path, caplog):
    class HugeFirstReasoning(OneTripleSession):
        def __init__(self):
            self.prompts = []

        def complete(self, prompt):
            self.prompts.append(prompt)
            reply = super().complete(prompt)
            if len(self.prompts) == 1:
                # the graph section alone is five times the cap
                padding = "x" * (5_000_000 - len(reply))
                return reply[:-len(THINK_CLOSE)] + padding + THINK_CLOSE
            return reply

    session = HugeFirstReasoning()
    cfg = RunConfig(iterations=2, snapshot_dir=str(tmp_path))
    with caplog.at_level(logging.INFO, logger="kgexpand.loop"):
        result = run(cfg, session)
    assert max(len(prompt) for prompt in session.prompts) <= MAX_REPLY_CHARS
    # no format prompt on iteration 0; its follow-up comes from an empty graph
    assert session.prompts[1] == build_followup_prompt(KnowledgeGraph(), cfg)
    assert sum("Output the graph as a Python dictionary" in prompt
               for prompt in session.prompts) == 1
    first, second = result.records
    assert (first.skipped, first.retries, first.added_nodes) == (True, 0, 0)
    assert first.reasoning_length > MAX_REPLY_CHARS
    assert (second.skipped, second.added_edges) == (False, 1)
    counts = [s.graph.node_count for s in SnapshotStore(tmp_path).snapshots()]
    assert counts == [0, 2]
    assert ("iteration 0 skipped after 0 retries: reasoning reply has 5000000 "
            "characters, over the cap of 1000000") in caplog.text


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


def _fail_at_iteration(monkeypatch, exc, iteration=3):
    real_write = SnapshotStore.write

    def write(self, snapshot):
        if snapshot.iteration == iteration:
            raise exc
        return real_write(self, snapshot)

    monkeypatch.setattr(SnapshotStore, "write", write)


@pytest.mark.parametrize("exc, aborted", [
    (OSError(errno.ENOSPC, "No space left on device"),
     "OSError: [Errno 28] No space left on device"),
    (KeyboardInterrupt(), "KeyboardInterrupt"),
], ids=["ENOSPC", "interrupt"])
def test_any_exception_leaves_the_completed_iterations_records(tmp_path, monkeypatch,
                                                               exc, aborted):
    clean = tmp_path / "clean"
    run(RunConfig(iterations=6, seed=5, snapshot_dir=str(clean)))
    _fail_at_iteration(monkeypatch, exc)
    cut = tmp_path / "cut"
    with pytest.raises(type(exc)) as raised:
        run(RunConfig(iterations=6, seed=5, snapshot_dir=str(cut)))
    assert raised.value is exc
    with open(cut / RECORDS_FILENAME, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(clean / RECORDS_FILENAME, newline="") as fh:
        assert rows == list(csv.reader(fh))[:4]  # the header and iterations 0-2
    manifest = json.loads((cut / "manifest.json").read_text())
    assert manifest["iterations_completed"] == 3
    assert manifest["aborted"] == aborted
    assert json.loads((clean / "manifest.json").read_text())["aborted"] == ""


def test_a_failure_to_write_the_records_does_not_hide_the_first_error(
        tmp_path, monkeypatch, caplog):
    def full_disk(path, records):
        raise OSError(errno.ENOSPC, "No space left on device")

    _fail_at_iteration(monkeypatch, KeyboardInterrupt())
    monkeypatch.setattr(loop, "_write_records", full_disk)
    with pytest.raises(KeyboardInterrupt):
        run(RunConfig(iterations=6, seed=5, snapshot_dir=str(tmp_path)))
    assert "could not write the records" in caplog.text


def test_run_writes_the_live_graph_without_copying_it(tmp_path, monkeypatch):
    def no_copy(self):
        raise AssertionError("run copied the global graph")

    monkeypatch.setattr(KnowledgeGraph, "copy", no_copy)
    result = run(RunConfig(iterations=5, seed=3, snapshot_dir=str(tmp_path)))
    series = list(SnapshotStore(tmp_path).snapshots())
    assert [s.iteration for s in series] == list(range(5))
    assert series[-1].graph.triples() == result.graph.triples()
    assert series[-1].graph.display_map() == result.graph.display_map()


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


class _Reply:
    """A streamed response: a status code and a body read in chunks."""

    body = b'{"text": "ok"}'

    def __init__(self, status):
        self.status_code = status

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def raise_for_status(self):
        import requests

        if self.status_code >= 400:
            raise requests.HTTPError(f"HTTP {self.status_code}")

    def iter_content(self, chunk_size):
        for i in range(0, len(self.body), chunk_size):
            yield self.body[i:i + chunk_size]


def _scripted_post(monkeypatch, outcomes):
    """Replace requests.post with one that plays ``outcomes`` in turn: a status
    code to reply with, or an exception to raise. Returns the call log."""
    import requests

    calls = []

    def post(*args, **kwargs):
        calls.append(args)
        outcome = outcomes[len(calls) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return _Reply(outcome)

    monkeypatch.setattr(requests, "post", post)
    return calls


@pytest.mark.parametrize("status", [400, 401, 404, 422, 499])
def test_http_session_fails_fast_on_a_client_error(monkeypatch, status):
    calls = _scripted_post(monkeypatch, [status, 200])
    with pytest.raises(GeneratorError, match=str(status)):
        HTTPGeneratorSession(endpoint="http://endpoint.invalid/c").complete("x")
    assert len(calls) == 1


@pytest.mark.parametrize("first", [500, 503, "timeout", "connection"])
def test_http_session_retries_server_and_transport_errors_once(monkeypatch, first):
    import requests

    failure = {"timeout": requests.Timeout("slow"),
               "connection": requests.ConnectionError("refused")}.get(first, first)
    calls = _scripted_post(monkeypatch, [failure, 200])
    assert HTTPGeneratorSession(endpoint="http://endpoint.invalid/c").complete("x") == "ok"
    assert len(calls) == 2
    calls = _scripted_post(monkeypatch, [failure, failure, 200])
    with pytest.raises(GeneratorError):
        HTTPGeneratorSession(endpoint="http://endpoint.invalid/c").complete("x")
    assert len(calls) == 2


@pytest.mark.parametrize("payload, shape", [
    ("just text", "str"),
    (None, "null"),
    ([{"text": "x"}], "[{'text': str}, ...]"),
    ({"choices": ["x"]}, "{'choices': [str, ...]}"),
    ({"text": 42}, "{'text': int}"),
    ({"choices": [{"text": None}]}, "{'choices': [{'text': null}, ...]}"),
    ({"choices": []}, "{'choices': []}"),
])
def test_http_session_rejects_a_reply_without_string_text(monkeypatch, payload, shape):
    calls = _scripted_post(monkeypatch, [200, 200])
    monkeypatch.setattr(_Reply, "body", json.dumps(payload).encode())
    with pytest.raises(GeneratorError) as exc:
        HTTPGeneratorSession(endpoint="http://endpoint.invalid/c").complete("x")
    assert str(exc.value) == f"unrecognized reply shape: {shape}"
    assert len(calls) == 1              # the same request would get the same reply


def test_http_session_rejects_a_reply_nested_past_the_decoder(monkeypatch):
    calls = _scripted_post(monkeypatch, [200, 200])
    monkeypatch.setattr(_Reply, "body", b"[" * 100_000)
    with pytest.raises(GeneratorError, match="nests too deeply"):
        HTTPGeneratorSession(endpoint="http://endpoint.invalid/c").complete("x")
    assert len(calls) == 1


def test_http_session_reads_completions_style_text(monkeypatch):
    _scripted_post(monkeypatch, [200])
    monkeypatch.setattr(_Reply, "body",
                        b'{"choices": [{"text": "first"}, {"text": "second"}]}')
    assert HTTPGeneratorSession(endpoint="http://endpoint.invalid/c").complete("x") == "first"


def test_http_session_reads_a_body_at_the_byte_cap_and_refuses_one_byte_more(monkeypatch):
    # JSON's longest spelling of a character at the character cap fits
    assert MAX_REPLY_BYTES >= 12 * MAX_REPLY_CHARS
    head, tail = b'{"text": "', b'"}'
    at_cap = head + b"x" * (MAX_REPLY_BYTES - len(head) - len(tail)) + tail
    assert len(at_cap) == MAX_REPLY_BYTES
    calls = _scripted_post(monkeypatch, [200, 200])
    monkeypatch.setattr(_Reply, "body", at_cap)
    text = HTTPGeneratorSession(endpoint="http://endpoint.invalid/c").complete("x")
    assert len(text) == MAX_REPLY_BYTES - len(head) - len(tail)
    assert len(calls) == 1
    # one byte more fails at once, without a retry
    calls = _scripted_post(monkeypatch, [200, 200])
    monkeypatch.setattr(_Reply, "body", at_cap[:-1] + b' }')
    with pytest.raises(GeneratorError, match="over the cap"):
        HTTPGeneratorSession(endpoint="http://endpoint.invalid/c").complete("x")
    assert len(calls) == 1


def test_http_session_stops_reading_an_endless_body_at_the_byte_cap(monkeypatch):
    handed = []

    def endless(self, chunk_size):
        while True:
            handed.append(chunk_size)
            yield b" " * chunk_size

    _scripted_post(monkeypatch, [200])
    monkeypatch.setattr(_Reply, "iter_content", endless)
    with pytest.raises(GeneratorError, match="over the cap"):
        HTTPGeneratorSession(endpoint="http://endpoint.invalid/c").complete("x")
    assert MAX_REPLY_BYTES < sum(handed) <= MAX_REPLY_BYTES + handed[-1]
