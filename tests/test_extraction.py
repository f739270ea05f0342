import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgexpand.errors import (
    GeneratorError,
    InvalidLabel,
    MalformedLiteral,
    NoGraphFound,
)
from kgexpand.extraction import (
    MAX_BRACE_DEPTH,
    MAX_REPLY_CHARS,
    IsolationStatus,
    extract_with_retry,
    isolate_reasoning,
    locate_graph_section,
    parse_graph_literal,
    serialize_graph_literal,
)

from .strategies import knowledge_graphs


# ---------------------------------------------------------------------------
# reasoning-block isolation


def test_well_formed_block():
    text, status = isolate_reasoning("<|thinking|>abc<|/thinking|>xyz")
    assert text == "abc"
    assert status is IsolationStatus.WELL_FORMED


def test_missing_markers_degrades_to_whole_text():
    text, status = isolate_reasoning("no markers at all")
    assert text == "no markers at all"
    assert status is IsolationStatus.NO_MARKERS


def test_first_open_first_close_rule():
    text, status = isolate_reasoning("<|thinking|>a<|thinking|>b<|/thinking|>")
    assert text == "a<|thinking|>b"
    assert status is IsolationStatus.WELL_FORMED


def test_unterminated_block_takes_rest_of_text():
    text, status = isolate_reasoning("pre<|thinking|>tail with no closer")
    assert text == "tail with no closer"
    assert status is IsolationStatus.UNTERMINATED


def test_graph_section_located_after_header():
    block = "Some prose.\n\ngraph:\nA -- HAS --> B\n"
    assert locate_graph_section(block).strip() == "A -- HAS --> B"


def test_graph_section_falls_back_to_whole_block():
    assert locate_graph_section("just text") == "just text"


# ---------------------------------------------------------------------------
# literal parsing


def test_empty_literal():
    local = parse_graph_literal("{}")
    assert local.graph.node_count == 0
    assert not local.warnings


def test_single_triple_literal():
    reply = "{'Impact Resistant Materials': {'Materials': {'relation': 'IS-A'}}}"
    local = parse_graph_literal(reply)
    assert local.graph.node_count == 2
    assert local.graph.triples() == [
        ("impact resistant materials", "IS-A", "materials")
    ]


def test_prose_around_literal_is_tolerated():
    reply = ("Sure! Here is the graph:\n"
             '{"A": {"B": {"relation": "HAS"},},}\n'
             "Let me know if you need anything else.")
    local = parse_graph_literal(reply)
    assert local.graph.triples() == [("a", "HAS", "b")]


def test_missing_relation_defaults_with_warning():
    local = parse_graph_literal("{'A': {'B': {}}}")
    assert local.graph.triples() == [("a", "RELATES-TO", "b")]
    assert local.warnings == 1


def test_isolated_source_node_kept():
    local = parse_graph_literal("{'Lonely Concept': {}}")
    assert local.graph.node_count == 1
    assert local.graph.edge_count == 0


def test_no_brace_block():
    with pytest.raises(NoGraphFound):
        parse_graph_literal("there is no dictionary here")


def test_unbalanced_braces():
    with pytest.raises(MalformedLiteral):
        parse_graph_literal("{'A': {'B': {'relation': 'HAS'}")


def test_non_dict_literal_rejected():
    with pytest.raises(MalformedLiteral):
        parse_graph_literal("prefix {1, 2, 3} suffix")


def test_braces_inside_strings_do_not_confuse_the_scanner():
    reply = """{'A {weird}': {'B': {'relation': 'HAS'}}}"""
    local = parse_graph_literal(reply)
    assert local.graph.triples() == [("a {weird}", "HAS", "b")]


def test_numeric_labels_are_coerced():
    local = parse_graph_literal("{1: {2: {'relation': 'HAS'}}}")
    assert local.graph.triples() == [("1", "HAS", "2")]


def test_garbage_entries_dropped_with_warnings():
    local = parse_graph_literal("{'A': {'B': ['not', 'a', 'map']}, 'C': 7}")
    assert local.graph.edge_count == 0
    assert local.warnings == 2
    assert local.graph.node_count >= 1


@given(knowledge_graphs(unique_pairs=True))
def test_round_trip(graph):
    literal = serialize_graph_literal(graph)
    local = parse_graph_literal(literal)
    assert set(local.graph.triples()) == set(graph.triples())
    assert local.graph.node_keys == graph.node_keys


@given(st.text(max_size=200))
@settings(max_examples=300)
def test_parser_never_crashes_on_text(text):
    try:
        parse_graph_literal(text)
    except (NoGraphFound, MalformedLiteral, InvalidLabel):
        pass


@given(st.binary(max_size=200))
def test_parser_never_crashes_on_bytes(blob):
    try:
        parse_graph_literal(blob.decode("utf-8", errors="replace"))
    except (NoGraphFound, MalformedLiteral, InvalidLabel):
        pass


def test_reply_over_the_character_cap_is_rejected():
    padding = " " * (MAX_REPLY_CHARS - len(GOOD))
    assert parse_graph_literal(GOOD + padding).graph.edge_count == 1
    with pytest.raises(MalformedLiteral, match="cap"):
        parse_graph_literal(GOOD + padding + " ")


def test_braces_nested_past_the_depth_cap_are_rejected():
    def nested(depth):
        return "{'a': " * (depth - 1) + "{}" + "}" * (depth - 1)

    assert parse_graph_literal(nested(MAX_BRACE_DEPTH)).graph.node_count == 1
    with pytest.raises(MalformedLiteral, match="deeper"):
        parse_graph_literal(nested(MAX_BRACE_DEPTH + 1))
    # a quoted brace does not count
    assert parse_graph_literal("{'" + "{" * 50 + "': {}}").graph.node_count == 1


@given(knowledge_graphs())
def test_every_accepted_edge_is_normalized(graph):
    literal = serialize_graph_literal(graph)
    local = parse_graph_literal(literal)
    for src, kind, tgt in local.graph.triples():
        assert src == src.casefold() == " ".join(src.split())
        assert tgt == tgt.casefold() == " ".join(tgt.split())
        assert kind and kind == kind.upper()


# ---------------------------------------------------------------------------
# retry wrapper


class ScriptedSession:
    """Replays canned replies; raises GeneratorError when exhausted."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        if not self.replies:
            raise GeneratorError("transport down")
        return self.replies.pop(0)


GOOD = "{'A': {'B': {'relation': 'HAS'}}}"


def test_first_reply_parses_without_retry():
    session = ScriptedSession([GOOD])
    outcome = extract_with_retry(session, "A -- HAS --> B", max_retries=2)
    assert outcome.retries_used == 0
    assert not outcome.skipped
    assert outcome.local.graph.edge_count == 1


def test_one_retry_after_malformed_reply():
    session = ScriptedSession(["not a dict at all", GOOD])
    outcome = extract_with_retry(session, "raw", max_retries=2)
    assert outcome.retries_used == 1
    assert not outcome.skipped
    assert "could not be parsed" in session.prompts[1]


def test_exhaustion_yields_empty_graph_and_skip_event():
    session = ScriptedSession(["junk", "more junk", "still junk"])
    outcome = extract_with_retry(session, "raw", max_retries=2)
    assert outcome.skipped
    assert outcome.local.is_empty
    assert outcome.retries_used == 2
    assert outcome.last_error


def test_transport_failure_propagates():
    session = ScriptedSession([])
    with pytest.raises(GeneratorError):
        extract_with_retry(session, "raw", max_retries=2)


def test_format_prompt_contains_raw_graph():
    session = ScriptedSession([GOOD])
    extract_with_retry(session, "THE RAW GRAPH SECTION", max_retries=0)
    assert "THE RAW GRAPH SECTION" in session.prompts[0]
    assert "Output the graph as a Python dictionary" in session.prompts[0]


@pytest.mark.parametrize("bad", [
    "{" * (MAX_BRACE_DEPTH + 1) + "}" * (MAX_BRACE_DEPTH + 1),
    GOOD + " " * MAX_REPLY_CHARS,
])
def test_capped_replies_go_through_the_retry_path(bad):
    session = ScriptedSession([bad, GOOD])
    outcome = extract_with_retry(session, "raw", max_retries=2)
    assert outcome.retries_used == 1
    assert outcome.local.graph.edge_count == 1
    assert "could not be parsed" in session.prompts[1]
