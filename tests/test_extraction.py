import ast
import tracemalloc

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
    _fast_literal,
    _find_brace_block,
    extract_with_retry,
    isolate_reasoning,
    locate_graph_section,
    parse_graph_literal,
    serialize_graph_literal,
)
from kgexpand.loop import RunConfig, run
from kgexpand.sessions import SyntheticGenerator

from . import oracles
from .oracles import find_brace_block
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


# labels and relations that reach every branch of the build: empty after
# trimming, a character XML cannot hold, case and whitespace variants of one
# label, numbers, and keys that are no label at all
_raw_labels = (st.sampled_from(["a", " A ", "a\tb", "A B", "", " ", "b\x00", "\ufffe"])
               | st.integers(0, 2) | st.booleans() | st.just(0.5) | st.none()
               | st.just((0,)))
_relations = (st.sampled_from(["has", " Has ", "IS-A", "", "\t", "h\x01", "\x01"])
              | st.none() | st.just(1))
_attrs = (st.fixed_dictionaries({"relation": _relations}) | st.just({})
          | st.just({"weight": 1}) | st.none() | st.just("HAS") | st.just([]))
_literals = st.dictionaries(
    _raw_labels, st.none() | st.just(7) | st.dictionaries(_raw_labels, _attrs, max_size=4),
    max_size=5).map(repr)


def _parsed(parse, text):
    try:
        local = parse(text)
    except (NoGraphFound, MalformedLiteral) as exc:
        return type(exc)    # its message can hold an object's address
    g = local.graph
    return list(g.display_map().items()), g.triples(), local.warnings


# Adjacency maps written token by token, half of them in the fast path's
# grammar alone and half with the rest mixed in: double quotes, backslash
# escapes, CR, LF, NUL, a lone surrogate or a form feed in a string, a form
# feed or a comment between tokens, numbers, True, string prefixes, trailing
# commas, duplicate keys, maps three and four deep, and prose or a second map
# after the block.
_BLANKS = (["", "", " ", "\n", "\r\n", "\r", "\t"], ["\x0c", " # c\n"])
_WORDS = (["a", " A ", "a\tb", "A B", "", " ", "has", " Has ", "IS-A", "relation",
           "x {y}", "#", "b\x0c", 'q"', "q'", "\u2028", "\xe9"],
          ["c\x00", "d\ud800", "e\\\\f", "g\\'", "h\r", "i\n", "\\x41"])
_SCALARS = (["'", "'", '"', "None"], ["1", "True", "r'"])


@st.composite
def _map_texts(draw, depth=1, odd=False):
    def pick(choices):
        return draw(st.sampled_from(choices[0] + choices[1] if odd else choices[0]))

    def scalar():
        kind = pick(_SCALARS)
        return kind if kind in ("None", "1", "True") else f"{kind}{pick(_WORDS)}{kind[-1]}"

    items = []
    for _ in range(draw(st.integers(0, 3))):
        key = scalar()
        if depth < 4 and draw(st.integers(0, 2)):
            value = draw(_map_texts(depth + 1, odd))
        else:
            value = scalar()
        items.append(f"{key}{pick(_BLANKS)}:{pick(_BLANKS)}{value}")
    trailing = "," if items and draw(st.booleans()) else ""
    sep = "," + pick(_BLANKS)
    return "{" + pick(_BLANKS) + sep.join(items) + trailing + pick(_BLANKS) + "}"


_replies = st.tuples(
    st.sampled_from(["", "Sure:\n", "it's {"]), st.booleans().flatmap(
        lambda odd: _map_texts(odd=odd)),
    st.sampled_from(["", "\nDone.", " } {'z': {}}", " it's", "{"])).map("".join)


@given(_literals | _replies | st.text(alphabet="{}:'a, \x01", max_size=30)
       | st.text(alphabet="{}:'\", \\\r\n\t\x00\x0c#aN1T\ud800", max_size=40))
@settings(max_examples=1000)
def test_parser_matches_the_per_edge_build(text):
    assert _parsed(parse_graph_literal, text) == _parsed(oracles.parse_graph_literal, text)


@given(_replies)
@settings(max_examples=500)
def test_fast_path_builds_what_literal_eval_builds(text):
    fast = _fast_literal(text)
    if fast is not None:
        start, end = _find_brace_block(text)
        assert repr(fast) == repr(ast.literal_eval(text[start:end]))


def test_fast_path_takes_its_grammar_and_leaves_the_rest():
    text = "{ 'a' :{\"b\": {'relation': None},},\r\n'a': None} x"
    assert _fast_literal(text) == {"a": None}
    for text in ["{'a': 1}", "{'a': True}", "{'a\\x41': {}}", "{'a': {}, # c\n}",
                 "{'a' 'b': {}}", "{'a': {'b': {'c': {}}}}", "{'a': []}", "{'a': {}",
                 "{'a':\x0c{}}", "{'a\rb': {}}", "{'\ud800': {}}", "{,}", "{'a': {},,}",
                 "{r'a': {}}", "{'''a''': {}}", "{Nonex: {}}", "{{}: {}}", "no map"]:
        assert _fast_literal(text) is None, text


def test_every_synthetic_reply_of_a_run_skips_literal_eval(monkeypatch, tmp_path):
    literal_evals = []
    real = ast.literal_eval
    monkeypatch.setattr(ast, "literal_eval",
                        lambda text: literal_evals.append(text) or real(text))
    gen = SyntheticGenerator(seed=3)
    result = run(RunConfig(iterations=150, seed=3, snapshot_dir=str(tmp_path)), gen)
    assert not any(r.skipped or r.retries for r in result.records)
    assert gen.calls == 3 * 150     # a reasoning, a format and a question reply each
    assert literal_evals == []


def _capped_reply() -> str:
    """An adjacency map of just under ``MAX_REPLY_CHARS`` characters."""
    entries, length, i = [], 2, 0
    while True:
        inner = ", ".join(f"'Concept {(7 * i + j) % 20011}': {{'relation': 'HAS'}}"
                          for j in range(1, 4))
        entry = f"'Concept {i}': {{{inner}}}"
        if length + len(entry) + 2 > MAX_REPLY_CHARS:
            return "{" + ", ".join(entries) + "}"
        entries.append(entry)
        length += len(entry) + 2
        i += 1


def test_a_reply_at_the_character_cap_parses_in_bounded_memory():
    reply = _capped_reply()
    assert MAX_REPLY_CHARS - 200 < len(reply) <= MAX_REPLY_CHARS
    tracemalloc.start()
    try:
        local = parse_graph_literal(reply)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert local.graph.node_count > 17_000 and local.warnings == 0
    assert peak < 40 * 2**20    # a syntax tree of the reply takes over 100 MiB


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


def _scan(find, text):
    try:
        return find(text)
    except (NoGraphFound, MalformedLiteral) as exc:
        return type(exc)


@given(st.text(alphabet="{}'\"\\ax", max_size=40)
       | st.integers(MAX_BRACE_DEPTH - 1, MAX_BRACE_DEPTH + 2).map(
           lambda d: "a{" * d + "'}\\''" + "}" * d))
@settings(max_examples=500)
def test_brace_scan_matches_the_character_scan(text):
    assert _scan(_find_brace_block, text) == _scan(find_brace_block, text)


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
    assert outcome.local.graph.node_count == 0
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
