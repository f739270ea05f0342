"""The GraphML string writer: its bytes against ElementTree's, and labels XML can hold."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgexpand.core import KnowledgeGraph, normalize_label, normalize_relation
from kgexpand.errors import InvalidLabel
from kgexpand.extraction import THINK_CLOSE, THINK_OPEN, parse_graph_literal
from kgexpand.graphml_io import SnapshotStore, read_graphml, write_graphml
from kgexpand.loop import RunConfig, run

from .oracles import write_graphml_etree
from .strategies import knowledge_graphs, xml_labels

GOLDEN = """\
<?xml version='1.0' encoding='utf-8'?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key for="node" attr.name="label" attr.type="string" id="d0" />
  <key for="edge" attr.name="relation" attr.type="string" id="d1" />
  <key for="node" attr.name="degree" attr.type="long" id="d2" />
  <key for="node" attr.name="score" attr.type="double" id="d3" />
  <graph edgedefault="directed">
    <node id="café">
      <data key="d0">Café</data>
      <data key="d2">2</data>
      <data key="d3">0.5</data>
    </node>
    <node id="loop">
      <data key="d0">Loop</data>
      <data key="d2">2</data>
    </node>
    <node id="r&amp;d &lt;lab&gt;">
      <data key="d0">R&amp;D &lt;Lab&gt;</data>
      <data key="d3">1.0</data>
    </node>
    <node id="the &quot;quoted&quot; 'one'">
      <data key="d0">The "Quoted" 'One'</data>
    </node>
    <node id="über">
      <data key="d0">Über</data>
      <data key="d2">2</data>
      <data key="d3">0.125</data>
    </node>
    <edge id="e0" source="café" target="über">
      <data key="d1">HAS</data>
    </edge>
    <edge id="e1" source="café" target="über">
      <data key="d1">IS-A</data>
    </edge>
    <edge id="e2" source="loop" target="loop">
      <data key="d1">HAS</data>
    </edge>
    <edge id="e3" source="r&amp;d &lt;lab&gt;" target="the &quot;quoted&quot; 'one'">
      <data key="d1">IS-A</data>
    </edge>
  </graph>
</graphml>"""

GOLDEN_EMPTY = """\
<?xml version='1.0' encoding='utf-8'?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key for="node" attr.name="label" attr.type="string" id="d0" />
  <key for="edge" attr.name="relation" attr.type="string" id="d1" />
  <graph edgedefault="directed" />
</graphml>"""


def _golden_graph() -> tuple[KnowledgeGraph, dict]:
    g = KnowledgeGraph()
    g.add_edge("R&D <Lab>", "IS-A", "The \"Quoted\" 'One'")
    g.add_edge("Café", "HAS", "Über")
    g.add_edge("Café", "IS-A", "Über")  # a parallel relation kind
    g.add_edge("Loop", "HAS", "Loop")  # a self-loop
    attrs = {"degree": {"café": 2, "loop": 2, "über": 2},
             "score": {"café": 0.5, "r&d <lab>": 1.0, "über": 0.125}}
    return g, attrs


def test_writer_output_equals_the_golden_document(tmp_path):
    g, attrs = _golden_graph()
    path = tmp_path / "golden.graphml"
    write_graphml(g, path, node_attrs=attrs)
    assert path.read_bytes() == GOLDEN.encode("utf-8")


def test_empty_graph_equals_the_golden_document(tmp_path):
    path = tmp_path / "empty.graphml"
    write_graphml(KnowledgeGraph(), path)
    assert path.read_bytes() == GOLDEN_EMPTY.encode("utf-8")


def test_golden_documents_are_what_elementtree_writes(tmp_path):
    g, attrs = _golden_graph()
    write_graphml_etree(g, tmp_path / "a.graphml", node_attrs=attrs)
    write_graphml_etree(KnowledgeGraph(), tmp_path / "b.graphml")
    assert (tmp_path / "a.graphml").read_bytes() == GOLDEN.encode("utf-8")
    assert (tmp_path / "b.graphml").read_bytes() == GOLDEN_EMPTY.encode("utf-8")


@st.composite
def graphs_with_node_attrs(draw):
    g = draw(knowledge_graphs(label_strategy=xml_labels))
    keys = sorted(g.node_keys)
    attrs = {}
    for name, values in (("count", st.integers(-5, 10**6)),
                         ("weight", st.floats(allow_nan=True, allow_infinity=True)),
                         ("a&b \"<x>\"", st.integers(0, 3) | st.floats(0, 1))):
        if keys and draw(st.booleans()):
            chosen = draw(st.lists(st.sampled_from(keys), unique=True))
            attrs[name] = {k: draw(values) for k in chosen}
    return g, attrs or None


@given(graphs_with_node_attrs())
@settings(max_examples=150, deadline=None)
def test_writer_is_byte_identical_to_elementtree(tmp_path_factory, case):
    g, attrs = case
    out = tmp_path_factory.mktemp("gml")
    write_graphml(g, out / "fast.graphml", node_attrs=attrs)
    write_graphml_etree(g, out / "reference.graphml", node_attrs=attrs)
    assert (out / "fast.graphml").read_bytes() == (out / "reference.graphml").read_bytes()
    assert set(read_graphml(out / "fast.graphml").triples()) == set(g.triples())


# ---------------------------------------------------------------------------
# labels that XML cannot hold


@pytest.mark.parametrize("bad", ["a\x01b", "\x00", "x\x1b", "lone \ud800", "a￾",
                                 "￿z"])
def test_labels_and_relations_xml_cannot_hold_are_rejected(bad):
    with pytest.raises(InvalidLabel):
        normalize_label(bad)
    with pytest.raises(InvalidLabel):
        normalize_relation(bad)


def test_whitespace_controls_still_collapse_and_other_characters_pass():
    assert normalize_label("a\tb\x0bc\x1fd").display == "a b c d"
    assert normalize_label("Ünïcode \x7f €").display == "Ünïcode \x7f €"


def test_a_rejected_relation_adds_no_node():
    g = KnowledgeGraph()
    with pytest.raises(InvalidLabel):
        g.add_edge("a", "HAS\x01", "b")
    assert g.node_count == 0


def test_extraction_drops_and_counts_entries_xml_cannot_hold():
    local = parse_graph_literal(
        "{'Al\x01pha': {'Beta': {'relation': 'HAS'}}, "
        "'Gamma': {'De\x02lta': {'relation': 'HAS'}, 'Beta': {'relation': 'I\x03S'}, "
        "'Eps': {'relation': 'HAS'}}}")
    assert local.graph.triples() == [("gamma", "HAS", "eps")]
    assert local.warnings == 3


class ControlCharacterSession:
    """A reply with control characters in labels and a relation every iteration."""

    def __init__(self):
        self.iteration = -1

    def complete(self, prompt):
        if "Output the graph as a Python dictionary" in prompt:
            i = self.iteration
            return ("{'Concept %d': {'Concept %d': {'relation': 'HAS'}, "
                    "'Bad\x01Label': {'relation': 'HAS'}, "
                    "'Other %d': {'relation': 'IS\x01A'}}, "
                    "'\x01Source': {'Concept 0': {'relation': 'HAS'}}}" % (i, i + 1, i))
        if "Reply only with the new question" in prompt:
            return "And \x01 then?"
        self.iteration += 1
        return f"{THINK_OPEN}\ngraph:\nx -- HAS --> y\n{THINK_CLOSE}"


def test_a_reply_with_control_characters_leaves_every_snapshot_readable(tmp_path):
    result = run(RunConfig(iterations=4, snapshot_dir=str(tmp_path), max_retries=0),
                 ControlCharacterSession())
    loaded = SnapshotStore(tmp_path).load()
    assert [s.iteration for s in loaded] == [0, 1, 2, 3]
    assert loaded.final.graph.triples() == result.graph.triples()
    assert loaded.final.graph.triples() == [
        (f"concept {i}", "HAS", f"concept {i + 1}") for i in range(4)]
