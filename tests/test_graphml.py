import logging
from xml.sax.saxutils import escape, quoteattr

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgexpand.core import KnowledgeGraph, Snapshot
from kgexpand.errors import GraphMLError, KgExpandError
from kgexpand.graphml_io import SnapshotStore, read_graphml, write_graphml
from kgexpand.loop import RunConfig, run

from . import oracles
from .strategies import knowledge_graphs


def test_empty_graph_round_trips(tmp_path):
    path = tmp_path / "empty.graphml"
    write_graphml(KnowledgeGraph(), path)
    g = read_graphml(path)
    assert g.node_count == 0
    assert g.edge_count == 0


@given(knowledge_graphs())
@settings(max_examples=60, deadline=None)
def test_round_trip_preserves_triples(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("gml") / "g.graphml"
    write_graphml(graph, path)
    loaded = read_graphml(path)
    assert set(loaded.triples()) == set(graph.triples())
    assert loaded.display_map() == graph.display_map()


def test_second_write_is_byte_stable(tmp_path):
    g = KnowledgeGraph()
    g.add_edge("Self-Healing Materials", "IS-A", "Materials")
    g.add_edge("Materials", "RELATES-TO", "Design")
    p1 = tmp_path / "one.graphml"
    p2 = tmp_path / "two.graphml"
    write_graphml(g, p1)
    write_graphml(read_graphml(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_unknown_extra_attribute_ignored(tmp_path):
    path = tmp_path / "extra.graphml"
    path.write_text("""<?xml version='1.0' encoding='utf-8'?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="label" attr.type="string" />
  <key id="d1" for="edge" attr.name="relation" attr.type="string" />
  <key id="d9" for="node" attr.name="mystery" attr.type="double" />
  <graph edgedefault="directed">
    <node id="a"><data key="d0">A</data><data key="d9">0.25</data></node>
    <node id="b"><data key="d0">B</data></node>
    <edge id="e0" source="a" target="b"><data key="d1">HAS</data></edge>
  </graph>
</graphml>
""")
    g = read_graphml(path)
    assert g.triples() == [("a", "HAS", "b")]


def test_missing_relation_defaults(tmp_path, caplog):
    path = tmp_path / "norel.graphml"
    path.write_text("""<?xml version='1.0' encoding='utf-8'?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <graph edgedefault="directed">
    <node id="x" />
    <node id="y" />
    <edge source="x" target="y" />
  </graph>
</graphml>
""")
    with caplog.at_level("WARNING"):
        g = read_graphml(path)
    assert g.triples() == [("x", "RELATES-TO", "y")]
    assert any("defaulted" in r.message for r in caplog.records)


def test_malformed_xml_reports_line(tmp_path):
    path = tmp_path / "broken.graphml"
    path.write_text("<graphml>\n<graph>\n<node id='a'>\n")
    with pytest.raises(GraphMLError) as err:
        read_graphml(path)
    assert "line" in str(err.value)


def test_labels_renormalized_on_read(tmp_path):
    path = tmp_path / "weird.graphml"
    path.write_text("""<?xml version='1.0' encoding='utf-8'?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="label" attr.type="string" />
  <key id="d1" for="edge" attr.name="relation" attr.type="string" />
  <graph edgedefault="directed">
    <node id="n1"><data key="d0">  Impact   Resistant Materials  </data></node>
    <node id="n2"><data key="d0">Materials</data></node>
    <edge source="n1" target="n2"><data key="d1">is-a</data></edge>
  </graph>
</graphml>
""")
    g = read_graphml(path)
    assert g.triples() == [("impact resistant materials", "IS-A", "materials")]
    assert g.display("impact resistant materials") == "Impact Resistant Materials"


def test_networkx_can_read_our_files(tmp_path):
    g = KnowledgeGraph()
    g.add_edge("Alpha", "HAS", "Beta")
    g.add_edge("Beta", "IS-A", "Gamma")
    g.add_edge("Alpha", "RELATES-TO", "Alpha")
    path = tmp_path / "interop.graphml"
    write_graphml(g, path)
    nxg = nx.read_graphml(path)
    assert nxg.is_directed()
    assert set(nxg.nodes) == {"alpha", "beta", "gamma"}
    assert nxg.nodes["alpha"]["label"] == "Alpha"
    edge = ("alpha", "beta", 0) if nxg.is_multigraph() else ("alpha", "beta")
    assert nxg.edges[edge]["relation"] == "HAS"


def test_networkx_reads_parallel_kind_edges(tmp_path):
    g = KnowledgeGraph()
    g.add_edge("A", "IS-A", "B")
    g.add_edge("A", "RELATES-TO", "B")
    path = tmp_path / "multi.graphml"
    write_graphml(g, path)
    nxg = nx.read_graphml(path)
    assert nxg.is_multigraph()
    kinds = {d["relation"] for _, _, d in nxg.edges(data=True)}
    assert kinds == {"IS-A", "RELATES-TO"}


def test_we_can_read_networkx_files(tmp_path):
    nxg = nx.DiGraph()
    nxg.add_node("A", label="A")
    nxg.add_node("B", label="B")
    nxg.add_edge("A", "B", relation="INFLUENCES")
    path = tmp_path / "from_nx.graphml"
    nx.write_graphml(nxg, path)
    g = read_graphml(path)
    assert g.triples() == [("a", "INFLUENCES", "b")]


def test_extra_node_attributes_written_and_readable(tmp_path):
    g = KnowledgeGraph()
    g.add_edge("a", "HAS", "b")
    path = tmp_path / "attrs.graphml"
    write_graphml(g, path, node_attrs={
        "degree": {"a": 1, "b": 1},
        "betweenness": {"a": 0.0, "b": 0.0},
    })
    nxg = nx.read_graphml(path)
    assert nxg.nodes["a"]["degree"] == 1
    assert nxg.nodes["b"]["betweenness"] == 0.0
    back = read_graphml(path)
    assert back.triples() == [("a", "HAS", "b")]


# ---------------------------------------------------------------------------
# the reader against the per-edge reference

# ids and labels that differ only in case or whitespace, and blank ones
_IDS = st.sampled_from(["a", "A", "b", " b", "b  c", "B C", "n1", " "])
_LABELS = st.sampled_from([None, "", "  ", "Alpha", "alpha", "  ALPHA ", "Al  pha", "b"])
# None: no relation element; "" is blank; "  " is a relation normalize rejects
_RELATIONS = st.sampled_from([None, "", "  ", "is-a", "IS-A", " is   a ", "has"])

_nodes = st.tuples(st.just("node"), _IDS, _LABELS)
# endpoints may be declared later in the document, or never
_edges = st.tuples(st.just("edge"), _IDS, _IDS, _RELATIONS)


def _data(key, text):
    if text is None:
        return ""
    return f'<data key="{key}">{escape(text)}</data>'


def _graphml_document(elements) -> str:
    body = []
    for element in elements:
        if element[0] == "node":
            _, node_id, label = element
            body.append(f"<node id={quoteattr(node_id)}>{_data('d0', label)}</node>")
        else:
            _, src, tgt, relation = element
            body.append(f"<edge source={quoteattr(src)} target={quoteattr(tgt)}>"
                        f"{_data('d1', relation)}</edge>")
    return ("<?xml version='1.0' encoding='utf-8'?>\n"
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
            '<key id="d0" for="node" attr.name="label" attr.type="string" />\n'
            '<key id="d1" for="edge" attr.name="relation" attr.type="string" />\n'
            '<graph edgedefault="directed">\n' + "\n".join(body) + "\n</graph>\n</graphml>\n")


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _read_outcome(reader, path):
    """The graph a reader makes (nodes in insertion order, triples) and its
    warnings, or the error it raises."""
    records = _Records()
    logger = logging.getLogger("kgexpand.graphml_io")
    logger.addHandler(records)
    try:
        g = reader(path)
    except KgExpandError as exc:
        return type(exc), str(exc)
    finally:
        logger.removeHandler(records)
    return list(g.display_map().items()), g.triples(), records.messages


@given(st.lists(st.one_of(_nodes, _edges), max_size=12))
@example([("edge", "b  c", "A", None), ("node", "A", "Alpha"), ("edge", "a", "B C", ""),
          ("node", "n1", "  ALPHA "), ("edge", "n1", "a", " is   a "),
          ("edge", "A", "b  c", "is-a")])
@example([("node", "a", "Alpha"), ("edge", "a", "b", "  ")])
@example([("node", "a", "Alpha"), ("edge", " ", "a", "has")])
@settings(max_examples=300, deadline=None)
def test_reader_matches_the_per_edge_reference(tmp_path_factory, elements):
    path = tmp_path_factory.mktemp("read") / "g.graphml"
    path.write_text(_graphml_document(elements), encoding="utf-8")
    assert _read_outcome(read_graphml, path) == _read_outcome(oracles.read_graphml, path)


# ---------------------------------------------------------------------------
# snapshot store


def test_store_orders_by_iteration_not_lexically(tmp_path):
    g2 = KnowledgeGraph()
    g2.add_edge("a", "HAS", "b")
    g10 = g2.copy()
    g10.add_edge("b", "HAS", "c")
    store = SnapshotStore(tmp_path)
    store.write(Snapshot(10, g10))
    store.write(Snapshot(2, g2))
    series = list(store.snapshots())
    assert [s.iteration for s in series] == [2, 10]
    assert series[0].graph.edge_count == 1
    assert series[1].graph.edge_count == 2


def test_store_ignores_unrelated_files(tmp_path):
    (tmp_path / "notes.txt").write_text("hello")
    (tmp_path / "graph_iteration_x.graphml").write_text("not matched")
    # copies whose names only end in a snapshot's name
    strays = ["backup_graph_iteration_3.graphml", "old_graph_iteration_9.graphml"]
    for name in strays:
        (tmp_path / name).write_text("<graphml><broken")
    # what a write stopped by SIGKILL leaves behind
    (tmp_path / "graph_iteration_1.graphml.partial").write_text("<graphml><broken")
    store = SnapshotStore(tmp_path)
    g = KnowledgeGraph()
    g.add_edge("a", "HAS", "b")
    store.write(Snapshot(0, g))
    assert [i for i, _ in store.iteration_paths()] == [0]
    series = list(store.snapshots())
    assert len(series) == 1
    assert store.final().iteration == 0
    # a run's cleanup removes the .partial file and leaves the strays alone
    run(RunConfig(iterations=1, snapshot_dir=str(tmp_path)))
    assert not (tmp_path / "graph_iteration_1.graphml.partial").exists()
    assert all((tmp_path / name).exists() for name in strays)
    assert [i for i, _ in store.iteration_paths()] == [0]


def test_store_rejects_two_files_for_one_iteration(tmp_path):
    store = SnapshotStore(tmp_path)
    store.write(Snapshot(1, KnowledgeGraph()))
    (tmp_path / "graph_iteration_01.graphml").write_bytes(
        (tmp_path / "graph_iteration_1.graphml").read_bytes())
    with pytest.raises(GraphMLError, match="iteration 1") as err:
        store.iteration_paths()
    assert "graph_iteration_01.graphml" in str(err.value)
    assert "graph_iteration_1.graphml" in str(err.value)
