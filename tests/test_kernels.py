"""The kernels on the snapshot index against networkx, value for value.

Each kernel keeps networkx's integer formulas and the order of its float
sums, so clustering, transitivity and eigenvector scores must equal
networkx's with ``==``, and core numbers and articulation points exactly.
Assortativity must equal the networkx-view reference it replaced.
"""

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgexpand import analytics
from kgexpand.core import KnowledgeGraph
from kgexpand.errors import UndefinedMetric
from kgexpand.sweep import snapshot_index

from . import oracles

KINDS = ["HAS", "IS-A", "RELATES-TO"]


@st.composite
def graphs(draw):
    """Graphs on up to 12 nodes with self-loops, parallel relations in either
    direction and isolated nodes, often disconnected. Keys sort apart from
    creation order ("v10" before "v2")."""
    n = draw(st.integers(0, 12))
    nodes = [f"v{i}" for i in range(n)]
    g = KnowledgeGraph()
    for v in nodes:
        g.add_node(v)
    if n:
        triple = st.tuples(st.sampled_from(nodes), st.sampled_from(KINDS),
                           st.sampled_from(nodes))
        for s, kind, t in draw(st.lists(triple, max_size=3 * n)):
            g.add_edge(s, kind, t)
    return g


def _graph(triples, extra=()):
    g = KnowledgeGraph()
    for s, kind, t in triples:
        g.add_edge(s, kind, t)
    for v in extra:
        g.add_node(v)
    return g


_ONE_NODE = _graph([], ["only"])
_ONE_LOOP = _graph([("only", "HAS", "only")])
_TWO_NODES = _graph([("b", "HAS", "a"), ("a", "IS-A", "b")])
_TWO_APART = _graph([], ["a", "b"])
_LOOPS_AND_PIECES = _graph([("a", "HAS", "b"), ("b", "HAS", "b"), ("c", "IS-A", "b"),
                            ("x", "HAS", "y"), ("z", "HAS", "z"), ("c", "HAS", "a")],
                           ["lone"])
_TWO_TRIANGLES = _graph([("a", "HAS", "b"), ("b", "HAS", "c"), ("c", "HAS", "a"),
                         ("c", "HAS", "d"), ("d", "HAS", "e"), ("e", "HAS", "c")])


def with_examples(test):
    for g in (KnowledgeGraph(), _ONE_NODE, _ONE_LOOP, _TWO_NODES, _TWO_APART,
              _LOOPS_AND_PIECES, _TWO_TRIANGLES):
        test = example(g)(test)
    return settings(max_examples=300, deadline=None)(given(graphs())(test))


@with_examples
def test_index_is_the_self_loop_free_view(g):
    index = snapshot_index(g)
    simple = g.undirected_view(self_loops=False)
    assert index.nodes == sorted(simple)
    position = {v: i for i, v in enumerate(index.nodes)}
    assert index.adjacency == [sorted(position[u] for u in simple.adj[v])
                               for v in index.nodes]
    assert [index.nodes[i] for i in index.self_loop.nonzero()[0]] == sorted(
        v for v, _ in nx.selfloop_edges(g.undirected_view()))
    # the view's edge order, which fixes the order of assortativity's sums
    assert index.edges.tolist() == [[position[u], position[v]] for u, v in simple.edges()]


@with_examples
def test_clustering_and_transitivity_equal_networkx(g):
    index = snapshot_index(g)
    simple = g.undirected_view(self_loops=False)
    triangles = analytics.triangles(index)
    local = analytics.clustering(index, triangles)
    reference = nx.clustering(simple)
    assert local == [reference[v] for v in index.nodes]
    assert analytics.transitivity(index, triangles) == nx.transitivity(simple)
    if g.node_count:
        average = analytics.basic_metrics(g, index, local).avg_clustering
        assert average == nx.average_clustering(simple)


@with_examples
def test_core_numbers_and_articulation_points_equal_networkx(g):
    index = snapshot_index(g)
    simple = g.undirected_view(self_loops=False)
    core = nx.core_number(simple)
    assert analytics.core_numbers(index) == [core[v] for v in index.nodes]
    top = max(core.values(), default=0)
    assert analytics.kcore(index) == (top, sum(1 for c in core.values() if c == top))
    assert analytics.articulation_points(index) == set(nx.articulation_points(simple))


def _networkx_eigenvector(view):
    try:
        return nx.eigenvector_centrality(view, max_iter=analytics.EIGENVECTOR_MAX_ITER,
                                         tol=analytics.EIGENVECTOR_TOL)
    except nx.PowerIterationFailedConvergence:
        return None


@with_examples
def test_eigenvector_equals_networkx_with_and_without_self_loops(g):
    if not g.node_count:
        return
    index = snapshot_index(g)
    for self_loops in (True, False):
        ours = analytics.eigenvector_centrality(index, self_loops=self_loops)
        assert ours == _networkx_eigenvector(g.undirected_view(self_loops=self_loops))


def test_eigenvector_is_none_where_networkx_does_not_converge():
    # a long path mixes slowly: 1000 iterations leave it short of the tolerance
    g = _graph([(f"n{i:03d}", "HAS", f"n{i + 1:03d}") for i in range(199)])
    assert _networkx_eigenvector(g.undirected_view()) is None
    assert analytics.eigenvector_centrality(snapshot_index(g), self_loops=True) is None


@with_examples
def test_assortativity_equals_the_view_reference(g):
    index = snapshot_index(g)
    try:
        expected = oracles.assortativity_view(g.undirected_view(self_loops=False))
    except UndefinedMetric:
        with pytest.raises(UndefinedMetric):
            analytics.assortativity(index)
    else:
        assert analytics.assortativity(index) == expected
