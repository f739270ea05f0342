"""The snapshot index and the batched Brandes sweep, against networkx."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgexpand import analytics, sweep
from kgexpand.sweep import distance_sweep

from . import oracles
from .oracles import index_of

REL = 1e-12


@st.composite
def graphs(draw):
    """Graphs on up to 12 nodes with self-loops allowed, often disconnected and
    with isolated nodes. Keys sort apart from creation order ("v10" before "v2")."""
    n = draw(st.integers(0, 12))
    nodes = [f"v{i}" for i in range(n)]
    g = nx.Graph()
    g.add_nodes_from(nodes)
    if n:
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        g.add_edges_from(draw(st.lists(pairs, max_size=3 * n)))
    return g


def _simple(g):
    simple = nx.Graph(g)
    simple.remove_edges_from(list(nx.selfloop_edges(simple)))
    return simple


def _largest_component(g):
    comps = list(nx.connected_components(g))
    size = max(len(c) for c in comps)
    return min((c for c in comps if len(c) == size), key=min)


def _assert_close(got: dict, expected: dict):
    assert got.keys() == expected.keys()
    for v, value in expected.items():
        assert math.isclose(got[v], value, rel_tol=REL, abs_tol=0.0), (v, got[v], value)


def _check_against_networkx(g):
    index = index_of(g)
    n = len(index.nodes)
    swept = distance_sweep(index, keep=range(n))
    simple = _simple(g)
    assert index.nodes == sorted(g)
    assert index.degree.tolist() == [d for _, d in simple.degree(index.nodes)]
    _assert_close(swept.betweenness, nx.betweenness_centrality(simple))
    assert swept.closeness() == nx.closeness_centrality(g)
    for i, v in enumerate(index.nodes):
        row = swept.rows[i].tolist()
        assert ({index.nodes[j]: d for j, d in enumerate(row) if d >= 0}
                == nx.single_source_shortest_path_length(g, v))
    # rows the sweep did not keep come from a forward pass of their own
    plain = distance_sweep(index, betweenness=False)
    assert plain.betweenness is None and plain.rows == {}
    again = plain.depths(range(n))
    assert all(again[i].tolist() == swept.rows[i].tolist() for i in range(n))
    if n == 0:
        assert swept.betweenness == {} and len(index.lcc) == 0
        return
    lcc = _largest_component(simple)
    assert [index.nodes[i] for i in index.lcc] == sorted(lcc)
    _assert_close(swept.lcc_betweenness,
                  nx.betweenness_centrality(simple.subgraph(lcc)))
    lcc_graph = simple.subgraph(lcc)
    expected = ((0.0, 0) if len(lcc) == 1 else
                (nx.average_shortest_path_length(lcc_graph), nx.diameter(lcc_graph)))
    assert analytics.spl_and_diameter(swept) == expected


def _two_equal_components():
    return nx.Graph([("m", "n"), ("n", "o"), ("b", "c"), ("c", "d")])


@given(graphs())
@example(nx.Graph())
@example(nx.empty_graph(["only"]))
@example(nx.Graph([("only", "only")]))
@example(nx.Graph([("a", "b")]))
@example(nx.empty_graph(["a", "b"]))
@example(nx.Graph([("a", "b"), ("b", "b"), ("b", "c"), ("x", "y"), ("z", "z")]))
@example(_two_equal_components())
@example(nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 4)))
@settings(max_examples=300, deadline=None)
def test_sweep_matches_networkx(g):
    _check_against_networkx(g)


@pytest.mark.parametrize("seed", range(4))
def test_batches_of_a_few_sources_give_the_same_sweep(monkeypatch, seed):
    g = nx.disjoint_union(oracles.random_connected_graph(20, 12, seed),
                          oracles.random_connected_graph(9, 4, seed + 10))
    g = nx.relabel_nodes(g, {v: f"n{v}" for v in g})
    whole = distance_sweep(index_of(g))
    monkeypatch.setattr(sweep, "BATCH_COLUMNS", 3)
    _check_against_networkx(g)
    batched = distance_sweep(index_of(g))
    assert batched.dist_sum.tolist() == whole.dist_sum.tolist()
    _assert_close(batched.betweenness, whole.betweenness)


def test_largest_component_ties_go_to_the_smallest_key():
    index = index_of(_two_equal_components())
    assert [index.nodes[i] for i in index.lcc] == ["b", "c", "d"]
    assert index.component.tolist() == [0, 0, 0, 3, 3, 3]


def test_hop_rows_are_int16_and_equal_an_int32_sweep(monkeypatch):
    g = oracles.random_connected_graph(40, 30, 5)
    g.add_edge("x1", "x2")              # unreachable pairs hold -1
    index = index_of(g)
    n = len(index.nodes)
    narrow = distance_sweep(index, keep=range(0, n, 2))
    narrow_depths = narrow.depths(range(n))
    monkeypatch.setattr(sweep, "hop_dtype", lambda n: np.int32)
    wide = distance_sweep(index, keep=range(0, n, 2))
    wide_depths = wide.depths(range(n))
    assert narrow.rows.keys() == wide.rows.keys()
    for i in range(n):
        assert narrow_depths[i].dtype == np.int16 and wide_depths[i].dtype == np.int32
        assert np.array_equal(narrow_depths[i], wide_depths[i])
    assert min(row.min() for row in narrow_depths.values()) == -1


def test_hop_dtype_holds_every_hop_count():
    # n nodes are at most n - 1 hops apart
    assert sweep.hop_dtype((1 << 15) - 1) is np.int16
    assert sweep.hop_dtype(1 << 15) is np.int32


def test_one_index_builds_one_neighbour_table(monkeypatch):
    built = []
    init = sweep.NeighbourRows.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(sweep.NeighbourRows, "__init__", counted)
    g = oracles.random_connected_graph(30, 20, 3)
    g.add_edge("x1", "x2")
    g.add_edge("x1", "x1")
    index = index_of(g)
    n = len(index.nodes)
    swept = distance_sweep(index, keep=range(0, n, 2))
    swept.depths(range(n))              # the odd rows take a forward pass of their own
    analytics.eigenvector_centrality(index, self_loops=False)
    assert built == [index.rows]
    # the self-loops on the diagonal need their own table, one more
    analytics.eigenvector_centrality(index, self_loops=True)
    assert len(built) == 2 and built[0] is index.rows
    # and an index that only that call reads builds only that table
    analytics.eigenvector_centrality(index_of(g), self_loops=True)
    assert len(built) == 3
