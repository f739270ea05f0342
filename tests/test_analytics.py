import math
import random
from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgexpand import analytics
from kgexpand.cli import main
from kgexpand.core import KnowledgeGraph, Snapshot
from kgexpand.errors import EmptyGraph, UndefinedMetric
from kgexpand.graphml_io import read_graphml
from kgexpand.sweep import distance_sweep, snapshot_index

from . import oracles
from .oracles import index_of

EXACT = 1e-9
EIG = 1e-6


def kg_from_edges(edges, extra_nodes=()):
    g = KnowledgeGraph()
    for u, v in edges:
        g.add_edge(u, "HAS", v)
    for n in extra_nodes:
        g.add_node(n)
    return g


def snapshot_series(edge_lists):
    """Cumulative snapshots from per-iteration edge batches."""
    g = KnowledgeGraph()
    series = []
    for i, batch in enumerate(edge_lists):
        for u, v in batch:
            g.add_edge(u, "HAS", v)
        series.append(Snapshot(i, g.copy()))
    return series


def sweep_of(g):
    """One distance sweep of a networkx graph, as the analysis makes per snapshot."""
    return distance_sweep(index_of(g))


def spl_histogram(index, samples, seed):
    """Draw the SPL-histogram pairs, sweep keeping their sources' rows, then
    count, as the analysis does on its final snapshot."""
    pairs = analytics.draw_lcc_pairs(index, samples, seed)
    return analytics.sampled_spl_distribution(
        distance_sweep(index, keep={u for u, _ in pairs}), pairs)


def triangles_of(g):
    """A networkx graph's index and its triangle counts."""
    index = index_of(g)
    return index, analytics.triangles(index)


def basic_metrics(kg):
    """``analytics.basic_metrics`` on the index and clustering the analysis
    builds for a snapshot."""
    index = snapshot_index(kg)
    local = analytics.clustering(index, analytics.triangles(index))
    return analytics.basic_metrics(kg, index, local)


def newly_connected_pairs(ledger, snap, samples, seed=0):
    """Draw the pairs, sweep keeping their sources' rows, then count, as the analysis does."""
    index = snapshot_index(snap.graph)
    pairs = analytics.draw_pairs(seed, snap.iteration, len(index.nodes), samples)
    sweep = distance_sweep(index, keep={u for u, _ in pairs})
    return analytics.newly_connected_pairs(
        ledger, snap.iteration, analytics.node_ids(ledger.ids, index.nodes), pairs,
        analytics.pair_hops(sweep, pairs))


# ---------------------------------------------------------------------------
# basic metrics


def test_triangle_basics():
    b = basic_metrics(kg_from_edges([("A", "B"), ("B", "C"), ("C", "A")]))
    assert (b.nodes, b.edges) == (3, 3)
    assert b.avg_degree == pytest.approx(2.0, abs=EXACT)
    assert b.avg_clustering == pytest.approx(1.0, abs=EXACT)
    assert b.max_degree == 2
    assert b.self_loops == 0
    assert b.lcc_size == 3


def test_self_loops_counted():
    g = kg_from_edges([("A", "A"), ("A", "B")])
    b = basic_metrics(g)
    assert b.self_loops == 1
    assert b.edges == 2


def test_avg_degree_identity_holds():
    g = kg_from_edges([("A", "B"), ("B", "A"), ("A", "A"), ("C", "D")])
    b = basic_metrics(g)
    assert b.avg_degree == pytest.approx(2 * b.edges / b.nodes, abs=EXACT)


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        basic_metrics(KnowledgeGraph())


@pytest.mark.parametrize("seed", range(8))
def test_basic_metrics_match_oracle(seed):
    g = oracles.random_connected_graph(10, 5, seed, self_loop_prob=0.5)
    kg = KnowledgeGraph()
    for u, v in g.edges():
        kg.add_edge(u, "HAS", v)
    b = basic_metrics(kg)
    simple = g.copy()
    simple.remove_edges_from(nx.selfloop_edges(simple))
    assert b.avg_clustering == pytest.approx(
        oracles.average_clustering(simple), abs=EXACT)
    assert b.lcc_size == 10


# ---------------------------------------------------------------------------
# shortest paths


def test_path_graph_spl_matches_closed_form():
    p5 = nx.path_graph([f"v{i}" for i in range(5)])
    avg, diameter = analytics.spl_and_diameter(sweep_of(p5))
    assert avg == pytest.approx(2.0, abs=EXACT)
    assert diameter == 4


def test_disconnected_input_reads_the_largest_component():
    g = nx.Graph([("a", "b"), ("b", "c")])
    g.add_edge("x", "y")
    g.add_node("z")
    assert analytics.spl_and_diameter(sweep_of(g)) == (4 / 3, 2)


def test_singleton_has_zero_spl():
    g = nx.Graph()
    g.add_node("v")
    assert analytics.spl_and_diameter(sweep_of(g)) == (0.0, 0)


@pytest.mark.parametrize("seed", range(8))
def test_spl_matches_floyd_warshall(seed):
    g = oracles.random_connected_graph(15, 8, seed)
    avg, diameter = analytics.spl_and_diameter(sweep_of(g))
    o_avg, o_diam = oracles.spl_diameter(g)
    assert avg == pytest.approx(o_avg, abs=EXACT)
    assert diameter == o_diam


# ---------------------------------------------------------------------------
# community structure


def test_single_clique_is_one_community_with_zero_q():
    g = nx.complete_graph([f"v{i}" for i in range(5)])
    partition, q = analytics.louvain(index_of(g), seed=1)
    assert len(set(partition.values())) == 1
    assert q == pytest.approx(0.0, abs=EXACT)


def test_two_cliques_joined_by_edge():
    g = nx.Graph()
    for base in ("a", "b"):
        clique = [f"{base}{i}" for i in range(4)]
        g.add_edges_from((u, v) for i, u in enumerate(clique) for v in clique[i + 1:])
    g.add_edge("a0", "b0")
    partition, q = analytics.louvain(index_of(g), seed=1)
    assert len(set(partition.values())) == 2
    assert {partition[f"a{i}"] for i in range(4)} != {partition[f"b{i}"] for i in range(4)}
    assert q == pytest.approx(oracles.best_modularity(g), abs=0.02)


def test_returned_q_equals_partition_modularity():
    for seed in range(5):
        g = oracles.random_connected_graph(9, 4, seed)
        partition, q = analytics.louvain(index_of(g), seed=seed)
        comms = {}
        for v, cid in partition.items():
            comms.setdefault(cid, set()).add(v)
        assert q == pytest.approx(oracles.modularity(g, comms.values()), abs=EXACT)


def test_louvain_is_deterministic():
    g = oracles.random_connected_graph(12, 8, 4)
    assert analytics.louvain(index_of(g), seed=9) == analytics.louvain(index_of(g), seed=9)


def test_louvain_edgeless_graph():
    g = nx.Graph()
    g.add_nodes_from("abc")
    partition, q = analytics.louvain(index_of(g), seed=0)
    assert len(set(partition.values())) == 3
    assert q == 0.0


def test_louvain_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        analytics.louvain(index_of(nx.Graph()), seed=0)


@st.composite
def simple_graphs(draw):
    """Self-loop-free graphs on up to 12 nodes, often disconnected. Keys sort
    apart from creation order ("v10" before "v2")."""
    n = draw(st.integers(1, 12))
    nodes = [f"v{i}" for i in range(n)]
    g = nx.Graph()
    g.add_nodes_from(nodes)
    if n > 1:
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        g.add_edges_from((u, v) for u, v in draw(st.lists(pairs, max_size=2 * n))
                         if u != v)
    return g


def _two_triangles():
    return nx.Graph([("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "z"),
                     ("z", "x")])


_EDGELESS = nx.empty_graph(["p", "q", "r", "s"])
_ONE_NODE = nx.empty_graph(["only"])
# the largest graph that gets merge-refine, and the smallest that does not
_AT_REFINE_LIMIT = oracles.random_connected_graph(
    analytics.MERGE_REFINE_MAX_NODES, 40, 1)
_PAST_REFINE_LIMIT = oracles.random_connected_graph(
    analytics.MERGE_REFINE_MAX_NODES + 1, 40, 2)


@given(simple_graphs(), st.integers(0, 3))
@example(_EDGELESS, 1)
@example(_ONE_NODE, 0)
@example(_two_triangles(), 2)
# a partition whose modularity, summed in another community order, differs in
# its last bit
@example(oracles.random_connected_graph(9, 7, 3), 3)
@example(_AT_REFINE_LIMIT, 0)
@example(_AT_REFINE_LIMIT, 3)
@example(_PAST_REFINE_LIMIT, 0)
@example(_PAST_REFINE_LIMIT, 3)
@settings(max_examples=200, deadline=None)
def test_louvain_matches_the_networkx_reference(g, seed):
    partition, q = analytics.louvain(index_of(g), seed)
    ref_partition, ref_q = oracles.louvain(g, seed)
    assert partition == ref_partition
    assert repr(q) == repr(ref_q)
    # the index's ascending rows change nothing against networkx's row order
    assert (partition, repr(q)) == _repr_q(oracles.louvain_on_view(g, seed))


def _repr_q(result):
    partition, q = result
    return partition, repr(q)


# Restarts whose merge-refine reaches states an earlier restart searched from.
# On the second graph one search accepts two merges in a row, so three states
# share its result, and later restarts land on them.
_MEMO_HIT = oracles.random_connected_graph(10, 9, 4)
_TWO_MERGES = oracles.random_connected_graph(15, 9, 9)


@pytest.mark.parametrize("g, seed, chain", [(_MEMO_HIT, 1, 1), (_TWO_MERGES, 0, 3)])
def test_louvain_memo_reuses_merge_refine_searches(monkeypatch, g, seed, chain):
    def counting(owner):
        calls = []
        fn = owner._louvain_one_level

        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, "_louvain_one_level", wrapper)
        return calls

    memos = []
    merge_refine = analytics._merge_refine

    def keep_memo(adj, degree, m, communities, memo):
        memos.append(memo)
        return merge_refine(adj, degree, m, communities, memo)

    monkeypatch.setattr(analytics, "_merge_refine", keep_memo)
    ours, reference = counting(analytics), counting(oracles)
    partition, q = analytics.louvain(index_of(g), seed)
    ref_partition, ref_q = oracles.louvain(g, seed)
    assert partition == ref_partition
    assert repr(q) == repr(ref_q)
    # every search the memo answered is a local-move phase not run
    assert 0 < len(ours) < len(reference)
    shared: dict = {}
    for result, _ in memos[0].values():
        shared[id(result)] = shared.get(id(result), 0) + 1
    assert max(shared.values()) >= chain


def _exact_modularity(adj, degree, labels) -> Fraction:
    """Modularity of ``labels`` where a node's degree past its row counts
    links inside it, as at an aggregate level."""
    two_m = int(sum(degree))
    internal, tot = Counter(), Counter()
    for v, row in enumerate(adj):
        tot[labels[v]] += int(degree[v])
        internal[labels[v]] += int(degree[v]) - len(row)
        internal[labels[v]] += sum(1 for u in row if labels[u] == labels[v])
    return sum(Fraction(internal[c], two_m) - Fraction(tot[c], two_m) ** 2 for c in tot)


@st.composite
def start_states(draw):
    """A simple graph with edges, as rows of an aggregate level: each edge
    repeated up to three times, and links inside each node (so nodes can gain
    by leaving for a fresh community), some so many that a degree passes
    4096; a visiting order and a start labelling."""
    g = draw(simple_graphs().filter(lambda g: g.number_of_edges() > 0))
    n = g.number_of_nodes()
    repeats = draw(st.lists(st.integers(1, 3), min_size=g.number_of_edges(),
                            max_size=g.number_of_edges()))
    loops = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(2048, 100_000)),
                          min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    return g, repeats, loops, labels, order


def _aggregate_level(g, repeats, loops):
    """The rows and degrees of a start state: each neighbour listed once per
    edge, and a degree counting each link inside a node twice."""
    index = index_of(g)
    times = {}
    for (u, v), r in zip(index.edges.tolist(), repeats):
        times[u, v] = times[v, u] = r
    adj = [[u for u in row for _ in range(times[v, u])]
           for v, row in enumerate(index.adjacency)]
    return adj, [len(row) + 2 * loop for row, loop in zip(adj, loops)]


# the last node's loop makes the second triangle leave for a fresh community
_FRESH = (_two_triangles(), [1] * 6, [0, 0, 0, 0, 0, 1], [0] * 6, list(range(6)))


@given(start_states(), st.booleans())
@example(_FRESH, False)
@example(_FRESH, True)
@settings(max_examples=300, deadline=None)
def test_one_level_returns_its_exact_modularity_gain(state, skip_settled):
    g, repeats, loops, labels, order = state
    adj, degree = _aggregate_level(g, repeats, loops)
    node_comm = labels.copy()
    gain = analytics._louvain_one_level(adj, degree, sum(degree), order, node_comm,
                                        skip_settled=skip_settled)
    change = (_exact_modularity(adj, degree, node_comm)
              - _exact_modularity(adj, degree, labels))
    assert Fraction(gain) == Fraction(int(sum(degree)) ** 2, 2) * change
    assert (gain > 0) == (node_comm != labels)


def test_one_level_moves_into_fresh_communities():
    g, repeats, loops, labels, order = _FRESH
    adj, degree = _aggregate_level(g, repeats, loops)
    node_comm = labels.copy()
    assert analytics._louvain_one_level(adj, degree, sum(degree), order, node_comm) > 0
    assert max(node_comm) > max(labels)


# At the merge-refine limit with as many edges as a few seconds allow, where a
# positive gain, at least 1/(2 m^2) in modularity, is smallest.
@pytest.mark.parametrize("g", [
    nx.gnm_random_graph(analytics.MERGE_REFINE_MAX_NODES, 1500, seed=0),
    nx.gnm_random_graph(analytics.MERGE_REFINE_MAX_NODES, 2000, seed=1),
    nx.planted_partition_graph(4, analytics.MERGE_REFINE_MAX_NODES // 4, 1.0, 0.7, seed=2),
], ids=["gnm-1500", "gnm-2000", "planted"])
@pytest.mark.parametrize("seed", [0, 3])
def test_louvain_matches_the_reference_on_dense_graphs_at_the_refine_limit(g, seed):
    assert g.number_of_edges() >= 1500
    partition, q = analytics.louvain(index_of(g), seed)
    ref_partition, ref_q = oracles.louvain(g, seed)
    assert partition == ref_partition
    assert repr(q) == repr(ref_q)


@pytest.mark.parametrize("g, seed", [(_MEMO_HIT, 1), (_TWO_MERGES, 0),
                                     (_AT_REFINE_LIMIT, 3)])
def test_merge_refine_builds_groups_only_for_accepted_merges(monkeypatch, g, seed):
    calls = Counter()
    searching = []

    def counting(name):
        fn = getattr(analytics, name)

        def wrapper(*args, **kwargs):
            if searching:
                calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(analytics, name, wrapper)

    merge_refine = analytics._merge_refine
    accepted = []

    def search(adj, degree, m, communities, memo):
        known = set(memo)
        searching.append(1)
        result, gain = merge_refine(adj, degree, m, communities, memo)
        searching.pop()
        # every state searched is a new key, and each but a last one with no
        # better trial was left by an accepted merge
        accepted.append(len(set(memo) - known) - (tuple(result) not in known))
        return result, gain

    counting("_modularity")
    counting("_canonical")
    monkeypatch.setattr(analytics, "_merge_refine", search)
    analytics.louvain(index_of(g), seed)
    assert sum(accepted) > 0
    assert calls["_modularity"] == 0
    assert calls["_canonical"] == sum(accepted)


@st.composite
def labelled_graphs(draw):
    """A graph from ``simple_graphs`` and any labelling of its nodes: ids
    with gaps, out of order, singletons or one community."""
    g = draw(simple_graphs())
    n = g.number_of_nodes()
    return g, draw(st.lists(st.integers(0, 2 * n), min_size=n, max_size=n))


@given(labelled_graphs())
@example((_EDGELESS, [3, 0, 3, 7]))
@example((_two_triangles(), [5, 5, 5, 2, 2, 2]))
@settings(max_examples=300, deadline=None)
def test_modularity_of_canonical_labels_matches_the_set_reference(case):
    g, labels = case
    canonical = analytics._canonical(labels)
    smallest: dict = {}
    for v, c in enumerate(labels):
        smallest.setdefault(c, v)
    ranks = sorted(smallest.values())
    assert canonical == [ranks.index(smallest[c]) for c in labels]
    groups = oracles.label_groups(enumerate(labels))
    assert oracles.label_groups(enumerate(canonical)) == groups
    index = index_of(g)
    adj, m = index.adjacency, len(index.edges)
    assert (repr(analytics._modularity(adj, m, canonical))
            == repr(oracles.index_modularity(adj, m, groups)))


# Graphs past the merge-refine limit, where the local-move phase skips
# settled nodes.
@pytest.mark.parametrize("n", [65, 100, 200])
@pytest.mark.parametrize("graph_seed", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 3])
def test_louvain_matches_the_reference_on_large_random_graphs(n, graph_seed, seed):
    g = nx.gnm_random_graph(n, 2 * n, seed=graph_seed)
    partition, q = analytics.louvain(index_of(g), seed)
    ref_partition, ref_q = oracles.louvain(g, seed)
    assert partition == ref_partition
    assert repr(q) == repr(ref_q)
    assert (partition, repr(q)) == _repr_q(oracles.louvain_on_view(g, seed))


@pytest.fixture(scope="module")
def grown_graph(tmp_path_factory):
    """The final snapshot (about 750 nodes) of a 300-iteration synthetic run.
    Its hubs make aggregate levels whose rows repeat many neighbours, which
    random graphs of the same size do not."""
    out = tmp_path_factory.mktemp("hubs") / "snaps"
    assert main(["run", "--synthetic", "--iterations", "300", "--seed", "7",
                 "--out", str(out)]) == 0
    return read_graphml(out / "graph_iteration_299.graphml")


@pytest.mark.parametrize("seed", [0, 3])
def test_louvain_matches_the_reference_on_a_grown_graph(grown_graph, seed):
    partition, q = analytics.louvain(snapshot_index(grown_graph), seed)
    view = grown_graph.undirected_view(self_loops=False)
    ref_partition, ref_q = oracles.louvain(view, seed)
    assert partition == ref_partition
    assert repr(q) == repr(ref_q)


@pytest.mark.parametrize("n, m, graph_seed, seed", [
    # moves differently when only neighbour moves and joins wake a settled
    # node: a node leaving a community next to it must wake it too
    (39, 48, 6, 1),
    (20, 30, 0, 0),
    (30, 45, 3, 2),
    (50, 60, 4, 5),
    (64, 150, 7, 0),
])
def test_skipping_settled_nodes_changes_no_move(monkeypatch, n, m, graph_seed, seed):
    # every local-move phase of one louvain call (restart levels and merge
    # trials) runs with skipping and without, from the same state
    one_level = analytics._louvain_one_level
    phases = []

    def both_ways(adj, degree, m2, order, node_comm, **kwargs):
        skipping = node_comm.copy()
        improved = one_level(adj, degree, m2, order, skipping, skip_settled=True)
        assert one_level(adj, degree, m2, order, node_comm) == improved
        assert node_comm == skipping
        phases.append(improved)
        return improved

    monkeypatch.setattr(analytics, "_louvain_one_level", both_ways)
    analytics.louvain(index_of(nx.gnm_random_graph(n, m, seed=graph_seed)), seed)
    assert any(phases)


# ---------------------------------------------------------------------------
# degree correlation, transitivity, k-core, articulation points


def test_star_is_perfectly_disassortative():
    star = nx.star_graph([f"v{i}" for i in range(6)])
    assert analytics.assortativity(index_of(star)) == pytest.approx(-1.0, abs=EXACT)


def test_regular_graph_assortativity_undefined():
    with pytest.raises(UndefinedMetric):
        analytics.assortativity(index_of(nx.complete_graph(4)))


def test_assortativity_needs_two_edges():
    with pytest.raises(UndefinedMetric):
        analytics.assortativity(index_of(nx.Graph([("a", "b")])))


@pytest.mark.parametrize("seed", range(8))
def test_assortativity_matches_pearson_oracle(seed):
    g = oracles.random_connected_graph(10, 6, seed)
    try:
        ours = analytics.assortativity(index_of(g))
    except UndefinedMetric:
        return
    assert ours == pytest.approx(oracles.assortativity(g), abs=EXACT)


def test_transitivity_extremes():
    assert analytics.transitivity(*triangles_of(nx.complete_graph(3))) == pytest.approx(1.0)
    assert analytics.transitivity(*triangles_of(nx.path_graph(3))) == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(8))
def test_transitivity_matches_triangle_count(seed):
    g = oracles.random_connected_graph(10, 8, seed)
    assert analytics.transitivity(*triangles_of(g)) == pytest.approx(
        oracles.transitivity(g), abs=EXACT)


def test_kcore_of_complete_graph():
    assert analytics.kcore(index_of(nx.complete_graph(4))) == (3, 4)


def test_kcore_of_tree():
    tree = nx.random_labeled_tree(9, seed=2)
    assert analytics.kcore(index_of(tree)) == (1, 9)


@pytest.mark.parametrize("seed", range(8))
def test_kcore_matches_subset_enumeration(seed):
    g = oracles.random_connected_graph(9, 7, seed, self_loop_prob=0.4)
    simple = nx.Graph(g)
    simple.remove_edges_from(list(nx.selfloop_edges(simple)))
    assert analytics.kcore(index_of(simple)) == oracles.kcore(g)


def test_kcore_bounds():
    g = oracles.random_connected_graph(11, 9, 31)
    max_k, size = analytics.kcore(index_of(g))
    assert max_k <= max(d for _, d in g.degree())
    assert size >= max_k + 1


def test_articulation_points_on_path_and_cycle():
    assert analytics.articulation_points(index_of(nx.path_graph(["a", "b", "c"]))) == {"b"}
    assert analytics.articulation_points(index_of(nx.cycle_graph(5))) == set()


@pytest.mark.parametrize("seed", range(8))
def test_articulation_points_match_removal_oracle(seed):
    g = oracles.random_connected_graph(10, 4, seed, self_loop_prob=0.4)
    assert analytics.articulation_points(index_of(g)) == oracles.articulation_points(g)


# ---------------------------------------------------------------------------
# centralities


def test_middle_of_path_has_unit_betweenness():
    table = analytics.centralities(sweep_of(nx.path_graph(["a", "b", "c"])))
    assert table.betweenness["b"] == pytest.approx(1.0, abs=EXACT)
    assert table.betweenness["a"] == pytest.approx(0.0, abs=EXACT)


def test_star_center_dominates_eigenvector():
    star = nx.star_graph([f"v{i}" for i in range(5)])
    table = analytics.centralities(sweep_of(star))
    center = table.eigenvector["v0"]
    leaves = [table.eigenvector[f"v{i}"] for i in range(1, 5)]
    assert all(center > leaf for leaf in leaves)
    assert max(leaves) - min(leaves) < EIG


def test_eigenvector_has_unit_norm():
    g = oracles.random_connected_graph(9, 5, 17)
    table = analytics.centralities(sweep_of(g))
    norm = math.sqrt(sum(v * v for v in table.eigenvector.values()))
    assert norm == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_centralities_match_enumeration_oracles(seed):
    g = oracles.random_connected_graph(8, 5, seed)
    table = analytics.centralities(sweep_of(g))
    o_bet = oracles.betweenness(g)
    o_clo = oracles.closeness(g)
    o_eig = oracles.eigenvector(g)
    for v in g:
        assert table.betweenness[v] == pytest.approx(o_bet[v], abs=EXACT)
        assert table.closeness[v] == pytest.approx(o_clo[v], abs=EXACT)
        assert table.eigenvector[v] == pytest.approx(o_eig[v], abs=EIG)


def test_closeness_scales_by_component_on_disconnected_graph():
    g = nx.Graph([("a", "b"), ("b", "c")])
    g.add_edge("x", "y")
    table = analytics.centralities(sweep_of(g))
    oracle = oracles.closeness(g)
    for v in g:
        assert table.closeness[v] == pytest.approx(oracle[v], abs=EXACT)


# ---------------------------------------------------------------------------
# sampled shortest-path distribution


def test_complete_graph_distances_are_all_one():
    dist = spl_histogram(index_of(nx.complete_graph(10)), 500, seed=3)
    assert dist == {1: 500}


def test_sampling_is_deterministic_and_matches_bfs():
    g = nx.path_graph([f"p{i}" for i in range(10)])
    a = spl_histogram(index_of(g), 300, seed=11)
    b = spl_histogram(index_of(g), 300, seed=11)
    assert a == b
    total_pairs = sum(a.values())
    assert total_pairs == 300
    assert max(a) <= 9


def test_path_graph_histogram_matches_protocol_replay():
    # replay the sampling protocol with the same seed; distances on a path
    # graph are index differences, so the expected histogram is exact
    import random as random_mod

    nodes = [f"p{i}" for i in range(10)]
    g = nx.path_graph(nodes)
    got = spl_histogram(index_of(g), 400, seed=23)
    rng = random_mod.Random(23)
    expected: dict[int, int] = {}
    for _ in range(400):
        u = rng.choice(nodes)
        v = rng.choice(nodes)
        while v == u:
            v = rng.choice(nodes)
        d = abs(int(u[1:]) - int(v[1:]))
        expected[d] = expected.get(d, 0) + 1
    assert list(got.items()) == sorted(expected.items())


def test_sampling_restricted_to_lcc():
    kg = kg_from_edges([("a", "b"), ("b", "c"), ("x", "y")])
    dist = spl_histogram(snapshot_index(kg), 200, seed=5)
    assert set(dist) <= {1, 2}
    assert sum(dist.values()) == 200


@given(st.integers(2, 2100), st.integers(0, 60), st.integers(0, 2 ** 32))
@example(2, 50, 0)
@example(64, 50, 1)
@example(65, 50, 1)
@example(1024, 50, 2)
@settings(max_examples=200, deadline=None)
def test_sample_pairs_draws_what_random_choice_draws(n, samples, seed):
    nodes = list(range(0, 3 * n, 3))    # distinct, and not their own positions
    ours, reference = random.Random(seed), random.Random(seed)
    assert (analytics._sample_pairs(nodes, samples, ours)
            == oracles.sample_pairs(nodes, samples, reference))
    # the same draws were consumed
    assert ours.random() == reference.random()


# ---------------------------------------------------------------------------
# newly connected pairs


def test_first_iteration_establishes_baseline():
    series = snapshot_series([[("a", "b")]])
    ledger = analytics.PairDistanceLedger()
    stats = newly_connected_pairs(ledger, series[0], samples=None, seed=1)
    assert (stats.newly_connected, stats.shortened) == (0, 0)
    assert oracles.ledger_records(ledger) == {("a", "b"): 1}
    assert ledger.last_iteration == 0


def test_component_merge_counts_match_brute_force():
    series = snapshot_series([
        [("a", "b"), ("c", "d")],
        [("b", "c")],                      # joins the two components
        [("a", "e")],                      # new node
        [("a", "c")],                      # shortens b..d style paths
    ])
    ledger = analytics.PairDistanceLedger()
    seen = {}
    for snap in series:
        stats = newly_connected_pairs(ledger, snap, samples=None)
        und = snap.graph.undirected_view()
        expected_new = expected_short = 0
        dists = dict(nx.all_pairs_shortest_path_length(und))
        for u in und:
            for v in und:
                if u >= v:
                    continue
                d = dists[u].get(v)
                if (u, v) in seen:
                    prior = seen[(u, v)]
                    if prior is None and d is not None:
                        expected_new += 1
                    elif prior is not None and d is not None and d < prior:
                        expected_short += 1
                seen[(u, v)] = d
        assert stats.newly_connected == expected_new
        assert stats.shortened == expected_short


def test_ledger_records_hop_counts_and_minus_one_when_unreachable():
    series = snapshot_series([[("a", "b"), ("b", "c"), ("x", "y")]])
    ledger = analytics.PairDistanceLedger()
    newly_connected_pairs(ledger, series[0], samples=None)
    assert oracles.ledger_records(ledger) == {
        ("a", "b"): 1, ("a", "c"): 2, ("a", "x"): -1, ("a", "y"): -1,
        ("b", "c"): 1, ("b", "x"): -1, ("b", "y"): -1,
        ("c", "x"): -1, ("c", "y"): -1, ("x", "y"): 1}
    assert all(type(d) is int for d in oracles.ledger_records(ledger).values())


def test_ledger_rejects_stale_iteration():
    series = snapshot_series([[("a", "b")]])
    ledger = analytics.PairDistanceLedger()
    newly_connected_pairs(ledger, series[0], samples=None)
    with pytest.raises(ValueError):
        newly_connected_pairs(ledger, series[0], samples=None)


def test_sampled_counts_bounded_by_prior_records():
    series = snapshot_series([
        [("a", "b"), ("c", "d"), ("e", "f")],
        [("b", "c"), ("d", "e")],
    ])
    ledger = analytics.PairDistanceLedger()
    newly_connected_pairs(ledger, series[0], samples=50, seed=4)
    prior = oracles.ledger_records(ledger)
    stats = newly_connected_pairs(ledger, series[1], samples=50, seed=4)
    nodes = sorted(series[1].graph.node_keys)
    with_prior = sum((nodes[i], nodes[j]) in prior
                     for i, j in analytics.draw_pairs(4, 1, len(nodes), 50))
    assert 0 < stats.newly_connected + stats.shortened <= with_prior


def _ledger_matches_tuple_ledger(series, samples, seed):
    ledger, records = analytics.PairDistanceLedger(), {}
    for snap in series:
        index = snapshot_index(snap.graph)
        pairs = analytics.draw_pairs(seed, snap.iteration, len(index.nodes), samples)
        hops = analytics.pair_hops(distance_sweep(index, keep={u for u, _ in pairs}), pairs)
        ours = analytics.newly_connected_pairs(
            ledger, snap.iteration, analytics.node_ids(ledger.ids, index.nodes), pairs, hops)
        assert ours == oracles.newly_connected_pairs(records, index.nodes, pairs,
                                                     hops.tolist())
    assert oracles.ledger_records(ledger) == records


@given(st.lists(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=5),
                min_size=1, max_size=8),
       st.one_of(st.none(), st.integers(1, 40)), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_id_ledger_matches_the_tuple_keyed_ledger(batches, samples, seed):
    # random growing snapshots, with self-loops, repeated draws of one pair
    # and pairs that join, shorten or stay apart
    _ledger_matches_tuple_ledger(snapshot_series(
        [[(f"n{u}", f"n{v}") for u, v in batch] for batch in batches]), samples, seed)


def test_id_ledger_matches_the_tuple_keyed_ledger_past_a_regrowth():
    # 600 nodes take the matrix past 256 and 512 ids; iterations skip, as a stride does
    rng = random.Random(9)
    batches = [[(f"v{rng.randrange(n)}", f"v{rng.randrange(n)}") for _ in range(n)]
               for n in (40, 300, 300, 600)]
    series = [Snapshot(3 * s.iteration, s.graph) for s in snapshot_series(batches)]
    _ledger_matches_tuple_ledger(series, 400, seed=2)


# ---------------------------------------------------------------------------
# hub emergence


def test_t_emerge_is_first_iteration_above_threshold():
    batches = []
    # grow a star around "hub" one leaf at a time
    for i in range(8):
        batches.append([("hub", f"leaf {i}")])
    series = snapshot_series(batches)
    hubs = analytics.hub_emergence(series, d_emerge=5)
    assert hubs.t_emerge["hub"] == 5          # degree 6 > 5 first at iteration 5
    assert "hub" == hubs.top_hubs[0]


def test_star_center_is_unique_top_hub():
    series = snapshot_series([[("center", f"l{i}") for i in range(5)]] * 2)
    hubs = analytics.hub_emergence(series, top_n=1)
    assert hubs.top_hubs == ["center"]
    assert hubs.trajectories == {"center": {0: 5, 1: 5}}


def test_trajectories_match_per_snapshot_recount():
    series = snapshot_series([
        [("a", "b"), ("b", "c")],
        [("a", "c"), ("c", "d")],
        [("d", "e"), ("e", "a")],
    ])
    hubs = analytics.hub_emergence(series, top_n=5)
    for node, trajectory in hubs.trajectories.items():
        for it, deg in trajectory.items():
            und = series[it].graph.undirected_view(self_loops=False)
            lcc_nodes = max(nx.connected_components(und), key=len)
            assert deg == und.subgraph(lcc_nodes).degree(node)


def test_preferential_attachment_series_trajectories(tmp_path):
    from kgexpand.graphml_io import SnapshotStore
    from kgexpand.loop import RunConfig, run

    result = run(RunConfig(iterations=100, seed=21, snapshot_dir=str(tmp_path)))
    series = list(SnapshotStore(result.snapshot_dir).snapshots())
    hubs = analytics.hub_emergence(series)
    assert len(hubs.top_hubs) == 10
    for node in hubs.top_hubs:
        trajectory = hubs.trajectories[node]
        assert trajectory, f"{node} has an empty trajectory"
        degs = [trajectory[it] for it in sorted(trajectory)]
        assert degs == sorted(degs), "LCC degree of a hub never decreases here"
        for it in list(sorted(trajectory))[::25]:
            und = series[it].graph.undirected_view(self_loops=False)
            lcc_nodes = max(nx.connected_components(und), key=len)
            assert trajectory[it] == und.subgraph(lcc_nodes).degree(node)
    # emergence happened, and emergence times are consistent with trajectories
    assert hubs.t_emerge
    for node, t in hubs.t_emerge.items():
        if node in hubs.trajectories:
            assert hubs.trajectories[node].get(t, 6) > 5


# ---------------------------------------------------------------------------
# bridges


def test_shared_node_of_two_triangles_is_a_bridge():
    g = nx.Graph([("a1", "a2"), ("a2", "v"), ("v", "a1"),
                  ("b1", "b2"), ("b2", "v"), ("v", "b1")])
    partition, _ = analytics.louvain(index_of(g), seed=2)
    index = index_of(g)
    bridges = {index.nodes[i] for i in analytics.bridge_indices(index, partition)}
    assert "v" in bridges
    assert bridges == oracles.bridge_nodes(g, partition)


def test_single_clique_has_no_bridges():
    g = nx.complete_graph(5)
    partition, _ = analytics.louvain(index_of(g), seed=0)
    assert analytics.bridge_indices(index_of(g), partition).size == 0


def test_bridge_analysis_persistence_and_presence():
    clique_a = [(f"a{i}", f"a{j}") for i in range(4) for j in range(i + 1, 4)]
    clique_b = [(f"b{i}", f"b{j}") for i in range(4) for j in range(i + 1, 4)]
    series = snapshot_series([
        clique_a + clique_b,       # 0: disjoint cliques, no bridges
        [("a0", "b0")],            # 1: a0 and b0 become bridges
        [],                        # 2: unchanged
    ])
    result = analytics.bridge_analysis(series, seed=1)
    assert result.bridge_sets[0] == set()
    assert result.bridge_sets[1] == {"a0", "b0"}
    assert result.persistence == {"a0": 2, "b0": 2}
    assert result.presence_nodes == ["a0", "b0"]
    assert result.presence == [[False, True, True], [False, True, True]]


def test_bridges_have_degree_at_least_two():
    series = snapshot_series([
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "f"),
         ("f", "d")],
    ])
    result = analytics.bridge_analysis(series, seed=3)
    und = series[0].graph.undirected_view(self_loops=False)
    for v in result.bridge_sets[0]:
        assert und.degree(v) >= 2


# the iterations straddle the bridge tracker's presence window (200), and the
# degrees hit the emergence threshold (5) exactly and tie for the top hubs
TRACKED_KEYS = ["a", "b", "c", "d", "e", "f"]


@st.composite
def tracked_series(draw):
    iterations = sorted(draw(st.sets(st.sampled_from([0, 1, 7, 150, 198, 199, 200, 201,
                                                       202, 350]), min_size=1)))
    degrees = {it: draw(st.dictionaries(st.sampled_from(TRACKED_KEYS), st.integers(0, 7)))
               for it in iterations}
    bridges = {it: draw(st.sets(st.sampled_from(TRACKED_KEYS))) for it in iterations}
    return degrees, bridges


@given(tracked_series(), st.permutations(TRACKED_KEYS), st.integers(1, 7),
       st.integers(1, 7))
@example(({199: {}, 200: {"a": 5, "b": 6}, 201: {"a": 6, "b": 6}},
          {199: set(), 200: {"a"}, 201: {"b"}}), TRACKED_KEYS, 1, 1)
@example(({0: {"b": 6, "a": 6}}, {0: {"b", "a"}}), ["b", "a", "c", "d", "e", "f"], 1, 1)
@settings(max_examples=300, deadline=None)
def test_trackers_match_the_whole_series_summaries(series, first_seen, top_n, top_nodes):
    degrees, bridges = series
    ids: dict = {}
    analytics.node_ids(ids, first_seen)     # global ids need not follow key order
    hubs, bridge_tracker = analytics.HubTracker(), analytics.BridgeTracker()
    for it in sorted(degrees):
        hubs.add(it, analytics.node_ids(ids, list(degrees[it])),
                 np.array(list(degrees[it].values()), dtype=np.int64))
        bridge_tracker.add(it, analytics.node_ids(ids, sorted(bridges[it])))
    ours, expected = hubs.summary(list(ids), top_n), oracles.summarize_hubs(degrees, top_n=top_n)
    assert ours == expected
    # the order the rows are written in, too
    assert ([(v, list(t.items())) for v, t in ours.trajectories.items()]
            == [(v, list(t.items())) for v, t in expected.trajectories.items()])
    reference = oracles.summarize_bridges(bridges, top_nodes=top_nodes)
    assert bridge_tracker.summary(list(ids), top_nodes) == (
        reference.persistence, reference.presence_nodes, reference.presence_iterations,
        reference.presence)


# ---------------------------------------------------------------------------
# betweenness time series


def test_absent_nodes_score_zero():
    series = snapshot_series([
        [("a", "b"), ("b", "c")],
        [("c", "d")],
    ])
    result = analytics.betweenness_timeseries(series)
    d_index = result.nodes.index("d")
    assert result.values[0][d_index] == 0.0


def test_matrix_matches_direct_recomputation():
    series = snapshot_series([
        [("a", "b"), ("b", "c"), ("c", "d")],
        [("d", "e"), ("e", "a")],
    ])
    result = analytics.betweenness_timeseries(series)
    for idx, snap in enumerate(series):
        expected = nx.betweenness_centrality(snap.graph.undirected_view(),
                                             normalized=True)
        for col, node in enumerate(result.nodes):
            assert result.values[idx][col] == pytest.approx(
                expected.get(node, 0.0), abs=EXACT)


# ---------------------------------------------------------------------------
# invariant sweeps


@pytest.mark.parametrize("seed", range(6))
def test_normalized_ranges(seed):
    g = oracles.random_connected_graph(11, 7, seed)
    table = analytics.centralities(sweep_of(g))
    assert all(0.0 <= v <= 1.0 + EXACT for v in table.betweenness.values())
    assert all(0.0 <= v <= 1.0 + EXACT for v in table.closeness.values())
    _, q = analytics.louvain(index_of(g), seed=seed)
    assert -0.5 <= q <= 1.0
