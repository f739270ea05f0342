import math

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgexpand import analytics
from kgexpand.core import KnowledgeGraph, Snapshot
from kgexpand.errors import EmptyGraph, NotConnected, UndefinedMetric
from kgexpand.report import snapshot_views

from . import oracles

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


def basic_metrics(kg):
    """``analytics.basic_metrics`` on the views the analysis builds for a snapshot."""
    return analytics.basic_metrics(kg, *snapshot_views(kg))


def newly_connected_pairs(ledger, snap, samples):
    return analytics.newly_connected_pairs(
        ledger, snap.iteration, snap.graph.undirected_view(self_loops=False), samples)


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
    avg, diameter = analytics.spl_and_diameter(p5)
    assert avg == pytest.approx(2.0, abs=EXACT)
    assert diameter == 4


def test_disconnected_input_rejected():
    g = nx.Graph([("a", "b")])
    g.add_node("z")
    with pytest.raises(NotConnected):
        analytics.spl_and_diameter(g)


def test_singleton_has_zero_spl():
    g = nx.Graph()
    g.add_node("v")
    assert analytics.spl_and_diameter(g) == (0.0, 0)


@pytest.mark.parametrize("seed", range(8))
def test_spl_matches_floyd_warshall(seed):
    g = oracles.random_connected_graph(15, 8, seed)
    avg, diameter = analytics.spl_and_diameter(g)
    o_avg, o_diam = oracles.spl_diameter(g)
    assert avg == pytest.approx(o_avg, abs=EXACT)
    assert diameter == o_diam


# ---------------------------------------------------------------------------
# community structure


def test_single_clique_is_one_community_with_zero_q():
    g = nx.complete_graph([f"v{i}" for i in range(5)])
    partition, q = analytics.louvain(g, seed=1)
    assert len(set(partition.values())) == 1
    assert q == pytest.approx(0.0, abs=EXACT)


def test_two_cliques_joined_by_edge():
    g = nx.Graph()
    for base in ("a", "b"):
        clique = [f"{base}{i}" for i in range(4)]
        g.add_edges_from((u, v) for i, u in enumerate(clique) for v in clique[i + 1:])
    g.add_edge("a0", "b0")
    partition, q = analytics.louvain(g, seed=1)
    assert len(set(partition.values())) == 2
    assert {partition[f"a{i}"] for i in range(4)} != {partition[f"b{i}"] for i in range(4)}
    assert q == pytest.approx(oracles.best_modularity(g), abs=0.02)


def test_returned_q_equals_partition_modularity():
    for seed in range(5):
        g = oracles.random_connected_graph(9, 4, seed)
        partition, q = analytics.louvain(g, seed=seed)
        comms = {}
        for v, cid in partition.items():
            comms.setdefault(cid, set()).add(v)
        assert q == pytest.approx(oracles.modularity(g, comms.values()), abs=EXACT)


def test_louvain_is_deterministic():
    g = oracles.random_connected_graph(12, 8, 4)
    assert analytics.louvain(g, seed=9) == analytics.louvain(g, seed=9)


def test_louvain_edgeless_graph():
    g = nx.Graph()
    g.add_nodes_from("abc")
    partition, q = analytics.louvain(g, seed=0)
    assert len(set(partition.values())) == 3
    assert q == 0.0


def test_louvain_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        analytics.louvain(nx.Graph(), seed=0)


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
    partition, q = analytics.louvain(g, seed)
    ref_partition, ref_q = oracles.louvain(g, seed)
    assert partition == ref_partition
    assert repr(q) == repr(ref_q)


# ---------------------------------------------------------------------------
# degree correlation, transitivity, k-core, articulation points


def test_star_is_perfectly_disassortative():
    star = nx.star_graph([f"v{i}" for i in range(6)])
    assert analytics.assortativity(star) == pytest.approx(-1.0, abs=EXACT)


def test_regular_graph_assortativity_undefined():
    with pytest.raises(UndefinedMetric):
        analytics.assortativity(nx.complete_graph(4))


def test_assortativity_needs_two_edges():
    with pytest.raises(UndefinedMetric):
        analytics.assortativity(nx.Graph([("a", "b")]))


@pytest.mark.parametrize("seed", range(8))
def test_assortativity_matches_pearson_oracle(seed):
    g = oracles.random_connected_graph(10, 6, seed)
    try:
        ours = analytics.assortativity(g)
    except UndefinedMetric:
        return
    assert ours == pytest.approx(oracles.assortativity(g), abs=EXACT)


def test_transitivity_extremes():
    assert analytics.transitivity(nx.complete_graph(3)) == pytest.approx(1.0)
    assert analytics.transitivity(nx.path_graph(3)) == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(8))
def test_transitivity_matches_triangle_count(seed):
    g = oracles.random_connected_graph(10, 8, seed)
    assert analytics.transitivity(g) == pytest.approx(
        oracles.transitivity(g), abs=EXACT)


def test_kcore_of_complete_graph():
    assert analytics.kcore(nx.complete_graph(4)) == (3, 4)


def test_kcore_of_tree():
    tree = nx.random_labeled_tree(9, seed=2)
    assert analytics.kcore(tree) == (1, 9)


@pytest.mark.parametrize("seed", range(8))
def test_kcore_matches_subset_enumeration(seed):
    g = oracles.random_connected_graph(9, 7, seed, self_loop_prob=0.4)
    simple = nx.Graph(g)
    simple.remove_edges_from(list(nx.selfloop_edges(simple)))
    assert analytics.kcore(simple) == oracles.kcore(g)


def test_kcore_bounds():
    g = oracles.random_connected_graph(11, 9, 31)
    max_k, size = analytics.kcore(g)
    assert max_k <= max(d for _, d in g.degree())
    assert size >= max_k + 1


def test_articulation_points_on_path_and_cycle():
    assert analytics.articulation_points(nx.path_graph(["a", "b", "c"])) == {"b"}
    assert analytics.articulation_points(nx.cycle_graph(5)) == set()


@pytest.mark.parametrize("seed", range(8))
def test_articulation_points_match_removal_oracle(seed):
    g = oracles.random_connected_graph(10, 4, seed, self_loop_prob=0.4)
    assert analytics.articulation_points(g) == oracles.articulation_points(g)


# ---------------------------------------------------------------------------
# centralities


def test_middle_of_path_has_unit_betweenness():
    table = analytics.centralities(nx.path_graph(["a", "b", "c"]))
    assert table.betweenness["b"] == pytest.approx(1.0, abs=EXACT)
    assert table.betweenness["a"] == pytest.approx(0.0, abs=EXACT)


def test_star_center_dominates_eigenvector():
    star = nx.star_graph([f"v{i}" for i in range(5)])
    table = analytics.centralities(star)
    center = table.eigenvector["v0"]
    leaves = [table.eigenvector[f"v{i}"] for i in range(1, 5)]
    assert all(center > leaf for leaf in leaves)
    assert max(leaves) - min(leaves) < EIG


def test_eigenvector_has_unit_norm():
    g = oracles.random_connected_graph(9, 5, 17)
    table = analytics.centralities(g)
    norm = math.sqrt(sum(v * v for v in table.eigenvector.values()))
    assert norm == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_centralities_match_enumeration_oracles(seed):
    g = oracles.random_connected_graph(8, 5, seed)
    table = analytics.centralities(g)
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
    table = analytics.centralities(g)
    oracle = oracles.closeness(g)
    for v in g:
        assert table.closeness[v] == pytest.approx(oracle[v], abs=EXACT)


# ---------------------------------------------------------------------------
# sampled shortest-path distribution


def test_complete_graph_distances_are_all_one():
    dist = analytics.sampled_spl_distribution(nx.complete_graph(10), 500, seed=3)
    assert set(dist.histogram) == {1}
    assert dist.histogram[1] == 500


def test_sampling_is_deterministic_and_matches_bfs():
    g = nx.path_graph([f"p{i}" for i in range(10)])
    a = analytics.sampled_spl_distribution(g, 300, seed=11)
    b = analytics.sampled_spl_distribution(g, 300, seed=11)
    assert a == b
    total_pairs = sum(a.histogram.values())
    assert total_pairs == 300
    assert max(a.histogram) <= 9


def test_path_graph_histogram_matches_protocol_replay():
    # replay the sampling protocol with the same seed; distances on a path
    # graph are index differences, so the expected histogram is exact
    import random as random_mod

    nodes = [f"p{i}" for i in range(10)]
    g = nx.path_graph(nodes)
    got = analytics.sampled_spl_distribution(g, 400, seed=23)
    rng = random_mod.Random(23)
    expected: dict[int, int] = {}
    for _ in range(400):
        u = rng.choice(nodes)
        v = rng.choice(nodes)
        while v == u:
            v = rng.choice(nodes)
        d = abs(int(u[1:]) - int(v[1:]))
        expected[d] = expected.get(d, 0) + 1
    assert got.histogram == dict(sorted(expected.items()))


def test_sampling_restricted_to_lcc():
    _, lcc = snapshot_views(kg_from_edges([("a", "b"), ("b", "c"), ("x", "y")]))
    dist = analytics.sampled_spl_distribution(lcc, 200, seed=5)
    assert set(dist.histogram) <= {1, 2}
    assert sum(dist.histogram.values()) == 200


# ---------------------------------------------------------------------------
# newly connected pairs


def test_first_iteration_establishes_baseline():
    series = snapshot_series([[("a", "b")]])
    ledger = analytics.PairDistanceLedger(seed=1)
    stats = newly_connected_pairs(ledger, series[0], samples=None)
    assert (stats.newly_connected, stats.shortened, stats.with_prior) == (0, 0, 0)
    assert ledger.last_iteration == 0


def test_component_merge_counts_match_brute_force():
    series = snapshot_series([
        [("a", "b"), ("c", "d")],
        [("b", "c")],                      # joins the two components
        [("a", "e")],                      # new node
        [("a", "c")],                      # shortens b..d style paths
    ])
    ledger = analytics.PairDistanceLedger(seed=0)
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


def test_ledger_rejects_stale_iteration():
    series = snapshot_series([[("a", "b")]])
    ledger = analytics.PairDistanceLedger(seed=0)
    newly_connected_pairs(ledger, series[0], samples=None)
    with pytest.raises(ValueError):
        newly_connected_pairs(ledger, series[0], samples=None)


def test_sampled_counts_bounded_by_prior_records():
    series = snapshot_series([
        [("a", "b"), ("c", "d"), ("e", "f")],
        [("b", "c"), ("d", "e")],
    ])
    ledger = analytics.PairDistanceLedger(seed=4)
    newly_connected_pairs(ledger, series[0], samples=50)
    stats = newly_connected_pairs(ledger, series[1], samples=50)
    assert stats.newly_connected + stats.shortened <= stats.with_prior


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
    assert hubs.mean_degree[0] == pytest.approx(10 / 6)


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
    partition, _ = analytics.louvain(g, seed=2)
    bridges = analytics.bridge_nodes(g, partition)
    assert "v" in bridges
    assert bridges == oracles.bridge_nodes(g, partition)


def test_single_clique_has_no_bridges():
    g = nx.complete_graph(5)
    partition, _ = analytics.louvain(g, seed=0)
    assert analytics.bridge_nodes(g, partition) == set()


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
        assert result.mean[idx] == pytest.approx(
            sum(expected.values()) / len(expected), abs=EXACT)
        assert result.max[idx] == pytest.approx(max(expected.values()), abs=EXACT)


def test_top_nodes_ranked_by_peak():
    series = snapshot_series([
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
    ])
    result = analytics.betweenness_timeseries(series, top_n=1)
    assert result.top_nodes == ["c"]


# ---------------------------------------------------------------------------
# invariant sweeps


@pytest.mark.parametrize("seed", range(6))
def test_normalized_ranges(seed):
    g = oracles.random_connected_graph(11, 7, seed)
    table = analytics.centralities(g)
    assert all(0.0 <= v <= 1.0 + EXACT for v in table.betweenness.values())
    assert all(0.0 <= v <= 1.0 + EXACT for v in table.closeness.values())
    _, q = analytics.louvain(g, seed=seed)
    assert -0.5 <= q <= 1.0
