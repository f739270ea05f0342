import json
import math

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgexpand import paths as paths_mod
from kgexpand.cli import main
from kgexpand.core import KnowledgeGraph
from kgexpand.errors import NonConvergent, TrivialPath
from kgexpand.sessions import EchoSession

from . import oracles
from .strategies import knowledge_graphs


def kg_from_edges(edges, kind="HAS"):
    g = KnowledgeGraph()
    for u, v in edges:
        g.add_edge(u, kind, v)
    return g


def kg_from_nx(g):
    kg = KnowledgeGraph()
    for n in g.nodes:
        kg.add_node(str(n))
    for u, v in g.edges():
        kg.add_edge(str(u), "HAS", str(v))
    return kg


def path_kg(n):
    return kg_from_edges([(f"p{i}", f"p{i+1}") for i in range(n - 1)])


def diameter_path(g):
    return paths_mod.diameter_path(g, paths_mod.path_tables(g))


def top_k_longest_paths(g, k):
    return paths_mod.top_k_longest_paths(g, paths_mod.path_tables(g), k)


def path_metric_correlations(paths, g):
    return paths_mod.path_metric_correlations(g, paths_mod.path_tables(g), paths)


# ---------------------------------------------------------------------------
# diameter path


def test_path_graph_diameter_path_is_the_whole_path():
    g = path_kg(5)
    path = diameter_path(g)
    assert path.length == 4
    assert path.nodes == [f"p{i}" for i in range(5)]
    assert path.source_eccentricity == 4
    assert path.terminal_eccentricity == 4


def test_cycle_diameter_path_is_lexicographic_antipodal():
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a")]
    path = diameter_path(kg_from_edges(edges))
    assert path.length == 3
    assert path.nodes[0] == "a"
    assert path.nodes == ["a", "b", "c", "d"]


def test_singleton_component_is_trivial():
    g = KnowledgeGraph()
    g.add_node("only")
    with pytest.raises(TrivialPath):
        diameter_path(g)


def test_repeated_extraction_is_identical():
    g = kg_from_nx(oracles.random_connected_graph(12, 6, 8))
    first = diameter_path(g)
    second = diameter_path(g)
    assert first.nodes == second.nodes
    assert first.node_metrics == second.node_metrics


@pytest.mark.parametrize("seed", range(20))
def test_diameter_path_length_equals_diameter(seed):
    g = kg_from_nx(oracles.random_connected_graph(11, 5, seed))
    path = diameter_path(g)
    und = g.undirected_view()
    assert path.length == nx.diameter(und.subgraph(oracles.lcc_nodes(und)))
    # consecutive nodes adjacent, no repeats
    assert len(set(path.nodes)) == len(path.nodes)
    for a, b in zip(path.nodes, path.nodes[1:]):
        assert und.has_edge(a, b)


# ---------------------------------------------------------------------------
# top-k paths


def test_star_longest_paths_are_leaf_to_leaf():
    g = kg_from_edges([("hub", f"leaf{i}") for i in range(4)])
    top = top_k_longest_paths(g, k=3)
    assert all(p.length == 2 for p in top)
    assert top[0].nodes == ["leaf0", "hub", "leaf1"]


def test_fewer_reachable_pairs_than_k():
    g = kg_from_edges([("a", "b")])
    top = top_k_longest_paths(g, k=5)
    assert len(top) == 1


def test_ranking_matches_all_pairs_bfs_oracle():
    g = kg_from_nx(oracles.random_connected_graph(12, 6, 21))
    top = top_k_longest_paths(g, k=5)
    und = g.undirected_view(self_loops=False)
    dist = oracles.floyd_warshall(und)
    all_pairs = sorted(
        (-d, u, v)
        for u, row in dist.items() for v, d in row.items()
        if u < v and d < oracles.INF
    )
    expected = [(-neg_d, u, v) for neg_d, u, v in all_pairs[:5]]
    got = [(p.length, p.nodes[0], p.nodes[-1]) for p in top]
    assert got == expected


def test_attached_metrics_come_from_full_graph():
    g = kg_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("b", "x"), ("x", "y")])
    top = top_k_longest_paths(g, k=1)
    path = top[0]
    und = g.undirected_view(self_loops=False)
    for v in path.nodes:
        assert path.node_metrics["degree"][v] == und.degree(v)
    bet = nx.betweenness_centrality(und, normalized=True)
    for v in path.nodes:
        assert path.node_metrics["betweenness"][v] == pytest.approx(bet[v])


# ---------------------------------------------------------------------------
# shared tables against the references that build their own view and BFS


@st.composite
def small_graphs(draw):
    """Graphs on a pool of eight names: often disconnected, with self-loops,
    components of equal size, and as few as one node."""
    nodes = draw(st.lists(st.sampled_from([f"n{i}" for i in range(8)]),
                          min_size=1, max_size=8, unique=True))
    g = KnowledgeGraph()
    for v in nodes:
        g.add_node(v)
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    for u, v in draw(st.lists(pairs, max_size=12)):
        g.add_edge(u, "HAS", v)
    return g


def _single_node():
    g = KnowledgeGraph()
    g.add_node("only")
    return g


@given(small_graphs(), st.integers(0, 10))
@example(_single_node(), 3)
@example(kg_from_edges([("a", "b")]), 2)
@example(kg_from_edges([("a", "a"), ("a", "b")]), 2)
@example(kg_from_edges([("x", "y"), ("b", "c"), ("y", "z"), ("c", "a")]), 6)
@settings(max_examples=200, deadline=None)
def test_shared_tables_give_the_reference_paths(g, k):
    tables = paths_mod.path_tables(g)
    assert paths_mod.top_k_longest_paths(g, tables, k) == oracles.top_k_longest_paths(g, k)
    try:
        expected = oracles.diameter_path(g)
    except TrivialPath:
        with pytest.raises(TrivialPath):
            paths_mod.diameter_path(g, tables)
    else:
        assert paths_mod.diameter_path(g, tables) == expected


def _max_k(g):
    """One more than the number of unordered node pairs of ``g``."""
    n = g.node_count
    return n * (n - 1) // 2 + 1


# a 4-cycle a-b-c-d with a pendant e on a: its pairs lie at 3, 2 and 1 hops,
# and every node's eccentricity is 2 or 3, so from k = 6 on the k-th pair is
# at a distance that is no node's eccentricity
CYCLE_WITH_PENDANT = kg_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                                    ("a", "e")])
DISCONNECTED = kg_from_edges([("a", "b"), ("b", "c"), ("x", "y"), ("q", "q")])
DISCONNECTED.add_node("lone")


@pytest.mark.parametrize("g", [CYCLE_WITH_PENDANT, DISCONNECTED,
                               kg_from_nx(oracles.random_connected_graph(12, 6, 4))],
                         ids=["cycle-with-pendant", "disconnected", "random-12"])
def test_top_k_at_every_k_matches_the_oracle(g):
    tables = paths_mod.path_tables(g)
    for k in range(_max_k(g) + 1):
        assert (paths_mod.top_k_longest_paths(g, tables, k)
                == oracles.top_k_longest_paths(g, k)), k


def test_cycle_with_pendant_spans_three_distance_levels():
    tables = paths_mod.path_tables(CYCLE_WITH_PENDANT)
    lengths = [p.length for p in paths_mod.top_k_longest_paths(
        CYCLE_WITH_PENDANT, tables, _max_k(CYCLE_WITH_PENDANT))]
    assert lengths == [3, 2, 2, 2, 2, 1, 1, 1, 1, 1]
    assert set(tables.sweep.eccentricity.tolist()) == {2, 3}


@given(small_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_top_k_across_distance_levels_matches_the_oracle(g, data):
    k = data.draw(st.integers(0, _max_k(g)), label="k")
    tables = paths_mod.path_tables(g)
    assert paths_mod.top_k_longest_paths(g, tables, k) == oracles.top_k_longest_paths(g, k)


def _counting(monkeypatch, owner, name):
    calls, fn = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_paths_command_runs_one_distance_sweep_and_no_networkx_bfs(monkeypatch, tmp_path):
    # the path sweep also gives the centrality table, so ``centralities``
    # runs no sweep of its own, and no networkx BFS runs at all
    assert main(["run", "--synthetic", "--iterations", "15", "--seed", "4",
                 "--out", str(tmp_path / "snaps")]) == 0
    sweeps = _counting(monkeypatch, paths_mod, "distance_sweep")
    views = _counting(monkeypatch, KnowledgeGraph, "undirected_view")

    def no_bfs(*args, **kwargs):
        raise AssertionError("networkx ran a BFS")

    monkeypatch.setattr(nx, "single_source_shortest_path_length", no_bfs)
    assert main(["paths", str(tmp_path / "snaps"), "--mode", "compositional",
                 "--out", str(tmp_path / "paths")]) == 0
    assert (len(sweeps), len(views)) == (1, 0)
    assert (tmp_path / "paths" / "compositional_report.md").exists()


def test_a_rerun_with_a_smaller_k_leaves_no_earlier_path_file(tmp_path):
    # --k 5 writes five paths and their correlations; --k 2 into the same
    # directory must leave what --k 2 alone writes, and the report bundle
    # must index only that
    snaps, out, fresh = (str(tmp_path / name) for name in ("snaps", "paths", "fresh"))
    assert main(["run", "--synthetic", "--iterations", "15", "--seed", "4",
                 "--out", snaps]) == 0
    assert main(["paths", snaps, "--k", "5", "--out", out]) == 0
    assert (tmp_path / "paths" / "path_4.graphml").exists()
    assert (tmp_path / "paths" / "path_correlations.csv").exists()
    (tmp_path / "paths" / "path_9.graphml.partial").write_text("<graphml")
    (tmp_path / "paths" / "notes.md").write_text("not a run's")
    assert main(["paths", snaps, "--k", "2", "--out", out]) == 0
    assert main(["paths", snaps, "--k", "2", "--out", fresh]) == 0
    written = {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}
    assert {p.name: p.read_bytes() for p in (tmp_path / "paths").iterdir()} == {
        **written, "notes.md": b"not a run's"}
    assert main(["report", snaps, "--out", str(tmp_path / "report"), "--paths", out]) == 0
    bundle = json.loads((tmp_path / "report" / "report_bundle.json").read_text())
    assert bundle["path_reports"] == [str(tmp_path / "paths" / name) for name in
                                      ("notes.md", "path_0.graphml", "path_1.graphml")]


# ---------------------------------------------------------------------------
# path metric correlations


def _diamond_with_tails(seed):
    return kg_from_nx(oracles.random_connected_graph(10, 4, seed))


def test_identical_paths_give_undefined_correlations():
    g = path_kg(4)
    path = diameter_path(g)
    corr = path_metric_correlations([path, path, path], g)
    for i, a in enumerate(corr.metrics):
        for j, b in enumerate(corr.metrics):
            if i == j:
                assert corr.matrix[i][j] == 1.0
            else:
                assert corr.matrix[i][j] is None


def test_correlations_match_direct_pearson():
    g = _diamond_with_tails(2)
    paths = top_k_longest_paths(g, k=4)
    corr = path_metric_correlations(paths, g)
    und = g.undirected_view(self_loops=False)
    tables = paths_mod._node_tables(g, paths_mod.path_tables(g))
    series = {name: [] for name in corr.metrics}
    for p in paths:
        for name in corr.metrics:
            if name == "density":
                sub = und.subgraph(p.nodes)
                n = len(p.nodes)
                series[name].append(sub.number_of_edges() / (n * (n - 1) / 2))
            else:
                series[name].append(
                    sum(tables[name][v] for v in p.nodes) / len(p.nodes))
    for i, a in enumerate(corr.metrics):
        for j, b in enumerate(corr.metrics):
            xs, ys = series[a], series[b]
            mx = sum(xs) / len(xs)
            my = sum(ys) / len(ys)
            vx = sum((x - mx) ** 2 for x in xs)
            vy = sum((y - my) ** 2 for y in ys)
            if i == j:
                assert corr.matrix[i][j] == 1.0
            elif vx <= 0 or vy <= 0:
                assert corr.matrix[i][j] is None
            else:
                cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                assert corr.matrix[i][j] == pytest.approx(
                    cov / math.sqrt(vx * vy), abs=1e-9)


def _directed_simple(g):
    """Direction kept, relation kinds collapsed, self-loops kept: the view
    ``paths.pagerank`` ranks."""
    d = nx.DiGraph()
    d.add_nodes_from(sorted(g.node_keys))
    d.add_edges_from((s, t) for s, _, t in g.triples())
    return d


@given(knowledge_graphs(max_edges=30))
@example(KnowledgeGraph())
@example(kg_from_edges([("a", "a")]))
@example(kg_from_edges([("a", "b"), ("b", "a"), ("b", "c"), ("c", "c"), ("x", "y")]))
@example(path_kg(6))
# a 2-cycle fed by a third node: networkx stops at its iteration cap too
@example(kg_from_edges([("x", "xx"), ("xx", "x"), ("y", "x")]))
@settings(max_examples=200, deadline=None)
def test_pagerank_matches_networkx(g):
    # several relation kinds between a pair, self-loops, dangling nodes
    try:
        expected = nx.pagerank(_directed_simple(g), alpha=0.85, tol=1e-8)
    except nx.PowerIterationFailedConvergence:
        with pytest.raises(NonConvergent):
            paths_mod.pagerank(g)
        return
    got = paths_mod.pagerank(g)
    assert got.keys() == expected.keys()
    for v, value in expected.items():
        assert math.isclose(got[v], value, rel_tol=1e-12, abs_tol=0.0), v


def test_pagerank_raises_non_convergent_at_the_iteration_cap(monkeypatch):
    g = path_kg(6)
    with pytest.raises(nx.PowerIterationFailedConvergence):
        nx.pagerank(_directed_simple(g), alpha=0.85, tol=1e-8, max_iter=3)
    monkeypatch.setattr(paths_mod, "PAGERANK_MAX_ITER", 3)
    with pytest.raises(NonConvergent):
        paths_mod.pagerank(g)


def test_matrix_is_symmetric_with_unit_diagonal():
    g = _diamond_with_tails(5)
    paths = top_k_longest_paths(g, k=5)
    corr = path_metric_correlations(paths, g)
    size = len(corr.metrics)
    for i in range(size):
        assert corr.matrix[i][i] == 1.0
        for j in range(size):
            a, b = corr.matrix[i][j], corr.matrix[j][i]
            if a is None or b is None:
                assert a is b
            else:
                assert a == pytest.approx(b, abs=1e-12)


def test_too_few_paths_rejected():
    g = path_kg(4)
    path = diameter_path(g)
    with pytest.raises(ValueError):
        path_metric_correlations([path, path], g)


def test_path_density_lower_bound():
    for seed in range(6):
        g = kg_from_nx(oracles.random_connected_graph(10, 5, seed))
        for p in top_k_longest_paths(g, k=3):
            n = len(p.nodes)
            und = g.undirected_view(self_loops=False)
            density = und.subgraph(p.nodes).number_of_edges() / (n * (n - 1) / 2)
            floor = (n - 1) * 2 / (n * (n - 1))
            assert density >= floor - 1e-12


# ---------------------------------------------------------------------------
# agentic prompting


def test_two_node_path_issues_exactly_four_prompts():
    g = kg_from_edges([("a", "b")])
    path = diameter_path(g)
    echo = EchoSession()
    report = paths_mod.agentic_path_report(path, g, echo)
    assert len(echo.calls) == 4            # 2 nodes + 1 relation + 1 synthesis
    assert len(report.node_insights) == 2
    assert len(report.relation_insights) == 1
    assert report.synthesis


def test_agentic_report_contains_substituted_templates():
    g = kg_from_edges([("Alpha", "Beta"), ("Beta", "Gamma")], kind="INFLUENCES")
    path = diameter_path(g)
    echo = EchoSession()
    report = paths_mod.agentic_path_report(path, g, echo)
    md = report.to_markdown()
    assert "Analyze concept Alpha in a novel scientific context." in md
    assert "Alpha -- INFLUENCES -- Beta" in md
    assert "Synthesize a novel discovery from" in md
    assert "## Final Synthesized Discovery" in md


@pytest.mark.parametrize("nodes", range(2, 12))
def test_agentic_call_count_contract(nodes):
    g = path_kg(nodes)
    path = diameter_path(g)
    echo = EchoSession()
    paths_mod.agentic_path_report(path, g, echo)
    assert len(echo.calls) == nodes + (nodes - 1) + 1


@pytest.mark.parametrize("nodes", range(3, 12))
def test_compositional_call_count_contract(nodes):
    g = path_kg(nodes)
    path = diameter_path(g)
    echo = EchoSession()
    report = paths_mod.compositional_pipeline(path, g, echo)
    expected = nodes + (nodes - 1) + math.ceil((nodes - 1) / 3) + 1
    assert len(echo.calls) == expected
    assert len(report.building_blocks) == nodes
    assert len(report.pairwise_synergies) == nodes - 1
    assert len(report.bridge_synergies) == math.ceil((nodes - 1) / 3)


def test_three_node_compositional_shape():
    g = path_kg(3)
    path = diameter_path(g)
    report = paths_mod.compositional_pipeline(path, g, EchoSession())
    assert len(report.building_blocks) == 3
    assert len(report.pairwise_synergies) == 2
    assert len(report.bridge_synergies) == 1
    assert report.final_discovery


def test_step_d_contains_all_prior_outputs():
    g = path_kg(5)
    path = diameter_path(g)
    echo = EchoSession()
    report = paths_mod.compositional_pipeline(path, g, echo)
    final_prompt = echo.calls[-1]
    for _, block in report.building_blocks:
        assert block in final_prompt
    for synergy in report.pairwise_synergies:
        assert synergy in final_prompt
    for bridge in report.bridge_synergies:
        assert bridge in final_prompt


def test_final_step_uses_separate_session():
    g = path_kg(4)
    path = diameter_path(g)
    small, big = EchoSession(), EchoSession()
    paths_mod.compositional_pipeline(path, g, small, final_gen=big)
    assert len(big.calls) == 1
    assert "final discovery" in big.calls[0]


def test_compositional_needs_two_edges():
    g = kg_from_edges([("a", "b")])
    path = diameter_path(g)
    with pytest.raises(TrivialPath):
        paths_mod.compositional_pipeline(path, g, EchoSession())


def test_generator_failure_leaves_markers():
    from kgexpand.errors import GeneratorError

    class Flaky:
        def __init__(self):
            self.n = 0

        def complete(self, prompt):
            self.n += 1
            if self.n == 2:
                raise GeneratorError("boom")
            return "ok"

    g = path_kg(3)
    path = diameter_path(g)
    report = paths_mod.agentic_path_report(path, g, Flaky())
    assert "[generation failed: boom]" in report.to_markdown()


# ---------------------------------------------------------------------------
# graph-informed context prompt


def test_single_edge_context_lists_both_nodes():
    g = kg_from_edges([("Aerogels", "Insulation")], kind="ENABLES")
    prompt = paths_mod.graph_context_prompt(g, "Design something.", seed=1)
    assert "Aerogels" in prompt and "Insulation" in prompt
    assert "Aerogels -- ENABLES -- Insulation" in prompt
    assert prompt.endswith("Design something.")
    assert prompt.count("- 2 concepts") == 1      # one community of two


def test_two_community_context_matches_centrality_oracle():
    edges = [("a1", "a2"), ("a2", "a3"), ("a3", "a1"),
             ("b1", "b2"), ("b2", "b3"), ("b3", "b1"),
             ("a1", "b1"), ("a1", "c1"), ("c1", "b1")]
    g = kg_from_edges(edges)
    und = g.undirected_view(self_loops=False)
    o_bet = oracles.betweenness(und)
    best = sorted(und.nodes, key=lambda v: (-o_bet[v], v))[:3]
    prompt = paths_mod.graph_context_prompt(g, "Task.", seed=0)
    hubs_line = next(l for l in prompt.splitlines()
                     if l.startswith("Key hubs (betweenness):"))
    listed = [s.strip() for s in hubs_line.split(":", 1)[1].split(",")]
    assert listed[:3] == best
    assert "Communities:" in prompt


def test_context_prompt_same_task_used_for_expansion():
    g = kg_from_edges([("Impact-Resistant Materials", "Materials")], kind="IS-A")
    task = "Describe a way to design impact resistant materials."
    prompt = paths_mod.graph_context_prompt(g, task, seed=3)
    assert prompt.endswith(task)
