"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. The graph corpus is exhaustive up to isomorphism for 1-7 nodes (the
bundled atlas); 8-node graphs are a seeded sample because exhaustive
enumeration at 8 nodes is not feasible inside the suite's time budget.
"""

import csv
import math
import random
import time

import networkx as nx
import pytest

from kgexpand import analytics, scalefree
from kgexpand.cli import main
from kgexpand.core import KnowledgeGraph, Snapshot
from kgexpand.errors import UndefinedMetric
from kgexpand.extraction import parse_graph_literal, serialize_graph_literal
from kgexpand.graphml_io import SnapshotStore
from kgexpand.loop import RECORDS_FILENAME
from kgexpand.paths import (
    agentic_path_report,
    compositional_pipeline,
    diameter_path,
    path_tables,
)
from kgexpand.report import SUMMARY_ROWS, degree_sequence
from kgexpand.sessions import EchoSession
from kgexpand.sweep import distance_sweep, snapshot_index

from . import oracles

EXACT = 1e-9
EIG = 1e-6

RANDOM_8_NODE_SAMPLES = 120
RANDOM_LARGE_SAMPLES = 50


def _kg_from_nx(g: nx.Graph) -> KnowledgeGraph:
    kg = KnowledgeGraph()
    for v in g.nodes:
        kg.add_node(str(v))
    for u, v in g.edges():
        kg.add_edge(str(u), "HAS", str(v))
    return kg


@pytest.fixture(scope="module")
def corpus():
    graphs = oracles.atlas_connected_graphs()
    for seed in range(RANDOM_8_NODE_SAMPLES):
        graphs.append(oracles.random_connected_graph(8, seed % 9, seed))
    for seed in range(RANDOM_LARGE_SAMPLES):
        n = 9 + seed % 4                      # 9..12 nodes
        graphs.append(oracles.random_connected_graph(n, 3 + seed % 5, 1000 + seed))
    return graphs


@pytest.fixture(scope="module")
def synthetic_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_run") / "snaps"
    started = time.monotonic()
    code = main(["run", "--synthetic", "--iterations", "200", "--seed", "7",
                 "--out", str(out)])
    elapsed = time.monotonic() - started
    assert code == 0
    return out, elapsed


def test_criterion_1_oracle_equivalence(corpus):
    started = time.monotonic()
    for g in corpus:
        und = g
        kg = _kg_from_nx(g)
        simple = kg.undirected_view(self_loops=False)
        b = analytics.basic_metrics(kg, simple, snapshot_index(simple))
        assert b.avg_clustering == pytest.approx(
            oracles.average_clustering(und), abs=EXACT)
        assert analytics.transitivity(und) == pytest.approx(
            oracles.transitivity(und), abs=EXACT)
        try:
            ours = analytics.assortativity(und)
        except UndefinedMetric:
            degrees = dict(und.degree())
            endpoint = {degrees[u] for e in und.edges() for u in e}
            assert und.number_of_edges() < 2 or len(endpoint) == 1
        else:
            assert ours == pytest.approx(oracles.assortativity(und), abs=EXACT)
        avg_spl, diameter = analytics.spl_and_diameter(
            distance_sweep(snapshot_index(und)))
        o_spl, o_diam = oracles.spl_diameter(und)
        assert avg_spl == pytest.approx(o_spl, abs=EXACT)
        assert diameter == o_diam
        assert analytics.kcore(und) == oracles.kcore(und)
        assert analytics.articulation_points(und) == oracles.articulation_points(und)
        table = analytics.centralities(und)
        o_bet = oracles.betweenness(und)
        o_clo = oracles.closeness(und)
        o_eig = oracles.eigenvector(und)
        for v in und:
            assert table.betweenness[v] == pytest.approx(o_bet[v], abs=EXACT)
            assert table.closeness[v] == pytest.approx(o_clo[v], abs=EXACT)
            assert table.eigenvector[v] == pytest.approx(o_eig[v], abs=EIG)
        partition, _ = analytics.louvain(und, seed=1)
        assert (analytics.bridge_nodes(und, partition)
                == oracles.bridge_nodes(und, partition))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    print(f"\n[acceptance] criterion 1 (oracle equivalence on {len(corpus)} "
          f"graphs): PASS in {elapsed:.1f}s")


def test_criterion_2_louvain_validity(corpus):
    checked_optimum = 0
    for g in corpus:
        partition, q = analytics.louvain(g, seed=1)
        comms: dict = {}
        for v, c in partition.items():
            comms.setdefault(c, set()).add(v)
        assert q == pytest.approx(oracles.modularity(g, comms.values()), abs=EXACT)
        if g.number_of_nodes() <= 8:
            assert oracles.best_modularity(g) - q <= 0.02 + EXACT
            checked_optimum += 1
    print(f"\n[acceptance] criterion 2 (louvain validity; exhaustive optimum on "
          f"{checked_optimum} graphs <= 8 nodes): PASS")


def test_criterion_3_power_law_recovery():
    started = time.monotonic()
    recovered = 0
    for seed in range(20):
        data = oracles.sample_discrete_power_law(2.5, 5, 10_000, seed)
        fit, verdict = scalefree.classify(data)
        if 2.4 <= fit.alpha <= 2.6 and verdict.is_scale_free:
            recovered += 1
    assert recovered >= 18, f"only {recovered}/20 power-law seeds recovered"
    rejected = 0
    for seed in range(20):
        data = oracles.sample_geometric(0.3, 1, 10_000, seed)
        _, verdict = scalefree.classify(data)
        if verdict.lr < 0:
            rejected += 1
    assert rejected >= 18, f"only {rejected}/20 geometric seeds gave LR < 0"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"\n[acceptance] criterion 3 (power-law recovery {recovered}/20, "
          f"geometric rejection {rejected}/20): PASS in {elapsed:.1f}s")


def test_criterion_4_end_to_end_synthetic_run(synthetic_run_dir, tmp_path):
    out, elapsed = synthetic_run_dir
    assert elapsed < 300.0, f"200-iteration run took {elapsed:.0f}s"
    snapshots = sorted(out.glob("graph_iteration_*.graphml"))
    assert len(snapshots) == 200
    series = list(SnapshotStore(out).snapshots())
    counts = [(s.graph.node_count, s.graph.edge_count) for s in series]
    assert counts == sorted(counts), "node/edge counts must be non-decreasing"
    oracles.validate_supergraph(series)
    fit, verdict = scalefree.classify(degree_sequence(
        snapshot_index(series[-1].graph.undirected_view(self_loops=False))))
    assert verdict.is_scale_free, (
        f"final graph not scale-free: LR={verdict.lr:.2f} p={verdict.p:.4f}")
    rerun = tmp_path / "rerun"
    assert main(["run", "--synthetic", "--iterations", "200", "--seed", "7",
                 "--out", str(rerun)]) == 0
    assert ((rerun / RECORDS_FILENAME).read_bytes()
            == (out / RECORDS_FILENAME).read_bytes())
    for snap in snapshots:
        assert (rerun / snap.name).read_bytes() == snap.read_bytes()
    print(f"\n[acceptance] criterion 4 (200-iteration synthetic run in "
          f"{elapsed:.0f}s; alpha={fit.alpha:.2f}, LR={verdict.lr:.1f}, "
          f"p={verdict.p:.4f}; rerun byte-identical): PASS")


def test_criterion_5_newly_connected_pairs_exact():
    batches = [
        [("a", "b"), ("c", "d"), ("e", "f")],       # three components
        [("b", "c")],                               # merge ab with cd
        [("g", "h")],                               # unrelated new component
        [("f", "g"), ("d", "e")],                   # chain everything but ab?
        [("a", "f")],                               # shortcut shortens paths
    ]
    g = KnowledgeGraph()
    series = []
    for i, batch in enumerate(batches):
        for u, v in batch:
            g.add_edge(u, "HAS", v)
        series.append(Snapshot(i, g.copy()))

    ledger = analytics.PairDistanceLedger(seed=3)
    seen: dict = {}
    observed = []
    for snap in series:
        und = snap.graph.undirected_view()
        index = snapshot_index(und)
        pairs = analytics.draw_pairs(ledger, snap.iteration, len(index.nodes), samples=None)
        stats = analytics.newly_connected_pairs(
            ledger, snap.iteration, distance_sweep(index, keep={u for u, _ in pairs}), pairs)
        expected_new = expected_short = 0
        dist = oracles.floyd_warshall(und)
        for u in sorted(und):
            for v in sorted(und):
                if u >= v:
                    continue
                d = dist[u][v] if dist[u][v] < oracles.INF else None
                if (u, v) in seen:
                    prior = seen[(u, v)]
                    if prior is None and d is not None:
                        expected_new += 1
                    elif prior is not None and d is not None and d < prior:
                        expected_short += 1
                seen[(u, v)] = d
        assert stats.newly_connected == expected_new
        assert stats.shortened == expected_short
        observed.append((stats.newly_connected, stats.shortened))
    assert observed[0] == (0, 0)          # baseline iteration
    assert observed[1] == (4, 0)          # ab x cd pairs become reachable
    assert observed[4][1] > 0             # the shortcut shortened something
    print(f"\n[acceptance] criterion 5 (pair tracker exact vs brute force, "
          f"per-iteration {observed}): PASS")


def test_criterion_6_bridge_pipeline_ground_truth():
    def clique(prefix):
        names = [f"{prefix}{i}" for i in range(10)]
        return [(names[i], names[j]) for i in range(10) for j in range(i + 1, 10)]

    batches = [clique("a") + clique("b") + clique("c")]
    batches += [[("a0", "b0")], [], [("b5", "c5")], [],
                [("a3", "c3")], [], [("a0", "c0")], [], []]
    g = KnowledgeGraph()
    series = []
    for i, batch in enumerate(batches):
        for u, v in batch:
            g.add_edge(u, "HAS", v)
        series.append(Snapshot(i, g.copy()))
    assert series[-1].graph.node_count == 30

    result = analytics.bridge_analysis(series, seed=5)
    truth = {
        0: set(),
        1: {"a0", "b0"}, 2: {"a0", "b0"},
        3: {"a0", "b0", "b5", "c5"}, 4: {"a0", "b0", "b5", "c5"},
        5: {"a0", "b0", "b5", "c5", "a3", "c3"},
        6: {"a0", "b0", "b5", "c5", "a3", "c3"},
        7: {"a0", "b0", "b5", "c5", "a3", "c3", "c0"},
        8: {"a0", "b0", "b5", "c5", "a3", "c3", "c0"},
        9: {"a0", "b0", "b5", "c5", "a3", "c3", "c0"},
    }
    assert result.bridge_sets == truth
    assert result.persistence == {
        "a0": 9, "b0": 9, "b5": 7, "c5": 7, "a3": 5, "c3": 5, "c0": 3,
    }
    assert result.presence_nodes == ["a0", "b0", "b5", "c5", "a3", "c3", "c0"]
    first_appearance = [row.index(True) for row in result.presence]
    assert first_appearance == sorted(first_appearance) == [1, 1, 3, 3, 5, 5, 7]
    for row, node in zip(result.presence, result.presence_nodes):
        assert row == [node in truth[i] for i in range(10)]
    print("\n[acceptance] criterion 6 (bridge sets, persistence, presence "
          "matrix match hand-computed truth): PASS")


def test_criterion_7_path_suite():
    for seed in range(100):
        n = 8 + seed % 5
        g = _kg_from_nx(oracles.random_connected_graph(n, seed % 7, 4000 + seed))
        path = diameter_path(g, path_tables(g))
        lcc = g.undirected_view(self_loops=False)
        _, diameter = analytics.spl_and_diameter(distance_sweep(snapshot_index(lcc)))
        assert path.length == diameter
    for nodes in range(3, 12):
        g = KnowledgeGraph()
        for i in range(nodes - 1):
            g.add_edge(f"c{i:02d}", "HAS", f"c{i+1:02d}")
        path = diameter_path(g, path_tables(g))
        assert path.length == nodes - 1
        echo = EchoSession()
        agentic_path_report(path, g, echo)
        assert len(echo.calls) == nodes + (nodes - 1) + 1
        echo = EchoSession()
        compositional_pipeline(path, g, echo)
        assert len(echo.calls) == nodes + (nodes - 1) + math.ceil((nodes - 1) / 3) + 1
    print("\n[acceptance] criterion 7 (diameter consistency on 100 graphs; "
          "prompt-count contracts for path lengths 2-10): PASS")


def test_criterion_8_report_fidelity(synthetic_run_dir, tmp_path):
    out, _ = synthetic_run_dir
    report_dir = tmp_path / "report"
    assert main(["report", str(out), "--out", str(report_dir)]) == 0
    with open(report_dir / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["metric"] for r in rows] == list(SUMMARY_ROWS)
    assert rows[0]["metric"] == "Number of nodes"
    assert rows[-1]["metric"] == "Scale-free classification"
    for row in rows:
        assert row["value"] not in ("", "n/a", "nan"), f"unpopulated: {row}"
    assert rows[-1]["value"] == "Yes"
    report_md = (report_dir / "report.md").read_text()
    table_rows = [l for l in report_md.splitlines()
                  if l.startswith("| ") and not l.startswith("| ---")
                  and not l.startswith("| Metric")]
    assert len(table_rows) == 13
    print("\n[acceptance] criterion 8 (13-row summary table fully populated): "
          "PASS")


def test_criterion_9_parser_robustness():
    rng = random.Random(2026)
    alphabet = "{}[]()'\",:; \n\tabcXYZ01_-\\"
    relations = ["IS-A", "RELATES-TO", "INFLUENCES", "HAS"]
    crashes = 0
    for case in range(10_000):
        kind = case % 3
        if kind == 0:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(120)))
        elif kind == 1:
            text = "{" + "".join(rng.choice(alphabet)
                                 for _ in range(rng.randrange(100)))
        else:
            g = KnowledgeGraph()
            for _ in range(rng.randrange(1, 5)):
                g.add_edge(f"n{rng.randrange(6)}", rng.choice(relations),
                           f"n{rng.randrange(6)}")
            text = serialize_graph_literal(g)
            if rng.random() < 0.7:
                pos = rng.randrange(len(text))
                text = text[:pos] + rng.choice(alphabet) + text[pos:]
        try:
            parse_graph_literal(text)
        except Exception as exc:
            from kgexpand.errors import KgExpandError

            if not isinstance(exc, KgExpandError):
                crashes += 1
    assert crashes == 0

    for case in range(1_000):
        g = KnowledgeGraph()
        pairs = set()
        for _ in range(rng.randrange(1, 10)):
            u = f"Concept {rng.randrange(12)}"
            v = f"Concept {rng.randrange(12)}"
            if (u, v) in pairs:
                continue
            pairs.add((u, v))
            g.add_edge(u, rng.choice(relations), v)
        local = parse_graph_literal(serialize_graph_literal(g))
        assert set(local.graph.triples()) == set(g.triples())
        assert local.graph.node_keys == g.node_keys
    print("\n[acceptance] criterion 9 (10,000-case fuzz crash-free; 1,000 "
          "round trips lossless): PASS")
