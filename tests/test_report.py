"""The single-pass analysis, the shared centrality table and the final-snapshot reads."""

import csv
import json
import shutil
from pathlib import Path

import networkx as nx
import pytest

from kgexpand import analytics, cli, graphml_io
from kgexpand import paths as paths_mod
from kgexpand.cli import main
from kgexpand.core import KnowledgeGraph, Snapshot, largest_component
from kgexpand.errors import EmptyGraph, KgExpandError
from kgexpand.graphml_io import SnapshotStore
from kgexpand.loop import RunConfig, run
from kgexpand.report import AnalyzeSeeds, _fmt, analyze_series

LOUVAIN_SEED = 3


def _series() -> list[Snapshot]:
    """An empty first snapshot, then disconnected, connected and disconnected again.

    Self-loops and parallel relation kinds are in from the second snapshot on,
    so every view (with and without self-loops) is exercised.
    """
    batches = [
        [],
        [("a", "HAS", "b"), ("b", "HAS", "c"), ("c", "IS-A", "a"), ("c", "HAS", "d"),
         ("d", "HAS", "d"), ("b", "IS-A", "a"), ("x", "HAS", "y"), ("y", "HAS", "z")],
        [("d", "HAS", "x"), ("z", "HAS", "e"), ("e", "HAS", "f"), ("f", "HAS", "z"),
         ("a", "HAS", "e")],
        [("g", "HAS", "h")],
    ]
    g = KnowledgeGraph()
    series = []
    for i, batch in enumerate(batches):
        for u, kind, v in batch:
            g.add_edge(u, kind, v)
        series.append(Snapshot(i, g.copy()))
    return series


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    series = _series()
    out = analyze_series(series, tmp_path_factory.mktemp("analysis"),
                         AnalyzeSeeds(louvain=LOUVAIN_SEED), samples=None,
                         spl_samples=50)
    return series, _rows(out / "metrics.csv"), out


def test_series_has_empty_disconnected_and_connected_snapshots():
    series = _series()
    assert series[0].graph.node_count == 0
    sizes = [(largest_component(s.graph).node_count, s.graph.node_count)
             for s in list(series)[1:]]
    assert sizes == [(4, 7), (9, 9), (9, 11)]


def test_per_node_betweenness_matches_betweenness_timeseries(analyzed):
    series, rows, _ = analyzed
    bet = analytics.betweenness_timeseries(series)
    expected = {(str(it), node): _fmt(bet.values[idx][col])
                for idx, it in enumerate(bet.iterations)
                if series[idx].graph.node_count
                for col, node in enumerate(bet.nodes)}
    got = {(r["iteration"], r["subject"]): r["value"]
           for r in rows if r["metric"] == "betweenness"}
    assert got == expected
    for idx, it in enumerate(bet.iterations[1:], start=1):
        glob = {r["metric"]: r["value"] for r in rows
                if r["iteration"] == str(it) and r["subject"] == "global"}
        assert glob["mean_betweenness"] == _fmt(bet.mean[idx])
        assert glob["max_betweenness"] == _fmt(bet.max[idx])


def test_bridges_match_bridge_analysis(analyzed):
    series, rows, out = analyzed
    bridges = analytics.bridge_analysis(series, LOUVAIN_SEED)
    persistence = {r["node"]: int(r["persistence"])
                   for r in _rows(out / "bridge_persistence.csv")}
    assert persistence == bridges.persistence
    assert persistence, "the series should have bridge nodes"
    for snap in series:
        it = snap.iteration
        count = next(r["value"] for r in rows if r["iteration"] == str(it)
                     and r["metric"] == "bridge_nodes")
        assert count == _fmt(len(bridges.bridge_sets[it]))
    presence = {(r["iteration"], r["subject"]): r["value"]
                for r in rows if r["metric"] == "bridge_presence"}
    assert presence == {
        (str(it), node): _fmt(int(bridges.presence[i][j]))
        for i, node in enumerate(bridges.presence_nodes)
        for j, it in enumerate(bridges.presence_iterations)}


def test_hub_rows_match_hub_emergence(analyzed):
    series, rows, out = analyzed
    hubs = analytics.hub_emergence(series)
    degrees = {(r["iteration"], r["subject"]): r["value"]
               for r in rows if r["metric"] == "hub_degree"}
    assert degrees == {(str(it), hub): _fmt(d)
                       for hub, traj in hubs.trajectories.items()
                       for it, d in traj.items()}
    t_emerge = {r["node"]: int(r["t_emerge"]) for r in _rows(out / "hub_emergence.csv")}
    assert t_emerge == hubs.t_emerge
    for snap in list(series)[1:]:
        mean = next(r["value"] for r in rows if r["iteration"] == str(snap.iteration)
                    and r["metric"] == "mean_degree_lcc")
        assert mean == _fmt(hubs.mean_degree[snap.iteration])


def test_partition_metrics_match_louvain(analyzed):
    series, rows, _ = analyzed
    for snap in list(series)[1:]:
        partition, q = analytics.louvain(snap.graph.undirected_view(self_loops=False),
                                         LOUVAIN_SEED)
        glob = {r["metric"]: r["value"] for r in rows
                if r["iteration"] == str(snap.iteration) and r["subject"] == "global"}
        assert glob["modularity"] == _fmt(q)
        assert glob["communities"] == _fmt(len(set(partition.values())))


def test_lcc_betweenness_matches_networkx_on_the_lcc(analyzed):
    series, rows, _ = analyzed
    for snap in list(series)[1:]:
        lcc_und = largest_component(snap.graph).undirected_view()
        bc = nx.betweenness_centrality(lcc_und)
        value = next(r["value"] for r in rows if r["iteration"] == str(snap.iteration)
                     and r["metric"] == "avg_betweenness_lcc")
        assert value == _fmt(sum(bc.values()) / len(bc))


# ---------------------------------------------------------------------------
# call counts


def _counting(monkeypatch, fn, *owners):
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, fn.__name__, wrapper, raising=False)
    return calls


def test_analyze_series_runs_louvain_once_per_non_empty_snapshot(monkeypatch, tmp_path):
    calls = _counting(monkeypatch, analytics.louvain, analytics)
    series = _series()
    analyze_series(series, tmp_path, samples=10, spl_samples=10)
    assert len(calls) == sum(1 for s in series if s.graph.node_count)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("snaps")
    run(RunConfig(iterations=12, seed=5, snapshot_dir=str(out)))
    return out


def test_paths_computes_centralities_once(monkeypatch, run_dir, tmp_path):
    calls = _counting(monkeypatch, analytics.centralities, analytics, paths_mod, cli)
    assert main(["paths", str(run_dir), "--out", str(tmp_path / "p")]) == 0
    assert (tmp_path / "p" / "path_correlations.csv").exists()
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["paths", "report"])
def test_paths_and_report_read_one_snapshot(monkeypatch, run_dir, tmp_path, command):
    calls = _counting(monkeypatch, graphml_io.read_graphml, graphml_io, cli)
    assert main([command, str(run_dir), "--out", str(tmp_path / "o")]) == 0
    assert [str(args[0]) for args in calls] == [
        str(run_dir / "graph_iteration_11.graphml")]


def test_paths_builds_one_view(monkeypatch, run_dir, tmp_path):
    views = _counting(monkeypatch, KnowledgeGraph.undirected_view, KnowledgeGraph)
    assert main(["paths", str(run_dir), "--out", str(tmp_path / "p")]) == 0
    assert len(views) == 1


def test_paths_rejects_a_negative_k(run_dir, tmp_path, capsys):
    assert main(["paths", str(run_dir), "--k", "-1", "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err.startswith("error: --k")
    assert not (tmp_path / "p").exists()


def test_paths_on_a_graph_with_no_nodes_exits_1(tmp_path, capsys):
    graphml_io.write_graphml(KnowledgeGraph(), tmp_path / "empty.graphml")
    assert main(["paths", str(tmp_path / "empty.graphml"),
                 "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# the final snapshot of a store


def test_final_orders_iterations_numerically(tmp_path):
    store = SnapshotStore(tmp_path)
    small, large = KnowledgeGraph(), KnowledgeGraph()
    small.add_edge("a", "HAS", "b")
    large.add_edge("a", "HAS", "b")
    large.add_edge("b", "HAS", "c")
    store.write(Snapshot(9, small))
    store.write(Snapshot(10, large))
    final = store.final()
    assert final.iteration == 10
    assert final.graph.triples() == large.triples()


def test_final_of_an_empty_store_raises(tmp_path):
    with pytest.raises(KgExpandError, match="no snapshots found"):
        SnapshotStore(tmp_path).final()


@pytest.mark.parametrize("command", ["paths", "report"])
def test_empty_directory_exits_1(tmp_path, command):
    (tmp_path / "snaps").mkdir()
    assert main([command, str(tmp_path / "snaps"), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command", ["paths", "report"])
def test_a_malformed_intermediate_snapshot_is_not_read(run_dir, tmp_path, command):
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    for name in ("graph_iteration_0.graphml", "graph_iteration_11.graphml"):
        (snaps / name).write_bytes((run_dir / name).read_bytes())
    (snaps / "graph_iteration_5.graphml").write_text("<graphml><broken")
    assert main([command, str(snaps), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", ["analyze", "paths", "report"])
def test_two_files_for_one_iteration_exit_1(run_dir, tmp_path, capsys, command):
    snaps = tmp_path / "snaps"
    shutil.copytree(run_dir, snaps)
    shutil.copy(snaps / "graph_iteration_1.graphml", snaps / "graph_iteration_01.graphml")
    assert main([command, str(snaps), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "graph_iteration_01.graphml" in err and "graph_iteration_1.graphml" in err


def test_report_bundle_counts_every_snapshot(run_dir, tmp_path):
    assert main(["report", str(run_dir), "--out", str(tmp_path / "r")]) == 0
    bundle = json.loads((tmp_path / "r" / "report_bundle.json").read_text())
    assert bundle["snapshots"] == 12
    assert bundle["final_iteration"] == 11


def test_analyze_series_builds_each_view_once_and_copies_no_graph(monkeypatch, tmp_path):
    # per snapshot the self-loop-free view, plus the view of an LCC that does
    # not span it; once more for the final eigenvector rows
    series = _series()
    views = _counting(monkeypatch, KnowledgeGraph.undirected_view, KnowledgeGraph)

    def no_copy(self, *args, **kwargs):
        raise AssertionError("a networkx graph was copied")

    monkeypatch.setattr(nx.Graph, "copy", no_copy)
    analyze_series(series, tmp_path, samples=10, spl_samples=10)
    assert len(views) <= 2 * sum(1 for s in series if s.graph.node_count) + 1


def test_analyze_series_runs_betweenness_once_per_spanning_snapshot(monkeypatch, tmp_path):
    # one table per non-empty snapshot, a second only for an LCC that does not
    # span it; the final closeness/eigenvector rows reuse the loop's table
    calls = _counting(monkeypatch, nx.betweenness_centrality, nx)
    series = _series()
    analyze_series(series, tmp_path, samples=10, spl_samples=10)
    expected = sum(1 if largest_component(s.graph).node_count
                   == s.graph.node_count else 2
                   for s in series if s.graph.node_count)
    assert len(calls) == expected


# ---------------------------------------------------------------------------
# analyze reads the picked snapshots one at a time


@pytest.fixture(scope="module")
def ten_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ten")
    run(RunConfig(iterations=10, seed=5, snapshot_dir=str(out)))
    return out


def _analyze(snaps, out, *flags):
    return main(["analyze", str(snaps), "--out", str(out), "--samples", "20",
                 "--spl-samples", "20", *flags])


def test_analyze_with_a_stride_reads_only_the_picked_snapshots(monkeypatch, ten_run,
                                                                tmp_path):
    calls = _counting(monkeypatch, graphml_io.read_graphml, graphml_io, cli)
    assert _analyze(ten_run, tmp_path / "cli", "--stride", "3") == 0
    assert [Path(args[0]).name for args in calls] == [
        f"graph_iteration_{i}.graphml" for i in (0, 3, 6, 9)]
    manifest = json.loads((tmp_path / "cli" / "analysis_manifest.json").read_text())
    assert (manifest["iterations"], manifest["stride"]) == ([0, 3, 6, 9], 3)
    # the same analysis over the picked snapshots held in memory
    picked = [s for s in SnapshotStore(ten_run).snapshots() if s.iteration % 3 == 0]
    analyze_series(picked, tmp_path / "memory", samples=20, spl_samples=20, stride=3)
    names = sorted(p.name for p in (tmp_path / "cli").glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "memory").glob("*.csv"))
    for name in names:
        assert ((tmp_path / "cli" / name).read_bytes()
                == (tmp_path / "memory" / name).read_bytes()), name


def test_analyze_with_a_stride_always_reads_the_last_snapshot(monkeypatch, ten_run,
                                                              tmp_path):
    calls = _counting(monkeypatch, graphml_io.read_graphml, graphml_io, cli)
    assert _analyze(ten_run, tmp_path / "a", "--stride", "4") == 0
    assert [Path(args[0]).name for args in calls] == [
        f"graph_iteration_{i}.graphml" for i in (0, 4, 8, 9)]
    manifest = json.loads((tmp_path / "a" / "analysis_manifest.json").read_text())
    assert manifest["iterations"] == [0, 4, 8, 9]


def test_analyze_with_a_stride_prints_the_number_analyzed(ten_run, tmp_path, capsys):
    assert _analyze(ten_run, tmp_path / "a", "--stride", "4") == 0
    assert capsys.readouterr().out.startswith("analyzed 4 snapshots")


def test_analyze_with_a_stride_skips_a_malformed_unpicked_snapshot(ten_run, tmp_path):
    snaps = tmp_path / "snaps"
    shutil.copytree(ten_run, snaps)
    (snaps / "graph_iteration_4.graphml").write_text("<graphml><broken")
    assert _analyze(snaps, tmp_path / "a", "--stride", "3") == 0
    assert _analyze(snaps, tmp_path / "b", "--stride", "2") == 1


def test_analyze_rejects_a_stride_below_one(ten_run, tmp_path):
    assert _analyze(ten_run, tmp_path / "a", "--stride", "0") == 1


def test_analyze_series_of_no_snapshots_raises(tmp_path):
    with pytest.raises(EmptyGraph):
        analyze_series(iter(()), tmp_path)
