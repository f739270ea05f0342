"""The single-pass analysis, the shared centrality table and the final-snapshot reads."""

import contextlib
import csv
import errno
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import types
from pathlib import Path

import networkx as nx
import pytest

from kgexpand import analytics, cli, graphml_io, report, sweep
from kgexpand import paths as paths_mod
from kgexpand.cli import main
from kgexpand.core import KnowledgeGraph, Snapshot
from kgexpand.errors import EmptyGraph, KgExpandError
from kgexpand.graphml_io import SnapshotStore, csv_cell
from kgexpand.loop import RunConfig, run
from kgexpand.report import AnalyzeSeeds, analyze_series
from kgexpand.sweep import snapshot_index

from . import oracles

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
    sizes = [(len(oracles.lcc_nodes(s.graph.undirected_view())), s.graph.node_count)
             for s in list(series)[1:]]
    assert sizes == [(4, 7), (9, 9), (9, 11)]


def test_per_node_betweenness_matches_betweenness_timeseries(analyzed):
    # one row for each node the snapshot holds, in key order, and none for a
    # node it lacks (the series' later snapshots add nodes)
    series, rows, _ = analyzed
    bet = analytics.betweenness_timeseries(series)
    for idx, it in enumerate(bet.iterations):
        got = [(r["subject"], r["value"]) for r in rows
               if r["metric"] == "betweenness" and r["iteration"] == str(it)]
        nodes = sorted(series[idx].graph.node_keys)
        assert got == [(v, csv_cell(bet.values[idx][bet.nodes.index(v)])) for v in nodes]
    assert len(bet.nodes) > len(series[1].graph.node_keys) > 0
    for idx, it in enumerate(bet.iterations[1:], start=1):
        glob = {r["metric"]: r["value"] for r in rows
                if r["iteration"] == str(it) and r["subject"] == "global"}
        present = [bet.values[idx][bet.nodes.index(v)]
                   for v in sorted(series[idx].graph.node_keys)]
        assert glob["mean_betweenness"] == csv_cell(sum(present) / len(present))
        assert glob["max_betweenness"] == csv_cell(max(present))


def test_bridges_match_bridge_analysis(analyzed):
    _assert_bridges_match_bridge_analysis(*analyzed)


def _assert_bridges_match_bridge_analysis(series, rows, out):
    bridges = analytics.bridge_analysis(series, LOUVAIN_SEED)
    persistence = {r["node"]: int(r["persistence"])
                   for r in _rows(out / "bridge_persistence.csv")}
    assert persistence == bridges.persistence
    assert persistence, "the series should have bridge nodes"
    for snap in series:
        it = snap.iteration
        count = next(r["value"] for r in rows if r["iteration"] == str(it)
                     and r["metric"] == "bridge_nodes")
        assert count == csv_cell(len(bridges.bridge_sets[it]))
    presence = {(r["iteration"], r["subject"]): r["value"]
                for r in rows if r["metric"] == "bridge_presence"}
    assert presence == {
        (str(it), node): csv_cell(int(bridges.presence[i][j]))
        for i, node in enumerate(bridges.presence_nodes)
        for j, it in enumerate(bridges.presence_iterations)}


def test_hub_rows_match_hub_emergence(analyzed):
    _assert_hub_rows_match_hub_emergence(*analyzed)


def _lcc_degrees(snap) -> dict:
    """Each node's degree in the snapshot's largest component, by the networkx
    oracle; {} for an empty snapshot."""
    if not snap.graph.node_count:
        return {}
    view = snap.graph.undirected_view(self_loops=False)
    return dict(view.subgraph(oracles.lcc_nodes(view)).degree())


def _assert_hub_rows_match_hub_emergence(series, rows, out):
    hubs = analytics.hub_emergence(series)
    lcc_degrees = {snap.iteration: _lcc_degrees(snap) for snap in series}
    assert hubs == oracles.summarize_hubs(lcc_degrees)
    degrees = {(r["iteration"], r["subject"]): r["value"]
               for r in rows if r["metric"] == "hub_degree"}
    assert degrees == {(str(it), hub): csv_cell(d)
                       for hub, traj in hubs.trajectories.items()
                       for it, d in traj.items()}
    t_emerge = {r["node"]: int(r["t_emerge"]) for r in _rows(out / "hub_emergence.csv")}
    assert t_emerge == hubs.t_emerge
    for snap in series:
        mean = next(r["value"] for r in rows if r["iteration"] == str(snap.iteration)
                    and r["metric"] == "mean_degree_lcc")
        degrees = lcc_degrees[snap.iteration]
        assert mean == csv_cell(sum(degrees.values()) / len(degrees) if degrees else None)


def _long_series() -> list[Snapshot]:
    """210 snapshots of at most 21 nodes. Bridges first appear at 60, 199 and
    200, so the presence window (below 200) cuts between the last two, and a
    hub's LCC degree passes 5 at 202."""
    batches = {0: [("a0", "a1"), ("a1", "a2"), ("a2", "a0"), ("b0", "b1"), ("b1", "b2"),
                   ("b2", "b0"), ("x", "y")],
               60: [("a0", "b0")],
               199: [("c0", "c1"), ("c1", "c2"), ("c2", "c0"), ("c0", "b1")],
               200: [("d0", "d1"), ("d1", "d2"), ("d2", "d0"), ("d0", "a2")]}
    g = KnowledgeGraph()
    series = []
    for i in range(210):
        for u, v in batches.get(i, []):
            g.add_edge(u, "HAS", v)
        if i >= 196 and i % 2 == 0:
            g.add_edge("a1", "HAS", f"leaf {i}")
        series.append(Snapshot(i, g.copy()))
    return series


def test_hub_and_bridge_rows_match_past_the_presence_window(tmp_path):
    series = _long_series()
    out = analyze_series(series, tmp_path, AnalyzeSeeds(louvain=LOUVAIN_SEED),
                         samples=5, spl_samples=5)
    rows = _rows(out / "metrics.csv")
    _assert_bridges_match_bridge_analysis(series, rows, out)
    _assert_hub_rows_match_hub_emergence(series, rows, out)
    t_emerge = dict(_rows(out / "hub_emergence.csv")[0].items())
    assert t_emerge == {"node": "a1", "t_emerge": "202"}
    presence = {(r["iteration"], r["subject"]) for r in rows
                if r["metric"] == "bridge_presence"}
    assert {it for it, _ in presence} == {str(i) for i in range(200)}
    assert {node for _, node in presence} >= {"a0", "b0", "b1", "c0"}
    assert not {node for _, node in presence} & {"d0", "a2"}
    persistence = dict(_rows(out / "bridge_persistence.csv")[0].items())
    assert persistence["node"] == "a0"


def _dicts_and_sets(root) -> int:
    """The dicts and sets reachable from ``root``, not counting those of
    modules, classes and functions."""
    seen, stack, count = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        count += isinstance(obj, (dict, set, frozenset))
        stack.extend(gc.get_referents(obj))
    return count


def test_fold_keeps_no_dict_or_set_per_snapshot():
    # the same final snapshot after 20 and after 210 snapshots: what the
    # fold holds grows by arrays, never by a dict or a set per snapshot
    series = _long_series()
    counts = []
    for picked in (series[-20:], series):
        fold = report.Fold()
        for snap in picked:
            fold.add(report.snapshot_record(snap, AnalyzeSeeds(), 5))
        counts.append(_dicts_and_sets(fold))
    assert counts[0] == counts[1]


def test_partition_metrics_match_louvain(analyzed):
    series, rows, _ = analyzed
    for snap in list(series)[1:]:
        partition, q = analytics.louvain(snapshot_index(snap.graph), LOUVAIN_SEED)
        glob = {r["metric"]: r["value"] for r in rows
                if r["iteration"] == str(snap.iteration) and r["subject"] == "global"}
        assert glob["modularity"] == csv_cell(q)
        assert glob["communities"] == csv_cell(len(set(partition.values())))


def test_lcc_betweenness_matches_networkx_on_the_lcc(analyzed):
    series, rows, _ = analyzed
    for snap in list(series)[1:]:
        view = snap.graph.undirected_view()
        lcc_und = view.subgraph(oracles.lcc_nodes(view))
        bc = nx.betweenness_centrality(lcc_und)
        value = next(r["value"] for r in rows if r["iteration"] == str(snap.iteration)
                     and r["metric"] == "avg_betweenness_lcc")
        assert value == csv_cell(sum(bc.values()) / len(bc))


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


def test_paths_builds_no_view(monkeypatch, run_dir, tmp_path):
    views = _counting(monkeypatch, KnowledgeGraph.undirected_view, KnowledgeGraph)
    assert main(["paths", str(run_dir), "--out", str(tmp_path / "p")]) == 0
    assert len(views) == 0


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


def _read_stages(snaps, out):
    """The exit codes of analyze, paths and report of ``snaps``, written under ``out``."""
    return [main(["analyze", str(snaps), "--out", str(out / "analysis"), "--samples", "20",
                  "--spl-samples", "20"]),
            main(["paths", str(snaps), "--out", str(out / "paths")]),
            main(["report", str(snaps), "--out", str(out / "report")])]


def test_stages_read_only_the_iterations_an_aborted_rerun_completed(monkeypatch, tmp_path,
                                                                    capsys):
    # a 12-iteration run, then a rerun of another seed into the same directory
    # that a full disk stops after 7 iterations: the first run's snapshots
    # 7-11 stay on disk beside a manifest of 7, and no stage may read them
    snaps, fresh = tmp_path / "snaps", tmp_path / "fresh"
    argv = ["run", "--synthetic", "--seed", "2", "--iterations"]
    assert main(["run", "--synthetic", "--seed", "1", "--iterations", "12",
                 "--out", str(snaps)]) == 0
    assert main([*argv, "7", "--out", str(fresh)]) == 0
    real_write = SnapshotStore.write

    def write(self, snapshot):
        if snapshot.iteration == 7:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(self, snapshot)

    monkeypatch.setattr(SnapshotStore, "write", write)
    assert main([*argv, "12", "--out", str(snaps)]) == 1
    monkeypatch.undo()
    assert len(list(snaps.glob("graph_iteration_*.graphml"))) == 12
    capsys.readouterr()
    assert _read_stages(snaps, tmp_path / "a") == [0, 0, 0]
    out = capsys.readouterr().out
    assert out.startswith("analyzed 7 snapshots")
    assert "Final snapshot: iteration 6\n" in out
    # what a 7-iteration run of the same seed gives, byte for byte
    assert _read_stages(fresh, tmp_path / "b") == [0, 0, 0]
    for stage in ("analysis", "paths"):
        names = sorted(p.name for p in (tmp_path / "b" / stage).iterdir())
        assert sorted(p.name for p in (tmp_path / "a" / stage).iterdir()) == names
        for name in names:
            assert ((tmp_path / "a" / stage / name).read_bytes()
                    == (tmp_path / "b" / stage / name).read_bytes()), name
    for name in ("report.md", "summary.csv"):
        assert ((tmp_path / "a" / "report" / name).read_bytes()
                == (tmp_path / "b" / "report" / name).read_bytes())
    manifest = json.loads((tmp_path / "a" / "analysis" / "analysis_manifest.json").read_text())
    assert manifest["iterations"] == list(range(7))
    bundle = json.loads((tmp_path / "a" / "report" / "report_bundle.json").read_text())
    assert (bundle["final_iteration"], bundle["snapshots"]) == (6, 7)


# ``kgexpand`` with ``SnapshotStore.write`` killing the process at iteration 4
_KILLED_AT_4 = """
import os, signal, sys
from kgexpand.cli import main
from kgexpand.graphml_io import SnapshotStore
real_write = SnapshotStore.write

def write(self, snapshot):
    if snapshot.iteration == 4:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_write(self, snapshot)

SnapshotStore.write = write
main(sys.argv[1:])
"""


def test_a_rerun_killed_outright_reads_as_empty(tmp_path, capsys):
    # a finished 12-iteration run, then a rerun of another seed into the same
    # directory, killed as it writes snapshot 4: its manifest says no iteration
    # completed, so no stage reads its snapshots 0-3 and the first run's 4-11 as one run
    snaps = tmp_path / "snaps"
    argv = ["run", "--synthetic", "--iterations", "12", "--out", str(snaps), "--seed"]
    assert main([*argv, "7"]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    killed = subprocess.run([sys.executable, "-c", _KILLED_AT_4, *argv, "8"],
                            capture_output=True, env=dict(os.environ, PYTHONPATH=src))
    assert killed.returncode == -signal.SIGKILL
    assert len(list(snaps.glob("graph_iteration_*.graphml"))) == 12
    capsys.readouterr()
    assert _read_stages(snaps, tmp_path / "out") == [1, 1, 1]
    captured = capsys.readouterr()
    assert captured.err.count(f"no snapshots found in {snaps}") == 3
    # and says why, though 12 snapshot files are on disk
    assert captured.err.count(f"no snapshots found in {snaps}: its run manifest records 0 "
                              "completed iterations, so the run stopped before completing "
                              "one and must be run again") == 3
    assert "iteration 11" not in captured.out


@pytest.mark.parametrize("text", [
    b"{not json", b"\xff\xfe", b"[12]", b'{"aborted": ""}',
    b'{"iterations_completed": "12"}', b'{"iterations_completed": true}',
], ids=["not-json", "not-utf8", "a-list", "no-count", "a-string", "a-bool"])
@pytest.mark.parametrize("command", ["analyze", "paths", "report"])
def test_a_malformed_run_manifest_exits_1_naming_it(run_dir, tmp_path, capsys, command,
                                                    text):
    snaps = tmp_path / "snaps"
    shutil.copytree(run_dir, snaps)
    (snaps / "manifest.json").write_bytes(text)
    assert main([command, str(snaps), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run manifest ")
    assert str(snaps / "manifest.json") in err


def test_report_bundle_counts_every_snapshot(run_dir, tmp_path):
    assert main(["report", str(run_dir), "--out", str(tmp_path / "r")]) == 0
    bundle = json.loads((tmp_path / "r" / "report_bundle.json").read_text())
    assert bundle["snapshots"] == 12
    assert bundle["final_iteration"] == 11


def test_analyze_series_builds_no_view(monkeypatch, tmp_path):
    # every metric, the final eigenvector rows with self-loops included, reads
    # the snapshot index
    views = _counting(monkeypatch, KnowledgeGraph.undirected_view, KnowledgeGraph)
    analyze_series(_series(), tmp_path, samples=10, spl_samples=10)
    assert len(views) == 0


def test_analyze_series_streams_metrics_rows(monkeypatch, tmp_path):
    # a snapshot's global and betweenness rows reach the writer before the next
    # snapshot is read, so no table of every row or every betweenness dict is kept
    events = []
    csv_writer = report.csv_writer

    class Recording:
        def __init__(self, writer):
            self.writer = writer

        def writerows(self, rows):
            rows = list(rows)
            events.extend(("row", it, metric) for it, metric, *_ in rows)
            self.writer.writerows(rows)

    @contextlib.contextmanager
    def recording(path, header):
        with csv_writer(path, header) as writer:
            yield Recording(writer) if path.name == "metrics.csv" else writer

    def reading(series):
        for snap in series:
            events.append(("read", snap.iteration, None))
            yield snap

    monkeypatch.setattr(report, "csv_writer", recording)
    series = _series()
    analyze_series(reading(series), tmp_path, samples=10, spl_samples=10)
    per_snapshot = [(kind, it) for kind, it, metric in events
                    if kind == "read" or metric == "betweenness"
                    or metric in report.GLOBAL_METRICS]
    assert per_snapshot == [
        step for snap in series for step in (
            [("read", snap.iteration)]
            + [("row", snap.iteration)] * (len(report.GLOBAL_METRICS)
                                           + snap.graph.node_count))]
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".partial") == []


def test_analyze_series_runs_one_sweep_per_snapshot(monkeypatch, tmp_path):
    # one sweep per snapshot gives both betweenness tables, the distances and
    # the final closeness rows; networkx computes none of them
    sweeps = _counting(monkeypatch, sweep.distance_sweep, sweep, report)
    networkx_calls = [_counting(monkeypatch, fn, nx) for fn in (
        nx.betweenness_centrality, nx.closeness_centrality,
        nx.single_source_shortest_path_length)]
    series = _series()
    analyze_series(series, tmp_path, samples=10, spl_samples=10)
    assert len(sweeps) == len(series)
    assert networkx_calls == [[], [], []]


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


def test_analyze_failing_on_a_picked_snapshot_leaves_no_metrics_file(ten_run, tmp_path):
    snaps = tmp_path / "snaps"
    shutil.copytree(ten_run, snaps)
    (snaps / "graph_iteration_4.graphml").write_text("<graphml><broken")
    # snapshots 0 and 2 are analyzed and their rows written before 4 fails
    assert _analyze(snaps, tmp_path / "a", "--stride", "2") == 1
    assert list((tmp_path / "a").iterdir()) == []


def test_analyze_rejects_a_stride_below_one(ten_run, tmp_path):
    assert _analyze(ten_run, tmp_path / "a", "--stride", "0") == 1


def test_analyze_series_of_no_snapshots_raises(tmp_path):
    with pytest.raises(EmptyGraph):
        analyze_series(iter(()), tmp_path)


# ---------------------------------------------------------------------------
# what the read stages import


def _loads_after(stages, module, cwd):
    code = ("import sys\nfrom kgexpand.cli import main\n"
            "assert main(['run', '--synthetic', '--iterations', '12', '--out', 'snaps']) == 0\n"
            + "".join(f"assert main({stage!r}) == 0\n" for stage in stages)
            + f"print({module!r} in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.strip().splitlines()[-1] == "True"


def test_paths_does_not_load_scipy(tmp_path):
    # PageRank is computed in numpy; networkx's backend would import scipy.sparse
    assert not _loads_after([["paths", "snaps", "--out", "p"]], "scipy", tmp_path)


def test_analyze_does_not_load_sparse_matrices(tmp_path):
    # the sweep indexes components itself; scipy.sparse.csgraph alone is 8.6 MB
    assert not _loads_after([["analyze", "snaps", "--out", "a"]], "scipy.sparse", tmp_path)
