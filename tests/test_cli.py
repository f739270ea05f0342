import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kgexpand.cli import main
from kgexpand.loop import RunConfig, run
from kgexpand.report import GLOBAL_METRICS, SUMMARY_ROWS


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("snaps")
    run(RunConfig(iterations=3, seed=13, snapshot_dir=str(out)))
    return out


def test_run_synthetic_single_iteration(tmp_path):
    out = tmp_path / "snaps"
    code = main(["run", "--synthetic", "--iterations", "1", "--seed", "4",
                 "--out", str(out)])
    assert code == 0
    assert (out / "graph_iteration_0.graphml").exists()


def test_invalid_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--iterations", "not-a-number"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_snapshot_dir_exits_1(tmp_path):
    assert main(["analyze", str(tmp_path / "nope"), "--out",
                 str(tmp_path / "out")]) == 1


def test_analyze_emits_full_metric_set(snapshot_dir, tmp_path):
    out = tmp_path / "analysis"
    code = main(["analyze", str(snapshot_dir), "--out", str(out),
                 "--samples", "50", "--spl-samples", "100"])
    assert code == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    global_rows = [r for r in rows if r["subject"] == "global"]
    assert len(global_rows) == 3 * len(GLOBAL_METRICS)
    iterations = {r["iteration"] for r in global_rows}
    assert iterations == {"0", "1", "2"}
    for name in ("scalefree.csv", "spl_histogram.csv",
                 "bridge_persistence.csv", "hub_emergence.csv"):
        assert (out / name).exists()


def test_analyze_is_deterministic(snapshot_dir, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        main(["analyze", str(snapshot_dir), "--out", str(out),
              "--samples", "40", "--spl-samples", "60", "--seed", "5"])
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]


def test_report_emits_thirteen_labeled_rows(snapshot_dir, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["report", str(snapshot_dir), "--out", str(out)])
    assert code == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["metric"] for r in rows] == list(SUMMARY_ROWS)
    report = (out / "report.md").read_text()
    for label in SUMMARY_ROWS:
        assert label in report
    table_rows = [l for l in report.splitlines() if l.startswith("| ")
                  and not l.startswith("| ---") and not l.startswith("| Metric")]
    assert len(table_rows) == 13


def test_paths_subcommand_writes_graphml_and_report(snapshot_dir, tmp_path):
    out = tmp_path / "paths"
    code = main(["paths", str(snapshot_dir), "--k", "4",
                 "--mode", "compositional", "--out", str(out), "--seed", "2"])
    assert code == 0
    assert (out / "path_0.graphml").exists()
    assert (out / "path_correlations.csv").exists()
    report = (out / "compositional_report.md").read_text()
    assert "## Building Blocks (Step A)" in report
    assert "## Final Discovery (Step D)" in report


def test_paths_agentic_mode(snapshot_dir, tmp_path):
    out = tmp_path / "agentic"
    code = main(["paths", str(snapshot_dir), "--mode", "agentic",
                 "--out", str(out), "--seed", "2"])
    assert code == 0
    report = (out / "agentic_report.md").read_text()
    assert "## Final Synthesized Discovery" in report


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "mode: topic\n"
        "topic: impact resistant materials\n"
        "iterations: 5\n"
        "seed: 3\n"
        f"snapshot_dir: {tmp_path / 'from_config'}\n"
    )
    out = tmp_path / "overridden"
    code = main(["run", "--config", str(cfg), "--iterations", "2",
                 "--out", str(out)])
    assert code == 0
    files = list(out.glob("graph_iteration_*.graphml"))
    assert len(files) == 2          # flag beat the config file


def test_unknown_config_key_fails(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("iterationz: 5\n")
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "x")]) == 1


def test_analyze_tolerates_empty_leading_snapshots(tmp_path):
    # extraction failing on the first iterations leaves empty snapshots
    from kgexpand.core import KnowledgeGraph, Snapshot
    from kgexpand.graphml_io import SnapshotStore

    store = SnapshotStore(tmp_path / "snaps")
    store.write(Snapshot(0, KnowledgeGraph()))
    g = KnowledgeGraph()
    g.add_edge("a", "HAS", "b")
    g.add_edge("b", "HAS", "c")
    store.write(Snapshot(1, g))
    out = tmp_path / "analysis"
    assert main(["analyze", str(tmp_path / "snaps"), "--out", str(out),
                 "--samples", "10", "--spl-samples", "20"]) == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    global_rows = [r for r in rows if r["subject"] == "global"]
    assert len(global_rows) == 2 * len(GLOBAL_METRICS)
    nodes_row = next(r for r in global_rows
                     if r["iteration"] == "0" and r["metric"] == "nodes")
    assert nodes_row["value"] == "0"


def test_console_entry_point_runs():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "kgexpand.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "analyze" in proc.stdout
