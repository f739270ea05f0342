import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kgexpand.cli import _build_run_config, build_parser, main
from kgexpand.loop import RunConfig, run
from kgexpand.report import GLOBAL_METRICS, SUMMARY_ROWS
from kgexpand.sessions import SyntheticGenerator


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


@pytest.mark.parametrize("flags", [
    ["--spl-samples", "0"],
    ["--spl-samples", "-3"],
    ["--samples", "-4"],
    ["--samples", "0"],
    ["--samples", "some"],
    ["--samples", "2.5"],
])
def test_analyze_rejects_bad_sample_counts_before_reading(monkeypatch, capsys,
                                                         snapshot_dir, tmp_path, flags):
    def unread(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr("kgexpand.graphml_io.read_graphml", unread)
    out = tmp_path / "analysis"
    assert main(["analyze", str(snapshot_dir), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + flags[0])
    assert err.count("\n") == 1
    assert not out.exists()


def test_analyze_accepts_all_and_one_sample(snapshot_dir, tmp_path):
    for samples in ("all", "1"):
        out = tmp_path / samples
        assert main(["analyze", str(snapshot_dir), "--out", str(out),
                     "--samples", samples, "--spl-samples", "1"]) == 0
        assert (out / "metrics.csv").exists()


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


@pytest.mark.parametrize("flag", ["--analysis", "--paths"])
@pytest.mark.parametrize("missing", ["nope", "report.md"])
def test_report_rejects_an_index_flag_naming_no_directory(snapshot_dir, tmp_path, capsys,
                                                          flag, missing):
    # a path that does not exist, or a file, would index as an empty list
    out = tmp_path / "report"
    (tmp_path / "report.md").write_text("not a directory\n")
    target = tmp_path / missing
    assert main(["report", str(snapshot_dir), "--out", str(out), flag, str(target)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {flag} {target} is not a directory\n"
    assert not out.exists()


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


@pytest.mark.parametrize("text, named", [
    ("iterations: [2\n", "line 2 column 1 is not valid YAML"),
    ("mode: topic\n  topic: x\n", "line 2 column 8 is not valid YAML"),
    ("iterations: ten\n", "iterations must be of type int, got str 'ten'"),
    ("iterations: true\n", "iterations must be of type int, got bool True"),
    ("seed: 1.5\n", "seed must be of type int, got float 1.5"),
    ("timeout: fast\n", "timeout must be of type float, got str 'fast'"),
    ("model: null\n", "model must be of type str, got NoneType None"),
    # removed keys, whose settings endpoint and topic now make
    ("mode: topic\n", "unknown config keys: ['mode']"),
    ("synthetic: true\n", "unknown config keys: ['synthetic']"),
    ("vocabulary_size: 20\n", "unknown config keys: ['vocabulary_size']"),
])
def test_bad_config_file_exits_1_with_an_error_line(tmp_path, capsys, text, named):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    out = tmp_path / "snaps"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert not out.exists()


def test_config_file_types_accept_ints_as_floats_and_null_temperature(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("iterations: 1\ntimeout: 30\ntemperature: null\n")
    out = tmp_path / "snaps"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "graph_iteration_0.graphml").exists()


# one value off each RunConfig default
NON_DEFAULT_RUN_VALUES = {
    "prompt": "Hello", "topic": "ceramics", "iterations": 3, "seed": 5,
    "snapshot_dir": "elsewhere", "max_retries": 1,
    "endpoint": "http://127.0.0.1:9/never", "model": "m", "max_tokens": 7,
    "timeout": 2.5, "temperature": 0.5,
}


def test_the_run_setting_contract_covers_every_field():
    assert set(NON_DEFAULT_RUN_VALUES) == {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("name", sorted(NON_DEFAULT_RUN_VALUES))
def test_each_run_setting_reads_the_same_from_the_file_and_its_flag(tmp_path, name):
    value = NON_DEFAULT_RUN_VALUES[name]
    flag = {"snapshot_dir": "--out"}.get(name, "--" + name.replace("_", "-"))
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"{name}: {value}\n")
    from_file = _build_run_config(build_parser().parse_args(["run", "--config", str(cfg)]))
    from_flag = _build_run_config(build_parser().parse_args(["run", flag, str(value)]))
    assert from_file == from_flag
    assert getattr(from_file, name) == value != getattr(RunConfig(), name)
    assert type(from_file.build_session()) is type(from_flag.build_session())


def test_synthetic_overrides_a_config_file_endpoint(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("endpoint: http://127.0.0.1:9/never\n")
    config = _build_run_config(build_parser().parse_args(
        ["run", "--config", str(cfg), "--synthetic"]))
    assert config.endpoint == ""
    assert isinstance(config.build_session(), SyntheticGenerator)


def test_synthetic_and_endpoint_together_exit_2(tmp_path):
    out = tmp_path / "snaps"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--synthetic", "--endpoint", "http://127.0.0.1:9/never",
              "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


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
