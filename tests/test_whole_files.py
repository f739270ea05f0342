"""Every output file is whole or absent, whatever stops the stage writing it.

Each stage writes its files through ``graphml_io.whole_file``: the text goes
to ``<name>.partial``, which is moved onto ``<name>`` once it is whole and
removed if the write fails.
"""

import builtins
import contextlib
import errno
import os
import sys
from pathlib import Path

import pytest

# every stage module is loaded, so each of their bindings of the writer is patched
from kgexpand import graphml_io, loop, paths, report  # noqa: F401
from kgexpand.cli import main


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two small runs, ``seed5`` and ``seed6``, to feed the later stages."""
    base = tmp_path_factory.mktemp("runs")
    for seed in (5, 6):
        assert main(["run", "--synthetic", "--iterations", "4", "--seed", str(seed),
                     "--out", str(base / f"seed{seed}")]) == 0
    return base


def _argv(stage: str, seed: int, runs: Path, out: Path) -> list[str]:
    if stage == "run":
        return ["run", "--synthetic", "--iterations", "4", "--seed", str(seed),
                "--out", str(out)]
    extra = {"analyze": ["--samples", "20", "--spl-samples", "20"],
             "paths": ["--mode", "none"], "report": []}[stage]
    return [stage, str(runs / f"seed{seed}"), "--out", str(out), *extra]


def _fail_writes_to(monkeypatch, name: str) -> list[str]:
    """Make each file opened for writing as ``name`` or ``name.partial`` store
    half of its first write and then fail as a full disk does. Returns the
    texts whose writes failed."""
    failed: list[str] = []
    real_open = builtins.open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            failed.append(text)
            raise OSError(errno.ENOSPC, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def __getattr__(self, attr):
            return getattr(self.fh, attr)

    def opening(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if ("w" in mode and isinstance(file, (str, os.PathLike))
                and Path(file).name in (name, name + ".partial")):
            return FullDisk(fh)
        return fh

    monkeypatch.setattr(builtins, "open", opening)
    return failed


@pytest.mark.parametrize("previous", [False, True], ids=["no-previous", "previous"])
@pytest.mark.parametrize("stage, name", [
    ("run", "graph_iteration_2.graphml"),
    ("run", "run_records.csv"),
    ("run", "manifest.json"),
    ("analyze", "scalefree.csv"),
    ("analyze", "analysis_manifest.json"),
    ("report", "report.md"),
    ("paths", "path_0.graphml"),
])
def test_a_failed_write_leaves_the_previous_file_or_none(
        runs, tmp_path, monkeypatch, stage, name, previous):
    out = tmp_path / "out"
    before = None
    if previous:
        assert main(_argv(stage, 6, runs, out)) == 0
        before = (out / name).read_bytes()
    failed = _fail_writes_to(monkeypatch, name)
    assert main(_argv(stage, 5, runs, out)) == 1
    assert failed, f"the stage wrote no {name}"
    path = out / name
    assert (path.read_bytes() if path.exists() else None) == before
    assert list(out.rglob("*.partial")) == []


def test_every_file_a_stage_leaves_went_through_the_one_writer(tmp_path, monkeypatch):
    # a file written in place would be missing from ``written``
    real = graphml_io.whole_file
    written = set()

    @contextlib.contextmanager
    def recording(path, **open_kwargs):
        written.add(Path(path).resolve())
        with real(path, **open_kwargs) as fh:
            yield fh

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("kgexpand")
                and getattr(module, "whole_file", None) is real):
            monkeypatch.setattr(module, "whole_file", recording)
    snaps = tmp_path / "run"
    for argv in (
            ["run", "--synthetic", "--iterations", "6", "--seed", "3", "--out", snaps],
            ["analyze", snaps, "--samples", "20", "--out", tmp_path / "analysis"],
            ["paths", snaps, "--mode", "compositional", "--out", tmp_path / "paths"],
            ["report", snaps, "--out", tmp_path / "report",
             "--analysis", tmp_path / "analysis", "--paths", tmp_path / "paths"]):
        assert main([str(arg) for arg in argv]) == 0
    left = {p.resolve() for p in tmp_path.rglob("*") if p.is_file()}
    assert {p.parent.name for p in left} == {"run", "analysis", "paths", "report"}
    assert {p.name for p in left} >= {"compositional_report.md", "path_correlations.csv",
                                      "report_bundle.json", "run_records.csv"}
    assert left == written
