"""Import cost of the CLI: importing it and `run` load neither scipy, numpy,
requests, networkx, yaml nor xml.etree.ElementTree (only a stage that reads
GraphML parses XML; `run` writes it as text); no analysis stage loads
scipy (the power-law fit carries its own Hurwitz zeta, and assortativity its
own Pearson correlation) or networkx (every kernel reads the snapshot
index); `analyze` and `report` load no numpy.ma (the fit takes its distinct
values without np.unique); and `paths` loads neither `report` nor `scalefree` (the CSV
writer formats its cells)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY_MODULES = ["scipy", "numpy", "requests", "networkx", "yaml",
                 "xml.etree.ElementTree"]


def _loads(module: str, code: str, cwd) -> bool:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code + f"\nimport sys\nprint({module!r} in sys.modules)"],
        cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1] == "True"


@pytest.mark.parametrize("module", HEAVY_MODULES)
def test_importing_the_cli_does_not_load(module, tmp_path):
    assert not _loads(module, "import kgexpand.cli", tmp_path)


@pytest.mark.parametrize("module", HEAVY_MODULES)
def test_run_does_not_load(module, tmp_path):
    assert not _loads(
        module,
        "from kgexpand.cli import main\n"
        "assert main(['run', '--synthetic', '--iterations', '3', '--out', 'snaps']) == 0",
        tmp_path)


def test_analyze_does_not_load_scipy_stats(tmp_path):
    assert not _loads(
        "scipy.stats",
        "from kgexpand.cli import main\n"
        "assert main(['run', '--synthetic', '--iterations', '3', '--out', 'snaps']) == 0\n"
        "assert main(['analyze', 'snaps', '--out', 'analysis']) == 0",
        tmp_path)


def _runs_stage(*stage: str) -> str:
    # 12 iterations grow the final graph past the fit's 10-observation minimum
    return ("from kgexpand.cli import main\n"
            "assert main(['run', '--synthetic', '--iterations', '12', '--out', 'snaps']) == 0\n"
            f"assert main([{stage[0]!r}, 'snaps', *{stage[1:]!r}, '--out', 'out']) == 0")


ANALYSIS_STAGES = pytest.mark.parametrize(
    "stage", [["analyze"], ["paths", "--mode", "compositional"], ["report"]],
    ids=["analyze", "paths", "report"])


@ANALYSIS_STAGES
def test_analysis_stages_do_not_load_scipy(stage, tmp_path):
    assert not _loads("scipy", _runs_stage(*stage), tmp_path)


@pytest.mark.parametrize("stage", ["analyze", "report"])
def test_analysis_stages_do_not_load_numpy_ma(stage, tmp_path):
    # np.unique loads numpy.ma for its masked-array check
    assert not _loads("numpy.ma", _runs_stage(stage), tmp_path)


@ANALYSIS_STAGES
def test_analysis_stages_do_not_load_networkx(stage, tmp_path):
    assert not _loads("networkx", _runs_stage(*stage), tmp_path)


@pytest.mark.parametrize("module", ["kgexpand.report", "kgexpand.scalefree"])
def test_paths_does_not_load_the_report_modules(module, tmp_path):
    assert not _loads(
        module,
        "from kgexpand.cli import main\n"
        "assert main(['run', '--synthetic', '--iterations', '12', '--out', 'snaps']) == 0\n"
        "assert main(['paths', 'snaps', '--mode', 'compositional', '--out', 'out']) == 0",
        tmp_path)
