"""Import cost of the CLI: importing it and `run` load neither scipy, numpy nor
requests, and `analyze` does not load scipy.stats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY_MODULES = ["scipy", "numpy", "requests"]


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
