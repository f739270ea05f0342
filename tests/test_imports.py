"""Import cost of the CLI: importing it and `run` never load scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _loads_scipy(code: str, cwd) -> bool:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('scipy' in sys.modules)"],
        cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1] == "True"


def test_importing_the_cli_does_not_load_scipy(tmp_path):
    assert not _loads_scipy("import kgexpand.cli", tmp_path)


def test_run_does_not_load_scipy(tmp_path):
    assert not _loads_scipy(
        "from kgexpand.cli import main\n"
        "assert main(['run', '--synthetic', '--iterations', '3', '--out', 'snaps']) == 0",
        tmp_path)

