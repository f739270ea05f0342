"""Workload definitions and the process plumbing shared by the timed and traced runs.

A workload is a list of kgexpand CLI stages run from a fresh directory. Its
inputs come from the synthetic generator seeded by the benchmark seed; the
program sees only the generated snapshot directory. Sizes are scaled down
from the paper's T = 1000 so that one run fits the benchmark's time budget,
while each workload keeps the layer that dominates it at full size.
"""

from __future__ import annotations

import hashlib
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYTHON = sys.executable

# expand: graphml_io.write dominates (it rewrites the whole graph every
# iteration). temporal: Louvain dominates; snapshots pass 64 nodes at about
# iteration 26, so both of its branches run (merge-refine with 16 restarts
# at 64 nodes or fewer, 5 plain restarts above). final: reading all
# snapshots dominates, with exact betweenness on the final graph next.
EXPAND_ITERATIONS = 150
TEMPORAL_ITERATIONS = 32
FINAL_ITERATIONS = 100

# temporal analyzes this many runs, each built from its own seed. How long
# Louvain takes depends on the graphs' structure, which changes with the
# seed; averaging over two runs in every repetition narrows that spread.
TEMPORAL_RUNS = 2
SEED_STRIDE = 1_000_000  # run k of a workload is built with seed + k * SEED_STRIDE

WORKLOADS = ("expand", "temporal", "final")

# Set-up builds its runs under INPUT; stages run with each repetition's
# directory as the working directory and read the runs through this relative
# path, so every output (report_bundle.json names it) is the same in every
# repetition.
INPUT = "input"
SNAPSHOTS = "snapshots"

CHILD_TIMEOUT_S = 150

IMPORT_ARGV = [PYTHON, "-c", "import kgexpand.cli"]


@dataclass(frozen=True)
class Workload:
    name: str
    setup_iterations: int                    # iterations of each input run
    inputs: tuple[tuple[str, int], ...]      # (directory, seed) of each input run
    stages: tuple[tuple[str, ...], ...]      # kgexpand CLI argv of each stage
    outputs: tuple[str, ...]                 # directories the stages write
    loop_iterations: int = 0                 # iterations of the expansion loop


def workload(name: str, seed: int) -> Workload:
    if name == "expand":
        return Workload(
            name, 0, (),
            (("run", "--synthetic", "--iterations", str(EXPAND_ITERATIONS),
              "--seed", str(seed), "--out", "run"),),
            ("run",), loop_iterations=EXPAND_ITERATIONS)
    if name == "temporal":
        suffixes = [str(k) if k else "" for k in range(TEMPORAL_RUNS)]
        return Workload(
            name, TEMPORAL_ITERATIONS,
            tuple((SNAPSHOTS + s, seed + k * SEED_STRIDE) for k, s in enumerate(suffixes)),
            tuple(("analyze", f"../{INPUT}/{SNAPSHOTS}{s}", "--out", f"analysis{s}")
                  for s in suffixes),
            tuple(f"analysis{s}" for s in suffixes))
    if name == "final":
        snapshots = f"../{INPUT}/{SNAPSHOTS}"
        return Workload(
            name, FINAL_ITERATIONS, ((SNAPSHOTS, seed),),
            (("paths", snapshots, "--mode", "compositional", "--out", "paths"),
             ("report", snapshots, "--out", "report")),
            ("paths", "report"))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def input_stage(wl: Workload, directory: str, seed: int) -> tuple[str, ...]:
    """The CLI stage that builds one input run into ``directory``."""
    return ("run", "--synthetic", "--iterations", str(wl.setup_iterations),
            "--seed", str(seed), "--out", directory)


def setup_argvs(wl: Workload) -> list[list[str]]:
    """The children that build the workload's inputs, run from its input directory.

    expand has no input to build; its set-up is a child that only imports
    the CLI, which warms the interpreter and the page cache the same way.
    """
    if not wl.inputs:
        return [IMPORT_ARGV]
    return [cli_argv(input_stage(wl, d, seed)) for d, seed in wl.inputs]


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's sources, one thread each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float        # spawn to exit, less the time the speed probes took
    ref_s: float         # wall_s at the reference speed (see speed.py)
    cpu_s: float
    maxrss_mb: float
    stdout: Path


def spawn(argv: list[str], cwd: Path, log: Path,
          timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion; wall time is from spawn to exit.

    The child inherits this process's CPU affinity, so when the benchmark is
    pinned to one CPU the speed samples taken here while the child runs see
    the speed the child gets. A pidfd tells the exact moment the child ends.
    Resource usage comes from wait4 on this child alone, so peak RSS and CPU
    time are the child's own. stderr goes to ``log`` and stdout to the same
    name with the suffix ``.out``. A child still running after ``timeout`` is
    killed and counts as failed.
    """
    out = log.with_suffix(".out")
    sampler = speed.Sampler()
    sampler.sample()  # at least one sample, even for a child shorter than the interval
    with open(out, "wb") as fout, open(log, "ab") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=fout, stderr=ferr)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], speed.INTERVAL_S)[0]:
                    if time.perf_counter() - start > timeout:
                        proc.kill()
                        proc.wait()
                        return ChildResult(-signal.SIGKILL, time.perf_counter() - start,
                                           0.0, 0.0, 0.0, out)
                    sampler.sample()
                end = time.perf_counter()
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    # The first sample was taken before the child started.
    wall = end - start - (sampler.spent_s - sampler.samples[0])
    return ChildResult(proc.returncode, wall, wall * sampler.speed(),
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, out)


def cli_argv(stage: tuple[str, ...]) -> list[str]:
    return [PYTHON, "-m", "kgexpand.cli", *stage]


def output_files(base: Path, outputs) -> list[Path]:
    return sorted(p for out in outputs for p in (base / out).rglob("*") if p.is_file())


def digest(base: Path, outputs) -> str:
    """SHA-256 over the relative names and contents of the deterministic outputs.

    ``manifest.json`` holds timestamps and is left out.
    """
    h = hashlib.sha256()
    for path in output_files(base, outputs):
        if path.name == "manifest.json":
            continue
        h.update(path.relative_to(base).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def written_bytes(base: Path, outputs) -> int:
    return sum(p.stat().st_size for p in output_files(base, outputs))
