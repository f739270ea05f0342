"""kgexpand benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload expand|temporal|final --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` the workload's CLI stages run as child processes
(``python -m kgexpand.cli``, one thread each), repeated until ``--seconds``
have passed and at least twice, and the end-to-end metrics are
reported: medians for times, the highest value for peak RSS. The benchmark
and its children share one CPU, and times are scaled to a reference speed
by samples taken on that CPU while each child runs (``speed.py``); the
details keep the raw wall times. With
``--trace 1`` the stages run in-process in worker children, alternately
untraced and traced by ``tracer.py``, and the per-layer metrics are
reported. Both modes check every repetition's outputs against an
independent networkx recomputation and require every repetition to produce
the same output digest; a stage that exits non-zero, fails a check or
differs in digest counts as failed.

The last line of stdout is the result object; the line before it holds the
details: environment, noise record, sample counts, quartiles, digests and
failures. Both are also saved under ``.perfbench/results``. Work files go to
``.perfbench/work`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks
import speed
import tracer
import workloads
from workloads import ROOT, SRC, Workload

SETUP_REPEATS = 3
MIN_REPS = 2
MAX_REPS = 60
IMPORT_REPEATS = 3
STATE_DIR = ROOT / ".perfbench"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("written_mb", "MB"),
)

PAGE_CACHE_NOTE = (
    "the stages read snapshots that set-up has just written, so reads hit a "
    "warm page cache; the benchmark cannot drop caches, and every commit "
    "measured sees the same state")


class BenchError(Exception):
    """The run cannot produce a result."""


def quartiles(values: list[float]) -> dict:
    """Median and quartiles of a sample, with the samples themselves in run order."""
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "n": len(values), "samples": values}


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "kgexpand").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    versions = {}
    for dist in ("networkx", "numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"git_sha": git_sha(), "src_sha256": src.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "python": platform.python_version(), **versions}


def noise_record(before: dict, warnings: list[str]) -> dict:
    after = {"loadavg_1m": os.getloadavg()[0], "probe_ms": speed.probe_ms()}
    nproc = os.cpu_count() or 1
    for when, record in (("before", before), ("after", after)):
        if record["loadavg_1m"] > nproc:
            warnings.append(f"1-minute load average {record['loadavg_1m']:.2f} {when} "
                            f"the run exceeds nproc={nproc}; timings may be inflated")
    return {"before": before, "after": after}


class Budget:
    """Measurement window: another repetition starts only if it should fit."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = self.last = time.monotonic()
        self.laps: list[float] = []

    def lap(self) -> None:
        now = time.monotonic()
        self.laps.append(now - self.last)
        self.last = now

    def room_for_another(self, done: int) -> bool:
        expected = statistics.median(self.laps) if self.laps else 0.0
        return (done < MAX_REPS
                and self.last - self.start + expected <= self.seconds)


class Run:
    """State of one benchmark run: its work directory and operation tally."""

    def __init__(self, wl: Workload, seed: int, work: Path) -> None:
        self.wl, self.seed, self.work = wl, seed, work
        self.input_base = work / workloads.INPUT
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._checked: dict[str, list[str]] = {}
        self.reference: str | None = None
        self.digests: set[str] = set()

    def fail(self, stages: int, messages: list[str]) -> None:
        self.failed += stages
        self.failures.extend(messages)

    def setup(self, repeats: int) -> list[tuple[float, float]]:
        """Build the inputs ``repeats`` times; all repeats must agree byte for byte.

        Returns each repeat's time at the reference speed and its raw wall time.
        """
        times, digests = [], set()
        dirs = tuple(d for d, _ in self.wl.inputs)
        for j in range(repeats):
            d = self.input_base if j == 0 else self.work / f"setup{j}"
            d.mkdir()
            ref_s = wall_s = 0.0
            for k, argv in enumerate(workloads.setup_argvs(self.wl)):
                log = d / f"setup{k}.log"
                res = workloads.spawn(argv, d, log)
                self.attempted += 1
                if res.returncode != 0:
                    raise BenchError(f"set-up exited {res.returncode}: "
                                     f"{log.read_text()[-2000:]}")
                ref_s += res.ref_s
                wall_s += res.wall_s
            times.append((ref_s, wall_s))
            if dirs:
                digests.add(workloads.digest(d, dirs))
            if j:
                shutil.rmtree(d)
        if len(digests) > 1:
            raise BenchError("set-up repeats produced different snapshots")
        for name in dirs:
            problems = checks.check_run(self.input_base / name, self.wl.setup_iterations)
            if problems:
                raise BenchError(f"set-up output {name} failed its checks: {problems}")
        return times

    def verify(self, rep_dir: Path, label: str) -> list[str]:
        """Digest a repetition's outputs and check them once per distinct digest."""
        digest = workloads.digest(rep_dir, self.wl.outputs)
        self.digests.add(digest)
        if digest not in self._checked:
            self._checked[digest] = checks.check_outputs(self.wl, rep_dir, self.input_base)
        problems = list(self._checked[digest])
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"output digest {digest[:16]} differs from the first "
                            f"repetition's {self.reference[:16]}")
        return [f"{label}: {p}" for p in problems]

    def new_rep_dir(self, index: int) -> Path:
        d = self.work / f"rep{index}"
        d.mkdir()
        return d


def stage_key(wl: Workload, i: int) -> str:
    """``<command>_s``, with the stage's index if the command runs more than once."""
    names = [stage[0] for stage in wl.stages]
    return f"{names[i]}_s" if names.count(names[i]) == 1 else f"{names[i]}{i}_s"


def timed(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced repetitions of the CLI stages as child processes."""
    wl = run.wl
    setup_times = run.setup(SETUP_REPEATS)
    reps = []
    clock = Budget(seconds)
    # Bounded by repetitions attempted, so a stage that always fails ends the
    # run instead of being retried for good.
    attempts = 0
    while attempts < MIN_REPS or clock.room_for_another(attempts):
        rep_dir = run.new_rep_dir(attempts)
        stages, errors = [], []
        for i, stage in enumerate(wl.stages):
            res = workloads.spawn(workloads.cli_argv(stage), rep_dir,
                                  rep_dir / f"stage{i}.log")
            if res.returncode != 0:
                log = (rep_dir / f"stage{i}.log").read_text()[-2000:]
                errors.append(f"rep {attempts} {stage[0]} exited {res.returncode}: {log}")
            stages.append(res)
        run.attempted += len(stages)
        if errors:
            run.fail(len(errors), errors)
        else:
            problems = run.verify(rep_dir, f"rep {attempts}")
            if problems:
                run.fail(len(stages), problems)
            reps.append({"stages": stages,
                         "written": workloads.written_bytes(rep_dir, wl.outputs)})
        shutil.rmtree(rep_dir)
        clock.lap()
        attempts += 1
    # Repetitions whose outputs fail a check still ran to completion, so
    # they are timed; the failure shows in "correct" and "failed".
    if not reps:
        raise BenchError(f"no repetition ran to completion: {run.failures[:3]}")
    walls = [sum(s.ref_s for s in r["stages"]) for r in reps]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(ref for ref, _ in setup_times),
        "peak_rss_mb": max(s.maxrss_mb for r in reps for s in r["stages"]),
        "written_mb": statistics.median(r["written"] for r in reps) / 1e6,
    }
    details = {
        "wall_s": quartiles(walls),
        "setup_s": quartiles([ref for ref, _ in setup_times]),
        "stages": {
            stage_key(wl, i): quartiles([r["stages"][i].ref_s for r in reps])
            for i in range(len(wl.stages))},
        "raw_wall_s": quartiles([sum(s.wall_s for s in r["stages"]) for r in reps]),
        "raw_setup_s": quartiles([wall for _, wall in setup_times]),
        "cpu_s": quartiles([sum(s.cpu_s for s in r["stages"]) for r in reps]),
    }
    return metrics, details


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from in-process workers, alternately untraced and traced."""
    wl = run.wl
    run.setup(1)
    import_s = []
    for j in range(IMPORT_REPEATS):
        res = workloads.spawn(workloads.IMPORT_ARGV, run.work,
                              run.work / f"import{j}.log")
        if res.returncode != 0:
            raise BenchError("importing kgexpand.cli failed")
        import_s.append(res.wall_s)

    tracer_py = Path(__file__).resolve().parent / "tracer.py"
    spans_dir = STATE_DIR / "traces"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{wl.name}-seed{run.seed}.jsonl"
    workers = {0: [], 1: []}
    clock = Budget(seconds)
    index = 0
    while index < 2 or index % 2 or clock.room_for_another(index):
        trace = index % 2
        rep_dir = run.new_rep_dir(index)
        log = rep_dir / "worker.log"
        res = workloads.spawn(
            [workloads.PYTHON, str(tracer_py), "--workload", wl.name,
             "--seed", str(run.seed), "--rep-dir", str(rep_dir),
             "--trace", str(trace), "--spans", str(spans_path)], run.work, log)
        label = f"{'traced' if trace else 'untraced'} worker {index}"
        run.attempted += len(wl.stages)
        if res.returncode != 0:
            run.fail(len(wl.stages), [f"{label} exited {res.returncode}: "
                                      f"{log.read_text()[-2000:]}"])
        else:
            out = json.loads(res.stdout.read_text().splitlines()[-1])
            bad = [f"{label} {s['argv'][0]} returned {s['returncode']}: "
                   f"{log.read_text()[-2000:]}"
                   for s in out["stages"] if s["returncode"] != 0]
            if bad:
                run.fail(len(bad), bad)
            else:
                problems = run.verify(rep_dir, label)
                if problems:
                    run.fail(len(wl.stages), problems)
                out["cpu_s"] = res.cpu_s
                workers[trace].append(out)
        shutil.rmtree(rep_dir)
        clock.lap()
        index += 1
    if not workers[0] or not workers[1]:
        raise BenchError(f"no traced/untraced worker pair ran to completion: "
                         f"{run.failures[:3]}")

    traced_runs = workers[1]
    metrics = {}
    for name, _ in tracer.PER_LAYER:
        values = [w["layers"][name] for w in traced_runs if name in w["layers"]]
        if values:
            metrics[name] = statistics.median(values)
    untraced_wall = statistics.median(w["wall_s"] for w in workers[0])
    traced_wall = statistics.median(w["wall_s"] for w in traced_runs)
    metrics["proc.import_s"] = statistics.median(import_s)
    metrics["proc.cpu_s"] = statistics.median(w["cpu_s"] for w in workers[0])
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    self_s = {}
    for w in traced_runs:
        for name, value in w["self_s"].items():
            self_s.setdefault(name, []).append(value)
    self_s = {name: statistics.median(v) for name, v in self_s.items()}
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
    count_names = [n for n, unit in tracer.PER_LAYER
                   if unit in ("count", "B")]
    details = {
        "untraced_wall_s": quartiles([w["wall_s"] for w in workers[0]]),
        "traced_wall_s": quartiles([w["wall_s"] for w in traced_runs]),
        "self_share": {name: value / traced_wall for name, value in ranked},
        "dominant_layer": ranked[0][0] if ranked else None,
        "counts_repeat_exactly": all(
            w["layers"].get(n) == traced_runs[0]["layers"].get(n)
            for w in traced_runs for n in count_names),
        "missing_targets": traced_runs[0]["missing"],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="kgexpand benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running child is
    # killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for the benchmark and every child it starts, so the speed
    # samples taken while a child runs see the CPU the child runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "kgexpand" / "cli.py").is_file():
        print(f"error: no kgexpand sources under {SRC}", file=sys.stderr)
        return 2

    wl = workloads.workload(args.workload, args.seed)
    work = STATE_DIR / "work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    warnings: list[str] = []
    noise_before = {"loadavg_1m": os.getloadavg()[0], "probe_ms": speed.probe_ms()}
    run = Run(wl, args.seed, work)
    try:
        if args.trace:
            metrics, details = traced(run, args.seconds)
            units = dict(tracer.PER_LAYER)
        else:
            metrics, details = timed(run, args.seconds)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details["noise"] = noise_record(noise_before, warnings)
    details["environment"] = environment(args.seed)
    details["workload"] = {"name": wl.name, "stages": [list(s) for s in wl.stages],
                           "setup_iterations": wl.setup_iterations,
                           "inputs": [list(i) for i in wl.inputs]}
    if wl.setup_iterations:
        details["page_cache"] = PAGE_CACHE_NOTE
    for target in details.get("missing_targets", []):
        warnings.append(f"tracer target {target} no longer exists; its per-layer "
                        "metrics read 0 because it was never traced, not because "
                        "it got faster")
    details["digests"] = sorted(run.digests)
    details["failures"] = run.failures
    details["warnings"] = warnings
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
