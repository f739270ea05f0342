"""Tests of the benchmark's tracer, output checks and result contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

import checks  # noqa: E402
import kgexpand.cli  # noqa: E402,F401  (loads every module that binds a target)
import run as bench_run  # noqa: E402
import tracer  # noqa: E402

# Sites that bind a target by name instead of reaching it through its module.
DIRECT_BINDINGS = (
    ("kgexpand.loop", "merge_local"),
    ("kgexpand.loop", "extract_with_retry"),
    ("kgexpand.cli", "read_graphml"),
    ("kgexpand.cli", "write_graphml"),
    ("kgexpand.cli", "run"),
    ("kgexpand.paths", "centralities"),
    ("kgexpand.paths", "largest_component"),
    ("kgexpand.paths", "louvain"),
    ("kgexpand.report", "largest_component"),
    ("kgexpand.analytics", "largest_component"),
)


def _kgexpand_bindings():
    """Every (site, value) a kgexpand module or class exposes."""
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "kgexpand" or name.startswith("kgexpand.")):
            continue
        for key, value in vars(mod).items():
            yield f"{name}.{key}", value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    yield f"{name}.{key}.{attr}", member


def test_every_target_still_exists():
    missing = []
    for _, module, attr in tracer.TARGETS:
        try:
            tracer.resolve(module, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr}")
    assert not missing, (f"tracer targets no longer exist: {missing}; "
                         "update TARGETS and PER_LAYER in perfbench/tracer.py")


def test_install_patches_every_binding_site_and_uninstall_restores():
    originals = {id(tracer.resolve(m, a)[2]): f"{m}.{a}" for _, m, a in tracer.TARGETS}
    t = tracer.Tracer()
    t.install()
    assert not t.missing
    try:
        for module, name in DIRECT_BINDINGS:
            assert hasattr(getattr(sys.modules[module], name), "__wrapped__"), \
                f"{module}.{name} was not patched"
        unpatched = [site for site, value in _kgexpand_bindings()
                     if id(value) in originals]
        assert not unpatched, f"still bound to an untraced original: {unpatched}"
    finally:
        t.uninstall()
    restored = {id(tracer.resolve(m, a)[2]) for _, m, a in tracer.TARGETS}
    assert restored == set(originals)


def _build_inputs(base: Path, wl: workloads.Workload) -> Path:
    d = base / workloads.INPUT
    d.mkdir()
    tracer.run_stages([workloads.input_stage(wl, name, seed) for name, seed in wl.inputs], d)
    return d


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_outputs_equal_untraced_and_pass_checks(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "EXPAND_ITERATIONS", 6)
    monkeypatch.setattr(workloads, "TEMPORAL_ITERATIONS", 5)
    monkeypatch.setattr(workloads, "FINAL_ITERATIONS", 12)
    wl = workloads.workload(name, seed=3)
    input_base = _build_inputs(tmp_path, wl)
    digests = []
    t = tracer.Tracer()
    for label, rec in (("untraced", None), ("traced", t)):
        rep = tmp_path / label
        rep.mkdir()
        if rec is not None:
            rec.install()
            assert not rec.missing
        try:
            stages = tracer.run_stages(wl.stages, rep, rec)
        finally:
            t.uninstall()
        assert [s["returncode"] for s in stages] == [0] * len(wl.stages)
        assert checks.check_outputs(wl, rep, input_base) == []
        digests.append(workloads.digest(rep, wl.outputs))
    assert digests[0] == digests[1]

    m = t.layer_metrics(wl.loop_iterations)
    assert set(m) == {n for n, _ in tracer.PER_LAYER} - set(tracer.PROCESS_METRICS)
    if name == "expand":
        assert m["sessions.complete.calls"] == 3 * wl.loop_iterations
        assert m["graphml_io.write.calls"] == wl.loop_iterations
        assert m["extraction.parse_ok_ratio"] == 1.0
        assert m["graphml_io.read.calls"] == 0
    elif name == "temporal":
        assert m["graphml_io.read.calls"] == workloads.TEMPORAL_RUNS * wl.setup_iterations
        assert m["graphml_io.read.useful_ratio"] == 1.0
        assert m["analytics.louvain.per_snapshot"] == 2.0
        assert m["graphml_io.write.calls"] == 0
    else:
        assert m["graphml_io.read.calls"] == 2 * wl.setup_iterations
        assert m["graphml_io.read.used"] == 2
        assert m["analytics.centralities.calls"] == 3
        assert m["analytics.nx_betweenness.calls"] == 3


def test_checks_catch_a_wrong_summary(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "FINAL_ITERATIONS", 12)
    wl = workloads.workload("final", seed=3)
    input_base = _build_inputs(tmp_path, wl)
    rep = tmp_path / "rep"
    rep.mkdir()
    tracer.run_stages(wl.stages, rep)
    summary = rep / "report" / "summary.csv"
    summary.write_text(summary.read_text().replace("Diameter (LCC),", "Diameter (LCC),9"))
    problems = checks.check_outputs(wl, rep, input_base)
    assert len(problems) == 1 and "Diameter" in problems[0]


def test_a_stage_that_always_fails_ends_the_run(tmp_path, monkeypatch):
    spawned = []
    real_spawn = workloads.spawn

    def spawn(argv, cwd, log, **kwargs):
        spawned.append(argv)
        assert len(spawned) <= 20, "the timed loop keeps retrying a failing stage"
        return real_spawn(argv, cwd, log, **kwargs)

    monkeypatch.setattr(workloads, "spawn", spawn)
    wl = workloads.Workload("expand", 0, (), (("no-such-command",),), ("run",))
    run = bench_run.Run(wl, 1, tmp_path)
    with pytest.raises(bench_run.BenchError, match="no repetition ran to completion"):
        bench_run.timed(run, seconds=0)
    assert run.failed == bench_run.MIN_REPS
    assert run.attempted == bench_run.SETUP_REPEATS + bench_run.MIN_REPS


def test_spawn_times_a_child_to_its_exit_and_scales_it(tmp_path):
    res = workloads.spawn([sys.executable, "-c", "import time; time.sleep(0.3)"],
                          tmp_path, tmp_path / "child.log")
    assert res.returncode == 0
    # The pidfd reports the exit at once, not at the next sampling interval.
    assert 0.3 <= res.wall_s < 0.3 + res.cpu_s + 0.1
    assert res.ref_s > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "expand", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
