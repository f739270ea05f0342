"""In-process tracer for the kgexpand CLI stages, and the worker that runs them.

The tracer wraps public functions of each kgexpand module from outside; the
program source is not edited. Each wrapper records a span (name, CLI stage,
parent span, start, end) and counts at the same boundary. Self time is a
span's duration minus the time its child spans cover; the program is
single-threaded, so children never overlap. Spans stay in memory and are
written out when the worker ends.

A function is patched at every kgexpand module that binds it (``cli`` binds
``read_graphml`` and ``write_graphml`` directly, ``paths`` binds
``centralities``, and so on), so a call through any name is traced.

Run as a script, this is the worker that ``run.py --trace 1`` starts:

    python3 perfbench/tracer.py --workload final --seed 1 --rep-dir DIR \\
        --trace 1 --spans FILE
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads

# (span name, module, attribute); a dotted attribute is a method of a class.
# Several targets may share one span name, which then covers all of them.
TARGETS = (
    ("loop.run", "kgexpand.loop", "run"),
    ("sessions.complete", "kgexpand.sessions", "SyntheticGenerator.complete"),
    ("extraction.parse_graph_literal", "kgexpand.extraction", "parse_graph_literal"),
    ("extraction.extract_with_retry", "kgexpand.extraction", "extract_with_retry"),
    ("core.merge_local", "kgexpand.core", "merge_local"),
    ("core.copy", "kgexpand.core", "KnowledgeGraph.copy"),
    ("core.undirected_view", "kgexpand.core", "KnowledgeGraph.undirected_view"),
    ("core.largest_component", "kgexpand.core", "largest_component"),
    ("core.max_degree", "kgexpand.core", "KnowledgeGraph.max_degree"),
    ("graphml_io.write", "kgexpand.graphml_io", "write_graphml"),
    ("graphml_io.read", "kgexpand.graphml_io", "read_graphml"),
    ("analytics.louvain", "kgexpand.analytics", "louvain"),
    ("analytics.nx_betweenness", "networkx", "betweenness_centrality"),
    ("analytics.centralities", "kgexpand.analytics", "centralities"),
    ("analytics.spl_and_diameter", "kgexpand.analytics", "spl_and_diameter"),
    ("analytics.newly_connected_pairs", "kgexpand.analytics", "newly_connected_pairs"),
    ("analytics.assortativity", "kgexpand.analytics", "assortativity"),
    ("analytics.structure", "kgexpand.analytics", "transitivity"),
    ("analytics.structure", "kgexpand.analytics", "kcore"),
    ("analytics.structure", "kgexpand.analytics", "articulation_points"),
    ("analytics.series", "kgexpand.analytics", "bridge_analysis"),
    ("analytics.series", "kgexpand.analytics", "hub_emergence"),
    ("analytics.series", "kgexpand.analytics", "betweenness_timeseries"),
    ("analytics.basic_metrics", "kgexpand.analytics", "basic_metrics"),
    ("analytics.sampled_spl_distribution", "kgexpand.analytics",
     "sampled_spl_distribution"),
    ("scalefree.classify", "kgexpand.scalefree", "classify"),
    ("paths.diameter_path", "kgexpand.paths", "diameter_path"),
    ("paths.top_k_longest_paths", "kgexpand.paths", "top_k_longest_paths"),
    ("paths.path_metric_correlations", "kgexpand.paths", "path_metric_correlations"),
    ("paths.compositional_pipeline", "kgexpand.paths", "compositional_pipeline"),
    ("report.analyze_series", "kgexpand.report", "analyze_series"),
    ("report.summarize_snapshot", "kgexpand.report", "summarize_snapshot"),
)

STAGE_SPAN = "cli.main"

# Every per-layer metric with its unit. A ratio whose base is 0 reads 0.
PER_LAYER = (
    ("loop.run.self_s", "s"),
    ("loop.overhead_ms_per_iter", "ms"),
    ("sessions.complete.calls", "count"),
    ("sessions.complete.self_s", "s"),
    ("extraction.parse_graph_literal.calls", "count"),
    ("extraction.parse_graph_literal.self_s", "s"),
    ("extraction.extract_with_retry.self_s", "s"),
    ("extraction.parse_ok_ratio", "ratio"),
    ("core.merge_local.self_s", "s"),
    ("core.copy.calls", "count"),
    ("core.copy.self_s", "s"),
    ("core.undirected_view.calls", "count"),
    ("core.undirected_view.self_s", "s"),
    ("core.largest_component.self_s", "s"),
    ("core.max_degree.self_s", "s"),
    ("graphml_io.write.calls", "count"),
    ("graphml_io.write.self_s", "s"),
    ("graphml_io.write.bytes", "B"),
    ("graphml_io.read.calls", "count"),
    ("graphml_io.read.self_s", "s"),
    ("graphml_io.read.bytes", "B"),
    ("graphml_io.read.used", "count"),
    ("graphml_io.read.useful_ratio", "ratio"),
    ("analytics.louvain.calls", "count"),
    ("analytics.louvain.self_s", "s"),
    ("analytics.louvain.per_snapshot", "calls/snapshot"),
    ("analytics.nx_betweenness.calls", "count"),
    ("analytics.nx_betweenness.self_s", "s"),
    ("analytics.centralities.calls", "count"),
    ("analytics.centralities.self_s", "s"),
    ("analytics.spl_and_diameter.self_s", "s"),
    ("analytics.newly_connected_pairs.self_s", "s"),
    ("analytics.assortativity.self_s", "s"),
    ("analytics.structure.self_s", "s"),
    ("analytics.series.self_s", "s"),
    ("analytics.basic_metrics.self_s", "s"),
    ("analytics.sampled_spl_distribution.self_s", "s"),
    ("scalefree.classify.calls", "count"),
    ("scalefree.classify.self_s", "s"),
    ("paths.diameter_path.self_s", "s"),
    ("paths.top_k_longest_paths.self_s", "s"),
    ("paths.path_metric_correlations.self_s", "s"),
    ("paths.compositional_pipeline.self_s", "s"),
    ("report.analyze_series.self_s", "s"),
    ("report.summarize_snapshot.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("proc.import_s", "s"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)

# Filled in by run.py from child processes rather than from spans.
PROCESS_METRICS = ("proc.import_s", "proc.cpu_s", "trace.overhead_s")


def resolve(module_name: str, attr: str) -> tuple[object, str, object]:
    """The object that holds a target, the attribute name there, and its value."""
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name, getattr(owner, name)


def binding_modules(module_name: str) -> list[object]:
    """Modules that may bind a target: its own, plus every loaded kgexpand module."""
    mods = [importlib.import_module(module_name)]
    mods += [m for name, m in sorted(sys.modules.items())
             if m is not None and (name == "kgexpand" or name.startswith("kgexpand."))]
    return list({id(m): m for m in mods}.values())


class Tracer:
    """Span recorder with wrappers installed at every binding site of each target."""

    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, stage, parent, start, end]
        self.stack: list[int] = []
        self.stage = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._read: dict[int, object] = {}   # graphs read in this stage, by id
        self._used: set[int] = set()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Patch every target; a target that no longer exists is listed in ``missing``."""
        for span, module_name, attr in TARGETS:
            try:
                owner, name, orig = resolve(module_name, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span, orig)
            if owner is not sys.modules.get(module_name):
                self._patch(owner, name, orig, wrapper)
                continue
            for mod in binding_modules(module_name):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def _mark_used(self, obj) -> None:
        """A graph read from disk counts as used once a traced layer receives it."""
        if not self._read:
            return
        for candidate in (obj, getattr(obj, "graph", None)):
            if id(candidate) in self._read and self._read[id(candidate)] is candidate:
                self._used.add(id(candidate))

    def _wrap(self, span: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            if args:
                self._mark_used(args[0])
            idx = len(spans)
            spans.append([span, self.stage, stack[-1] if stack else -1,
                          time.perf_counter(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{span}.raised"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][4] = time.perf_counter()
            if span == "graphml_io.read":
                path = args[0] if args else kwargs["path"]
                counts["graphml_io.read.bytes"] += os.path.getsize(path)
                self._read[id(result)] = result
            elif span == "graphml_io.write":
                path = args[1] if len(args) > 1 else kwargs["path"]
                counts["graphml_io.write.bytes"] += os.path.getsize(path)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def run_stage(self, stage: int, fn, *args):
        """Run one CLI stage as the root span of its own span tree."""
        self.stage = stage
        self._read, self._used = {}, set()
        try:
            return self._wrap(STAGE_SPAN, fn)(*args)
        finally:
            self.counts["graphml_io.read.used"] += len(self._used)
            self._read, self._used = {}, set()

    # -- summaries --------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for i, (name, _, _, start, end) in enumerate(self.spans):
            t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child[i]
        return totals

    def generator_time_in_loop(self) -> float:
        """Seconds of ``sessions.complete`` spans that descend from ``loop.run``."""
        in_loop = [False] * len(self.spans)
        total = 0.0
        for i, (name, _, parent, start, end) in enumerate(self.spans):
            in_loop[i] = name == "loop.run" or (parent >= 0 and in_loop[parent])
            if name == "sessions.complete" and in_loop[i]:
                total += end - start
        return total

    def layer_metrics(self, loop_iterations: int) -> dict[str, float]:
        """Every span-derived per-layer metric; layers never called read 0."""
        totals = self.layer_totals()

        def get(name: str, field: str) -> float:
            return totals.get(name, {}).get(field, 0.0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        metrics: dict[str, float] = {}
        for name, _ in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if field in ("calls", "self_s"):
                metrics[name] = get(layer, field)
            elif field == "bytes" or name == "graphml_io.read.used":
                metrics[name] = self.counts[name]
        parses = get("extraction.parse_graph_literal", "calls")
        used = self.counts["graphml_io.read.used"]
        loop_s = get("loop.run", "total_s")
        metrics["loop.overhead_ms_per_iter"] = 1000.0 * ratio(
            loop_s - self.generator_time_in_loop(), loop_iterations if loop_s else 0)
        metrics["extraction.parse_ok_ratio"] = ratio(
            parses - self.counts["extraction.parse_graph_literal.raised"], parses)
        metrics["graphml_io.read.useful_ratio"] = ratio(
            used, get("graphml_io.read", "calls"))
        metrics["analytics.louvain.per_snapshot"] = ratio(
            get("analytics.louvain", "calls"), used)
        return metrics

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, stage, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "stage": stage, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def run_stages(stages, rep_dir: Path, tracer: Tracer | None = None) -> list[dict]:
    """Run CLI stages in this process through ``kgexpand.cli.main``."""
    from kgexpand import cli

    results = []
    cwd = os.getcwd()
    os.chdir(rep_dir)
    try:
        for i, argv in enumerate(stages):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    if tracer is None:
                        rc = cli.main(list(argv))
                    else:
                        rc = tracer.run_stage(i, cli.main, list(argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    traceback.print_exc()
                    rc = 1
            results.append({"argv": list(argv), "returncode": rc,
                            "wall_s": time.perf_counter() - start})
    finally:
        os.chdir(cwd)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep-dir", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(workloads.SRC))
    import kgexpand.cli  # noqa: F401  (imported before timing, as the CLI child does)

    wl = workloads.workload(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        stages = run_stages(wl.stages, args.rep_dir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"stages": stages, "wall_s": sum(s["wall_s"] for s in stages)}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wl.loop_iterations)
        out["self_s"] = {name: t["self_s"] for name, t in tracer.layer_totals().items()}
        out["missing"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
