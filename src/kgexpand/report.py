"""Analysis-suite CSV emission and the summary report table.

The tidy metrics file has one row per (iteration, metric, subject, value)
where subject is either "global" or a node key. Histograms are (bin, count)
files. The summary table mirrors the 13-row schema used for end-of-run graph
comparisons, from "Number of nodes" through "Scale-free classification".
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import analytics, scalefree
# ``largest_component`` is unused here, but perfbench/tracer.py patches every
# module that binds it and its tests expect this binding
from .core import Snapshot, largest_component  # noqa: F401
from .errors import EmptyGraph, KgExpandError, UndefinedMetric

if TYPE_CHECKING:
    from .sweep import SnapshotIndex

GLOBAL_METRICS = (
    "nodes", "edges", "avg_degree", "max_degree", "self_loops", "lcc_size",
    "avg_clustering", "modularity", "communities", "avg_spl_lcc", "diameter_lcc",
    "assortativity", "transitivity", "kcore_max", "kcore_size",
    "avg_betweenness_lcc", "articulation_points", "bridge_nodes",
    "newly_connected", "shortened_paths", "mean_betweenness", "max_betweenness",
    "mean_degree_lcc",
)

SUMMARY_ROWS = (
    "Number of nodes",
    "Number of edges",
    "Average degree",
    "Number of self-loops",
    "Average clustering coefficient",
    "Average shortest path length (LCC)",
    "Diameter (LCC)",
    "Modularity (Louvain)",
    "Log-likelihood ratio (LR)",
    "p-value",
    "Power-law exponent (α)",
    "Lower bound (x_min)",
    "Scale-free classification",
)


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.12g}"
    return str(value)


def degree_sequence(index: SnapshotIndex) -> list[int]:
    """Degrees on a snapshot's self-loop-free undirected view, from its index,
    in sorted node order."""
    return index.degree.tolist()


@dataclass
class AnalyzeSeeds:
    louvain: int = 0
    sampling: int = 0


def _write_csv(path: Path, header: list[str], rows: Iterable) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def analyze_series(snapshots: Iterable[Snapshot], out_dir: str | Path,
                   seeds: AnalyzeSeeds | None = None, samples: int | None = 1000,
                   spl_samples: int = 2000, stride: int = 1) -> Path:
    """Run the full metric suite over picked snapshots and emit CSVs.

    Writes metrics.csv (tidy), scalefree.csv (per snapshot), spl_histogram.csv
    (final snapshot), bridge_persistence.csv and hub_emergence.csv. Returns
    the output directory. Deterministic given the seeds.

    ``snapshots`` (in iteration order, already thinned by ``stride``, which is
    only recorded) is read once, and the last one is the final snapshot. Each
    gets one pass: its self-loop-free view and that view's index are built
    once and passed to every metric, with one Louvain partition and one
    distance sweep, which keeps the depth rows of the sampled pairs' sources
    and gives both betweenness tables; ``analytics.summarize_*`` aggregate
    the results.
    """
    from .sweep import distance_sweep, snapshot_index

    seeds = seeds or AnalyzeSeeds()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ledger = analytics.PairDistanceLedger(seed=seeds.sampling)

    values_by_iter, bet_by_iter, bridge_sets, degrees_by_iter = {}, {}, {}, {}
    scalefree_rows: list[list] = []
    final = None
    for snap in snapshots:
        final, it, g = snap, snap.iteration, snap.graph
        simple = g.undirected_view(self_loops=False)
        index = snapshot_index(simple)
        # after the loop, ``degrees`` is the final snapshot's degree sequence
        degrees = degree_sequence(index)
        try:
            fit, verdict = scalefree.classify(degrees)
            scalefree_rows.append([it, _fmt(fit.alpha), fit.xmin, fit.n_tail,
                                   _fmt(verdict.lr), _fmt(verdict.p),
                                   "yes" if verdict.is_scale_free else "no"])
        except KgExpandError as exc:
            scalefree_rows.append([it, "nan", "nan", "nan", "nan", "nan",
                                   type(exc).__name__])
        pairs = analytics.draw_pairs(ledger, it, g.node_count, samples)
        # after the loop, ``sweep`` is the final snapshot's
        sweep = distance_sweep(index, keep={u for u, _ in pairs})
        pair_stats = analytics.newly_connected_pairs(ledger, it, sweep, pairs)
        if g.node_count == 0:
            # leading snapshots can be empty when extraction failed early
            zero = {"nodes", "edges", "self_loops", "lcc_size", "bridge_nodes",
                    "newly_connected", "shortened_paths"}
            values_by_iter[it] = {n: 0 if n in zero else math.nan for n in GLOBAL_METRICS}
            bet_by_iter[it], bridge_sets[it], degrees_by_iter[it] = {}, set(), {}
            continue
        basic = analytics.basic_metrics(g, simple, index)
        avg_spl, diameter = analytics.spl_and_diameter(sweep)
        partition, q = analytics.louvain(simple, seeds.louvain)
        bridge_sets[it] = analytics.bridge_nodes(simple, partition)
        try:
            assort = analytics.assortativity(simple)
        except UndefinedMetric:
            assort = float("nan")
        kmax, ksize = analytics.kcore(simple)
        bet_by_iter[it] = sweep.betweenness
        degrees_by_iter[it] = index.lcc_degrees()
        values_by_iter[it] = {
            **dataclasses.asdict(basic),
            "modularity": q,
            "communities": len(set(partition.values())),
            "avg_spl_lcc": avg_spl,
            "diameter_lcc": diameter,
            "assortativity": assort,
            "transitivity": analytics.transitivity(simple),
            "kcore_max": kmax,
            "kcore_size": ksize,
            "avg_betweenness_lcc": (sum(sweep.lcc_betweenness.values())
                                    / len(sweep.lcc_betweenness)),
            "articulation_points": len(analytics.articulation_points(simple)),
            "bridge_nodes": len(bridge_sets[it]),
            "newly_connected": pair_stats.newly_connected,
            "shortened_paths": pair_stats.shortened,
        }
    if final is None:
        raise EmptyGraph("empty snapshot series")
    bet = analytics.summarize_betweenness(bet_by_iter)
    bridges = analytics.summarize_bridges(bridge_sets)
    hubs = analytics.summarize_hubs(degrees_by_iter)

    rows: list[tuple] = []
    for idx, (it, values) in enumerate(values_by_iter.items()):
        if values["nodes"]:
            values.update(mean_betweenness=bet.mean[idx], max_betweenness=bet.max[idx],
                          mean_degree_lcc=hubs.mean_degree[it])
        for name in GLOBAL_METRICS:
            rows.append((it, name, "global", _fmt(values[name])))
        if values["nodes"]:
            for col, node in enumerate(bet.nodes):
                rows.append((it, "betweenness", node, _fmt(bet.values[idx][col])))
    for hub, trajectory in hubs.trajectories.items():
        for it, deg in trajectory.items():
            rows.append((it, "hub_degree", hub, _fmt(deg)))
    for row_idx, node in enumerate(bridges.presence_nodes):
        for col_idx, it in enumerate(bridges.presence_iterations):
            rows.append((it, "bridge_presence", node,
                         _fmt(int(bridges.presence[row_idx][col_idx]))))
    # final-snapshot centrality distributions (plot-ready per-node values)
    final_it = final.iteration
    histogram: dict[int, int] = {}
    if final.graph.node_count:
        # Every other metric reads the self-loop-free view; these rows keep the
        # view with self-loops. A self-loop adds to the adjacency diagonal and
        # so changes eigenvector scores, and this view keeps them as they were.
        # Closeness is the same on either view; the loop's sweep gives it.
        final_table = analytics.centralities(final.graph.undirected_view(),
                                             sweep=sweep)
        for node in sorted(final_table.closeness):
            rows.append((final_it, "closeness", node,
                         _fmt(final_table.closeness[node])))
        if final_table.eigenvector is not None:
            for node in sorted(final_table.eigenvector):
                rows.append((final_it, "eigenvector", node,
                             _fmt(final_table.eigenvector[node])))
        histogram = analytics.sampled_spl_distribution(sweep, spl_samples,
                                                       seeds.sampling).histogram

    _write_csv(out / "metrics.csv", ["iteration", "metric", "subject", "value"], rows)
    _write_csv(out / "scalefree.csv",
               ["iteration", "alpha", "xmin", "n_tail", "lr", "p", "verdict"],
               scalefree_rows)
    _write_csv(out / "spl_histogram.csv", ["bin", "count"], histogram.items())
    _write_csv(out / "degree_histogram.csv", ["bin", "count"],
               sorted(Counter(degrees).items()))
    _write_csv(out / "bridge_persistence.csv", ["node", "persistence"],
               sorted(bridges.persistence.items()))
    _write_csv(out / "hub_emergence.csv", ["node", "t_emerge"],
               sorted(hubs.t_emerge.items()))

    (out / "analysis_manifest.json").write_text(json.dumps({
        "seeds": {"louvain": seeds.louvain, "sampling": seeds.sampling},
        "samples": samples,
        "spl_samples": spl_samples,
        "stride": stride,
        "iterations": list(values_by_iter),
    }, indent=2, sort_keys=True) + "\n")

    return out


# ---------------------------------------------------------------------------
# summary table


def summarize_snapshot(snap: Snapshot, louvain_seed: int = 0) -> dict[str, str]:
    """Values for the 13 summary rows, computed on one snapshot."""
    from .sweep import distance_sweep, snapshot_index

    g = snap.graph
    simple = g.undirected_view(self_loops=False)
    index = snapshot_index(simple)
    basic = analytics.basic_metrics(g, simple, index)
    avg_spl, diameter = analytics.spl_and_diameter(
        distance_sweep(index, betweenness=False))
    _, q = analytics.louvain(simple, louvain_seed)
    try:
        fit, verdict = scalefree.classify(degree_sequence(index))
        lr, p = f"{verdict.lr:.4f}", f"{verdict.p:.4f}"
        alpha, xmin = f"{fit.alpha:.4f}", f"{float(fit.xmin):.1f}"
        classification = "Yes" if verdict.is_scale_free else "No"
    except KgExpandError:
        lr = p = alpha = xmin = "n/a"
        classification = "No"
    return {
        "Number of nodes": str(basic.nodes),
        "Number of edges": str(basic.edges),
        "Average degree": f"{basic.avg_degree:.4f}",
        "Number of self-loops": str(basic.self_loops),
        "Average clustering coefficient": f"{basic.avg_clustering:.4f}",
        "Average shortest path length (LCC)": f"{avg_spl:.4f}",
        "Diameter (LCC)": str(diameter),
        "Modularity (Louvain)": f"{q:.4f}",
        "Log-likelihood ratio (LR)": lr,
        "p-value": p,
        "Power-law exponent (α)": alpha,
        "Lower bound (x_min)": xmin,
        "Scale-free classification": classification,
    }


def summary_markdown(values: dict[str, str], title: str = "Graph") -> str:
    lines = [f"| Metric | {title} |", "| --- | --- |"]
    for row in SUMMARY_ROWS:
        lines.append(f"| {row} | {values[row]} |")
    return "\n".join(lines) + "\n"


@dataclass
class ReportBundle:
    report_path: Path
    summary_csv: Path
    manifest_path: Path


def build_report(final: Snapshot, snapshots: int, out_dir: str | Path,
                 louvain_seed: int = 0,
                 run_dir: str | Path | None = None,
                 analysis_dir: str | Path | None = None,
                 paths_dir: str | Path | None = None) -> ReportBundle:
    """Write the summary table (markdown + CSV) and a bundle manifest.

    ``snapshots`` is the run's snapshot count, recorded in the manifest.
    The bundle manifest references the run manifest and any analysis CSVs and
    path reports found in the given directories, so one file indexes
    everything needed to reproduce and read the experiment.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values = summarize_snapshot(final, louvain_seed)
    report_path = out / "report.md"
    report_path.write_text(
        "# Knowledge Graph Summary\n\n"
        f"Final snapshot: iteration {final.iteration}\n\n"
        + summary_markdown(values))
    summary_csv = out / "summary.csv"
    _write_csv(summary_csv, ["metric", "value"],
               ((row, values[row]) for row in SUMMARY_ROWS))

    def _listing(directory, patterns):
        if directory is None:
            return []
        directory = Path(directory)
        found: list[str] = []
        for pattern in patterns:
            found.extend(str(p) for p in sorted(directory.glob(pattern)))
        return found

    manifest_path = out / "report_bundle.json"
    manifest_path.write_text(json.dumps({
        "final_iteration": final.iteration,
        "snapshots": snapshots,
        "louvain_seed": louvain_seed,
        "report_files": ["report.md", "summary.csv"],
        "run_manifest": _listing(run_dir, ["manifest.json"]),
        "metrics_csvs": _listing(analysis_dir, ["*.csv", "*.json"]),
        "path_reports": _listing(paths_dir, ["*.md", "*.graphml", "*.csv"]),
    }, indent=2, sort_keys=True) + "\n")
    return ReportBundle(report_path, summary_csv, manifest_path)
