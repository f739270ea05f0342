"""Analysis-suite CSV emission and the summary report table.

The tidy metrics file has one row per (iteration, metric, subject, value)
where subject is either "global" or a node key. Histograms are (bin, count)
files. The summary table mirrors the 13-row schema used for end-of-run graph
comparisons, from "Number of nodes" through "Scale-free classification".
Every file goes through ``graphml_io.whole_file``: it is whole or absent.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from . import analytics, scalefree
# ``largest_component`` is unused here, but perfbench/tracer.py patches every
# module that binds it and its tests expect this binding
from .core import Snapshot, largest_component  # noqa: F401
from .errors import EmptyGraph, KgExpandError, UndefinedMetric
from .graphml_io import csv_writer, whole_file, write_csv, write_json
from .sweep import distance_sweep, snapshot_index

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


@dataclass
class AnalyzeSeeds:
    louvain: int = 0
    sampling: int = 0


def analyze_series(snapshots: Iterable[Snapshot], out_dir: str | Path,
                   seeds: AnalyzeSeeds | None = None, samples: int | None = 1000,
                   spl_samples: int = 2000, stride: int = 1) -> Path:
    """Run the full metric suite over picked snapshots and emit CSVs.

    Writes metrics.csv (tidy), scalefree.csv (per snapshot), spl_histogram.csv
    (final snapshot), bridge_persistence.csv and hub_emergence.csv. Returns
    the output directory. Deterministic given the seeds.

    ``snapshots`` (in iteration order, already thinned by ``stride``, which is
    only recorded) is read once; the last is the final snapshot. Each gets one
    index, one triangle pass, one Louvain partition and one distance sweep,
    which keeps the sampled pairs' sources' depth rows and gives both
    betweenness tables. Its metrics.csv rows, with a betweenness row for each
    node it holds, are written before the next snapshot is read.
    """
    seeds = seeds or AnalyzeSeeds()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ledger = analytics.PairDistanceLedger(seed=seeds.sampling)

    scalefree_rows, bridge_sets, degrees_by_iter, final = [], {}, {}, None
    keys: dict[str, str] = {}  # node key -> the first string read for it
    with csv_writer(out / "metrics.csv",
                    ["iteration", "metric", "subject", "value"]) as metrics:
        for snap in snapshots:
            final, it, g = snap, snap.iteration, snap.graph
            index = snapshot_index(g)
            # what is kept across snapshots holds one string per node key
            index.nodes = [keys.setdefault(k, k) for k in index.nodes]
            # after the loop, ``degrees`` is the final snapshot's degree sequence
            degrees = index.degree.tolist()
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
                metrics.writerows((it, name, "global", "0" if name in zero else "nan")
                                  for name in GLOBAL_METRICS)
                bridge_sets[it], degrees_by_iter[it] = set(), {}
                continue
            triangles = analytics.triangles(index)
            basic = analytics.basic_metrics(g, index,
                                            analytics.clustering(index, triangles))
            avg_spl, diameter = analytics.spl_and_diameter(sweep)
            partition, q = analytics.louvain(index, seeds.louvain)
            bridge_sets[it] = analytics.bridge_nodes(index, partition)
            try:
                assort = analytics.assortativity(index)
            except UndefinedMetric:
                assort = float("nan")
            kmax, ksize = analytics.kcore(index)
            bet = sweep.betweenness
            degrees_by_iter[it] = lcc_degrees = index.lcc_degrees()
            values = {
                **dataclasses.asdict(basic),
                "modularity": q,
                "communities": len(set(partition.values())),
                "avg_spl_lcc": avg_spl,
                "diameter_lcc": diameter,
                "assortativity": assort,
                "transitivity": analytics.transitivity(index, triangles),
                "kcore_max": kmax,
                "kcore_size": ksize,
                "avg_betweenness_lcc": (sum(sweep.lcc_betweenness.values())
                                        / len(sweep.lcc_betweenness)),
                "articulation_points": len(analytics.articulation_points(index)),
                "bridge_nodes": len(bridge_sets[it]),
                "newly_connected": pair_stats.newly_connected,
                "shortened_paths": pair_stats.shortened,
                "mean_betweenness": sum(bet.values()) / len(bet),
                "max_betweenness": max(bet.values()),
                "mean_degree_lcc": sum(lcc_degrees.values()) / len(lcc_degrees),
            }
            metrics.writerows((it, name, "global", _fmt(values[name]))
                              for name in GLOBAL_METRICS)
            metrics.writerows((it, "betweenness", node, _fmt(value))
                              for node, value in bet.items())
        if final is None:
            raise EmptyGraph("empty snapshot series")
        bridges = analytics.summarize_bridges(bridge_sets)
        hubs = analytics.summarize_hubs(degrees_by_iter)
        for hub, trajectory in hubs.trajectories.items():
            metrics.writerows((it, "hub_degree", hub, _fmt(deg))
                              for it, deg in trajectory.items())
        for node, present in zip(bridges.presence_nodes, bridges.presence):
            metrics.writerows((it, "bridge_presence", node, _fmt(int(here)))
                              for it, here in zip(bridges.presence_iterations, present))
        histogram = {}
        if final.graph.node_count:
            # Every other metric ignores self-loops; the eigenvector rows keep
            # them, as a self-loop adds to the adjacency diagonal and so changes
            # eigenvector scores. Closeness is the same either way.
            final_table = analytics.centralities(sweep, self_loops=True)
            histogram = analytics.sampled_spl_distribution(sweep, spl_samples,
                                                           seeds.sampling).histogram
            for name, table in (("closeness", final_table.closeness),
                                ("eigenvector", final_table.eigenvector)):
                metrics.writerows((final.iteration, name, node, _fmt(table[node]))
                                  for node in sorted(table or ()))

    write_csv(out / "scalefree.csv",
              ["iteration", "alpha", "xmin", "n_tail", "lr", "p", "verdict"],
              scalefree_rows)
    write_csv(out / "spl_histogram.csv", ["bin", "count"], histogram.items())
    write_csv(out / "degree_histogram.csv", ["bin", "count"],
              sorted(Counter(degrees).items()))
    write_csv(out / "bridge_persistence.csv", ["node", "persistence"],
              sorted(bridges.persistence.items()))
    write_csv(out / "hub_emergence.csv", ["node", "t_emerge"],
              sorted(hubs.t_emerge.items()))

    write_json(out / "analysis_manifest.json", {
        "seeds": {"louvain": seeds.louvain, "sampling": seeds.sampling},
        "samples": samples,
        "spl_samples": spl_samples,
        "stride": stride,
        "iterations": list(degrees_by_iter),
    })

    return out


# ---------------------------------------------------------------------------
# summary table


def summarize_snapshot(snap: Snapshot, louvain_seed: int = 0) -> dict[str, str]:
    """Values for the 13 summary rows, computed on one snapshot."""
    g = snap.graph
    index = snapshot_index(g)
    basic = analytics.basic_metrics(
        g, index, analytics.clustering(index, analytics.triangles(index)))
    avg_spl, diameter = analytics.spl_and_diameter(
        distance_sweep(index, betweenness=False))
    _, q = analytics.louvain(index, louvain_seed)
    try:
        fit, verdict = scalefree.classify(index.degree.tolist())
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
    with whole_file(report_path) as fh:
        fh.write("# Knowledge Graph Summary\n\n"
                 f"Final snapshot: iteration {final.iteration}\n\n"
                 + summary_markdown(values))
    summary_csv = out / "summary.csv"
    write_csv(summary_csv, ["metric", "value"],
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
    write_json(manifest_path, {
        "final_iteration": final.iteration,
        "snapshots": snapshots,
        "louvain_seed": louvain_seed,
        "report_files": ["report.md", "summary.csv"],
        "run_manifest": _listing(run_dir, ["manifest.json"]),
        "metrics_csvs": _listing(analysis_dir, ["*.csv", "*.json"]),
        "path_reports": _listing(paths_dir, ["*.md", "*.graphml", "*.csv"]),
    })
    return ReportBundle(report_path, summary_csv, manifest_path)
