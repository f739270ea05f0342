"""Analysis-suite CSV emission and the summary report table.

The tidy metrics file has one row per (iteration, metric, subject, value)
where subject is either "global" or a node key. Histograms are (bin, count)
files. The summary table mirrors the 13-row schema used for end-of-run graph
comparisons, from "Number of nodes" through "Scale-free classification".
Every file goes through ``graphml_io.whole_file``: it is whole or absent.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytics, scalefree
# ``largest_component`` is unused here, but perfbench/tracer.py patches every
# module that binds it and its tests expect this binding
from .core import Snapshot, largest_component  # noqa: F401
from .errors import EmptyGraph, KgExpandError, UndefinedMetric
from .graphml_io import MANIFEST_FILENAME, csv_writer, whole_file, write_csv, write_json
from .sweep import DistanceSweep, distance_sweep, snapshot_index

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


@dataclass
class AnalyzeSeeds:
    louvain: int = 0
    sampling: int = 0


# an empty snapshot's metrics (extraction can fail in the first iterations)
EMPTY_VALUES = {**dict.fromkeys(GLOBAL_METRICS),
                **dict.fromkeys(("nodes", "edges", "self_loops", "lcc_size",
                                 "bridge_nodes"), 0)}


@dataclass
class SnapshotRecord:
    """What one snapshot gives the analysis. Node ``i`` is
    ``sweep.index.nodes[i]``; ``bridges`` and ``pairs`` hold such indices."""

    iteration: int
    values: dict                # every global metric but the two pair counts
    scalefree_row: list
    sweep: DistanceSweep        # with its index, and both betweenness tables
    bridges: np.ndarray         # the bridge nodes, ascending
    pairs: list[tuple[int, int]]    # the drawn pairs (``analytics.draw_pairs``)
    hops: np.ndarray            # and their hop counts, -1 where unreachable


def snapshot_record(snap: Snapshot, seeds: AnalyzeSeeds,
                    samples: int | None) -> SnapshotRecord:
    """One snapshot's metrics, a function of it and the seeds alone: from one
    index, one triangle pass, one Louvain partition and one distance sweep,
    which keeps the drawn pairs' sources' depth rows."""
    it, g = snap.iteration, snap.graph
    index = snapshot_index(g)
    try:
        fit, verdict = scalefree.classify(index.degree.tolist())
        row = [it, fit.alpha, fit.xmin, fit.n_tail, verdict.lr, verdict.p,
               "yes" if verdict.is_scale_free else "no"]
    except KgExpandError as exc:
        row = [it, None, None, None, None, None, type(exc).__name__]
    pairs = analytics.draw_pairs(seeds.sampling, it, g.node_count, samples)
    sweep = distance_sweep(index, keep={u for u, _ in pairs})
    hops = analytics.pair_hops(sweep, pairs)
    if g.node_count == 0:
        return SnapshotRecord(it, EMPTY_VALUES, row, sweep, np.zeros(0, dtype=np.int64),
                              pairs, hops)
    triangles = analytics.triangles(index)
    basic = analytics.basic_metrics(g, index, analytics.clustering(index, triangles))
    avg_spl, diameter = analytics.spl_and_diameter(sweep)
    partition, q = analytics.louvain(index, seeds.louvain)
    bridges = analytics.bridge_indices(index, partition)
    try:
        assort = analytics.assortativity(index)
    except UndefinedMetric:
        assort = float("nan")
    kmax, ksize = analytics.kcore(index)
    bet = sweep.betweenness
    lcc_degree = index.degree[index.lcc]
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
        "bridge_nodes": len(bridges),
        "mean_betweenness": sum(bet.values()) / len(bet),
        "max_betweenness": max(bet.values()),
        "mean_degree_lcc": int(lcc_degree.sum()) / len(lcc_degree),
    }
    return SnapshotRecord(it, values, row, sweep, bridges, pairs, hops)


class Fold:
    """What the analysis keeps across snapshots, folded from each record in
    iteration order: the pair ledger and the hub and bridge trackers, over
    the ledger's node ids, the iterations, and the last record."""

    def __init__(self) -> None:
        self.ledger = analytics.PairDistanceLedger()
        self.hubs, self.bridges = analytics.HubTracker(), analytics.BridgeTracker()
        self.iterations: list[int] = []
        self.last: SnapshotRecord | None = None

    def add(self, record: SnapshotRecord) -> analytics.PairStats:
        """Fold in the next record; returns the counts of its pairs."""
        it, index = record.iteration, record.sweep.index
        gid = analytics.node_ids(self.ledger.ids, index.nodes)
        stats = analytics.newly_connected_pairs(self.ledger, it, gid, record.pairs,
                                                record.hops)
        self.hubs.add(it, gid[index.lcc], index.degree[index.lcc])
        self.bridges.add(it, gid[record.bridges])
        self.iterations.append(it)
        self.last = record
        return stats


def analyze_series(snapshots: Iterable[Snapshot], out_dir: str | Path,
                   seeds: AnalyzeSeeds | None = None, samples: int | None = 1000,
                   spl_samples: int = 2000, stride: int = 1) -> Path:
    """Run the full metric suite over picked snapshots and emit CSVs.

    Writes metrics.csv (tidy), scalefree.csv (per snapshot), spl_histogram.csv
    (final snapshot), bridge_persistence.csv and hub_emergence.csv. Returns
    the output directory. Deterministic given the seeds.

    ``snapshots`` (in iteration order, already thinned by ``stride``, which is
    only recorded) is read once; the last is the final snapshot. Each one's
    ``snapshot_record`` is folded into one ``Fold``, and its metrics.csv
    rows, with a betweenness row for each node it holds, and its
    scalefree.csv row are written before the next snapshot is read.
    """
    seeds = seeds or AnalyzeSeeds()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fold = Fold()
    with csv_writer(out / "metrics.csv",
                    ["iteration", "metric", "subject", "value"]) as metrics, \
            csv_writer(out / "scalefree.csv", ["iteration", "alpha", "xmin", "n_tail",
                                               "lr", "p", "verdict"]) as scalefree_csv:
        for snap in snapshots:
            # no record outlives its successor's sweep: both hold a sweep's rows
            fold.last = None
            record = snapshot_record(snap, seeds, samples)
            stats = fold.add(record)
            values = {**record.values, "newly_connected": stats.newly_connected,
                      "shortened_paths": stats.shortened}
            metrics.writerows((record.iteration, name, "global", values[name])
                              for name in GLOBAL_METRICS)
            metrics.writerows((record.iteration, "betweenness", node, value)
                              for node, value in record.sweep.betweenness.items())
            scalefree_csv.writerow(record.scalefree_row)
            del record
        final = fold.last
        if final is None:
            raise EmptyGraph("empty snapshot series")
        keys = list(fold.ledger.ids)
        hubs = fold.hubs.summary(keys)
        persistence, bridge_nodes, window, presence = fold.bridges.summary(keys)
        for hub, trajectory in hubs.trajectories.items():
            metrics.writerows((it, "hub_degree", hub, deg)
                              for it, deg in trajectory.items())
        for node, present in zip(bridge_nodes, presence):
            metrics.writerows((it, "bridge_presence", node, here)
                              for it, here in zip(window, present))
        histogram = {}
        if final.sweep.index.nodes:
            # Every other metric ignores self-loops; the eigenvector rows keep
            # them, as a self-loop adds to the adjacency diagonal and so changes
            # eigenvector scores. Closeness is the same either way.
            final_table = analytics.centralities(final.sweep, self_loops=True)
            histogram = analytics.sampled_spl_distribution(final.sweep, spl_samples,
                                                           seeds.sampling)
            for name, table in (("closeness", final_table.closeness),
                                ("eigenvector", final_table.eigenvector)):
                metrics.writerows((final.iteration, name, node, table[node])
                                  for node in sorted(table or ()))

    write_csv(out / "spl_histogram.csv", ["bin", "count"], histogram.items())
    write_csv(out / "degree_histogram.csv", ["bin", "count"],
              sorted(Counter(final.sweep.index.degree.tolist()).items()))
    write_csv(out / "bridge_persistence.csv", ["node", "persistence"],
              sorted(persistence.items()))
    write_csv(out / "hub_emergence.csv", ["node", "t_emerge"], sorted(hubs.t_emerge.items()))

    write_json(out / "analysis_manifest.json", {
        "seeds": {"louvain": seeds.louvain, "sampling": seeds.sampling},
        "samples": samples,
        "spl_samples": spl_samples,
        "stride": stride,
        "iterations": fold.iterations,
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


def summary_markdown(values: dict[str, str]) -> str:
    lines = ["| Metric | Graph |", "| --- | --- |"]
    for row in SUMMARY_ROWS:
        lines.append(f"| {row} | {values[row]} |")
    return "\n".join(lines) + "\n"


def build_report(final: Snapshot, snapshots: int, out_dir: str | Path,
                 louvain_seed: int = 0,
                 run_dir: str | Path | None = None,
                 analysis_dir: str | Path | None = None,
                 paths_dir: str | Path | None = None) -> str:
    """Write the summary table (markdown + CSV) and a bundle manifest; return the markdown.

    ``snapshots`` is the run's snapshot count, recorded in the manifest.
    The bundle manifest references the run manifest and any analysis CSVs and
    path reports found in the given directories, so one file indexes
    everything needed to reproduce and read the experiment.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values = summarize_snapshot(final, louvain_seed)
    markdown = ("# Knowledge Graph Summary\n\n"
                f"Final snapshot: iteration {final.iteration}\n\n"
                + summary_markdown(values))
    with whole_file(out / "report.md") as fh:
        fh.write(markdown)
    write_csv(out / "summary.csv", ["metric", "value"],
              ((row, values[row]) for row in SUMMARY_ROWS))

    def _listing(directory, patterns):
        return [] if directory is None else [
            str(p) for pattern in patterns for p in sorted(Path(directory).glob(pattern))]

    write_json(out / "report_bundle.json", {
        "final_iteration": final.iteration,
        "snapshots": snapshots,
        "louvain_seed": louvain_seed,
        "report_files": ["report.md", "summary.csv"],
        "run_manifest": _listing(run_dir, [MANIFEST_FILENAME]),
        "metrics_csvs": _listing(analysis_dir, ["*.csv", "*.json"]),
        "path_reports": _listing(paths_dir, ["*.md", "*.graphml", "*.csv"]),
    })
    return markdown
