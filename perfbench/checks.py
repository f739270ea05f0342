"""Independent checks of each workload's outputs.

They read GraphML with ``networkx.read_graphml`` and recompute with networkx,
never through kgexpand's own reader or analytics, so a defect shared by the
program and its own tests still shows here. Each check returns a list of
problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import networkx as nx

SNAPSHOT = re.compile(r"graph_iteration_(\d+)\.graphml$")


def _snapshots(directory: Path) -> dict[int, Path]:
    found = {}
    for path in directory.iterdir():
        m = SNAPSHOT.search(path.name)
        if m:
            found[int(m.group(1))] = path
    return found


def _final_snapshot(directory: Path) -> nx.Graph:
    snaps = _snapshots(directory)
    if not snaps:
        raise FileNotFoundError(f"no snapshots in {directory}")
    return nx.read_graphml(snaps[max(snaps)])


def _undirected(g: nx.Graph) -> nx.Graph:
    """Direction dropped and parallel relations collapsed; self-loops kept."""
    und = nx.Graph()
    und.add_nodes_from(g)
    und.add_edges_from((u, v) for u, v, *_ in g.edges())
    return und


def _lcc(und: nx.Graph) -> nx.Graph:
    """Largest component; ties go to the one holding the smallest node id."""
    comps = list(nx.connected_components(und))
    size = max(len(c) for c in comps)
    return und.subgraph(min((c for c in comps if len(c) == size), key=min))


def _spl_and_diameter(lcc: nx.Graph) -> tuple[float, int]:
    if lcc.number_of_nodes() == 1:
        return 0.0, 0
    return nx.average_shortest_path_length(lcc), nx.diameter(lcc)


def _close(text: str, expected: float) -> bool:
    return math.isclose(float(text), expected, rel_tol=1e-9, abs_tol=1e-12)


def check_run(run_dir: Path, iterations: int) -> list[str]:
    """A run directory holds T records and T snapshots, and they agree."""
    problems = []
    with open(run_dir / "run_records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != iterations:
        problems.append(f"run_records.csv has {len(rows)} rows, expected {iterations}")
    snaps = _snapshots(run_dir)
    if sorted(snaps) != list(range(iterations)):
        problems.append(f"expected snapshots 0..{iterations - 1}, found {len(snaps)} files")
    if not snaps:
        return problems
    final = nx.read_graphml(snaps[max(snaps)])
    added_nodes = sum(int(r["added_nodes"]) for r in rows)
    added_edges = sum(int(r["added_edges"]) for r in rows)
    if final.number_of_nodes() != added_nodes:
        problems.append(f"final snapshot has {final.number_of_nodes()} nodes, "
                        f"records add up to {added_nodes}")
    if final.number_of_edges() != added_edges:
        problems.append(f"final snapshot has {final.number_of_edges()} edges, "
                        f"records add up to {added_edges}")
    return problems


def check_analysis(snapshot_dir: Path, analysis_dir: Path) -> list[str]:
    """metrics.csv rows of the final iteration match a networkx recomputation."""
    g = _final_snapshot(snapshot_dir)
    und = _undirected(g)
    avg_spl, diameter = _spl_and_diameter(_lcc(und))
    simple = und.copy()
    simple.remove_edges_from(list(nx.selfloop_edges(simple)))
    expected = {
        "nodes": g.number_of_nodes(),
        "edges": g.number_of_edges(),
        "avg_spl_lcc": avg_spl,
        "diameter_lcc": diameter,
        "transitivity": nx.transitivity(simple),
    }
    rows: dict[int, dict[str, str]] = {}
    with open(analysis_dir / "metrics.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["subject"] == "global":
                rows.setdefault(int(row["iteration"]), {})[row["metric"]] = row["value"]
    if not rows:
        return ["metrics.csv has no global rows"]
    final = rows[max(rows)]
    problems = []
    for name, value in expected.items():
        if name not in final:
            problems.append(f"metrics.csv lacks {name} for the final iteration")
        elif not _close(final[name], value):
            problems.append(f"metrics.csv {name} = {final[name]}, recomputed {value!r}")
    return problems


def check_paths_and_report(snapshot_dir: Path, paths_dir: Path,
                           report_dir: Path) -> list[str]:
    """path_0 spans the LCC diameter; summary.csv matches a recomputation."""
    g = _final_snapshot(snapshot_dir)
    avg_spl, diameter = _spl_and_diameter(_lcc(_undirected(g)))
    problems = []
    path0 = nx.read_graphml(paths_dir / "path_0.graphml")
    if path0.number_of_nodes() - 1 != diameter:
        problems.append(f"path_0 has length {path0.number_of_nodes() - 1}, "
                        f"LCC diameter is {diameter}")
    with open(report_dir / "summary.csv", newline="") as fh:
        summary = {row["metric"]: row["value"] for row in csv.DictReader(fh)}
    expected = {
        "Number of nodes": str(g.number_of_nodes()),
        "Number of edges": str(g.number_of_edges()),
        "Diameter (LCC)": str(diameter),
        "Average shortest path length (LCC)": f"{avg_spl:.4f}",
    }
    for row, value in expected.items():
        if summary.get(row) != value:
            problems.append(f"summary.csv {row!r} = {summary.get(row)!r}, "
                            f"recomputed {value!r}")
    return problems


def check_outputs(wl, rep_dir: Path, input_base: Path) -> list[str]:
    """Run the checks of workload ``wl`` on one repetition's outputs.

    ``input_base`` holds the set-up's input runs.
    """
    try:
        if wl.name == "expand":
            return check_run(rep_dir / "run", wl.loop_iterations)
        if wl.name == "temporal":
            return [p for (snapshots, _), out in zip(wl.inputs, wl.outputs)
                    for p in check_analysis(input_base / snapshots, rep_dir / out)]
        return check_paths_and_report(input_base / wl.inputs[0][0],
                                      rep_dir / "paths", rep_dir / "report")
    except (OSError, KeyError, ValueError, nx.NetworkXException) as exc:
        return [f"{type(exc).__name__}: {exc}"]
