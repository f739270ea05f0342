"""Command-line surface: run, analyze, paths, report.

Config files are YAML key/value trees; explicit flags override file values.
Exit codes: 0 success, 1 runtime failure, 2 usage error.

Each command imports what only it uses when it runs: ``yaml`` for a config
file, ``paths`` (and with it numpy) for ``paths``, ``report`` for
``analyze`` and ``report``, and the XML parser for the stages that read
GraphML. Loading the CLI and ``run`` load none of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .errors import EmptyGraph, KgExpandError
from .graphml_io import (SnapshotStore, read_graphml, remove_numbered, whole_file, write_csv,
                         write_graphml)
from .loop import RunConfig, run


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    import yaml

    try:
        data = yaml.safe_load(Path(path).read_text())
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f", line {mark.line + 1} column {mark.column + 1}" if mark else ""
        raise KgExpandError(f"config file {path}{where} is not valid YAML: "
                            f"{getattr(exc, 'problem', None) or exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise KgExpandError(f"config file {path} must hold a mapping")
    return data


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    values = _load_config(args.config)
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise KgExpandError(f"unknown config keys: {sorted(unknown, key=str)}")
    # each run flag's dest is its field's name; a flag left out is None
    values.update((name, getattr(args, name)) for name in known
                  if getattr(args, name) is not None)
    if args.endpoint and not args.synthetic:
        values["synthetic"] = False
    if values.get("topic") and "mode" not in values:
        values["mode"] = "topic"
    return RunConfig(**values)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    result = run(cfg)
    print(f"completed {len(result.records)} iterations: "
          f"{result.graph.node_count} nodes, {result.graph.edge_count} edges "
          f"-> {result.snapshot_dir}")
    return 0


def _parse_samples(value: str) -> int | None:
    """``--samples``: ``all`` (None, every pair) or a pair count of at least 1."""
    if value == "all":
        return None
    try:
        samples = int(value)
    except ValueError:
        samples = 0
    if samples < 1:
        raise KgExpandError(f"--samples must be 'all' or an integer of at least 1, "
                            f"got {value!r}")
    return samples


def _cmd_analyze(args: argparse.Namespace) -> int:
    from . import report

    if args.stride < 1:
        raise KgExpandError(f"--stride must be at least 1, got {args.stride}")
    if args.spl_samples < 1:
        raise KgExpandError(f"--spl-samples must be at least 1, got {args.spl_samples}")
    samples = _parse_samples(args.samples)
    store = SnapshotStore(args.snapshots)
    count = len(store.picked_paths(args.stride))
    out = report.analyze_series(store.snapshots(args.stride), args.out, args.seed,
                                samples, spl_samples=args.spl_samples, stride=args.stride)
    print(f"analyzed {count} snapshots -> {out}")
    return 0


def _final_snapshot(store: SnapshotStore):
    """The store's final snapshot, which the path and report stages need non-empty."""
    final = store.final()
    if final.graph.node_count == 0:
        raise EmptyGraph(f"the final snapshot in {store.directory}, iteration "
                         f"{final.iteration}, has no nodes")
    return final


def _load_graph_argument(path_arg: str):
    path = Path(path_arg)
    if path.is_dir():
        return _final_snapshot(SnapshotStore(path)).graph
    return read_graphml(path)


def _cmd_paths(args: argparse.Namespace) -> int:
    from . import paths as paths_mod

    if args.k < 0:
        raise KgExpandError(f"--k must be at least 0, got {args.k}")
    g = _load_graph_argument(args.graph)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tables = paths_mod.path_tables(g)
    top = paths_mod.top_k_longest_paths(g, tables, args.k)
    remove_numbered(out, "path_", len(top))     # what a larger --k wrote
    if len(top) < 3:
        (out / "path_correlations.csv").unlink(missing_ok=True)
    for i, path in enumerate(top):
        sub = paths_mod.induced_path_graph(g, path)
        write_graphml(sub, out / f"path_{i}.graphml", node_attrs=path.node_metrics)
    if len(top) >= 3:
        corr = paths_mod.path_metric_correlations(g, tables, top)
        write_csv(out / "path_correlations.csv", ["metric", *corr.metrics],
                  ([name, *row] for name, row in zip(corr.metrics, corr.matrix)))
    main_path = paths_mod.diameter_path(g, tables)
    print(f"diameter path ({main_path.length} steps): {main_path.render()}")
    if args.mode != "none":
        session = RunConfig(synthetic=not args.endpoint, endpoint=args.endpoint or "",
                            model=args.model, seed=args.seed).build_session()
        final_session = (RunConfig(synthetic=False, endpoint=args.final_endpoint,
                                   model=args.final_model).build_session()
                         if args.final_endpoint else session)
        if args.mode == "agentic":
            rep = paths_mod.agentic_path_report(main_path, g, session)
        else:
            rep = paths_mod.compositional_pipeline(main_path, g, session,
                                                   final_session)
        report_file = out / f"{args.mode}_report.md"
        with whole_file(report_file) as fh:
            fh.write(rep.to_markdown())
        print(f"wrote {report_file}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from . import report

    for flag, directory in (("--analysis", args.analysis), ("--paths", args.paths)):
        if directory is not None and not Path(directory).is_dir():
            raise KgExpandError(f"{flag} {directory} is not a directory")
    store = SnapshotStore(args.snapshots)
    print(report.build_report(
        _final_snapshot(store), len(store.iteration_paths()), args.out,
        louvain_seed=args.seed, run_dir=args.snapshots,
        analysis_dir=args.analysis, paths_dir=args.paths))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgexpand",
        description="Iterative knowledge-graph expansion and temporal graph analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the expansion loop")
    p_run.add_argument("--config", help="YAML config file")
    p_run.add_argument("--mode", choices=["open-ended", "topic"])
    p_run.add_argument("--prompt", help="initial prompt (open-ended mode)")
    p_run.add_argument("--topic", help="topic to explore (topic mode)")
    p_run.add_argument("--iterations", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--vocabulary", type=int, dest="vocabulary_size",
                       metavar="VOCABULARY", help="synthetic generator vocabulary size")
    p_run.add_argument("--endpoint", help="remote completion endpoint URL")
    p_run.add_argument("--model")
    p_run.add_argument("--max-tokens", type=int, dest="max_tokens")
    p_run.add_argument("--timeout", type=float)
    p_run.add_argument("--temperature", type=float,
                       help="sampling temperature (endpoint default if omitted)")
    p_run.add_argument("--max-retries", type=int, dest="max_retries")
    p_run.add_argument("--synthetic", action="store_true", default=None,
                       help="use the deterministic synthetic generator")
    p_run.add_argument("--out", dest="snapshot_dir", metavar="OUT",
                       help="snapshot directory")
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="compute the metric suite over snapshots")
    p_an.add_argument("snapshots", help="snapshot directory")
    p_an.add_argument("--out", default="analysis")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--samples", default="1000",
                      help="pairs sampled per iteration, or 'all'")
    p_an.add_argument("--spl-samples", type=int, default=2000, dest="spl_samples")
    p_an.add_argument("--stride", type=int, default=1,
                      help="analyze every Nth snapshot")
    p_an.set_defaults(func=_cmd_analyze)

    p_pt = sub.add_parser("paths", help="extract and reason over longest paths")
    p_pt.add_argument("graph", help="snapshot directory or GraphML file")
    p_pt.add_argument("--k", type=int, default=5)
    p_pt.add_argument("--mode", choices=["none", "agentic", "compositional"],
                      default="none")
    p_pt.add_argument("--out", default="paths")
    p_pt.add_argument("--seed", type=int, default=0)
    p_pt.add_argument("--endpoint", help="generator endpoint for insight prompts")
    p_pt.add_argument("--model", default="default")
    p_pt.add_argument("--final-endpoint", dest="final_endpoint",
                      help="separate endpoint for the final integration step")
    p_pt.add_argument("--final-model", dest="final_model", default="default")
    p_pt.set_defaults(func=_cmd_paths)

    p_rp = sub.add_parser("report", help="summary table over the final snapshot")
    p_rp.add_argument("snapshots", help="snapshot directory")
    p_rp.add_argument("--out", default="report")
    p_rp.add_argument("--seed", type=int, default=0)
    p_rp.add_argument("--analysis", help="analysis dir to index in the bundle")
    p_rp.add_argument("--paths", help="path-report dir to index in the bundle")
    p_rp.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KgExpandError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
