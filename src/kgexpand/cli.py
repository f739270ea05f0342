"""Command-line surface: run, analyze, paths, report.

Config files are YAML key/value trees; explicit flags override file values.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import sys
from pathlib import Path

import yaml

from . import paths as paths_mod
from . import report as report_mod
from .errors import KgExpandError
from .graphml_io import SnapshotStore, read_graphml, write_graphml
from .loop import RunConfig, run


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    data = yaml.safe_load(Path(path).read_text())
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
        raise KgExpandError(f"unknown config keys: {sorted(unknown)}")
    flag_map = {
        "mode": args.mode, "prompt": args.prompt, "topic": args.topic,
        "iterations": args.iterations, "seed": args.seed,
        "vocabulary_size": args.vocabulary, "snapshot_dir": args.out,
        "max_retries": args.max_retries, "endpoint": args.endpoint,
        "model": args.model, "max_tokens": args.max_tokens,
        "timeout": args.timeout, "temperature": args.temperature,
    }
    for name, value in flag_map.items():
        if value is not None:
            values[name] = value
    if args.synthetic:
        values["synthetic"] = True
    elif args.endpoint:
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


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.stride < 1:
        raise KgExpandError(f"--stride must be at least 1, got {args.stride}")
    store = SnapshotStore(args.snapshots)
    count = len(store.picked_paths(args.stride))
    if count == 0:
        raise KgExpandError(f"no snapshots found in {args.snapshots}")
    seeds = report_mod.AnalyzeSeeds(
        louvain=args.louvain_seed if args.louvain_seed is not None else args.seed,
        sampling=args.sampling_seed if args.sampling_seed is not None else args.seed,
    )
    if args.samples == "all":
        samples = None
    else:
        try:
            samples = int(args.samples)
        except ValueError:
            raise KgExpandError(f"--samples must be an integer or 'all', "
                                f"got {args.samples!r}") from None
    out = report_mod.analyze_series(store.snapshots(args.stride), args.out, seeds,
                                    samples, spl_samples=args.spl_samples,
                                    stride=args.stride)
    print(f"analyzed {count} snapshots -> {out}")
    return 0


def _load_graph_argument(path_arg: str):
    path = Path(path_arg)
    if path.is_dir():
        return SnapshotStore(path).final().graph
    return read_graphml(path)


def _cmd_paths(args: argparse.Namespace) -> int:
    if args.k < 0:
        raise KgExpandError(f"--k must be at least 0, got {args.k}")
    g = _load_graph_argument(args.graph)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tables = paths_mod.path_tables(g)
    top = paths_mod.top_k_longest_paths(g, tables, args.k)
    for i, path in enumerate(top):
        sub = paths_mod.induced_path_graph(g, path)
        write_graphml(sub, out / f"path_{i}.graphml", node_attrs=path.node_metrics)
    if len(top) >= 3:
        corr = paths_mod.path_metric_correlations(g, tables, top)
        _write_correlations(out / "path_correlations.csv", corr)
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
        report_file.write_text(rep.to_markdown())
        print(f"wrote {report_file}")
    return 0


def _write_correlations(path: Path, corr) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric"] + list(corr.metrics))
        for name, row in zip(corr.metrics, corr.matrix):
            writer.writerow([name] + ["nan" if v is None else f"{v:.12g}"
                                      for v in row])


def _cmd_report(args: argparse.Namespace) -> int:
    store = SnapshotStore(args.snapshots)
    bundle = report_mod.build_report(
        store.final(), len(store.iteration_paths()), args.out,
        louvain_seed=args.seed, run_dir=args.snapshots,
        analysis_dir=args.analysis, paths_dir=args.paths)
    print(bundle.report_path.read_text())
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
    p_run.add_argument("--vocabulary", type=int,
                       help="synthetic generator vocabulary size")
    p_run.add_argument("--endpoint", help="remote completion endpoint URL")
    p_run.add_argument("--model")
    p_run.add_argument("--max-tokens", type=int, dest="max_tokens")
    p_run.add_argument("--timeout", type=float)
    p_run.add_argument("--temperature", type=float,
                       help="sampling temperature (endpoint default if omitted)")
    p_run.add_argument("--max-retries", type=int, dest="max_retries")
    p_run.add_argument("--synthetic", action="store_true",
                       help="use the deterministic synthetic generator")
    p_run.add_argument("--out", help="snapshot directory")
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="compute the metric suite over snapshots")
    p_an.add_argument("snapshots", help="snapshot directory")
    p_an.add_argument("--out", default="analysis")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--louvain-seed", type=int, dest="louvain_seed")
    p_an.add_argument("--sampling-seed", type=int, dest="sampling_seed")
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
    except KgExpandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
