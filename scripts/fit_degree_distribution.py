#!/usr/bin/env python3
"""Fit the degree distribution of a GraphML file and print the verdict.

    python scripts/fit_degree_distribution.py snapshots/graph_iteration_199.graphml
"""

import argparse
import sys

from kgexpand.errors import KgExpandError
from kgexpand.graphml_io import read_graphml
from kgexpand.scalefree import classify
from kgexpand.sweep import snapshot_index


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("graphml", help="GraphML file to fit")
    args = parser.parse_args()
    g = read_graphml(args.graphml)
    degrees = snapshot_index(g).degree.tolist()
    print(f"{g.node_count} nodes, {g.edge_count} edges, "
          f"max degree {max(degrees, default=0)}")
    try:
        fit, verdict = classify(degrees)
    except KgExpandError as exc:
        print(f"no fit: {exc}")
        return 1
    print(f"alpha = {fit.alpha:.4f}")
    print(f"xmin = {fit.xmin}  (tail n = {fit.n_tail})")
    print(f"LR = {verdict.lr:.4f}  p = {verdict.p:.4f}")
    print(f"scale-free: {'Yes' if verdict.is_scale_free else 'No'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
