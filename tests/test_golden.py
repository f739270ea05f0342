"""`analyze` output bytes pinned from the networkx-based analysis it replaced.

The digests were taken from `kgexpand run --synthetic --iterations 40 --seed 3`
then `kgexpand analyze` with default options, when betweenness, closeness and
every distance still came from networkx. Betweenness-derived rows are left
out: they agree with networkx to 1e-12 relative, not to the byte (tests in
test_sweep.py hold them to that). Every other byte must match.
"""

import hashlib

import pytest

from kgexpand.cli import main

BETWEENNESS_ROWS = {"betweenness", "mean_betweenness", "max_betweenness",
                    "avg_betweenness_lcc"}

DIGESTS = {
    "bridge_persistence.csv": "3c6a7789ca3323f65403e5c01c1e304b28ffe23df86cf35fe25f505d12df323c",
    "degree_histogram.csv": "cd689cc0f55a9cbc417477ec5d343bff803a26e87a9e25b1fd69d60fa3bb3993",
    "hub_emergence.csv": "97825dd6bf74de6a449c5b5ac5f1d4a24ee277bf13c2ceff6d39eaea59b6b56a",
    "metrics.csv": "25fc05edad8c25411deb44f904bb593fd72a6e7d91282114716b576f60e413f3",
    "scalefree.csv": "5326eea4c4606cd7b39ebded3865262ee8b4cc093899e503e4ffc3f88dc3c1db",
    "spl_histogram.csv": "57c7d14366b00289abb52e8ad111e0c705b905ee35b459db99579cb5c4bea8ec",
}
METRICS_LINES = 9473        # betweenness rows included
METRICS_LINES_KEPT = 5233


@pytest.fixture(scope="module")
def analysis(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["run", "--synthetic", "--iterations", "40", "--seed", "3",
                 "--out", str(root / "snaps")]) == 0
    assert main(["analyze", str(root / "snaps"), "--out", str(root / "analysis")]) == 0
    return root / "analysis"


def test_analyze_writes_the_pinned_csv_files(analysis):
    assert sorted(p.name for p in analysis.glob("*.csv")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_analyze_bytes_match_the_networkx_analysis(analysis, name):
    data = (analysis / name).read_bytes()
    if name == "metrics.csv":
        lines = data.decode().splitlines(keepends=True)
        kept = [line for line in lines if line.split(",")[1] not in BETWEENNESS_ROWS]
        assert (len(lines), len(kept)) == (METRICS_LINES, METRICS_LINES_KEPT)
        data = "".join(kept).encode()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]
