"""`analyze`, `paths` and `report` output bytes, pinned on two runs.

The first run is `kgexpand run --synthetic --iterations 40 --seed 3`.

The `analyze` digests (default options) were taken when betweenness,
closeness and every distance still came from networkx. Betweenness-derived
rows are left out: they agree with networkx to 1e-12 relative, not to the
byte (tests in test_sweep.py hold them to that). Every other byte must match.

The `paths --mode compositional` and `report` digests (default options) were
taken when `paths` still read its distances from a networkx all-pairs BFS
table, before they came from the one distance sweep it runs for its
centralities. Both already read betweenness and closeness from a sweep then,
so every byte must match.

The second run is `kgexpand run --synthetic --iterations 300 --seed 7`, whose
snapshots grow to about 750 nodes, far past the first run's 100 or so, so
Louvain builds many aggregate levels on it. Every file that
`analyze --stride 50` writes was pinned while Louvain still kept its
aggregate levels as weight dicts. Every byte must match.

The `run` outputs of both runs are pinned as well: `run_records.csv` and the
last snapshot, taken before the parser read replies in one pass and cached
normalized labels. Every byte must match.

metrics.csv once held a betweenness row for every node of any picked
snapshot, reading 0 where the snapshot lacked the node. It now holds rows
only for the nodes each snapshot has. Both pins of metrics.csv were moved
with that change alone: the T=40 line count and the stride-50 digest. The
dense file rebuilt from the new one and the snapshots' node sets
(`oracles.dense_metrics_csv`) must still give the old line count and digest.
"""

import hashlib

import pytest

from kgexpand.cli import main
from kgexpand.graphml_io import SnapshotStore, read_graphml

from .oracles import dense_metrics_csv

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
METRICS_LINES = 7530        # betweenness rows of the nodes present included
METRICS_LINES_KEPT = 5233
DENSE_METRICS_LINES = 9473  # with a row for every node of any picked snapshot


@pytest.fixture(scope="module")
def snaps(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "snaps"
    assert main(["run", "--synthetic", "--iterations", "40", "--seed", "3",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def analysis(snaps):
    assert main(["analyze", str(snaps), "--out", str(snaps.parent / "analysis")]) == 0
    return snaps.parent / "analysis"


RUN_DIGESTS = {
    (40, "run_records.csv"): "a36516cf57ff67499c03d282c83f48f094e5ede346badae2edb7937e04b2fade",
    (40, "graph_iteration_39.graphml"):
        "7a70f6647fdd153e14e4cc41351ba03bcdc4b66d43fd2ae328b3dc1479245906",
    (300, "run_records.csv"): "49a9dc967ebc50736698443a9bc842182d9bf935a01869bc9ec0cb61d5a25a04",
    (300, "graph_iteration_299.graphml"):
        "b742edf06b8d0961e07b43b2355bdfff0c266c6d535b4f3af198070763759bc9",
}


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


PATHS_DIGESTS = {
    "compositional_report.md": "d594ba8c33ec8046c0f343124ea5150a4d8bc4ccc4dc41c5046a3b7e299e28cb",
    "path_0.graphml": "9ac59909d285d413dd75c2efa049f0d38e32234ae4f35450d4d550cf2bafc5e1",
    "path_1.graphml": "f73e2db8ee66b6d29fd1a5a1d84e706aa2a3c6f22ff35e16c10d5c2eb7259d99",
    "path_2.graphml": "1dd157336722ae3811b5d7c44f32793c3073a36d7943b0674976b227a59cc8f2",
    "path_3.graphml": "482fb151e962f956b0eaf8dbe24bf7fcd7595aaceadbc04520dc16373110c90f",
    "path_4.graphml": "802ebd7d4b3b56ed218a1cb85e80ea676e67c23cd2fd02fb6b9b7c10a7961791",
    "path_correlations.csv": "a6ec001695a30c3cb1c3e70e8b2fa0504b628a391c321bbbb1332efc2351fa81",
}
REPORT_DIGESTS = {
    "report.md": "d3f5e764aff96f32a0cd7bc04a9dc75a63f6696cf96a402d579faaa7af8490d3",
    "summary.csv": "8c785b5d012ad503a123b8068b1832e45d92d97e795571dbd4211b3052124cde",
}


@pytest.fixture(scope="module")
def paths_out(snaps):
    out = snaps.parent / "paths"
    assert main(["paths", str(snaps), "--mode", "compositional", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def report_out(snaps):
    out = snaps.parent / "report"
    assert main(["report", str(snaps), "--out", str(out)]) == 0
    return out


def test_paths_writes_the_pinned_files(paths_out):
    assert sorted(p.name for p in paths_out.iterdir()) == sorted(PATHS_DIGESTS)


@pytest.mark.parametrize("name", sorted(PATHS_DIGESTS))
def test_paths_bytes_match_the_pins(paths_out, name):
    digest = hashlib.sha256((paths_out / name).read_bytes()).hexdigest()
    assert digest == PATHS_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_match_the_pins(report_out, name):
    digest = hashlib.sha256((report_out / name).read_bytes()).hexdigest()
    assert digest == REPORT_DIGESTS[name]


STRIDE_50_DIGESTS = {
    "analysis_manifest.json": "bf3528f185a8302ca5d75bab7a9e2ae6be22f7648c0cf23d246d3a7c94c54e54",
    "bridge_persistence.csv": "f6c6cfc117b85178c748bf979096393e31c568331de516baf467ae58ac6f608e",
    "degree_histogram.csv": "7fd43f413ad21e214b6478b3662b5336a1aa24b1410aa8fbc85cf630b54bbfcb",
    "hub_emergence.csv": "ebeaed0bb807a085b7ab45cfdb2e26e7d74e5d71e6a4aab20f19af3d172cd5bb",
    "metrics.csv": "930214199237485b7ed8c34773848d885d4fdfa2694c147ecc92d5efac2f8220",
    "scalefree.csv": "c8704039c5a92d9b109bf789403b45786a99bf0ee2cab133fb9bb5d267678eae",
    "spl_histogram.csv": "6576e713e8701587c9f8098637009bde299768abfc6e62cddbe3479633dcc691",
}


DENSE_STRIDE_50_METRICS = "08431e62bbf634b07074ad056b9f6697fa51f1259d0ad07c775268f12f1a98bc"


@pytest.fixture(scope="module")
def stride_50_analysis(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_t300")
    assert main(["run", "--synthetic", "--iterations", "300", "--seed", "7",
                 "--out", str(root / "snaps")]) == 0
    assert main(["analyze", str(root / "snaps"), "--stride", "50",
                 "--out", str(root / "analysis")]) == 0
    return root / "analysis"


def test_stride_50_analyze_writes_the_pinned_files(stride_50_analysis):
    assert sorted(p.name for p in stride_50_analysis.iterdir()) == sorted(STRIDE_50_DIGESTS)


@pytest.mark.parametrize("name", sorted(STRIDE_50_DIGESTS))
def test_stride_50_analyze_bytes_match_the_pins(stride_50_analysis, name):
    digest = hashlib.sha256((stride_50_analysis / name).read_bytes()).hexdigest()
    assert digest == STRIDE_50_DIGESTS[name]


def _dense_metrics(analysis, snaps, stride):
    node_sets = {it: read_graphml(path).node_keys
                 for it, path in SnapshotStore(snaps).picked_paths(stride)}
    return dense_metrics_csv((analysis / "metrics.csv").read_bytes().decode(), node_sets)


def test_dense_metrics_rebuilt_from_the_present_node_rows_match_the_old_pins(
        analysis, snaps, stride_50_analysis):
    dense = _dense_metrics(analysis, snaps, 1)
    assert len(dense.splitlines()) == DENSE_METRICS_LINES
    dense = _dense_metrics(stride_50_analysis, stride_50_analysis.parent / "snaps", 50)
    assert hashlib.sha256(dense.encode()).hexdigest() == DENSE_STRIDE_50_METRICS


@pytest.mark.parametrize("iterations, name", sorted(RUN_DIGESTS))
def test_run_bytes_match_the_pins(snaps, stride_50_analysis, iterations, name):
    directory = snaps if iterations == 40 else stride_50_analysis.parent / "snaps"
    digest = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    assert digest == RUN_DIGESTS[iterations, name]
