"""GraphML reading/writing and iteration-indexed snapshot storage.

Nodes are keyed by identity key and carry the display spelling in a ``label``
attribute; edges carry their relation tag in a ``relation`` attribute. Output
is deterministic (sorted nodes and edges), so writing the same graph twice is
byte-stable.
"""

from __future__ import annotations

import logging
import re
import xml.etree.ElementTree as ET
from collections.abc import Iterator
from pathlib import Path

from .core import KnowledgeGraph, Snapshot
from .errors import EmptyGraph, GraphMLError

log = logging.getLogger(__name__)

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
SNAPSHOT_PATTERN = re.compile(r"graph_iteration_(\d+)\.graphml$")


def snapshot_filename(iteration: int) -> str:
    return f"graph_iteration_{iteration}.graphml"


def _attr_type(values) -> str:
    return "long" if all(isinstance(v, int) for v in values) else "double"


_XML_DECLARATION = "<?xml version='1.0' encoding='utf-8'?>\n"


def _escape_text(text: str) -> str:
    """Character data escaped as ElementTree escapes it: ``&``, ``<``, ``>``."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def _escape_attr(text: str) -> str:
    """An attribute value escaped as ElementTree escapes it, ``&`` first."""
    text = _escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def write_graphml(g: KnowledgeGraph, path: str | Path,
                  node_attrs: dict[str, dict[str, float]] | None = None) -> None:
    """Write a graph as directed GraphML; optional extra numeric node attributes.

    The document is built as strings and written in one call. Its bytes are
    those of an ElementTree tree indented with ``ET.indent(space="  ")`` and
    written with an XML declaration: ``<key>`` attributes in the order
    ``for``, ``attr.name``, ``attr.type``, ``id``; empty elements as ``<x />``;
    no newline after ``</graphml>``; non-ASCII written raw.
    """
    node_attrs = node_attrs or {}
    parts = [_XML_DECLARATION, f'<graphml xmlns="{GRAPHML_NS}">\n',
             '  <key for="node" attr.name="label" attr.type="string" id="d0" />\n',
             '  <key for="edge" attr.name="relation" attr.type="string" id="d1" />\n']
    extra_ids: dict[str, str] = {}
    for i, name in enumerate(sorted(node_attrs)):
        key_id = extra_ids[name] = f"d{i + 2}"
        parts.append(f'  <key for="node" attr.name="{_escape_attr(name)}" '
                     f'attr.type="{_attr_type(node_attrs[name].values())}" '
                     f'id="{key_id}" />\n')
    displays = g.display_map()
    if not displays:
        parts.append('  <graph edgedefault="directed" />\n')
    else:
        parts.append('  <graph edgedefault="directed">\n')
        ids: dict[str, str] = {}
        for key in sorted(displays):
            node_id = ids[key] = _escape_attr(key)
            parts.append(f'    <node id="{node_id}">\n'
                         f'      <data key="d0">{_escape_text(displays[key])}</data>\n')
            for name, key_id in extra_ids.items():
                if key in node_attrs[name]:
                    value = node_attrs[name][key]
                    text = repr(value if isinstance(value, int) else float(value))
                    parts.append(f'      <data key="{key_id}">{text}</data>\n')
            parts.append("    </node>\n")
        for i, (src, kind, tgt) in enumerate(g.triples()):
            parts.append(f'    <edge id="e{i}" source="{ids[src]}" target="{ids[tgt]}">\n'
                         f'      <data key="d1">{_escape_text(kind)}</data>\n'
                         "    </edge>\n")
        parts.append("  </graph>\n")
    parts.append("</graphml>")
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write("".join(parts))


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def read_graphml(path: str | Path) -> KnowledgeGraph:
    """Read a GraphML file into a KnowledgeGraph; labels are re-normalized.

    Unknown attributes are ignored; an edge without a relation attribute gets
    RELATES-TO and a warning. Malformed XML raises GraphMLError with the line.
    """
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        line, col = exc.position
        raise GraphMLError(f"{path}: malformed XML at line {line}, column {col}: "
                           f"{exc}") from exc
    root = tree.getroot()
    label_key = relation_key = None
    for el in root.iter():
        if _local(el.tag) == "key":
            if el.get("attr.name") == "label" and el.get("for") == "node":
                label_key = el.get("id")
            if el.get("attr.name") == "relation" and el.get("for") == "edge":
                relation_key = el.get("id")
    g = KnowledgeGraph()
    displays: dict[str, str] = {}
    defaulted = 0
    for el in root.iter():
        tag = _local(el.tag)
        if tag == "node":
            node_id = el.get("id")
            label = node_id
            for data in el:
                if _local(data.tag) == "data" and data.get("key") == label_key:
                    label = data.text or node_id
            displays[node_id] = label
            g.add_node(label)
        elif tag == "edge":
            src_id, tgt_id = el.get("source"), el.get("target")
            relation = None
            for data in el:
                if _local(data.tag) == "data" and data.get("key") == relation_key:
                    relation = data.text
            if not relation:
                relation = "RELATES-TO"
                defaulted += 1
            g.add_edge(displays.get(src_id, src_id), relation,
                       displays.get(tgt_id, tgt_id))
    if defaulted:
        log.warning("%s: %d edge(s) had no relation attribute; defaulted to RELATES-TO",
                    path, defaulted)
    return g


class SnapshotStore:
    """Directory of per-iteration GraphML files, sorted by parsed iteration."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def write(self, snapshot: Snapshot) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / snapshot_filename(snapshot.iteration)
        write_graphml(snapshot.graph, path)
        return path

    def iteration_paths(self) -> list[tuple[int, Path]]:
        """Snapshot files in iteration order; two names for one iteration
        (``graph_iteration_1`` and ``graph_iteration_01``) are rejected."""
        found: dict[int, Path] = {}
        for path in sorted(self.directory.iterdir()):
            m = SNAPSHOT_PATTERN.search(path.name)
            if not m:
                continue
            iteration = int(m.group(1))
            if iteration in found:
                raise GraphMLError(f"{found[iteration]} and {path} are both "
                                   f"snapshots of iteration {iteration}")
            found[iteration] = path
        return sorted(found.items())

    def picked_paths(self, stride: int = 1) -> list[tuple[int, Path]]:
        """Every ``stride``-th snapshot file in iteration order, and always the
        last one."""
        found = self.iteration_paths()
        return [item for i, item in enumerate(found)
                if i % stride == 0 or i == len(found) - 1]

    def snapshots(self, stride: int = 1) -> Iterator[Snapshot]:
        """The picked snapshots, read one at a time; files that are not picked
        are never parsed."""
        for iteration, path in self.picked_paths(stride):
            yield Snapshot(iteration, read_graphml(path))

    def final(self) -> Snapshot:
        """The highest-iteration snapshot; no other file is read."""
        found = self.iteration_paths()
        if not found:
            raise EmptyGraph(f"no snapshots found in {self.directory}")
        return Snapshot(found[-1][0], read_graphml(found[-1][1]))
