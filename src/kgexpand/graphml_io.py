"""GraphML reading/writing and iteration-indexed snapshot storage.

Nodes are keyed by identity key and carry the display spelling in a ``label``
attribute; edges carry their relation tag in a ``relation`` attribute. Output
is deterministic (sorted nodes and edges), so writing the same graph twice is
byte-stable.

There is one serializer. A ``SnapshotStore`` passes its ``RenderCache`` to
every ``write_graphml`` call. A graph only grows and keeps what it gained in
order, so when the store writes the same graph again the cache renders only
the tail of that log, ``KnowledgeGraph.added_since`` what it rendered last; a
call without a cache renders the whole graph with the same element code. Both
write the same bytes.

Every file a stage writes goes through ``whole_file``, so a stopped stage
leaves each output whole or absent, never truncated. Every CSV file goes
through ``csv_writer``, which alone decides the text of a cell.
"""

from __future__ import annotations

import bisect
import csv
import json
import logging
import math
import os
import re
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

from .core import DEFAULT_RELATION, KnowledgeGraph, Snapshot, normalize_relation
from .errors import EmptyGraph, GraphMLError, KgExpandError

log = logging.getLogger(__name__)

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
# a run directory's layout: no other module spells these names
SNAPSHOT_STEM = "graph_iteration_"
MANIFEST_FILENAME = "manifest.json"


@contextmanager
def whole_file(path: str | Path, **open_kwargs):
    """A text file open on ``path.partial``, which replaces ``path`` if the block
    ends and is removed if it raises, so ``path`` only ever holds a whole file."""
    partial = Path(f"{path}.partial")
    try:
        with open(partial, "w", **open_kwargs) as fh:
            yield fh
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    os.replace(partial, path)


def csv_cell(value) -> str:
    """A cell's text: None and NaN as ``nan``, a bool as 0 or 1, a float ``.12g``."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.12g}"
    if isinstance(value, bool):
        return str(int(value))
    return "nan" if value is None else str(value)


class _CellWriter:
    """``csv.writer`` taking raw values, each written as ``csv_cell`` spells it."""

    def __init__(self, fh) -> None:
        self._writer = csv.writer(fh)

    def writerow(self, row: Iterable) -> None:
        self._writer.writerow(map(csv_cell, row))

    def writerows(self, rows: Iterable[Iterable]) -> None:
        self._writer.writerows(map(csv_cell, row) for row in rows)


@contextmanager
def csv_writer(path: str | Path, header: list[str]):
    with whole_file(path, newline="") as fh:
        writer = _CellWriter(fh)
        writer.writerow(header)
        yield writer


def write_csv(path: str | Path, header: list[str], rows: Iterable) -> None:
    with csv_writer(path, header) as writer:
        writer.writerows(rows)


def numbered(name: str, stem: str) -> int | None:
    """``i`` when ``name`` is exactly ``<stem><i>.graphml``, else None."""
    m = re.fullmatch(re.escape(stem) + r"(\d+)\.graphml", name)
    return int(m.group(1)) if m else None


def remove_numbered(directory: Path, stem: str, count: int) -> None:
    """Remove each ``<stem><i>.graphml`` in ``directory`` from ``i = count`` on,
    and every such ``.partial``: what an earlier, longer run left there."""
    for path in directory.iterdir():
        i = numbered(path.name.removesuffix(".partial"), stem)
        if i is not None and (i >= count or path.name.endswith(".partial")):
            path.unlink()


def write_json(path: str | Path, data) -> None:
    with whole_file(path) as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


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


class _SortedText:
    """Rendered text of items, kept in ascending item order."""

    def __init__(self) -> None:
        self.items: list = []
        self.texts: list[str] = []  # texts[i] renders items[i]

    def insert(self, new, render) -> None:
        for item in sorted(new):
            i = bisect.bisect_left(self.items, item)
            self.items.insert(i, item)
            self.texts.insert(i, render(item))


class RenderCache:
    """The rendered elements of the last graph object written through it.

    It keeps each node's ``<node>`` element and the text of each triple's
    ``<edge>`` element after the ``e{i}`` id, both in sorted order, and the
    numbered id prefixes. Written again, the same graph object costs only the
    nodes and triples it added since, read from the tail of its growth log;
    any other graph is rendered from nothing. The bytes are those of an
    uncached write either way.
    """

    def __init__(self) -> None:
        self._start(None)

    def _start(self, g: KnowledgeGraph | None) -> None:
        self._graph = g
        self._nodes = _SortedText()
        self._edges = _SortedText()
        # '    <edge id="e{i}' and then the text of the i-th triple, for each i
        self._edge_parts: list[str] = []

    def render(self, g: KnowledgeGraph,
               node_attrs: dict[str, dict[str, float]]) -> str:
        parts = [_XML_DECLARATION, f'<graphml xmlns="{GRAPHML_NS}">\n',
                 '  <key for="node" attr.name="label" attr.type="string" id="d0" />\n',
                 '  <key for="edge" attr.name="relation" attr.type="string" id="d1" />\n']
        extras = []
        for i, name in enumerate(sorted(node_attrs)):
            extras.append((f"d{i + 2}", node_attrs[name]))
            parts.append(f'  <key for="node" attr.name="{_escape_attr(name)}" '
                         f'attr.type="{_attr_type(node_attrs[name].values())}" '
                         f'id="d{i + 2}" />\n')
        if g is not self._graph:
            self._start(g)
        new_keys, new_triples = g.added_since(len(self._nodes.items),
                                              len(self._edges.items))
        self._nodes.insert(new_keys, lambda key: _node_element(key, g.display(key), extras))
        self._edges.insert(new_triples, _edge_text)
        texts, edge_parts = self._edges.texts, self._edge_parts
        for i in range(len(edge_parts) // 2, len(texts)):
            edge_parts += (f'    <edge id="e{i}', "")
        edge_parts[1::2] = texts
        if not self._nodes.texts:
            parts.append('  <graph edgedefault="directed" />\n')
        else:
            parts.append('  <graph edgedefault="directed">\n')
            parts += self._nodes.texts
            parts += edge_parts
            parts.append("  </graph>\n")
        parts.append("</graphml>")
        return "".join(parts)


def _node_element(key: str, display: str, extras) -> str:
    text = (f'    <node id="{_escape_attr(key)}">\n'
            f'      <data key="d0">{_escape_text(display)}</data>\n')
    for key_id, values in extras:
        if key in values:
            value = values[key]
            text += (f'      <data key="{key_id}">'
                     f'{value if isinstance(value, int) else float(value)!r}</data>\n')
    return text + "    </node>\n"


def _edge_text(triple: tuple[str, str, str]) -> str:
    src, kind, tgt = triple
    return (f'" source="{_escape_attr(src)}" target="{_escape_attr(tgt)}">\n'
            f'      <data key="d1">{_escape_text(kind)}</data>\n'
            "    </edge>\n")


def write_graphml(g: KnowledgeGraph, path: str | Path,
                  node_attrs: dict[str, dict[str, float]] | None = None, *,
                  cache: RenderCache | None = None) -> None:
    """Write a graph as directed GraphML; optional extra numeric node attributes.

    The document is built as strings and written in one call. Its bytes are
    those of an ElementTree tree indented with ``ET.indent(space="  ")`` and
    written with an XML declaration: ``<key>`` attributes in the order
    ``for``, ``attr.name``, ``attr.type``, ``id``; empty elements as ``<x />``;
    no newline after ``</graphml>``; non-ASCII written raw. A ``cache``
    passed on every call of a series re-renders only what each graph adds;
    it holds no extra attributes, so it cannot be combined with them.
    """
    if cache is None:
        cache = RenderCache()
    elif node_attrs:
        raise ValueError("a render cache holds node elements without extra attributes")
    text = cache.render(g, node_attrs or {})
    with whole_file(path, encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write(text)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def read_graphml(path: str | Path) -> KnowledgeGraph:
    """Read a GraphML file into a KnowledgeGraph; labels are re-normalized.

    Unknown attributes are ignored; an edge without a relation attribute gets
    RELATES-TO and a warning. Malformed XML raises GraphMLError with the line.

    Elements are read in document order. Each node's label is normalized
    once and its identity key kept by node id; an edge endpoint maps through
    that table, and an id not declared before the edge is taken as a label
    itself. ``normalize_label`` and ``normalize_relation`` cache what they
    normalize, so a label or relation text met again, in this file or an
    earlier one, costs a cache lookup.
    """
    import xml.etree.ElementTree as ET      # only reading stages parse GraphML

    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        line, col = exc.position
        raise GraphMLError(f"{path}: malformed XML at line {line}, column {col}: "
                           f"{exc}") from exc
    root = tree.getroot()
    names: dict[str, str] = {}      # tag -> local name, for every tag in the file
    label_key = relation_key = None
    for el in root.iter():
        name = names.get(el.tag)
        if name is None:
            name = names[el.tag] = _local(el.tag)
        if name == "key":
            if el.get("attr.name") == "label" and el.get("for") == "node":
                label_key = el.get("id")
            if el.get("attr.name") == "relation" and el.get("for") == "edge":
                relation_key = el.get("id")
    g = KnowledgeGraph()
    keys: dict[str, str] = {}       # node id -> identity key
    defaulted = 0
    for el in root.iter():
        tag = names[el.tag]
        if tag == "node":
            node_id = el.get("id")
            label = node_id
            for data in el:
                if names[data.tag] == "data" and data.get("key") == label_key:
                    label = data.text or node_id
            keys[node_id] = g.add_node(label)
        elif tag == "edge":
            relation = None
            for data in el:
                if names[data.tag] == "data" and data.get("key") == relation_key:
                    relation = data.text
            if not relation:
                relation = DEFAULT_RELATION
                defaulted += 1
            kind = normalize_relation(relation)     # a rejected relation adds no node
            src_id, tgt_id = el.get("source"), el.get("target")
            src = keys.get(src_id)
            if src is None:
                src = keys[src_id] = g.add_node(src_id)
            tgt = keys.get(tgt_id)
            if tgt is None:
                tgt = keys[tgt_id] = g.add_node(tgt_id)
            g.add_keyed_edge(src, kind, tgt)
    if defaulted:
        log.warning("%s: %d edge(s) had no relation attribute; defaulted to %s",
                    path, defaulted, DEFAULT_RELATION)
    return g


class SnapshotStore:
    """Directory of per-iteration GraphML files, sorted by parsed iteration.
    With a run manifest, the run is the iterations below its
    ``iterations_completed``; without one (an external export), every file."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._cache: RenderCache | None = None     # made with the directory, on the first write

    def write(self, snapshot: Snapshot) -> Path:
        if self._cache is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._cache = RenderCache()
        path = self.directory / f"{SNAPSHOT_STEM}{snapshot.iteration}.graphml"
        write_graphml(snapshot.graph, path, cache=self._cache)
        return path

    def _completed(self) -> int | None:
        path = self.directory / MANIFEST_FILENAME
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, NotADirectoryError):     # no manifest, or no directory
            return None
        except (OSError, ValueError) as exc:
            raise KgExpandError(f"run manifest {path} is not readable JSON: {exc}") from exc
        completed = data.get("iterations_completed") if isinstance(data, dict) else None
        if type(completed) is not int or completed < 0:
            raise KgExpandError(f"run manifest {path} has no integer iterations_completed")
        return completed

    def iteration_paths(self) -> list[tuple[int, Path]]:
        """The run's snapshot files in iteration order. No file, or two for one
        iteration (``graph_iteration_1`` and ``graph_iteration_01``), is an error."""
        completed = self._completed()
        found: dict[int, Path] = {}
        for path in sorted(self.directory.iterdir()):
            iteration = numbered(path.name, SNAPSHOT_STEM)
            if iteration is None or (completed is not None and iteration >= completed):
                continue
            if iteration in found:
                raise GraphMLError(f"{found[iteration]} and {path} are both "
                                   f"snapshots of iteration {iteration}")
            found[iteration] = path
        if not found:
            reason = (": its run manifest records 0 completed iterations, so the run stopped "
                      "before completing one and must be run again" if completed == 0 else "")
            raise EmptyGraph(f"no snapshots found in {self.directory}{reason}")
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
        iteration, path = self.iteration_paths()[-1]
        return Snapshot(iteration, read_graphml(path))
