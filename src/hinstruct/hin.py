"""Typed heterogeneous graph model and dataset ingestion.

A dataset directory holds:

* ``schema.json`` -- node/edge type vocabulary (see :func:`load_schema`)
* ``counts.json`` -- node count per node-type name
* ``<edge_type_name>.edges`` -- one file per edge type, ``src<TAB>dst`` per
  line, ``#`` starts a comment. An edge type declared as the inverse of
  another may omit its file; the transposed adjacency is used instead.
* ``ratings.tsv`` (optional) -- ``src<TAB>dst<TAB>rating``
* ``labels.tsv`` (optional) -- ``node_index<TAB>class_id``

In every file a field is a decimal integer of ASCII digits with an optional
sign, within int64 range. Node indices are dense, 0-based and per-type;
mapping back to original dataset ids is the preprocessor's concern.
"""

from __future__ import annotations

import json
import sys
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .sparse import SparseMatrix


class SchemaError(ValueError):
    """Malformed schema file or schema invariant violation."""


class DataError(ValueError):
    """Malformed or inconsistent dataset files."""


def finite_number(value) -> bool:
    """Whether ``value`` is an int or float that ``float`` makes finite; a bool
    is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max  # not NaN, an infinity or an int past every float


@dataclass(frozen=True)
class NodeType:
    id: int
    name: str
    noun: str


@dataclass(frozen=True)
class EdgeType:
    id: int
    name: str
    src: int
    dst: int
    verb: str
    inverse: int | None = None


@dataclass(frozen=True)
class Schema:
    node_types: tuple[NodeType, ...]
    edge_types: tuple[EdgeType, ...]
    _between: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for et in self.edge_types:
            self._between.setdefault((et.src, et.dst), []).append(et)

    @property
    def n_node_types(self) -> int:
        return len(self.node_types)

    @property
    def n_edge_types(self) -> int:
        return len(self.edge_types)

    def node_type(self, tid: int) -> NodeType:
        return self.node_types[tid]

    def edge_type(self, eid: int) -> EdgeType:
        return self.edge_types[eid]

    def node_type_by_name(self, name: str) -> NodeType:
        for nt in self.node_types:
            if nt.name == name:
                return nt
        raise SchemaError(f"unknown node type name: {name!r}")

    def edge_type_by_name(self, name: str) -> EdgeType:
        for et in self.edge_types:
            if et.name == name:
                return et
        raise SchemaError(f"unknown edge type name: {name!r}")

    def edge_types_between(self, src_tid: int, dst_tid: int) -> list[EdgeType]:
        return list(self._between.get((src_tid, dst_tid), ()))

    def out_edge_types(self, src_tid: int) -> list[EdgeType]:
        return [et for et in self.edge_types if et.src == src_tid]

    def to_dict(self) -> dict:
        return {
            "node_types": [
                {"id": nt.id, "name": nt.name, "noun": nt.noun} for nt in self.node_types
            ],
            "edge_types": [
                {
                    "id": et.id,
                    "name": et.name,
                    "src": et.src,
                    "dst": et.dst,
                    "verb": et.verb,
                    "inverse": et.inverse,
                }
                for et in self.edge_types
            ],
        }


def json_int(value, where: str) -> int:
    """``value`` if it is a JSON integer, else a ``ValueError`` naming ``where``:
    a float or a bool is not an id."""
    if type(value) is not int:
        raise ValueError(f"invalid literal for integer {where}: {value!r}")
    return value


def schema_from_dict(payload: dict) -> Schema:
    """Validate a schema mapping and build a :class:`Schema`."""
    if not isinstance(payload, dict):
        raise SchemaError(f"the top level must be an object, not {type(payload).__name__}")
    raw_nodes = payload.get("node_types")
    if not raw_nodes:
        raise SchemaError("schema declares no node types")
    raw_edges = payload.get("edge_types", [])

    try:
        nodes = [
            NodeType(id=json_int(n["id"], f"id of {n!r}"), name=str(n["name"]), noun=str(n.get("noun", n["name"])))
            for n in raw_nodes
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed node type entry: {exc}") from exc
    nodes.sort(key=lambda n: n.id)
    if [n.id for n in nodes] != list(range(len(nodes))):
        raise SchemaError("node type ids must be dense 0..k-1")
    if len({n.name for n in nodes}) != len(nodes):
        raise SchemaError("node type names must be unique")

    try:
        edges = [
            EdgeType(
                id=json_int(e["id"], f"id of {e!r}"),
                name=str(e["name"]),
                src=json_int(e["src"], f"src of {e!r}"),
                dst=json_int(e["dst"], f"dst of {e!r}"),
                verb=str(e.get("verb", "")),
                inverse=None if e.get("inverse") is None else json_int(e["inverse"], f"inverse of {e!r}"),
            )
            for e in raw_edges
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed edge type entry: {exc}") from exc
    edges.sort(key=lambda e: e.id)
    if [e.id for e in edges] != list(range(len(edges))):
        raise SchemaError("edge type ids must be dense 0..j-1")
    if len({e.name for e in edges}) != len(edges):
        raise SchemaError("edge type names must be unique")

    n = len(nodes)
    for e in edges:
        if not (0 <= e.src < n and 0 <= e.dst < n):
            raise SchemaError(f"edge type {e.name!r} references unknown node type")
        if e.inverse is not None:
            if not (0 <= e.inverse < len(edges)):
                raise SchemaError(f"edge type {e.name!r} declares unknown inverse id {e.inverse}")
            inv = edges[e.inverse]
            if inv.inverse != e.id or inv.src != e.dst or inv.dst != e.src:
                raise SchemaError(
                    f"asymmetric inverse declaration between {e.name!r} and {inv.name!r}"
                )
    return Schema(tuple(nodes), tuple(edges))


def read_json(path, what: str):
    """The JSON value in the UTF-8 file ``path``. A file that is missing,
    unreadable, not UTF-8 or not valid JSON is a ``DataError`` naming
    ``what`` and the path."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_schema(path) -> Schema:
    """The schema in the JSON file ``path``; a ``SchemaError`` names the file."""
    payload = read_json(path, "schema file")
    try:
        return schema_from_dict(payload)
    except SchemaError as exc:
        raise SchemaError(f"schema file {path}: {exc}") from exc


# Byte bound of a graph's read cache, an LruMemo of per-path metric reads
# weighing each value by its nbytes. A read holds one value per cell a metric
# reads, so it is small: on the 30-generation demo search the 39 reads take
# 0.25 MB, and every read the search repeats is a hit.
READ_CACHE_BYTES = 8 << 20


class LruMemo:
    """Map that drops its least recently used entries first, bounded by the
    summed ``weigh(value)`` of its values: 1 per value unless ``weigh`` says
    otherwise, so by default the bound counts entries. A value heavier than
    the whole bound is not kept. Single-threaded.

    A bounded memo is an ``LruMemo`` where it is scoped to an object, weighed,
    or put only on success: ``HinGraph.read_cache`` (one graph, weighed by
    bytes), ``ComponentLibrary.unions`` and ``.sentences`` (one library) and
    the chain memo of ``evolution.run_search`` (one search, which keeps no
    failed answer). A memo of a pure function, for the whole process, is a
    ``functools.lru_cache``, whose bookkeeping is thread-safe:
    ``structure._canonicalize``, ``grammar._vocabulary`` and
    ``agents._record_clauses``. The last must stay thread-safe, because the
    stub answers from request threads when a server wraps it, as
    ``bench/fake_chat.py`` does.
    """

    def __init__(self, bound: int, weigh=lambda value: 1):
        self.bound = bound
        self.weigh = weigh
        self.total = 0
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key, make=None):
        """The value under ``key``, now the most recently used. On a miss,
        None without ``make``; else ``make()`` is called and its value kept.
        An exception from ``make`` keeps nothing."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key]
        if make is None:
            return None
        value = make()
        self.put(key, value)
        return value

    def put(self, key, value):
        """Keep ``value`` under ``key`` as the most recently used entry and
        drop the least recently used ones until the total fits the bound."""
        if key in self._entries:
            self.total -= self.weigh(self._entries.pop(key))
        weight = self.weigh(value)
        if weight > self.bound:
            return
        self._entries[key] = value
        self.total += weight
        while self.total > self.bound:
            self.total -= self.weigh(self._entries.popitem(last=False)[1])


def _nbytes(value) -> int:
    return value.nbytes


@dataclass(frozen=True)
class HinGraph:
    """Node counts and one 0/1 adjacency matrix per edge type.

    Every stored adjacency value must be 1.0, as ``load_graph`` makes them: a
    path's commuting matrix then counts path instances in exact integers,
    whatever order its products are formed in, which the evaluator relies on.
    """

    schema: Schema
    node_counts: tuple[int, ...]
    adjacency: dict  # edge type id -> SparseMatrix
    # per-path metric reads, see evaluator._path_reads, and transposed
    # adjacency, see ``transposed``; every graph starts empty, so a swapped
    # adjacency never meets stale reads
    read_cache: LruMemo = field(
        default_factory=lambda: LruMemo(READ_CACHE_BYTES, _nbytes),
        init=False, repr=False, compare=False,
    )
    _transposes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for eid, matrix in self.adjacency.items():
            if not np.all(matrix.data == 1.0):
                raise DataError(
                    f"adjacency of edge type {self.schema.edge_type(eid).name!r} holds a value "
                    "other than 1"
                )

    def count(self, tid: int) -> int:
        return self.node_counts[tid]

    def adjacency_of(self, eid: int) -> SparseMatrix:
        return self.adjacency[eid]

    def transposed(self, eid: int) -> SparseMatrix:
        """The transpose of edge type ``eid``'s adjacency, formed once per graph."""
        if eid not in self._transposes:
            self._transposes[eid] = self.adjacency[eid].transpose()
        return self._transposes[eid]

    def with_adjacency(self, eid: int, matrix: SparseMatrix) -> "HinGraph":
        et = self.schema.edge_type(eid)
        if (matrix.rows, matrix.cols) != (self.count(et.src), self.count(et.dst)):
            raise DataError(f"adjacency shape mismatch for edge type {et.name!r}")
        adj = dict(self.adjacency)
        adj[eid] = matrix
        return HinGraph(self.schema, self.node_counts, adj)


def frozen_ints(values, *shape) -> np.ndarray:
    """``values`` as a read-only int64 array of ``shape``."""
    array = np.asarray(values, dtype=np.int64).reshape(shape)
    array.flags.writeable = False
    return array


def _parse_edge_lines(path: Path, n_fields: int) -> np.ndarray:
    """The file's rows as a read-only ``(n, n_fields)`` int64 array, parsed in
    one pass; a file that fails is read again, line by line with the same
    parser, to name its first bad line or its first byte that is not UTF-8."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
        if rows.shape[1] == n_fields or rows.size == 0:
            return frozen_ints(rows, -1, n_fields)
    except ValueError:  # UnicodeDecodeError among them
        pass
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: byte {raw[exc.start]:#04x} is not UTF-8") from None
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != n_fields:
                raise DataError(f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}")
            try:
                np.loadtxt([line], dtype=np.int64, comments="#")
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-integer field") from exc
    raise DataError(f"{path}: expected {n_fields} integer fields per line")


def _check_ids(path, rows: np.ndarray, counts, names, scope=None):
    """Raise a ``DataError`` naming ``path`` at the first row of ``rows``
    whose id in column ``j`` lies outside ``[0, counts[j])``, naming the
    column ``names[j]`` and the id; the message ends with ``scope``, by
    default the column's node count."""
    ids = rows[:, : len(counts)]
    bad = np.argwhere((ids < 0) | (ids >= np.asarray(counts, dtype=np.int64)))
    if bad.size:
        i, j = bad[0]
        scope = scope or f"{counts[j]} nodes"
        raise DataError(f"{path}: {names[j]} {ids[i, j]} out of range for {scope}")


def load_graph(schema: Schema, directory) -> HinGraph:
    """Load per-relation adjacency from a dataset directory.

    Each edge file is parsed into a read-only ``(n, 2)`` int64 array of
    (source, target) rows, range-checked against the node counts, and made a
    0/1 matrix in which a repeated edge counts once. Edge types whose file is
    absent fall back to the transpose of their declared inverse.
    """
    directory = Path(directory)
    counts_path = directory / "counts.json"
    raw_counts = read_json(counts_path, "node counts file")
    if not isinstance(raw_counts, dict):
        raise DataError(f"{counts_path}: expected an object, got {type(raw_counts).__name__}")
    counts = []
    for nt in schema.node_types:
        if nt.name not in raw_counts:
            raise DataError(f"counts.json lacks node type {nt.name!r}")
        count = raw_counts[nt.name]
        if type(count) is not int or count < 0:
            raise DataError(
                f"{counts_path}: count of node type {nt.name!r} is {count!r}, not a non-negative integer"
            )
        counts.append(count)

    loaded: dict[int, SparseMatrix] = {}
    for et in schema.edge_types:
        path = directory / f"{et.name}.edges"
        if not path.is_file():
            continue
        pairs = _parse_edge_lines(path, 2)
        n_src, n_dst = counts[et.src], counts[et.dst]
        _check_ids(path, pairs, (n_src, n_dst), ("source index", "target index"), repr(et.name))
        loaded[et.id] = SparseMatrix.from_pairs(n_src, n_dst, pairs)

    for et in schema.edge_types:
        if et.id in loaded:
            continue
        if et.inverse is not None and et.inverse in loaded:
            loaded[et.id] = loaded[et.inverse].transpose()
        else:
            raise DataError(f"missing relation file for edge type {et.name!r}")

    return HinGraph(schema, tuple(counts), loaded)


def binarize_ratings(ratings, threshold: int = 2) -> np.ndarray:
    """Map integer ratings to binary preference labels (1 iff rating > threshold):
    a read-only ``(n, 3)`` int64 array of (src, dst, label) rows."""
    ratings = np.asarray(ratings, dtype=np.int64).reshape(-1, 3)
    negative = np.flatnonzero(ratings[:, 2] < 0)
    if negative.size:
        src, dst, _ = ratings[negative[0]].tolist()
        raise DataError(f"negative rating for pair ({src}, {dst})")
    return frozen_ints(np.column_stack([ratings[:, :2], ratings[:, 2] > threshold]), -1, 3)


def load_ratings(path, n_src: int, n_dst: int) -> np.ndarray:
    """The (src, dst, rating) rows of a ratings file, a read-only ``(n, 3)``
    int64 array. Every source id must lie in ``[0, n_src)`` and every target
    id in ``[0, n_dst)``."""
    ratings = _parse_edge_lines(Path(path), 3)
    _check_ids(path, ratings, (n_src, n_dst), ("source id", "target id"))
    return ratings


def load_labels(path, n_nodes: int) -> np.ndarray:
    """The (node, class) rows of a label file, a read-only ``(n, 2)`` int64
    array in file order. Every node id must lie in ``[0, n_nodes)``, and a
    node listed twice must get the same class both times."""
    labels = _parse_edge_lines(Path(path), 2)
    _check_ids(path, labels, (n_nodes,), ("node id",))
    by_node = labels[np.argsort(labels[:, 0], kind="stable")]
    clash = np.flatnonzero((by_node[1:, 0] == by_node[:-1, 0]) & (by_node[1:, 1] != by_node[:-1, 1]))
    if clash.size:
        raise DataError(f"{path}: conflicting labels for node {by_node[clash[0], 0]}")
    return labels
