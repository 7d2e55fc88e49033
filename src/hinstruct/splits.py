"""Train/val/test split construction for both downstream tasks.

Recommendation: half of the preference (label-1) pairs are reserved for
network construction and become the only entries of the target-relation
adjacency; the other half splits 3:1:1 into train/val/test positives, each
paired with an equal number of negatives. Negatives come from the label-0
pairs, topped up by uniform sampling of unconnected pairs when short.

Node classification: labeled nodes split 3:1:1.

A split that would leave a part empty raises ``SplitError``.

Every part is a read-only int64 array: ``(n, 2)`` rows of (src, dst) for a
pair set, and node ids for a node set. Each split gives its task's endpoint
node types, the two types a structure for the task must join, by
:func:`task_endpoints`, which ``hinstruct explain`` asks without a split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hin import DataError, HinGraph, frozen_ints
from .sparse import SparseMatrix


class SplitError(DataError):
    """Split construction cannot satisfy its contract."""


def task_endpoints(schema, kind: str, target: int) -> tuple[int, int]:
    """The node types a task's structures join. ``target`` is an edge type id
    for a "recommendation" task, whose relation's two ends are joined, and a
    node type id for a "classification" task, joined to itself."""
    if kind == "recommendation":
        et = schema.edge_type(target)
        return et.src, et.dst
    return target, target


@dataclass(frozen=True, eq=False)
class RecommendationSplit:
    target_edge_type: int
    positives: dict  # part -> (n, 2) array of (src, dst)
    negatives: dict  # part -> (n, 2) array of (src, dst)
    reserved: np.ndarray  # construction-reserved positive pairs

    def __post_init__(self):
        for name in ("positives", "negatives"):
            parts = {part: frozen_ints(pairs, -1, 2) for part, pairs in getattr(self, name).items()}
            object.__setattr__(self, name, parts)
        object.__setattr__(self, "reserved", frozen_ints(self.reserved, -1, 2))

    def endpoints(self, schema) -> tuple[int, int]:
        """The target relation's source and destination node types."""
        return task_endpoints(schema, "recommendation", self.target_edge_type)


@dataclass(frozen=True, eq=False)
class NodeLabelSplit:
    target_node_type: int
    classes: np.ndarray  # class id of each node of the target type, -1 if unlabeled
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    num_classes: int

    def __post_init__(self):
        for name in ("classes", "train", "val", "test"):
            object.__setattr__(self, name, frozen_ints(getattr(self, name), -1))

    def endpoints(self, schema) -> tuple[int, int]:
        """The target node type, as both source and target."""
        return task_endpoints(schema, "classification", self.target_node_type)

    def part(self, name: str) -> np.ndarray:
        return {"train": self.train, "val": self.val, "test": self.test}[name]


def _part_sizes(n: int, ratio) -> tuple[int, int, int]:
    denom = sum(ratio)
    n_val = n * ratio[1] // denom
    n_test = n * ratio[2] // denom
    return n - n_val - n_test, n_val, n_test


def _cut(items, n_train, n_val) -> dict:
    return {
        "train": items[:n_train],
        "val": items[n_train : n_train + n_val],
        "test": items[n_train + n_val :],
    }


def make_recommendation_split(
    graph: HinGraph,
    target_edge_type: int,
    labeled_pairs,
    seed: int,
    ratio=(3, 1, 1),
):
    """Build a link-prediction split and the leak-free graph to search on.

    ``labeled_pairs`` holds (src, dst, 0/1) rows, as ``binarize_ratings``
    returns them. Returns the split plus a copy of ``graph`` whose
    target-relation adjacency holds exactly the construction-reserved
    positive pairs.
    """
    rng = np.random.default_rng(seed)
    labeled = np.asarray(labeled_pairs, dtype=np.int64).reshape(-1, 3)
    positives = labeled[labeled[:, 2] == 1, :2]
    negatives = labeled[labeled[:, 2] == 0, :2]
    if not len(positives):
        raise SplitError("zero positive pairs")

    shuffled = rng.permutation(positives)
    n_split = len(shuffled) // 2
    reserved = shuffled[n_split:]

    n_train, n_val, n_test = _part_sizes(n_split, ratio)
    if n_train == 0 or n_val == 0 or n_test == 0:
        raise SplitError(
            f"split too small: {len(positives)} positive pairs leave "
            f"{n_split} for a {ratio[0]}:{ratio[1]}:{ratio[2]} split"
        )

    neg_pool = rng.permutation(negatives)[:n_split]
    if len(neg_pool) < n_split:
        sampled = _sample_unconnected(graph, target_edge_type, labeled, n_split - len(neg_pool), rng)
        neg_pool = np.concatenate([neg_pool, sampled])

    split = RecommendationSplit(
        target_edge_type, _cut(shuffled[:n_split], n_train, n_val), _cut(neg_pool, n_train, n_val), reserved
    )

    et = graph.schema.edge_type(target_edge_type)
    target_adj = SparseMatrix.from_pairs(graph.count(et.src), graph.count(et.dst), reserved)
    graph = graph.with_adjacency(target_edge_type, target_adj)
    # the declared inverse would otherwise leak the split pairs back in
    if et.inverse is not None and et.inverse != et.id:
        graph = graph.with_adjacency(et.inverse, target_adj.transpose())
    return split, graph


def _sample_unconnected(graph, target_edge_type, labeled, needed, rng):
    """Uniform rejection sampling of pairs with no recorded interaction."""
    et = graph.schema.edge_type(target_edge_type)
    n_src, n_dst = graph.count(et.src), graph.count(et.dst)
    taken = set(zip(labeled[:, 0].tolist(), labeled[:, 1].tolist()))
    if n_src * n_dst - len(taken) < needed:
        raise SplitError("not enough unconnected pairs to sample negatives from")
    out = []
    while len(out) < needed:
        s = int(rng.integers(n_src))
        d = int(rng.integers(n_dst))
        if (s, d) in taken:
            continue
        taken.add((s, d))
        out.append((s, d))
    return np.array(out, dtype=np.int64)


def make_node_label_split(
    target_node_type: int,
    labels,
    n_nodes: int,
    seed: int,
    ratio=(3, 1, 1),
    num_classes: int | None = None,
) -> NodeLabelSplit:
    """Split the labeled nodes of a type with ``n_nodes`` nodes; ``labels``
    holds (node, class) rows with node ids in range, as ``load_labels`` returns them."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    if not len(labels):
        raise SplitError("empty label map")
    if num_classes is None:
        num_classes = int(labels[:, 1].max()) + 1
    outside = np.flatnonzero((labels[:, 1] < 0) | (labels[:, 1] >= num_classes))
    if outside.size:
        node, cls = labels[outside[0]].tolist()
        raise SplitError(f"label {cls} for node {node} outside [0, {num_classes})")

    classes = np.full(n_nodes, -1, dtype=np.int64)
    classes[labels[:, 0]] = labels[:, 1]
    shuffled = np.random.default_rng(seed).permutation(np.flatnonzero(classes >= 0))
    n_train, n_val, n_test = _part_sizes(len(shuffled), ratio)
    if n_train == 0 or n_val == 0 or n_test == 0:
        raise SplitError(
            f"split too small: {len(shuffled)} labeled nodes for a {ratio[0]}:{ratio[1]}:{ratio[2]} split"
        )
    return NodeLabelSplit(
        target_node_type, classes, **_cut(shuffled, n_train, n_val), num_classes=num_classes
    )
