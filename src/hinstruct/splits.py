"""Train/val/test split construction for both downstream tasks.

Recommendation: half of the preference (label-1) pairs are reserved for
network construction and become the only entries of the target-relation
adjacency; the other half splits 3:1:1 into train/val/test positives, each
paired with an equal number of negatives. Negatives come from the label-0
pairs, topped up by uniform sampling of unconnected pairs when short.

Node classification: labeled nodes split 3:1:1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hin import DataError, HinGraph
from .sparse import SparseMatrix


class SplitError(DataError):
    """Split construction cannot satisfy its contract."""


@dataclass(frozen=True)
class RecommendationSplit:
    target_edge_type: int
    positives: dict  # part -> list[(src, dst)]
    negatives: dict  # part -> list[(src, dst)]
    reserved: tuple  # construction-reserved positive pairs


@dataclass(frozen=True)
class NodeLabelSplit:
    target_node_type: int
    labels: dict  # node index -> class id
    train: tuple
    val: tuple
    test: tuple
    num_classes: int

    def part(self, name: str):
        return {"train": self.train, "val": self.val, "test": self.test}[name]


def _part_sizes(n: int, ratio) -> tuple[int, int, int]:
    denom = sum(ratio)
    n_val = n * ratio[1] // denom
    n_test = n * ratio[2] // denom
    return n - n_val - n_test, n_val, n_test


def make_recommendation_split(
    graph: HinGraph,
    target_edge_type: int,
    labeled_pairs,
    seed: int,
    ratio=(3, 1, 1),
):
    """Build a link-prediction split and the leak-free graph to search on.

    ``labeled_pairs`` is a list of (src, dst, 0/1). Returns the split plus a
    copy of ``graph`` whose target-relation adjacency holds exactly the
    construction-reserved positive pairs.
    """
    rng = np.random.default_rng(seed)
    positives = [(s, d) for s, d, lab in labeled_pairs if lab == 1]
    negatives = [(s, d) for s, d, lab in labeled_pairs if lab == 0]
    if not positives:
        raise SplitError("zero positive pairs")

    order = rng.permutation(len(positives))
    shuffled = [positives[i] for i in order]
    n_split = len(shuffled) // 2
    split_pos = shuffled[:n_split]
    reserved = tuple(shuffled[n_split:])

    n_train, n_val, n_test = _part_sizes(n_split, ratio)
    if n_train == 0 or n_val == 0 or n_test == 0:
        raise SplitError(
            f"split too small: {len(positives)} positive pairs leave "
            f"{n_split} for a {ratio[0]}:{ratio[1]}:{ratio[2]} split"
        )
    pos_parts = {
        "train": split_pos[:n_train],
        "val": split_pos[n_train : n_train + n_val],
        "test": split_pos[n_train + n_val :],
    }

    neg_order = rng.permutation(len(negatives)) if negatives else np.empty(0, dtype=np.int64)
    neg_pool = [negatives[i] for i in neg_order][:n_split]
    if len(neg_pool) < n_split:
        neg_pool.extend(
            _sample_unconnected(graph, target_edge_type, labeled_pairs, neg_pool, n_split - len(neg_pool), rng)
        )
    neg_parts = {
        "train": neg_pool[:n_train],
        "val": neg_pool[n_train : n_train + n_val],
        "test": neg_pool[n_train + n_val :],
    }

    split = RecommendationSplit(target_edge_type, pos_parts, neg_parts, reserved)

    et = graph.schema.edge_type(target_edge_type)
    target_adj = SparseMatrix.from_triplets(
        graph.count(et.src), graph.count(et.dst), ((s, d, 1.0) for s, d in reserved), collapse=True
    )
    graph = graph.with_adjacency(target_edge_type, target_adj)
    # the declared inverse would otherwise leak the split pairs back in
    if et.inverse is not None and et.inverse != et.id:
        graph = graph.with_adjacency(et.inverse, target_adj.transpose())
    return split, graph


def _sample_unconnected(graph, target_edge_type, labeled_pairs, already, needed, rng):
    """Uniform rejection sampling of pairs with no recorded interaction."""
    et = graph.schema.edge_type(target_edge_type)
    n_src, n_dst = graph.count(et.src), graph.count(et.dst)
    taken = {(s, d) for s, d, _ in labeled_pairs}
    taken.update(already)
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
    return out


def make_node_label_split(
    target_node_type: int,
    labels: dict,
    seed: int,
    ratio=(3, 1, 1),
    num_classes: int | None = None,
) -> NodeLabelSplit:
    if not labels:
        raise SplitError("empty label map")
    if num_classes is None:
        num_classes = max(labels.values()) + 1
    for node, cls in labels.items():
        if not (0 <= cls < num_classes):
            raise SplitError(f"label {cls} for node {node} outside [0, {num_classes})")

    rng = np.random.default_rng(seed)
    nodes = sorted(labels)
    order = rng.permutation(len(nodes))
    shuffled = [nodes[i] for i in order]
    n_train, n_val, n_test = _part_sizes(len(shuffled), ratio)
    return NodeLabelSplit(
        target_node_type=target_node_type,
        labels=dict(labels),
        train=tuple(shuffled[:n_train]),
        val=tuple(shuffled[n_train : n_train + n_val]),
        test=tuple(shuffled[n_train + n_val :]),
        num_classes=num_classes,
    )
