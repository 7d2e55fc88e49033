"""Deterministic structure scoring and metric computation.

A meta-path scores node pairs through its commuting matrix: the left-to-right
product of the per-edge adjacency matrices, whose (s, t) entry counts path
instances from s to t. A meta-structure decomposes into its source-to-target
paths by :func:`structure.sub_logics`, the one decomposition function, whose
pairs the grammar renders too; each distinct type sequence is one path, each
distinct path matrix is row-normalized and the structure score is their
elementwise product, so a pair scores nonzero exactly when every decomposed
path connects it. ``structure_score_matrix`` is that definition.

Recommendation fitness is AUC over the split's positive/negative pairs;
node-classification fitness is Macro-F1 of a score-weighted vote over train
nodes. Each task has one entry point, its evaluator's ``evaluate(graph,
split, ms)``, which scores the split part the evaluator names. Both
evaluators are pure functions of their inputs and sit behind the
``Evaluator`` protocol so a learned fitness can be plugged in instead.

A metric reads few cells of the score matrix: AUC reads the part's pairs,
the vote reads the part's rows at the train columns. So neither evaluator
forms the score matrix. Each distinct path of a structure contributes a
*read*, its row-normalized commuting matrix at exactly those cells, and the
reads are multiplied in the sorted type-sequence order
``structure_score_matrix`` folds in. A read never forms the commuting matrix
either; ``_halves`` splits the path at one inner node:

* the left half multiplies out the first edges for the rows the metric reads;
* the right half multiplies out the last edges, transposed, for the columns
  it reads;
* the row sums come from matrix-vector products, right to left.

An AUC cell is then the dot product of a row of each half, and the vote's
read is the product of the two halves. Adjacency values are all 1 (see
``hin.HinGraph``), so every count is an exact integer in any association
order, and each value is divided by its row sum as ``row_normalize``
divides: the reads equal the full matrix's cells bit for bit. Every product
and every chunk of row dots is held to the one flop budget
``sparse.FLOP_BUDGET`` before it allocates, so a structure over it raises
``MatrixBlowupError`` on every evaluation.

Mutations add or remove one component, so the structures of a search share
most of their paths. ``HinGraph.read_cache``, a ``hin.LruMemo`` bounded by the
bytes of its values, holds reads keyed by the path's type sequence and a
digest of the metric and its exact cells, so two parts or two splits on one
graph never share an entry. A structure whose paths all hit runs no product.
Entries are read-only arrays; the cache is single-threaded and scoped to one
graph, and a graph made by ``HinGraph.with_adjacency`` starts empty.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .hin import HinGraph
from .sparse import SparseMatrix, row_divisors
from .structure import MetaPath, MetaStructure, sub_logics


class EvaluationError(ValueError):
    """Structure and task are incompatible, metric inputs are malformed, or no
    seed of a search fits the flop budget."""


@dataclass(frozen=True)
class EvalResult:
    metric: str  # "auc" | "macro_f1"
    value: float
    split: str  # "val" | "test"

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise EvaluationError(f"metric value {self.value} outside [0, 1]")


class Evaluator(Protocol):
    def evaluate(self, graph: HinGraph, split, ms: MetaStructure) -> EvalResult: ...


def path_commuting_matrix(graph: HinGraph, path: MetaPath) -> SparseMatrix:
    """Product of the adjacency matrices along the path's edge types, left to
    right: the definition, and the tests' oracle; the evaluators read through
    ``_halves`` instead."""
    result = graph.adjacency_of(path.edge_types[0])
    for eid in path.edge_types[1:]:
        result = result.matmul(graph.adjacency_of(eid))
    return result


def _distinct_paths(ms: MetaStructure) -> list[tuple[tuple[int, ...], MetaPath]]:
    """One (type sequence, path) pair per distinct type sequence of the
    structure's sub-logics, in sorted type-sequence order."""
    sequences = dict.fromkeys(seq for seq, _ in sub_logics(ms))
    return [(seq, MetaPath(seq[::2], seq[1::2])) for seq in sequences]


def structure_score_matrix(graph: HinGraph, ms: MetaStructure) -> SparseMatrix:
    """Elementwise product of the row-normalized per-path commuting matrices.

    Paths with identical type sequences share one matrix and contribute once;
    repetition would only re-exponentiate values without changing which pairs
    connect.
    """
    score = None
    for _, path in _distinct_paths(ms):
        normalized = path_commuting_matrix(graph, path).row_normalize()
        score = normalized if score is None else score.hadamard(normalized)
    return score


def _cells_digest(metric: str, *cells) -> bytes:
    """Digest of a metric name and the int64 cell arrays it reads, shapes included."""
    h = hashlib.blake2b(metric.encode(), digest_size=16)
    for array in cells:
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.digest()


def _path_reads(graph: HinGraph, ms: MetaStructure, digest: bytes, read) -> list:
    """``read(path)`` of each distinct path, in sorted type-sequence order,
    through the graph's read cache.

    ``digest`` (see ``_cells_digest``) and a path's type sequence key its
    read; a fresh read is made read-only before it is cached.
    """
    return [
        graph.read_cache.get((seq, digest), lambda: _read_only(read(path)))
        for seq, path in _distinct_paths(ms)
    ]


def _estimated_size(m: SparseMatrix, other: SparseMatrix) -> int:
    """Stored entries ``m.matmul(other)`` is estimated to hold: at most ``m``'s
    rows times ``other``'s columns, and about ``m``'s entries times the mean
    row length of ``other``."""
    return min(m.rows * other.cols, m.nnz * other.nnz // max(other.rows, 1))


def _halves(graph: HinGraph, path: MetaPath, rows, cols):
    """The path's commuting matrix in two halves, restricted to the cells a
    metric reads, and its row sums at ``rows``.

    The left half is the product of the path's first edges at ``rows``; the
    right half is the transposed product of its last edges at ``cols``, one
    row per column. They grow from the two ends, each step extending the half
    whose next product is estimated smaller (``_estimated_size``), until they
    meet; small halves keep both their products and the step that joins them
    cheap. A one-edge path has only a left half, and None for the right.
    """
    edges = path.edge_types
    left = graph.adjacency_of(edges[0]).select(rows)
    right = graph.transposed(edges[-1]).select(cols) if len(edges) > 1 else None
    lo, hi = 1, len(edges) - 1  # edges[lo:hi] are not multiplied out yet
    while lo < hi:
        a, b = graph.adjacency_of(edges[lo]), graph.transposed(edges[hi - 1])
        if _estimated_size(left, a) <= _estimated_size(right, b):
            left, lo = left.matmul(a), lo + 1
        else:
            right, hi = right.matmul(b), hi - 1
    through = np.ones(graph.count(path.node_types[-1]))
    for eid in reversed(edges[lo:]):
        through = graph.adjacency_of(eid).matvec(through)
    return left, right, left.matvec(through)


def _pair_read(graph: HinGraph, path: MetaPath, cells) -> np.ndarray:
    """The path's row-normalized commuting matrix at the (row, col) ``cells``."""
    rows, row_at = np.unique(cells[:, 0], return_inverse=True)
    cols, col_at = np.unique(cells[:, 1], return_inverse=True)
    left, right, sums = _halves(graph, path, rows, cols)
    if right is None:
        counts = left.pick(np.column_stack([row_at, cells[:, 1]]))
    else:
        counts = left.row_dots(right, row_at, col_at)
    return counts / row_divisors(sums)[row_at]


def _vote_read(graph: HinGraph, path: MetaPath, nodes, keep) -> SparseMatrix:
    """The rows ``nodes`` of the path's row-normalized commuting matrix, with
    only the columns marked in ``keep``, as ``SparseMatrix.select`` cuts them."""
    cols = np.flatnonzero(keep)
    left, right, sums = _halves(graph, path, nodes, cols)
    if right is None:
        counts = left.select(np.arange(left.rows), keep)
    else:
        product = left.matmul(right.transpose())
        counts = SparseMatrix(left.rows, keep.size, product.indptr, cols[product.indices], product.data)
    return counts.divide_rows(sums)


def check_endpoints(ms: MetaStructure, endpoints: tuple[int, int]):
    """Raise ``EvaluationError`` unless ``ms`` joins the node types
    ``endpoints``, a task's (source type, target type)."""
    found = (ms.nodes[ms.source], ms.nodes[ms.target])
    if found != endpoints:
        raise EvaluationError(
            f"structure joins node types {found[0]} and {found[1]}; "
            f"the task joins node types {endpoints[0]} and {endpoints[1]}"
        )


def _read_only(value):
    """``value``, a :class:`SparseMatrix` or an array, with its arrays made read-only."""
    arrays = (value.indptr, value.indices, value.data) if isinstance(value, SparseMatrix) else (value,)
    for array in arrays:
        array.flags.writeable = False
    return value


def auc(pos_scores, neg_scores) -> float:
    """Probability a positive outranks a negative, ties counted half.

    Computed from tie-averaged ranks of the pooled scores, equivalent to
    (#{p > n} + 0.5 * #{p = n}) / (|pos| * |neg|).
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise EvaluationError("auc needs at least one positive and one negative score")
    scores = np.concatenate([pos, neg])
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    head = np.empty(scores.size, dtype=bool)
    head[0] = True
    head[1:] = sorted_scores[1:] != sorted_scores[:-1]
    starts = np.flatnonzero(head)
    ends = np.append(starts[1:], scores.size)
    avg_rank = (starts + ends - 1) / 2.0 + 1.0  # 1-based, ties averaged
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(avg_rank, ends - starts)
    u_stat = ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u_stat / (pos.size * neg.size))


def macro_f1(pred, gold, num_classes: int) -> float:
    """Unweighted mean of per-class F1; a class with no support and no
    predictions contributes 0."""
    pred = np.asarray(pred, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if pred.shape != gold.shape:
        raise EvaluationError("prediction/gold length mismatch")
    if pred.size and not (
        0 <= pred.min() and pred.max() < num_classes and 0 <= gold.min() and gold.max() < num_classes
    ):
        raise EvaluationError("class id outside [0, num_classes)")
    f1_sum = 0.0
    for cls in range(num_classes):
        tp = int(np.sum((pred == cls) & (gold == cls)))
        fp = int(np.sum((pred == cls) & (gold != cls)))
        fn = int(np.sum((pred != cls) & (gold == cls)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall > 0:
            f1_sum += 2 * precision * recall / (precision + recall)
    return f1_sum / num_classes


@dataclass(frozen=True)
class RecommendationEvaluator:
    part: str = "val"

    metric = "auc"

    def evaluate(self, graph, split, ms) -> EvalResult:
        check_endpoints(ms, split.endpoints(graph.schema))
        pos, neg = split.positives[self.part], split.negatives[self.part]
        cells = np.concatenate([pos, neg])
        digest = _cells_digest(self.metric, cells)
        reads = _path_reads(graph, ms, digest, lambda path: _pair_read(graph, path, cells))
        score = reads[0]
        for more in reads[1:]:
            score = score * more
        value = auc(score[: len(pos)], score[len(pos):])
        return EvalResult("auc", value, self.part)


@dataclass(frozen=True)
class NodeClassificationEvaluator:
    part: str = "val"

    metric = "macro_f1"

    def evaluate(self, graph, split, ms) -> EvalResult:
        check_endpoints(ms, split.endpoints(graph.schema))
        k = split.num_classes
        nodes = split.part(self.part)
        train_cls = split.classes[split.train]
        majority = int(np.argmax(np.bincount(train_cls, minlength=k)))
        col_class = np.full(graph.count(split.target_node_type), -1, dtype=np.int64)
        col_class[split.train] = train_cls
        is_train = col_class >= 0

        digest = _cells_digest(self.metric, nodes, split.train)
        reads = _path_reads(graph, ms, digest, lambda path: _vote_read(graph, path, nodes, is_train))
        score = reads[0]
        for more in reads[1:]:
            score = score.hadamard(more)

        # votes summed row by row in column order, as a per-row loop would
        votes = np.bincount(
            score.row_ids() * k + col_class[score.indices], weights=score.data, minlength=nodes.size * k
        ).reshape(nodes.size, k)
        preds = np.where(np.diff(score.indptr) > 0, np.argmax(votes, axis=1), majority)
        value = macro_f1(preds, split.classes[nodes], k)
        return EvalResult("macro_f1", value, self.part)
