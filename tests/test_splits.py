import numpy as np
import pytest

from hinstruct.hin import HinGraph
from hinstruct.sparse import SparseMatrix
from hinstruct.splits import (
    SplitError,
    make_node_label_split,
    make_recommendation_split,
)
from hinstruct.synth import toy_schema

from conftest import triplets


def blank_graph(n_users=40, n_biz=30):
    schema = toy_schema()
    counts = {"user": n_users, "business": n_biz, "category": 3, "city": 2}
    sizes = {0: (n_users, n_biz), 1: (n_biz, n_users), 2: (n_users, n_users),
             3: (n_biz, 3), 4: (3, n_biz), 5: (n_biz, 2), 6: (2, n_biz)}
    adjacency = {eid: SparseMatrix.zeros(*shape) for eid, shape in sizes.items()}
    return HinGraph(schema, tuple(counts[nt.name] for nt in schema.node_types), adjacency)


def labeled_pairs(n_pos, n_neg, n_biz=30):
    pos = [(i % 40, (i * 7) % n_biz, 1) for i in range(n_pos)]
    taken = {(s, d) for s, d, _ in pos}
    neg = []
    i = 0
    while len(neg) < n_neg:
        pair = ((i * 3 + 1) % 40, (i * 11 + 2) % n_biz)
        i += 1
        if pair not in taken:
            taken.add(pair)
            neg.append((pair[0], pair[1], 0))
    return pos + neg


class TestRecommendationSplit:
    def test_hundred_pairs_arithmetic(self):
        graph = blank_graph()
        split, _ = make_recommendation_split(graph, 0, labeled_pairs(100, 100), seed=7)
        assert len(split.reserved) == 50
        assert [len(split.positives[p]) for p in ("train", "val", "test")] == [30, 10, 10]
        assert [len(split.negatives[p]) for p in ("train", "val", "test")] == [30, 10, 10]

    def test_deterministic_given_seed(self):
        graph = blank_graph()
        pairs = labeled_pairs(100, 100)
        a, _ = make_recommendation_split(graph, 0, pairs, seed=7)
        b, _ = make_recommendation_split(graph, 0, pairs, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        graph = blank_graph()
        pairs = labeled_pairs(120, 120)
        a, _ = make_recommendation_split(graph, 0, pairs, seed=1)
        b, _ = make_recommendation_split(graph, 0, pairs, seed=2)
        assert set(a.reserved) != set(b.reserved)

    def test_reserved_disjoint_from_splits(self):
        graph = blank_graph()
        split, _ = make_recommendation_split(graph, 0, labeled_pairs(100, 100), seed=3)
        reserved = set(split.reserved)
        for part in ("train", "val", "test"):
            assert reserved.isdisjoint(split.positives[part])
            assert reserved.isdisjoint(split.negatives[part])

    def test_adjacency_rebuilt_to_reserved_only(self):
        graph = blank_graph()
        split, graph2 = make_recommendation_split(graph, 0, labeled_pairs(100, 100), seed=5)
        rates = graph2.adjacency_of(0)
        assert rates.nnz == len(split.reserved)
        assert {(r, c) for r, c, _ in triplets(rates)} == set(split.reserved)
        # inverse relation rebuilt as the transpose, preventing leakage
        rated_by = graph2.adjacency_of(1)
        assert {(c, r) for r, c, _ in triplets(rated_by)} == set(split.reserved)

    def test_negative_topup_sampled_when_no_label_zero(self):
        graph = blank_graph()
        pairs = [(s, d, 1) for s, d, _ in labeled_pairs(100, 0)]
        split, _ = make_recommendation_split(graph, 0, pairs, seed=9)
        rated = {(s, d) for s, d, _ in pairs}
        for part in ("train", "val", "test"):
            assert len(split.negatives[part]) == len(split.positives[part])
            assert rated.isdisjoint(split.negatives[part])

    def test_zero_positive_pairs(self):
        with pytest.raises(SplitError, match="zero positive"):
            make_recommendation_split(blank_graph(), 0, [(0, 0, 0)], seed=0)

    def test_split_too_small(self):
        pairs = [(i, i, 1) for i in range(4)]
        with pytest.raises(SplitError, match="split too small"):
            make_recommendation_split(blank_graph(), 0, pairs, seed=0)


class TestNodeLabelSplit:
    def test_fifty_nodes(self):
        labels = {i: i % 3 for i in range(50)}
        split = make_node_label_split(0, labels, seed=1)
        assert (len(split.train), len(split.val), len(split.test)) == (30, 10, 10)
        parts = set(split.train) | set(split.val) | set(split.test)
        assert parts == set(labels)
        assert len(split.train) + len(split.val) + len(split.test) == 50

    def test_five_nodes_exact_ratio(self):
        split = make_node_label_split(0, {i: 0 for i in range(5)}, seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (3, 1, 1)

    def test_pairwise_disjoint(self):
        split = make_node_label_split(0, {i: i % 4 for i in range(37)}, seed=5)
        assert not set(split.train) & set(split.val)
        assert not set(split.train) & set(split.test)
        assert not set(split.val) & set(split.test)

    def test_empty_labels(self):
        with pytest.raises(SplitError, match="empty label map"):
            make_node_label_split(0, {}, seed=0)

    def test_label_out_of_range(self):
        with pytest.raises(SplitError, match="outside"):
            make_node_label_split(0, {0: 5}, seed=0, num_classes=3)

    def test_deterministic(self):
        labels = {i: i % 2 for i in range(20)}
        assert make_node_label_split(0, labels, seed=3) == make_node_label_split(0, labels, seed=3)
