import numpy as np
import pytest

from hinstruct.hin import HinGraph
from hinstruct.sparse import SparseMatrix
from hinstruct.splits import (
    RecommendationSplit,
    SplitError,
    make_node_label_split,
    make_recommendation_split,
    task_endpoints,
)
from hinstruct.synth import toy_schema

from conftest import from_dense, triplets


def blank_graph(n_users=40, n_biz=30):
    schema = toy_schema()
    counts = {"user": n_users, "business": n_biz, "category": 3, "city": 2}
    sizes = {0: (n_users, n_biz), 1: (n_biz, n_users), 2: (n_users, n_users),
             3: (n_biz, 3), 4: (3, n_biz), 5: (n_biz, 2), 6: (2, n_biz)}
    adjacency = {eid: from_dense(np.zeros(shape)) for eid, shape in sizes.items()}
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


def pair_set(pairs):
    return set(map(tuple, pairs.tolist()))


PARTS = ("train", "val", "test")


def tuple_split(labeled, n_biz, seed, ratio=(3, 1, 1)):
    """The recommendation split as lists of pair tuples, drawn as the
    list-based construction drew it: (positives, negatives, reserved)."""
    rng = np.random.default_rng(seed)
    positives = [(s, d) for s, d, lab in labeled if lab == 1]
    negatives = [(s, d) for s, d, lab in labeled if lab == 0]
    shuffled = [positives[i] for i in rng.permutation(len(positives))]
    n_split = len(shuffled) // 2
    n_val, n_test = n_split * ratio[1] // sum(ratio), n_split * ratio[2] // sum(ratio)
    neg_pool = [negatives[i] for i in rng.permutation(len(negatives))][:n_split] if negatives else []
    taken = {(s, d) for s, d, _ in labeled}
    while len(neg_pool) < n_split:
        pair = (int(rng.integers(40)), int(rng.integers(n_biz)))
        if pair not in taken:
            taken.add(pair)
            neg_pool.append(pair)
    n_train = n_split - n_val - n_test
    cut = [slice(0, n_train), slice(n_train, n_train + n_val), slice(n_train + n_val, n_split)]
    return [shuffled[c] for c in cut], [neg_pool[c] for c in cut], shuffled[n_split:]


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
        assert np.array_equal(a.reserved, b.reserved)
        for part in PARTS:
            assert np.array_equal(a.positives[part], b.positives[part])
            assert np.array_equal(a.negatives[part], b.negatives[part])

    def test_different_seeds_differ(self):
        graph = blank_graph()
        pairs = labeled_pairs(120, 120)
        a, _ = make_recommendation_split(graph, 0, pairs, seed=1)
        b, _ = make_recommendation_split(graph, 0, pairs, seed=2)
        assert pair_set(a.reserved) != pair_set(b.reserved)

    def test_reserved_disjoint_from_splits(self):
        graph = blank_graph()
        split, _ = make_recommendation_split(graph, 0, labeled_pairs(100, 100), seed=3)
        reserved = pair_set(split.reserved)
        for part in PARTS:
            assert reserved.isdisjoint(pair_set(split.positives[part]))
            assert reserved.isdisjoint(pair_set(split.negatives[part]))

    def test_adjacency_rebuilt_to_reserved_only(self):
        graph = blank_graph()
        split, graph2 = make_recommendation_split(graph, 0, labeled_pairs(100, 100), seed=5)
        rates = graph2.adjacency_of(0)
        assert rates.nnz == len(split.reserved)
        assert {(r, c) for r, c, _ in triplets(rates)} == pair_set(split.reserved)
        # inverse relation rebuilt as the transpose, preventing leakage
        rated_by = graph2.adjacency_of(1)
        assert {(c, r) for r, c, _ in triplets(rated_by)} == pair_set(split.reserved)

    def test_negative_topup_sampled_when_no_label_zero(self):
        graph = blank_graph()
        pairs = [(s, d, 1) for s, d, _ in labeled_pairs(100, 0)]
        split, _ = make_recommendation_split(graph, 0, pairs, seed=9)
        rated = {(s, d) for s, d, _ in pairs}
        for part in PARTS:
            assert len(split.negatives[part]) == len(split.positives[part])
            assert rated.isdisjoint(pair_set(split.negatives[part]))

    @pytest.mark.parametrize("n_neg", [100, 30, 0])
    def test_same_pairs_in_same_order_as_tuple_split(self, n_neg):
        pairs = labeled_pairs(100, n_neg)
        split, _ = make_recommendation_split(blank_graph(), 0, pairs, seed=4)
        positives, negatives, reserved = tuple_split(pairs, 30, seed=4)
        assert split.reserved.tolist() == [list(p) for p in reserved]
        for part, pos, neg in zip(PARTS, positives, negatives):
            assert split.positives[part].tolist() == [list(p) for p in pos]
            assert split.negatives[part].tolist() == [list(p) for p in neg]

    def test_parts_are_read_only_int64_arrays(self):
        split, _ = make_recommendation_split(blank_graph(), 0, labeled_pairs(100, 100), seed=0)
        given = RecommendationSplit(0, {"val": [(1, 2)]}, {"val": []}, ())
        for pairs in [split.reserved, *split.positives.values(), *split.negatives.values(),
                      *given.positives.values(), *given.negatives.values(), given.reserved]:
            assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
            assert not pairs.flags.writeable

    def test_zero_positive_pairs(self):
        with pytest.raises(SplitError, match="zero positive"):
            make_recommendation_split(blank_graph(), 0, [(0, 0, 0)], seed=0)

    def test_split_too_small(self):
        pairs = [(i, i, 1) for i in range(4)]
        with pytest.raises(SplitError, match="split too small"):
            make_recommendation_split(blank_graph(), 0, pairs, seed=0)


class TestNodeLabelSplit:
    def test_fifty_nodes(self):
        labels = [(i, i % 3) for i in range(50)]
        split = make_node_label_split(0, labels, 50, seed=1)
        assert (len(split.train), len(split.val), len(split.test)) == (30, 10, 10)
        parts = set(split.train) | set(split.val) | set(split.test)
        assert parts == set(range(50))
        assert len(split.train) + len(split.val) + len(split.test) == 50

    def test_five_nodes_exact_ratio(self):
        split = make_node_label_split(0, [(i, 0) for i in range(5)], 5, seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (3, 1, 1)

    def test_pairwise_disjoint(self):
        split = make_node_label_split(0, [(i, i % 4) for i in range(37)], 37, seed=5)
        assert not set(split.train) & set(split.val)
        assert not set(split.train) & set(split.test)
        assert not set(split.val) & set(split.test)

    def test_classes_sized_by_node_count(self):
        split = make_node_label_split(0, [(4, 1), (0, 0), (2, 1), (4, 1), (6, 0), (8, 1)], 10, seed=0)
        assert split.classes.tolist() == [0, -1, 1, -1, 1, -1, 0, -1, 1, -1]
        assert sorted(np.concatenate([split.train, split.val, split.test]).tolist()) == [0, 2, 4, 6, 8]
        for array in (split.classes, split.train, split.val, split.test):
            assert array.dtype == np.int64 and not array.flags.writeable

    def test_empty_labels(self):
        with pytest.raises(SplitError, match="empty label map"):
            make_node_label_split(0, [], 3, seed=0)

    def test_label_out_of_range(self):
        with pytest.raises(SplitError, match="outside"):
            make_node_label_split(0, [(0, 5)], 1, seed=0, num_classes=3)

    @pytest.mark.parametrize("n_labeled", [1, 3, 4])
    def test_split_too_small(self, n_labeled):
        # 3 nodes cut 3:1:1 give train 3 and empty val and test parts
        with pytest.raises(SplitError, match=f"split too small: {n_labeled} labeled nodes for a 3:1:1 split"):
            make_node_label_split(0, [(i, i % 2) for i in range(n_labeled)], 10, seed=0)

    def test_deterministic(self):
        labels = [(i, i % 2) for i in range(20)]
        a, b = (make_node_label_split(0, labels, 20, seed=3) for _ in range(2))
        for part in PARTS:
            assert np.array_equal(a.part(part), b.part(part))
        assert np.array_equal(a.classes, b.classes)


class TestTaskEndpoints:
    def test_splits_give_the_shared_rule(self):
        """Both splits answer with ``task_endpoints``, the rule that
        ``hinstruct explain`` uses without a split."""
        schema = toy_schema()
        for et in schema.edge_types:
            split = RecommendationSplit(et.id, {}, {}, np.zeros((0, 2), dtype=np.int64))
            assert split.endpoints(schema) == task_endpoints(schema, "recommendation", et.id) == (et.src, et.dst)
        for nt in schema.node_types:
            split = make_node_label_split(nt.id, [(i, i % 2) for i in range(10)], 10, seed=0)
            assert split.endpoints(schema) == task_endpoints(schema, "classification", nt.id) == (nt.id, nt.id)
