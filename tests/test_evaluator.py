import itertools

import numpy as np
import pytest

from hinstruct.evaluator import (
    EvalResult,
    EvaluationError,
    NodeClassificationEvaluator,
    RecommendationEvaluator,
    auc,
    macro_f1,
    path_commuting_matrix,
    structure_score_matrix,
)
from hinstruct import evaluator, hin, sparse, synth
from hinstruct.hin import HinGraph, binarize_ratings, load_graph, load_ratings, load_schema
from hinstruct.sparse import MatrixBlowupError, SparseMatrix
from hinstruct.splits import (
    NodeLabelSplit,
    RecommendationSplit,
    make_node_label_split,
    make_recommendation_split,
)
from hinstruct.structure import MetaPath, MetaStructure, enumerate_paths, seed_population
from hinstruct.synth import toy_schema

from conftest import allclose, from_dense, random_structure, to_dense

U, B, A, I = 0, 1, 2, 3
RATES, RATED_BY, FRIEND, BELONGS, CONTAINS, LOCATED, HOSTS = range(7)


def toy_graph(rng=None, n_users=2, n_biz=2, friend=None, rates=None):
    """Tiny in-memory network over the full toy schema."""
    schema = toy_schema()
    rng = rng or np.random.default_rng(0)
    counts = {"user": n_users, "business": n_biz, "category": 2, "city": 2}
    if friend is None:
        friend = (rng.random((n_users, n_users)) < 0.3).astype(float)
        np.fill_diagonal(friend, 0)
    if rates is None:
        rates = (rng.random((n_users, n_biz)) < 0.4).astype(float)
    belongs = (rng.random((n_biz, 2)) < 0.5).astype(float)
    located = (rng.random((n_biz, 2)) < 0.5).astype(float)
    rates_m = from_dense(rates)
    belongs_m = from_dense(belongs)
    located_m = from_dense(located)
    adjacency = {
        RATES: rates_m,
        RATED_BY: rates_m.transpose(),
        FRIEND: from_dense(friend),
        BELONGS: belongs_m,
        CONTAINS: belongs_m.transpose(),
        LOCATED: located_m,
        HOSTS: located_m.transpose(),
    }
    return HinGraph(schema, tuple(counts[nt.name] for nt in schema.node_types), adjacency)


class TestCommutingMatrix:
    def test_single_edge_is_adjacency(self):
        graph = toy_graph()
        got = path_commuting_matrix(graph, MetaPath((U, B), (RATES,)))
        assert allclose(got, graph.adjacency_of(RATES))

    def test_hand_multiplied_friend_rates(self):
        friend = np.array([[0.0, 1.0], [1.0, 0.0]])
        rates = np.array([[1.0, 0.0], [1.0, 1.0]])
        graph = toy_graph(friend=friend, rates=rates)
        got = path_commuting_matrix(graph, MetaPath((U, U, B), (FRIEND, RATES)))
        assert np.allclose(to_dense(got), [[1.0, 1.0], [1.0, 0.0]])

    def test_counts_path_instances(self):
        rng = np.random.default_rng(3)
        graph = toy_graph(rng, n_users=6, n_biz=5)
        path = MetaPath((U, U, B, A), (FRIEND, RATES, BELONGS))
        got = to_dense(path_commuting_matrix(graph, path))
        expect = (
            to_dense(graph.adjacency_of(FRIEND))
            @ to_dense(graph.adjacency_of(RATES))
            @ to_dense(graph.adjacency_of(BELONGS))
        )
        assert np.allclose(got, expect)

    def test_empty_relation_zero_matrix(self):
        graph = toy_graph(friend=np.zeros((2, 2)))
        got = path_commuting_matrix(graph, MetaPath((U, U, B), (FRIEND, RATES)))
        assert got.nnz == 0

    def test_blowup_guard_propagates(self, monkeypatch):
        rng = np.random.default_rng(5)
        graph = toy_graph(rng, n_users=30, n_biz=30)
        path = MetaPath((U, U, U, B), (FRIEND, FRIEND, RATES))
        monkeypatch.setattr(sparse, "FLOP_BUDGET", 5)
        with pytest.raises(MatrixBlowupError):
            path_commuting_matrix(graph, path)


class TestScoreMatrix:
    def test_single_path_row_normalized(self):
        graph = toy_graph()
        ms = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        got = structure_score_matrix(graph, ms)
        expect = path_commuting_matrix(graph, MetaPath((U, U, B), (FRIEND, RATES))).row_normalize()
        assert allclose(got, expect)

    def test_and_semantics_zero_dominates(self):
        friend = np.array([[0.0, 1.0], [0.0, 0.0]])
        rates = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = toy_graph(friend=friend, rates=rates)
        # friend arm connects (0, 0); co-rating arm does not
        ms = MetaStructure(
            (U, U, B, B),
            ((0, 1, FRIEND), (1, 3, RATES), (0, 2, RATES), (2, 1, RATED_BY)),
            0,
            3,
        )
        score = structure_score_matrix(graph, ms)
        paths = enumerate_paths(ms)
        mats = [
            to_dense(path_commuting_matrix(graph, p).row_normalize()) for p in paths
        ]
        nz = np.ones_like(mats[0], dtype=bool)
        for m in mats:
            nz &= m > 0
        assert np.array_equal(to_dense(score) > 0, nz)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(8)
        graph = toy_graph(rng, n_users=10, n_biz=8)
        for _ in range(30):
            ms = random_structure(graph.schema, rng, max_nodes=6)
            score = structure_score_matrix(graph, ms)
            if score.nnz:
                assert score.data.min() > 0.0 and score.data.max() <= 1.0 + 1e-12

    def test_nonzero_iff_every_path_connects(self):
        # exhaustive pair check against brute-force per-path connectivity
        rng = np.random.default_rng(13)
        graph = toy_graph(rng, n_users=12, n_biz=10)
        for _ in range(25):
            ms = random_structure(graph.schema, rng, max_nodes=6)
            score = to_dense(structure_score_matrix(graph, ms))
            paths = enumerate_paths(ms)
            connect = None
            for p in paths:
                m = to_dense(path_commuting_matrix(graph, p)) > 0
                connect = m if connect is None else (connect & m)
            assert np.array_equal(score > 0, connect)

    def test_path_order_irrelevant(self):
        rng = np.random.default_rng(21)
        graph = toy_graph(rng, n_users=6, n_biz=6)
        ms = MetaStructure(
            (U, U, B, B),
            ((0, 1, FRIEND), (1, 3, RATES), (0, 2, RATES), (2, 1, RATED_BY)),
            0,
            3,
        )
        a = structure_score_matrix(graph, ms)
        b = structure_score_matrix(graph, ms)
        assert allclose(a, b, rtol=0)

    def test_blowup_raises_every_time(self, monkeypatch):
        rng = np.random.default_rng(5)
        graph = toy_graph(rng, n_users=30, n_biz=30)
        path = MetaPath((U, U, U, B), (FRIEND, FRIEND, RATES))
        ms = MetaStructure.from_path(path)
        monkeypatch.setattr(sparse, "FLOP_BUDGET", 5)
        with pytest.raises(MatrixBlowupError) as first:
            path_commuting_matrix(graph, path)
        for _ in range(3):
            with pytest.raises(MatrixBlowupError) as again:
                path_commuting_matrix(graph, path)
            assert str(again.value) == str(first.value)
            with pytest.raises(MatrixBlowupError):
                structure_score_matrix(graph, ms)
        monkeypatch.undo()
        got = path_commuting_matrix(graph, path)
        assert np.allclose(to_dense(got), dense_chain(graph, path))
        assert same_arrays(structure_score_matrix(graph, ms), got.row_normalize())


def same_arrays(a, b):
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def cold_copy(graph):
    """The same network with an empty read cache."""
    return HinGraph(graph.schema, graph.node_counts, graph.adjacency)


def dense_chain(graph, path):
    out = to_dense(graph.adjacency_of(path.edge_types[0]))
    for eid in path.edge_types[1:]:
        out = out @ to_dense(graph.adjacency_of(eid))
    return out


def auc_oracle(graph, split, part, ms):
    """AUC read off the full score matrix of a cold graph."""
    score = structure_score_matrix(cold_copy(graph), ms)
    return auc(score.pick(split.positives[part]), score.pick(split.negatives[part]))


def vote_oracle(graph, split, part, ms):
    """Macro-F1 of a per-row vote over the full score matrix of a cold graph."""
    score = structure_score_matrix(cold_copy(graph), ms)
    k = split.num_classes
    train_cls = np.asarray([split.classes[i] for i in split.train], dtype=np.int64)
    majority = int(np.argmax(np.bincount(train_cls, minlength=k)))
    col_class = np.full(score.cols, -1, dtype=np.int64)
    col_class[np.asarray(split.train, dtype=np.int64)] = train_cls
    nodes = list(split.part(part))
    preds = []
    for node in nodes:
        lo, hi = score.indptr[node], score.indptr[node + 1]
        cols, vals = score.indices[lo:hi], score.data[lo:hi]
        mask = col_class[cols] >= 0
        if not mask.any():
            preds.append(majority)
            continue
        votes = np.zeros(k, dtype=np.float64)
        np.add.at(votes, col_class[cols[mask]], vals[mask])
        preds.append(int(np.argmax(votes)))
    return macro_f1(preds, [split.classes[i] for i in nodes], k)


def random_rec_split(rng, n_users, n_biz, n_pairs=12):
    def pairs():
        return [(int(rng.integers(n_users)), int(rng.integers(n_biz))) for _ in range(n_pairs)]

    return RecommendationSplit(
        target_edge_type=RATES,
        positives={"train": [], "val": pairs(), "test": pairs()},
        negatives={"train": [], "val": pairs(), "test": pairs()},
        reserved=(),
    )


def random_label_split(rng, n_users, num_classes=3):
    order = rng.permutation(n_users).tolist()
    third = n_users // 3
    return NodeLabelSplit(
        target_node_type=U,
        classes=[int(rng.integers(num_classes)) for i in range(n_users)],
        train=tuple(order[:third]),
        val=tuple(order[third: 2 * third]),
        test=tuple(order[2 * third:]),
        num_classes=num_classes,
    )


def structures_between(graph, rng, src, dst, count):
    found = []
    while len(found) < count:
        ms = random_structure(graph.schema, rng, max_nodes=7)
        if ms.nodes[ms.source] == src and ms.nodes[ms.target] == dst:
            found.append(ms)
    return found


TASKS = [
    (RecommendationEvaluator, auc_oracle, random_rec_split, B),
    (NodeClassificationEvaluator, vote_oracle, lambda rng, n_users, n_biz: random_label_split(rng, n_users), U),
]


class TestPathReads:
    """The evaluators read cached per-path cells; the full score matrix of
    ``structure_score_matrix`` is their oracle."""

    def workload(self, rng, target):
        graph = toy_graph(rng, n_users=14, n_biz=10)
        return graph, structures_between(graph, rng, U, target, 25)

    @pytest.mark.parametrize("evaluator_cls, oracle, make_split, target", TASKS)
    def test_cold_equals_oracle(self, evaluator_cls, oracle, make_split, target):
        rng = np.random.default_rng(53)
        graph, structures = self.workload(rng, target)
        split = make_split(rng, 14, 10)
        for ms in structures:
            for part in ("val", "test"):
                got = evaluator_cls(part).evaluate(cold_copy(graph), split, ms).value
                assert got == oracle(graph, split, part, ms)

    @pytest.mark.parametrize("evaluator_cls, oracle, make_split, target", TASKS)
    def test_warm_equals_oracle_across_splits_and_parts(self, evaluator_cls, oracle, make_split, target):
        rng = np.random.default_rng(59)
        graph, structures = self.workload(rng, target)
        splits = [make_split(rng, 14, 10), make_split(rng, 14, 10)]
        expect = {
            (i, part, j): oracle(graph, split, part, ms)
            for i, split in enumerate(splits) for part in ("val", "test") for j, ms in enumerate(structures)
        }
        for j, ms in list(enumerate(structures)) * 2:
            for i, split in enumerate(splits):
                for part in ("val", "test"):
                    assert evaluator_cls(part).evaluate(graph, split, ms).value == expect[i, part, j]
        assert len(graph.read_cache) > 0

    @pytest.mark.parametrize("evaluator_cls, oracle, make_split, target", TASKS)
    def test_small_bound_equals_oracle(self, monkeypatch, evaluator_cls, oracle, make_split, target):
        monkeypatch.setattr(hin, "READ_CACHE_BYTES", 2_000)
        rng = np.random.default_rng(61)
        graph, structures = self.workload(rng, target)
        split = make_split(rng, 14, 10)
        assert graph.read_cache.bound == 2_000
        for ms in structures + structures[::-1]:
            got = evaluator_cls("val").evaluate(graph, split, ms).value
            assert got == oracle(graph, split, "val", ms)
            assert 0 <= graph.read_cache.total <= 2_000

    @pytest.mark.parametrize("evaluator_cls, oracle, make_split, target", TASKS)
    def test_val_then_test_equals_cold_test(self, evaluator_cls, oracle, make_split, target):
        rng = np.random.default_rng(67)
        graph, structures = self.workload(rng, target)
        split = make_split(rng, 14, 10)
        for ms in structures:
            evaluator_cls("val").evaluate(graph, split, ms)
            warm = evaluator_cls("test").evaluate(graph, split, ms)
            assert warm == evaluator_cls("test").evaluate(cold_copy(graph), split, ms)

    @pytest.mark.parametrize("evaluator_cls, oracle, make_split, target", TASKS)
    def test_blowup_raises_on_every_evaluate(self, monkeypatch, evaluator_cls, oracle, make_split, target):
        rng = np.random.default_rng(5)
        graph = toy_graph(rng, n_users=30, n_biz=30)
        split = make_split(rng, 30, 30)
        nodes = (U, U, U, target)
        ms = MetaStructure.from_path(MetaPath(nodes, (FRIEND, FRIEND, RATES if target == B else FRIEND)))
        monkeypatch.setattr(sparse, "FLOP_BUDGET", 5)
        for _ in range(3):
            with pytest.raises(MatrixBlowupError):
                evaluator_cls("val").evaluate(graph, split, ms)
        assert len(graph.read_cache) == 0
        monkeypatch.undo()
        assert evaluator_cls("val").evaluate(graph, split, ms).value == oracle(graph, split, "val", ms)

    def test_with_adjacency_starts_empty(self):
        rng = np.random.default_rng(41)
        graph = toy_graph(rng, n_users=8, n_biz=6)
        split = random_rec_split(rng, 8, 6)
        ms = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        before = RecommendationEvaluator().evaluate(graph, split, ms)
        (read_before,) = graph.read_cache._entries.values()
        swapped = graph.with_adjacency(RATES, from_dense(np.ones((8, 6))))
        assert len(swapped.read_cache) == 0 and len(graph.read_cache) == 1
        after = RecommendationEvaluator().evaluate(swapped, split, ms)
        assert after.value == auc_oracle(swapped, split, "val", ms)
        (read_after,) = swapped.read_cache._entries.values()
        assert not np.array_equal(read_after, read_before)
        assert RecommendationEvaluator().evaluate(graph, split, ms) == before

    @pytest.mark.parametrize("evaluator_cls, oracle, make_split, target", TASKS)
    def test_cached_reads_read_only_and_unchanged(self, evaluator_cls, oracle, make_split, target):
        rng = np.random.default_rng(71)
        graph, structures = self.workload(rng, target)
        split = make_split(rng, 14, 10)
        for ms in structures[:10]:
            evaluator_cls("val").evaluate(graph, split, ms)
        held = list(graph.read_cache._entries.values())
        assert held

        def arrays(read):
            return (read.indptr, read.indices, read.data) if isinstance(read, SparseMatrix) else (read,)

        snapshot = [[a.copy() for a in arrays(read)] for read in held]
        for read in held:
            for a in arrays(read):
                assert not a.flags.writeable
                if a.size:
                    with pytest.raises(ValueError):
                        a[0] = 7
        for ms in structures:
            for part in ("val", "test"):
                evaluator_cls(part).evaluate(graph, split, ms)
        for read, copies in zip(held, snapshot):
            for a, copy in zip(arrays(read), copies):
                assert np.array_equal(a, copy)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9], [0.1]) == 1.0

    def test_full_tie(self):
        assert auc([0.5], [0.5]) == 0.5

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n_pos = int(rng.integers(1, 60))
            n_neg = int(rng.integers(1, 60))
            # quantized scores force plenty of ties
            pos = np.round(rng.random(n_pos), 1)
            neg = np.round(rng.random(n_neg), 1)
            wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
            assert abs(auc(pos, neg) - wins / (n_pos * n_neg)) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(19)
        pos, neg = rng.random(40), rng.random(30)
        assert abs(auc(pos, neg) - auc(np.exp(3 * pos), np.exp(3 * neg))) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            auc([], [0.1])


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_constant_prediction_binary(self):
        # all class 0, gold half/half: F1_0 = 2*(0.5*1)/1.5 = 2/3, F1_1 = 0
        got = macro_f1([0, 0, 0, 0], [0, 0, 1, 1], 2)
        assert abs(got - (2 / 3 + 0.0) / 2) < 1e-15

    def test_absent_class_contributes_zero(self):
        got = macro_f1([0, 1], [0, 1], 3)
        assert abs(got - 2 / 3) < 1e-15

    def test_three_class_confusion(self):
        pred = [0] * 5 + [1] * 1 + [1] * 4 + [2] * 2
        gold = [0] * 5 + [0] * 1 + [1] * 4 + [2] * 2
        # class 0: P=1, R=5/6; class 1: P=4/5, R=1; class 2: P=1, R=1
        f0 = 2 * (5 / 6) / (1 + 5 / 6)
        f1 = 2 * (4 / 5) / (4 / 5 + 1)
        assert abs(macro_f1(pred, gold, 3) - (f0 + f1 + 1.0) / 3) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            macro_f1([0], [0, 1], 2)

    def test_matches_direct_computation_fuzz(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 50))
            pred = rng.integers(0, k, size=n)
            gold = rng.integers(0, k, size=n)
            total = 0.0
            for c in range(k):
                tp = np.sum((pred == c) & (gold == c))
                fp = np.sum((pred == c) & (gold != c))
                fn = np.sum((pred != c) & (gold == c))
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                total += 2 * p * r / (p + r) if p + r else 0.0
            assert abs(macro_f1(pred, gold, k) - total / k) < 1e-12


class TestEvaluateRecommendation:
    def make_split(self, pos, neg):
        return RecommendationSplit(
            target_edge_type=RATES,
            positives={"train": [], "val": pos, "test": pos},
            negatives={"train": [], "val": neg, "test": neg},
            reserved=(),
        )

    def test_perfect_scorer(self):
        friend = np.array([[0.0, 1.0], [0.0, 0.0]])
        rates = np.array([[0.0, 0.0], [1.0, 0.0]])
        graph = toy_graph(friend=friend, rates=rates)
        ms = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        split = self.make_split(pos=[(0, 0)], neg=[(0, 1), (1, 0)])
        result = RecommendationEvaluator("val").evaluate(graph, split, ms)
        assert result.value == 1.0 and result.metric == "auc" and result.split == "val"

    def test_zero_scorer_half(self):
        graph = toy_graph(friend=np.zeros((2, 2)))
        ms = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        split = self.make_split(pos=[(0, 0)], neg=[(1, 1)])
        assert RecommendationEvaluator("val").evaluate(graph, split, ms).value == 0.5

    def test_type_mismatch(self):
        graph = toy_graph()
        ms = MetaStructure((U, U), ((0, 1, FRIEND),), 0, 1)
        split = self.make_split(pos=[(0, 0)], neg=[(1, 1)])
        with pytest.raises(EvaluationError, match="do not match"):
            RecommendationEvaluator("val").evaluate(graph, split, ms)

    def test_purity_bit_identical(self):
        rng = np.random.default_rng(29)
        graph = toy_graph(rng, n_users=10, n_biz=8)
        ms = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        split = self.make_split(
            pos=[(0, 1), (2, 3), (4, 5)], neg=[(1, 1), (3, 3), (5, 5)]
        )
        a = RecommendationEvaluator("val").evaluate(graph, split, ms).value
        b = RecommendationEvaluator("val").evaluate(graph, split, ms).value
        assert a == b

    def test_evaluator_class(self):
        graph = toy_graph()
        ms = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        split = self.make_split(pos=[(0, 0)], neg=[(1, 1)])
        result = RecommendationEvaluator("val").evaluate(graph, split, ms)
        assert isinstance(result, EvalResult)


class TestEvaluateNodeClassification:
    def make_graph_and_split(self):
        # friendship cliques {0,1,2} and {3,4,5} with known labels
        friend = np.zeros((6, 6))
        for group in ((0, 1, 2), (3, 4, 5)):
            for a in group:
                for b in group:
                    if a != b:
                        friend[a, b] = 1.0
        graph = toy_graph(friend=friend, rates=np.zeros((6, 2)), n_users=6, n_biz=2)
        split = NodeLabelSplit(
            target_node_type=U,
            classes=[0, 0, 0, 1, 1, 1],
            train=(0, 3),
            val=(1, 4),
            test=(2, 5),
            num_classes=2,
        )
        return graph, split

    def test_clique_votes_perfect(self):
        graph, split = self.make_graph_and_split()
        ms = MetaStructure((U, U), ((0, 1, FRIEND),), 0, 1)
        result = NodeClassificationEvaluator("val").evaluate(graph, split, ms)
        assert result.value == 1.0 and result.metric == "macro_f1"

    def test_zero_scores_majority_fallback(self):
        graph, split = self.make_graph_and_split()
        ms = MetaStructure((U, B, U), ((0, 1, RATES), (1, 2, RATED_BY)), 0, 2)
        result = NodeClassificationEvaluator("val").evaluate(graph, split, ms)
        # rates matrix is empty: every vote row is zero, majority = class 0
        pred = [0, 0]
        gold = [0, 1]
        assert result.value == macro_f1(pred, gold, 2)

    def test_type_mismatch(self):
        graph, split = self.make_graph_and_split()
        ms = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        with pytest.raises(EvaluationError, match="node classification needs"):
            NodeClassificationEvaluator("val").evaluate(graph, split, ms)

    def test_evaluator_class(self):
        graph, split = self.make_graph_and_split()
        ms = MetaStructure((U, U), ((0, 1, FRIEND),), 0, 1)
        result = NodeClassificationEvaluator("test").evaluate(graph, split, ms)
        assert result.split == "test"


class TestEvalResult:
    def test_range_enforced(self):
        with pytest.raises(EvaluationError):
            EvalResult("auc", 1.5, "val")


@pytest.fixture(scope="module")
def tenfold(tmp_path_factory):
    """The schema, graph and ratings of the demo generator at 10x its size:
    2,880 users and 1,440 businesses."""
    path = tmp_path_factory.mktemp("tenfold-data")
    synth.generate(path, seed=0, tastes=10 * synth.N_TASTES)
    schema = load_schema(path / "schema.json")
    return schema, load_graph(schema, path), binarize_ratings(load_ratings(path / "ratings.tsv"))


class TestTenfoldGraph:
    """On a graph large enough that the halves differ from the full product,
    the reads of every seed structure equal the full product's cells bit for
    bit."""

    def test_pair_reads_equal_full_product(self, tenfold):
        schema, graph, labeled = tenfold
        rates = schema.edge_type_by_name("rates").id
        split, graph = make_recommendation_split(graph, rates, labeled, seed=0)
        cells = np.concatenate([np.asarray(split.positives["val"]), np.asarray(split.negatives["val"])])
        for ms in seed_population(schema, U, B, 5):
            (path,) = enumerate_paths(ms)
            got = evaluator._pair_read(graph, path, cells)
            assert np.array_equal(got, path_commuting_matrix(graph, path).row_normalize().pick(cells))

    def test_vote_reads_equal_full_product(self, tenfold, monkeypatch):
        schema, graph, _ = tenfold
        labels = [(b, b // synth.BIZ_PER_TASTE) for b in range(graph.count(B))]
        split = make_node_label_split(B, labels, graph.count(B), seed=0)
        nodes = np.asarray(split.val, dtype=np.int64)
        keep = np.zeros(graph.count(B), dtype=bool)
        keep[list(split.train)] = True
        for ms in seed_population(schema, B, B, 5):
            (path,) = enumerate_paths(ms)
            got = evaluator._vote_read(graph, path, nodes, keep)
            # the full product of the longest seed path is over the budget;
            # the halves are not
            with monkeypatch.context() as patch:
                patch.setattr(sparse, "FLOP_BUDGET", 10 ** 9)
                oracle = path_commuting_matrix(graph, path).row_normalize().select(nodes, keep)
            assert same_arrays(got, oracle)
