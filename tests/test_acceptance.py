"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on failure)
and then asserts. Criterion 10 needs a locally prepared dataset directory
and skips unless HINSTRUCT_YELP_DIR is set.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from hinstruct import agents, evolution, grammar, hin, mutations, structure
from hinstruct.cli import EXIT_OK, main
from hinstruct.evaluator import RecommendationEvaluator, auc, macro_f1, structure_score_matrix
from hinstruct.grammar import encode_metastructure
from hinstruct.hin import HinGraph, binarize_ratings, load_graph, load_ratings, load_schema, schema_from_dict
from hinstruct.mutations import (
    build_component_library,
    neighbors_deletion,
    neighbors_grafting,
    neighbors_insertion,
)
from hinstruct.evolution import reproduce, Individual
from hinstruct.sparse import SparseMatrix
from hinstruct.splits import make_recommendation_split
from hinstruct.structure import (
    MetaStructure,
    canonical_key,
    enumerate_paths,
    validate,
)
from hinstruct.synth import generate, planted_structure, toy_schema, write_demo_config

from conftest import brute_force_paths, contains_substructure, enumerate_corpus, random_structure, to_dense

CHI2_CRIT_DOF3_P01 = 11.345


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} {detail}".rstrip())
    return ok


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    """Dataset generation plus one full CLI search run at the pinned config."""
    root = tmp_path_factory.mktemp("acceptance")
    data_dir = root / "dataset"
    generate(data_dir, seed=0)
    config_path = root / "config.json"
    out_dir = root / "run-a"
    write_demo_config(config_path, data_dir, out_dir, seed=0, generations=30)
    started = time.perf_counter()
    code = main(["search", "--config", str(config_path)])
    wall = time.perf_counter() - started
    assert code == EXIT_OK
    result = json.loads((out_dir / "result.json").read_text())
    events = [json.loads(line) for line in (out_dir / "events.jsonl").read_text().splitlines()]
    return {
        "root": root,
        "config": config_path,
        "out": out_dir,
        "result": result,
        "events": events,
        "wall": wall,
    }


class TestCriterion1PlantedRecovery:
    def test_planted_structure_recovered(self, planted_run):
        result = planted_run["result"]
        best = result["final_best"]
        best_ms = MetaStructure.from_dict(best["structure"])
        contains = contains_substructure(best_ms, planted_structure())
        ok = report(
            1,
            best["fitness"] >= 0.95 and contains and planted_run["wall"] < 300,
            f"(best val AUC {best['fitness']:.4f}, contains planted: {contains}, "
            f"wall {planted_run['wall']:.1f}s)",
        )
        assert best["fitness"] >= 0.95
        assert contains
        assert planted_run["wall"] < 300
        assert ok


class TestCriterion2PathEnumeration:
    def test_thousand_random_dags_match_dfs_oracle(self, schema):
        rng = np.random.default_rng(202)
        failures = 0
        for _ in range(1000):
            ms = random_structure(schema, rng, max_nodes=8)
            got = sorted((p.node_types, p.edge_types) for p in enumerate_paths(ms))
            if got != brute_force_paths(ms):
                failures += 1
        assert report(2, failures == 0, f"(1000 random DAGs, {failures} mismatches)")
        assert failures == 0


class TestCriterion3MutationFuzz:
    def test_ten_thousand_draws_all_valid(self, schema):
        rng = np.random.default_rng(303)
        lib = build_component_library(schema, 10, 1, 3)
        origins = [random_structure(schema, rng, max_nodes=7) for _ in range(250)]
        ops = (
            lambda ms: neighbors_insertion(ms, lib),
            lambda ms: neighbors_grafting(ms, lib),
            lambda ms: neighbors_deletion(ms, lib),
        )
        violations = 0
        emitted = 0
        for _ in range(10_000):
            origin = origins[int(rng.integers(len(origins)))]
            op = ops[int(rng.integers(3))]
            for neighbor, _ in op(origin):
                emitted += 1
                if validate(neighbor, schema):
                    violations += 1
        assert report(3, violations == 0, f"(10000 draws, {emitted} neighbors, {violations} violations)")
        assert violations == 0


class TestCriterion4MetricOracles:
    def test_auc_matches_quadratic_comparator(self):
        rng = np.random.default_rng(404)
        worst = 0.0
        for _ in range(100):
            n_pos = int(rng.integers(1, 80))
            n_neg = int(rng.integers(1, 80))
            quantize = rng.random() < 0.5
            pos = rng.random(n_pos)
            neg = rng.random(n_neg)
            if quantize:
                pos, neg = np.round(pos, 1), np.round(neg, 1)
            brute = sum(
                1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg
            ) / (n_pos * n_neg)
            worst = max(worst, abs(auc(pos, neg) - brute))
        assert report(4, worst < 1e-12, f"(AUC max abs error {worst:.2e})")
        assert worst < 1e-12

    def test_macro_f1_matches_direct_computation(self):
        rng = np.random.default_rng(405)
        for trial in range(100):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 60))
            # leave some classes empty in both pred and gold
            hi = max(2, k - int(rng.integers(0, 2)))
            pred = rng.integers(0, hi, size=n)
            gold = rng.integers(0, hi, size=n)
            direct = 0.0
            for c in range(k):
                tp = int(np.sum((pred == c) & (gold == c)))
                fp = int(np.sum((pred == c) & (gold != c)))
                fn = int(np.sum((pred != c) & (gold == c)))
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                direct += 2 * p * r / (p + r) if p + r else 0.0
            assert macro_f1(pred, gold, k) == direct / k, trial
        report(4, True, "(Macro-F1 exact on 100 instances incl. empty classes)")


def instance_exists(edge_lists, path, source, target):
    """Set-propagation oracle over raw edge lists, no matrix code involved."""
    frontier = {source}
    for eid in path.edge_types:
        step = set()
        for s, d in edge_lists[eid]:
            if s in frontier:
                step.add(d)
        frontier = step
        if not frontier:
            return False
    return target in frontier


class TestCriterion5ScoringOracle:
    def test_zero_nonzero_agreement_exhaustive(self, schema):
        rng = np.random.default_rng(505)
        mismatches = 0
        pairs_checked = 0
        for _ in range(12):
            counts = {"user": 14, "business": 12, "category": 3, "city": 2}
            n = {0: 14, 1: 12, 2: 3, 3: 2}
            def rand_edges(rows, cols, density):
                return {
                    (int(r), int(c))
                    for r, c in zip(
                        rng.integers(0, rows, size=int(rows * cols * density)),
                        rng.integers(0, cols, size=int(rows * cols * density)),
                    )
                }
            rates = rand_edges(14, 12, 0.2)
            friend = {(a, b) for a, b in rand_edges(14, 14, 0.15) if a != b}
            belongs = rand_edges(12, 3, 0.4)
            located = rand_edges(12, 2, 0.4)
            edge_lists = {
                0: rates,
                1: {(d, s) for s, d in rates},
                2: friend,
                3: belongs,
                4: {(d, s) for s, d in belongs},
                5: located,
                6: {(d, s) for s, d in located},
            }
            shapes = {0: (14, 12), 1: (12, 14), 2: (14, 14), 3: (12, 3), 4: (3, 12), 5: (12, 2), 6: (2, 12)}
            adjacency = {
                eid: SparseMatrix.from_pairs(*shapes[eid], list(pairs))
                for eid, pairs in edge_lists.items()
            }
            graph = HinGraph(schema, tuple(counts[t.name] for t in schema.node_types), adjacency)
            for _ in range(4):
                ms = random_structure(schema, rng, max_nodes=6)
                score = to_dense(structure_score_matrix(graph, ms))
                paths = enumerate_paths(ms)
                src_t, tgt_t = ms.nodes[ms.source], ms.nodes[ms.target]
                for s in range(graph.count(src_t)):
                    for t in range(graph.count(tgt_t)):
                        oracle = all(instance_exists(edge_lists, p, s, t) for p in paths)
                        pairs_checked += 1
                        if (score[s, t] > 0) != oracle:
                            mismatches += 1
        assert report(5, mismatches == 0, f"({pairs_checked} pairs checked, {mismatches} mismatches)")
        assert mismatches == 0


class TestCriterion6EvolutionArithmetic:
    def test_exactly_one_eliminated_per_generation(self, planted_run):
        eliminations = [e for e in planted_run["events"] if e["event"] == "elimination"]
        assert len(eliminations) == 30
        counts = {len(e["removed"]) for e in eliminations}
        assert report(6, counts == {1}, f"(30 generations, removal counts {sorted(counts)})")
        assert counts == {1}

    def test_reproduction_frequencies_chi_square(self, schema):
        survivors = []
        for i, fit in enumerate([0.8, 0.6, 0.4, 0.2]):
            ms = MetaStructure((0,) * (i + 1) + (1,), tuple(
                (j, j + 1, 2 if j < i else 0) for j in range(i + 1)
            ), 0, i + 1)
            survivors.append(Individual(ms, f"k{i}", f"s{i}", fit))
        rng = np.random.default_rng(0)
        n_draws = 10_000
        _, draws = reproduce(survivors, len(survivors) + n_draws, rng)
        counts = np.bincount(draws, minlength=4)
        expected = np.array([0.4, 0.3, 0.2, 0.1]) * n_draws
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert report(6, stat < CHI2_CRIT_DOF3_P01, f"(chi-square stat {stat:.2f} < {CHI2_CRIT_DOF3_P01})")
        assert stat < CHI2_CRIT_DOF3_P01


class TestCriterion7PoolCache:
    def test_zero_repeat_evaluator_calls(self, planted_run):
        evals = [e for e in planted_run["events"] if e["event"] == "evaluation"]
        fresh = [e["key"] for e in evals if not e["cached"]]
        repeats = len(fresh) - len(set(fresh))
        cached_hits = sum(1 for e in evals if e["cached"])
        ok = repeats == 0 and cached_hits > 0
        assert report(7, ok, f"({len(fresh)} fresh evaluations, {repeats} repeats, {cached_hits} cache hits)")
        assert repeats == 0


class TestCriterion8Determinism:
    def test_second_run_byte_identical(self, planted_run):
        out_b = planted_run["root"] / "run-b"
        code = main(
            ["search", "--config", str(planted_run["config"]), "--out", str(out_b)]
        )
        assert code == EXIT_OK
        same = True
        for name in ("result.json", "curve.csv", "events.jsonl", "explanations.json", "transcripts.jsonl"):
            a = (planted_run["out"] / name).read_bytes()
            b = (out_b / name).read_bytes()
            same = same and a == b
        assert report(8, same, "(result, curve, events, explanations, transcripts)")
        assert same


class TestMemoFreeReference:
    """A search with its memos and caches off writes the same five artifacts
    as the default search, so no memo's key leaves out something its value
    depends on; a second default run, which shares every memo's behaviour,
    cannot show that.

    Switched off by patching, with no option in the package: every
    ``LruMemo`` bound is 0 (unions, sentences, agent chains, path reads),
    ``structure._canonicalize`` and ``grammar._vocabulary`` run uncached, and
    the stub backend is neither ``in_process`` (so its chains run on worker
    threads) nor ``deterministic`` (so no chain answer is reused). The
    invariant rule that spares offered candidates their canonical key has no
    such switch and stays on in both runs.
    """

    def test_memo_free_search_byte_identical(self, planted_run, monkeypatch):
        monkeypatch.setattr(mutations, "UNION_MEMO_ENTRIES", 0)
        monkeypatch.setattr(mutations, "SENTENCE_MEMO_ENTRIES", 0)
        monkeypatch.setattr(evolution, "CHAIN_MEMO_ENTRIES", 0)
        monkeypatch.setattr(hin, "READ_CACHE_BYTES", 0)
        monkeypatch.setattr(structure, "_canonicalize", structure._canonicalize.__wrapped__)
        monkeypatch.setattr(grammar, "_vocabulary", grammar._vocabulary.__wrapped__)
        monkeypatch.setattr(agents.StubBackend, "in_process", False)
        monkeypatch.setattr(agents.StubBackend, "deterministic", False)
        out = planted_run["root"] / "memo-free"
        assert main(["search", "--config", str(planted_run["config"]), "--out", str(out)]) == EXIT_OK
        for name in ("result.json", "curve.csv", "events.jsonl", "explanations.json", "transcripts.jsonl"):
            assert (out / name).read_bytes() == (planted_run["out"] / name).read_bytes(), name


@pytest.fixture(scope="module")
def corpus(schema):
    return enumerate_corpus(schema, 5)


class TestCriterion9GrammarContract:
    def test_token_counts(self, schema, corpus):
        bad = 0
        for ms in corpus.values():
            sentence = encode_metastructure(ms, schema)
            paths = sorted(enumerate_paths(ms), key=lambda p: p.type_sequence())
            if sentence.count(" AND ") != len(paths) - 1:
                bad += 1
                continue
            for sub, path in zip(sentence.split(" AND "), paths):
                if sub.count("THAT") != len(path.edge_types) - 1:
                    bad += 1
                    break
        assert report(9, bad == 0, f"(token counts over {len(corpus)} structures, {bad} bad)")
        assert bad == 0

    def test_encoding_injective_on_canonical_keys(self, schema, corpus):
        by_sentence = {}
        collisions = []
        for key, ms in corpus.items():
            sentence = encode_metastructure(ms, schema)
            if sentence in by_sentence:
                collisions.append((by_sentence[sentence].to_dict(), ms.to_dict()))
            else:
                by_sentence[sentence] = ms
        report(9, not collisions, f"(injectivity: {len(collisions)} sentence collisions on {len(corpus)} structures)")
        assert not collisions, (
            f"{len(collisions)} distinct canonical keys share sentences; "
            f"first collision pair: {collisions[0]}"
        )


class TestCriterion10YelpIngestion:
    EXPECTED = {
        "rates": 84_993,       # User-Business
        "friend": 158_590,     # User-User
        "compliment": 76_875,  # User-Compliment
        "belongs_to": 40_009,  # Business-Category
        "located_in": 14_267,  # Business-City
    }

    @pytest.mark.skipif(
        "HINSTRUCT_YELP_DIR" not in os.environ,
        reason="set HINSTRUCT_YELP_DIR to a prepared Yelp dataset directory",
    )
    def test_relation_counts(self):
        directory = os.environ["HINSTRUCT_YELP_DIR"]
        schema = schema_from_dict(
            {
                "node_types": [
                    {"id": 0, "name": "user", "noun": "User"},
                    {"id": 1, "name": "business", "noun": "Business"},
                    {"id": 2, "name": "compliment", "noun": "Compliment"},
                    {"id": 3, "name": "category", "noun": "Category"},
                    {"id": 4, "name": "city", "noun": "City"},
                ],
                "edge_types": [
                    {"id": 0, "name": "rates", "src": 0, "dst": 1, "verb": "rates"},
                    {"id": 1, "name": "friend", "src": 0, "dst": 0, "verb": "is friend of", "inverse": 1},
                    {"id": 2, "name": "compliment", "src": 0, "dst": 2, "verb": "receives"},
                    {"id": 3, "name": "belongs_to", "src": 1, "dst": 3, "verb": "belongs to"},
                    {"id": 4, "name": "located_in", "src": 1, "dst": 4, "verb": "is located in"},
                ],
            }
        )
        graph = load_graph(schema, directory)
        mismatches = {
            name: (graph.adjacency_of(schema.edge_type_by_name(name).id).nnz, expected)
            for name, expected in self.EXPECTED.items()
            if graph.adjacency_of(schema.edge_type_by_name(name).id).nnz != expected
        }
        assert report(10, not mismatches, f"({mismatches or 'all relation counts match'})")
        assert not mismatches
