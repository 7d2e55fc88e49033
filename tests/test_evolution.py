import json
import sys
import threading
import time
import zlib
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from hinstruct.agents import (
    BackendError,
    HttpChatBackend,
    PoolSample,
    PromptLibrary,
    StubBackend,
    TranscriptLog,
    predictor_candidate_block,
)
from hinstruct.cli import main
from hinstruct.evaluator import RecommendationEvaluator
from hinstruct.evolution import (
    AGENT_WORKERS,
    Individual,
    PerformancePool,
    PoolRecord,
    SearchConfig,
    eliminate,
    evaluate_population,
    explain_top_structures,
    mutate_population,
    reproduce,
    run_search,
    search_neighbors,
    _choose,
    _MutationJob,
    _rng_digest,
)
from hinstruct.grammar import encode_metastructure
from hinstruct.hin import LruMemo, load_graph, load_ratings, load_schema, binarize_ratings
from hinstruct.mutations import (
    Candidate,
    CandidateSet,
    EmptyNeighborhoodError,
    build_component_library,
    one_step_neighbors,
)
from hinstruct.splits import make_recommendation_split
from hinstruct.structure import MetaStructure, canonical_key
from hinstruct.synth import planted_structure, toy_schema, write_demo_config

from conftest import fake_urlopen, random_structure, relabeled

U, B = 0, 1
RATES, RATED_BY, FRIEND = 0, 1, 2

# dof=3 critical value at p=0.01; statistic below it means p > 0.01
CHI2_CRIT_DOF3_P01 = 11.345


def individual(n_edges, fitness, tag):
    # distinct structures with a controlled edge count: friend chains
    nodes = tuple([U] * n_edges + [B])
    edges = tuple(
        (i, i + 1, FRIEND if i < n_edges - 1 else RATES) for i in range(n_edges)
    )
    ms = MetaStructure(nodes, edges, 0, n_edges)
    return Individual(ms, f"{tag}-{canonical_key(ms)}", f"sentence {tag}", fitness)


class TestSearchConfig:
    def test_defaults_match_stated_hyperparameters(self):
        config = SearchConfig()
        assert config.generations == 30
        assert config.population_size == 5
        assert config.elimination_rate == 0.2
        assert config.candidate_cap == 20
        assert config.pool_sample_size == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(population_size=1)
        with pytest.raises(ValueError):
            SearchConfig(elimination_rate=0.0)
        with pytest.raises(ValueError):
            SearchConfig(elimination_rate=1.0)
        with pytest.raises(ValueError):
            SearchConfig(candidate_cap=0)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SearchConfig(seed=-1)


class TestEliminate:
    def test_five_at_point_two_removes_one(self):
        population = [individual(i + 1, 0.1 * (i + 1), f"i{i}") for i in range(5)]
        survivors, removed = eliminate(population, 0.2)
        assert len(removed) == 1 and len(survivors) == 4
        assert removed[0].fitness == pytest.approx(0.1)

    def test_minimum_one_removed(self):
        population = [individual(i + 1, 0.1 * (i + 1), f"i{i}") for i in range(5)]
        survivors, removed = eliminate(population, 0.1)
        assert len(removed) == 1

    def test_equal_fitness_removes_largest(self):
        population = [individual(n, 0.5, f"i{n}") for n in (2, 5, 3, 4)]
        _, removed = eliminate(population, 0.2)
        assert removed[0].structure.n_edges == 5

    def test_survivor_order_preserved(self):
        population = [individual(i + 1, [0.3, 0.1, 0.9, 0.5][i], f"i{i}") for i in range(4)]
        survivors, _ = eliminate(population, 0.25)
        assert [s.fitness for s in survivors] == [0.3, 0.9, 0.5]


class TestReproduce:
    def survivors(self):
        return [individual(i + 1, f, f"s{i}") for i, f in enumerate([0.8, 0.6, 0.4, 0.2])]

    def test_refills_to_size_keeping_survivors(self):
        rng = np.random.default_rng(0)
        population, draws = reproduce(self.survivors(), 5, rng)
        assert len(population) == 5
        assert population[:4] == self.survivors()
        assert len(draws) == 1

    def test_single_survivor_duplicated(self):
        rng = np.random.default_rng(0)
        lone = [individual(1, 0.7, "only")]
        population, draws = reproduce(lone, 4, rng)
        assert len(population) == 4
        assert all(ind is lone[0] for ind in population)

    def test_zero_total_fitness_uniform(self):
        rng = np.random.default_rng(0)
        flat = [individual(i + 1, 0.0, f"z{i}") for i in range(3)]
        population, _ = reproduce(flat, 6, rng)
        assert len(population) == 6

    def test_draw_frequencies_fitness_proportional(self):
        rng = np.random.default_rng(0)
        survivors = self.survivors()
        counts = np.zeros(4)
        n_draws = 10_000
        _, draws = reproduce(survivors, 4 + n_draws, rng)
        for d in draws:
            counts[d] += 1
        expected = np.array([0.4, 0.3, 0.2, 0.1]) * n_draws
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < CHI2_CRIT_DOF3_P01, (counts, stat)


class TestPerformancePool:
    def test_insert_once(self):
        pool = PerformancePool()
        record = PoolRecord("k", "s", 0.5, 0, {"nodes": [0], "edges": [], "source": 0, "target": 0})
        pool.insert(record)
        assert pool.get("k") == record
        with pytest.raises(RuntimeError, match="already holds"):
            pool.insert(record)

    def test_sample_small_pool_returns_everything(self):
        pool = PerformancePool()
        for i in range(4):
            pool.insert(PoolRecord(f"k{i}", f"s{i}", i / 10, 0, {}))
        sample = pool.sample(np.random.default_rng(0), 30)
        assert len(sample.records) == 4

    def test_sample_large_pool_without_replacement(self):
        pool = PerformancePool()
        for i in range(50):
            pool.insert(PoolRecord(f"k{i}", f"s{i}", i / 100, 0, {}))
        sample = pool.sample(np.random.default_rng(0), 30)
        assert len(sample.records) == 30
        assert len(set(sample.records)) == 30

    def test_pool_mean_prior(self):
        pool = PerformancePool()
        assert pool.sample(np.random.default_rng(0), 30).mean == 0.5


@pytest.fixture(scope="module")
def planted_task(planted_dir):
    schema = load_schema(planted_dir / "schema.json")
    graph = load_graph(schema, planted_dir)
    labeled = binarize_ratings(load_ratings(planted_dir / "ratings.tsv", graph.count(U), graph.count(B)))
    split, graph = make_recommendation_split(graph, 0, labeled, seed=0)
    return graph, split


class TestEvaluatePopulation:
    def test_cache_prevents_reevaluation(self, planted_task):
        graph, split = planted_task
        schema = graph.schema
        ms = planted_structure()
        ind = Individual(ms, canonical_key(ms), encode_metastructure(ms, schema))
        pool = PerformancePool()
        events = []
        rng = np.random.default_rng(0)
        calls = []
        inner = RecommendationEvaluator("val")

        class Counting:
            metric = "auc"

            def evaluate(self, graph, split, ms):
                calls.append(canonical_key(ms))
                return inner.evaluate(graph, split, ms)

        out1 = evaluate_population([ind], Counting(), graph, split, pool, 0, events, rng)
        out2 = evaluate_population([ind, ind], Counting(), graph, split, pool, 1, events, rng)
        assert calls == [ind.key] and len(pool) == 1
        assert out1[0].fitness == out2[0].fitness == out2[1].fitness
        cached_flags = [e["cached"] for e in events if e["event"] == "evaluation"]
        assert cached_flags == [False, True, True]


class TestMutatePopulation:
    def test_stub_choice_replaces_individual(self, planted_task):
        graph, split = planted_task
        schema = graph.schema
        config = SearchConfig(backoff=0.0)
        lib = build_component_library(schema, 10, 1, 3)
        seed_ms = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        ind = Individual(seed_ms, canonical_key(seed_ms), encode_metastructure(seed_ms, schema), 0.8)
        pool = PerformancePool()
        pool.insert(PoolRecord(ind.key, ind.sentence, 0.8, 0, seed_ms.to_dict()))
        events = []
        out = mutate_population(
            [ind], lib, StubBackend(), pool, config,
            np.random.default_rng(0), PromptLibrary(), None, events, 0,
        )
        assert len(out) == 1
        assert out[0].key != ind.key
        assert events[-1]["event"] == "mutation"
        assert events[-1]["descriptor"]["op"] in ("insertion", "grafting", "deletion")

    def test_pool_match_attracts_choice(self, planted_task):
        # a pool record identical to one candidate gives it similarity 1 and
        # the pool's top value, so the stub must choose it
        graph, split = planted_task
        schema = graph.schema
        config = SearchConfig(backoff=0.0)
        lib = build_component_library(schema, 10, 1, 3)
        seed_ms = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        ind = Individual(seed_ms, canonical_key(seed_ms), encode_metastructure(seed_ms, schema), 0.5)
        target = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        pool = PerformancePool()
        pool.insert(
            PoolRecord(
                canonical_key(target), encode_metastructure(target, schema), 0.99, 0, target.to_dict()
            )
        )
        out = mutate_population(
            [ind], lib, StubBackend(), pool, config,
            np.random.default_rng(0), PromptLibrary(), None, [], 0,
        )
        assert out[0].key == canonical_key(target)

    def test_agent_failure_passes_through(self, planted_task):
        graph, split = planted_task
        schema = graph.schema

        class Dead:
            identity = "dead"

            def complete(self, *a, **k):
                raise BackendError("down")

        config = SearchConfig(backoff=0.0, retries=2)
        lib = build_component_library(schema, 10, 1, 3)
        seed_ms = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        ind = Individual(seed_ms, canonical_key(seed_ms), encode_metastructure(seed_ms, schema), 0.8)
        events = []
        out = mutate_population(
            [ind], lib, Dead(), PerformancePool(), config,
            np.random.default_rng(0), PromptLibrary(), None, events, 0,
        )
        assert out[0] is ind
        assert "agent failure" in events[-1]["note"]


class TestRunSearch:
    def test_generations_zero_evaluates_seeds_only(self, planted_task):
        graph, split = planted_task
        config = SearchConfig(generations=0, backoff=0.0)
        result = run_search(
            config, graph, split, StubBackend(), RecommendationEvaluator("val")
        )
        assert len(result.generations) == 1
        assert result.generations[0].generation == 0
        search_evals = [e for e in result.events if e["event"] == "evaluation"]
        assert len(search_evals) == config.population_size
        assert set(result.generations[0].population) == {e["key"] for e in search_evals}
        assert result.final_best is not None

    def test_population_size_constant(self, planted_task):
        graph, split = planted_task
        config = SearchConfig(generations=4, backoff=0.0)
        result = run_search(
            config, graph, split, StubBackend(), RecommendationEvaluator("val")
        )
        for record in result.generations:
            assert len(record.population) == config.population_size

    def test_running_best_nondecreasing(self, planted_task):
        graph, split = planted_task
        config = SearchConfig(generations=6, backoff=0.0)
        result = run_search(
            config, graph, split, StubBackend(), RecommendationEvaluator("val")
        )
        running = 0.0
        by_gen = {}
        for record in result.pool.records():
            by_gen.setdefault(record.generation, []).append(record.fitness)
        best_so_far = []
        for g in sorted(by_gen):
            running = max(running, max(by_gen[g]))
            best_so_far.append(running)
        assert best_so_far == sorted(best_so_far)

    def test_no_repeat_evaluator_calls(self, planted_task):
        graph, split = planted_task
        config = SearchConfig(generations=6, backoff=0.0)

        calls = []
        inner = RecommendationEvaluator("val")

        class Counting:
            metric = "auc"

            def evaluate(self, graph, split, ms):
                calls.append(canonical_key(ms))
                return inner.evaluate(graph, split, ms)

        result = run_search(config, graph, split, StubBackend(), Counting())
        assert len(calls) == len(set(calls))
        assert len(calls) == len(result.pool)

    def test_event_log_deterministic(self, planted_task):
        graph, split = planted_task
        config = SearchConfig(generations=3, backoff=0.0)
        a = run_search(config, graph, split, StubBackend(), RecommendationEvaluator("val"))
        b = run_search(config, graph, split, StubBackend(), RecommendationEvaluator("val"))
        assert json.dumps(a.events, sort_keys=True) == json.dumps(b.events, sort_keys=True)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_explanations_for_distinct_finals(self, planted_task):
        graph, split = planted_task
        config = SearchConfig(generations=3, backoff=0.0)
        result = run_search(config, graph, split, StubBackend(), RecommendationEvaluator("val"))
        distinct = len(set(result.generations[-1].population))
        assert 1 <= len(result.explanations) <= min(3, distinct)
        for report in result.explanations:
            assert 1 <= len(report.neighbors) <= config.explain_neighbors
            assert report.comprehension and report.attribution

    def test_evaluator_failure_aborts_with_partial_results(self, planted_task):
        graph, split = planted_task

        class Exploding:
            metric = "auc"

            def __init__(self):
                self.count = 0

            def evaluate(self, graph, split, ms):
                self.count += 1
                if self.count > 3:
                    from hinstruct.evaluator import EvaluationError

                    raise EvaluationError("synthetic failure")
                return RecommendationEvaluator("val").evaluate(graph, split, ms)

        config = SearchConfig(generations=3, backoff=0.0)
        result = run_search(config, graph, split, StubBackend(), Exploding())
        assert result.aborted is not None
        assert len(result.pool) == 3
        assert result.final_best is not None


def _mutation(origin, chosen):
    return {"event": "mutation", "generation": 0, "origin": origin, "chosen": chosen, "rng": "-"}


class TestExplainFromHistory:
    EVENTS = [
        _mutation("t", "t"),  # a pass-through links nothing
        _mutation("a", "t"),
        {"event": "evaluation", "generation": 1, "key": "b", "fitness": 0.3, "cached": False},
        _mutation("t", "b"),
        _mutation("c", "d"),
        _mutation("t", "a"),
        _mutation("c", "t"),
        _mutation("t", "d"),
    ]

    def test_neighbors_both_directions_in_event_order(self):
        assert search_neighbors(self.EVENTS, "t", 10) == ["a", "b", "c", "d"]
        assert search_neighbors(self.EVENTS, "d", 10) == ["c", "t"]

    def test_neighbors_capped(self):
        assert search_neighbors(self.EVENTS, "t", 2) == ["a", "b"]
        assert search_neighbors(self.EVENTS, "t", 1) == ["a"]

    def test_no_neighbors(self):
        assert search_neighbors(self.EVENTS, "x", 10) == []
        assert search_neighbors([_mutation("x", "x")], "x", 10) == []

    def test_reports_from_pool_records(self, caplog):
        pool = PerformancePool()
        for key, fitness in [("t", 0.9), ("alone", 0.95), ("a", 0.1), ("b", 0.2), ("c", 0.3), ("d", 0.4)]:
            structure = {"nodes": [U, B], "edges": [[0, 1, RATES]], "source": 0, "target": 1}
            pool.insert(PoolRecord(key, f"sentence {key}", fitness, 0, structure))
        config = SearchConfig(explain_top_k=3, explain_neighbors=3, backoff=0.0)
        with caplog.at_level("WARNING", logger="hinstruct.evolution"):
            reports = explain_top_structures(
                config, StubBackend(), "auc", pool, self.EVENTS,
                ["t", "alone", "t"], PromptLibrary(), None,
            )
        assert "no neighbors to contrast alone against" in caplog.text
        (report,) = reports
        assert asdict(report.target) == {"key": "t", "sentence": "sentence t", "metric": "auc", "value": 0.9}
        assert [(n.key, n.sentence, n.metric, n.value) for n in report.neighbors] == [
            ("a", "sentence a", "auc", 0.1), ("b", "sentence b", "auc", 0.2), ("c", "sentence c", "auc", 0.3),
        ]

    def test_search_reports_use_search_neighbors(self, planted_task):
        graph, split = planted_task
        config = SearchConfig(generations=3, backoff=0.0)
        result = run_search(config, graph, split, StubBackend(), RecommendationEvaluator("val"))
        assert result.explanations
        for report in result.explanations:
            keys = search_neighbors(result.events, report.target.key, config.explain_neighbors)
            assert [n.key for n in report.neighbors] == keys
            assert [n.value for n in report.neighbors] == [result.pool.get(k).fitness for k in keys]


class _Jittery:
    """Stub replies after a delay that depends on the prompt, so concurrent
    agent tasks finish out of index order."""

    identity = "stub"

    def __init__(self):
        self.stub = StubBackend()

    def complete(self, system, user):
        time.sleep((zlib.crc32(user.encode()) % 7) * 0.002)
        return self.stub.complete(system, user)


class _Scripted:
    """Stub replies, except that a predictor prompt containing ``marker``
    raises ``error``; counts calls in flight."""

    identity = "stub"

    def __init__(self, marker=None, error=None, gate=0):
        self.stub = StubBackend()
        self.marker, self.error = marker, error
        self.lock = threading.Lock()
        self.in_flight = self.peak = self.predicts = 0
        # the first ``gate`` predictor calls wait for each other, so they must overlap
        self.barrier = threading.Barrier(gate, timeout=10) if gate else None

    def complete(self, system, user):
        predict = user.startswith("TASK: PREDICT")
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            waits = predict and self.barrier is not None and self.predicts < self.barrier.parties
            self.predicts += predict
        try:
            if waits:
                self.barrier.wait()
            if predict and self.marker is not None and self.marker in user:
                raise self.error
            return self.stub.complete(system, user)
        finally:
            with self.lock:
                self.in_flight -= 1


class TestConcurrentMutation:
    """Agent tasks run at once; transcripts, events and the rng stream keep index order."""

    config = SearchConfig(backoff=0.0, retries=2, candidate_cap=3, pool_sample_size=1)

    def population(self, schema, n):
        shapes = [
            MetaStructure((U, B), ((0, 1, RATES),), 0, 1),
            MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2),
            MetaStructure((U, B, U, B), ((0, 1, RATES), (1, 2, RATED_BY), (2, 3, RATES)), 0, 3),
            MetaStructure((U, U, U, B), ((0, 1, FRIEND), (1, 2, FRIEND), (2, 3, RATES)), 0, 3),
            planted_structure(),
        ]
        return [
            Individual(ms, canonical_key(ms), encode_metastructure(ms, schema), 0.5)
            for ms in shapes[:n]
        ]

    def pool(self, population):
        pool = PerformancePool()
        for i, ind in enumerate(population[:2]):
            pool.insert(PoolRecord(ind.key, ind.sentence, 0.4 + 0.1 * i, 0, ind.structure.to_dict()))
        return pool

    def phase_one(self, population, lib, schema, pool):
        """Digests and predictor blocks from drawing each individual's
        neighbourhood and pool sample in index order, as a serial loop does."""
        rng = np.random.default_rng(0)
        digests, blocks = [], []
        for ind in population:
            cands = one_step_neighbors(ind.structure, lib, rng, self.config.candidate_cap)
            pool.sample(rng, self.config.pool_sample_size)
            digests.append(_rng_digest(rng))
            blocks.append(
                predictor_candidate_block(
                    [encode_metastructure(c.structure, schema) for c in cands.candidates]
                )
            )
        return digests, blocks

    def mutate(self, population, lib, backend, transcript=None):
        events = []
        out = mutate_population(
            population, lib, backend, self.pool(population), self.config,
            np.random.default_rng(0), PromptLibrary(), transcript, events, 0,
        )
        return out, events

    def test_jittered_backend_writes_identical_artifacts(self, planted_dir, tmp_path, monkeypatch):
        # _Jittery has no ``deterministic`` property, so it is asked every
        # chain; the stub is asked each distinct chain once
        outputs, calls = {}, Counter()
        complete = StubBackend.complete

        def counting(self, system, user):
            calls[name] += 1
            return complete(self, system, user)

        monkeypatch.setattr(StubBackend, "complete", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to shake out ordering faults
        try:
            for name in ("plain", "jittered"):
                config = tmp_path / f"{name}.json"
                write_demo_config(config, planted_dir, tmp_path / name, seed=0, generations=4)
                if name == "jittered":
                    monkeypatch.setattr("hinstruct.cli.make_backend", lambda spec: _Jittery())
                assert main(["search", "--config", str(config)]) == 0
                outputs[name] = {
                    f: (tmp_path / name / f).read_bytes()
                    for f in ("result.json", "curve.csv", "events.jsonl", "explanations.json", "transcripts.jsonl")
                }
        finally:
            sys.setswitchinterval(interval)
        assert outputs["plain"]["transcripts.jsonl"]
        assert outputs["jittered"] == outputs["plain"]
        assert 0 < calls["plain"] < calls["jittered"]

    @pytest.mark.parametrize("n", [2, 5])
    def test_agent_calls_overlap(self, planted_task, n):
        graph, _ = planted_task
        schema = graph.schema
        lib = build_component_library(schema, 10, 1, 3)
        backend = _Scripted(gate=min(n, AGENT_WORKERS))
        out, events = self.mutate(self.population(schema, n), lib, backend)
        assert backend.peak >= 2
        assert len(out) == n
        assert all("note" not in e for e in events)

    def test_one_failure_passes_through_with_serial_digest(self, planted_task):
        graph, _ = planted_task
        schema = graph.schema
        lib = build_component_library(schema, 10, 1, 3)
        population = self.population(schema, 4)
        digests, blocks = self.phase_one(population, lib, schema, self.pool(population))
        backend = _Scripted(marker=blocks[1], error=BackendError("model down"))
        out, events = self.mutate(population, lib, backend)
        assert [e["rng"] for e in events] == digests
        assert [e["origin"] for e in events] == [ind.key for ind in population]
        assert out[1] is population[1]
        assert events[1]["chosen"] == population[1].key
        assert "agent failure: " in events[1]["note"] and "model down" in events[1]["note"]
        for i in (0, 2, 3):
            assert "note" not in events[i] and out[i].key == events[i]["chosen"]

    @pytest.mark.parametrize("failing", [0, 2, 3])
    def test_other_exception_propagates_after_earlier_individuals(self, planted_task, tmp_path, failing):
        graph, _ = planted_task
        schema = graph.schema
        lib = build_component_library(schema, 10, 1, 3)
        population = self.population(schema, 4)
        _, blocks = self.phase_one(population, lib, schema, self.pool(population))

        plain = TranscriptLog(tmp_path / "plain.jsonl")
        _, plain_events = self.mutate(population, lib, StubBackend(), plain)
        plain_lines = (tmp_path / "plain.jsonl").read_text().splitlines()
        # the stub answers each prompt at once: one predictor and one selector exchange each
        assert len(plain_lines) == 2 * len(population)

        log_path = tmp_path / "failing.jsonl"
        log_path.touch()
        backend = _Scripted(marker=blocks[failing], error=ValueError("parser bug"))
        events = []
        with pytest.raises(ValueError, match="parser bug"):
            mutate_population(
                population, lib, backend, self.pool(population), self.config,
                np.random.default_rng(0), PromptLibrary(), TranscriptLog(log_path), events, 0,
            )
        assert log_path.read_text().splitlines() == plain_lines[: 2 * failing]
        assert events == plain_events[:failing]


class _Threaded(StubBackend):
    """The stub, asked from the thread pool as a backend that waits would be."""

    in_process = False


class TestInProcessDispatch:
    """An ``in_process`` backend is asked on the calling thread, any other from threads."""

    ARTIFACTS = ("result.json", "curve.csv", "events.jsonl", "explanations.json", "transcripts.jsonl")

    def search(self, planted_dir, out):
        config = out.with_suffix(".json")
        write_demo_config(config, planted_dir, out, seed=0, generations=4)
        assert main(["search", "--config", str(config)]) == 0
        return {f: (out / f).read_bytes() for f in self.ARTIFACTS}

    def record_threads(self, monkeypatch):
        """The threads ``StubBackend.complete`` ran on, and the threads started."""
        ran, started = set(), []
        complete, start = StubBackend.complete, threading.Thread.start

        def recording(self, system, user):
            ran.add(threading.current_thread())
            return complete(self, system, user)

        def counting(self):
            started.append(self)
            return start(self)

        monkeypatch.setattr(StubBackend, "complete", recording)
        monkeypatch.setattr(threading.Thread, "start", counting)
        return ran, started

    def test_stub_search_starts_no_thread(self, planted_dir, tmp_path, monkeypatch):
        ran, started = self.record_threads(monkeypatch)
        self.search(planted_dir, tmp_path / "plain")
        assert ran == {threading.current_thread()}
        assert started == []

    def test_threaded_stub_writes_identical_artifacts(self, planted_dir, tmp_path, monkeypatch):
        plain = self.search(planted_dir, tmp_path / "plain")
        ran, started = self.record_threads(monkeypatch)
        monkeypatch.setattr("hinstruct.cli.make_backend", lambda spec: _Threaded())
        assert self.search(planted_dir, tmp_path / "threaded") == plain
        assert plain["transcripts.jsonl"]
        # the chains ran on pool threads; the explainer runs on this one
        assert started and ran - {threading.current_thread()}


class _Counting:
    """Deterministic stub replies, counting prompts by task; the first
    ``failures`` calls raise ``BackendError``."""

    identity = "stub"
    deterministic = True

    def __init__(self, failures=0):
        self.stub = StubBackend()
        self.failures = failures
        self.calls = Counter()
        self.lock = threading.Lock()

    def complete(self, system, user):
        with self.lock:
            self.calls[user.split("\n", 1)[0]] += 1
            failing = self.failures > 0
            self.failures -= failing
        if failing:
            raise BackendError("model down")
        return self.stub.complete(system, user)


class TestChainMemo:
    """A deterministic backend is asked each distinct predictor-then-selector chain once."""

    config = SearchConfig(backoff=0.0, retries=2, candidate_cap=1000, pool_sample_size=30)
    PREDICT, SELECT = "TASK: PREDICT", "TASK: SELECT"

    def start(self, schema, n):
        """The library, n copies of one individual and a pool holding only it."""
        lib = build_component_library(schema, 10, 1, 3)
        ms = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        ind = Individual(ms, canonical_key(ms), encode_metastructure(ms, schema), 0.5)
        pool = PerformancePool()
        pool.insert(PoolRecord(ind.key, ind.sentence, 0.5, 0, ms.to_dict()))
        return lib, [ind] * n, pool

    def mutate(self, lib, population, pool, backend, chains=None, transcript=None, events=None):
        return mutate_population(
            population, lib, backend, pool, self.config, np.random.default_rng(0),
            PromptLibrary(), transcript, [] if events is None else events, 0, chains,
        )

    def test_equal_keys_give_byte_equal_prompts(self, schema):
        # the chain key is the offered keys in order plus the pool sample:
        # candidates numbered differently but equal in key must ask the same
        lib = build_component_library(schema, 10, 1, 3)
        rng = np.random.default_rng(5)
        sample = PoolSample(
            tuple((encode_metastructure(random_structure(schema, rng), schema), 0.1 * i) for i in range(4))
        )
        checked = 0
        while checked < 25:
            origin = random_structure(schema, rng, max_nodes=6)
            try:
                cands = one_step_neighbors(origin, lib, rng, cap=6)
            except EmptyNeighborhoodError:
                continue
            checked += 1
            twin = CandidateSet(
                tuple(Candidate(relabeled(c.structure, rng), c.key, c.descriptor) for c in cands.candidates),
                cands.sampled,
            )
            assert [canonical_key(c.structure) for c in twin.candidates] == [c.key for c in cands.candidates]
            exchanges = []
            for offered in (cands, twin):
                sentences = tuple(encode_metastructure(c.structure, schema) for c in offered.candidates)
                job = _MutationJob(None, "", offered, sentences, sample)
                buffer, decision = _choose(job, StubBackend(), PromptLibrary(), self.config)
                exchanges.append(buffer.exchanges)
            assert [e[0] for e in exchanges[0]] == ["predictor", "selector"]
            assert exchanges[1] == exchanges[0]

    def test_identical_individuals_ask_once(self, planted_task, tmp_path):
        schema = planted_task[0].schema
        lib, population, pool = self.start(schema, 5)
        backend, events = _Counting(), []
        log_path = tmp_path / "t.jsonl"
        out = self.mutate(lib, population, pool, backend, transcript=TranscriptLog(log_path), events=events)
        assert backend.calls == {self.PREDICT: 1, self.SELECT: 1}
        lines = log_path.read_text().splitlines()
        assert len(lines) == 10 and lines[2:] == lines[:2] * 4
        assert len({ind.key for ind in out}) == 1
        assert [e["chosen"] for e in events] == [out[0].key] * 5
        assert all(e["origin"] == population[0].key and "note" not in e for e in events)

    def test_backend_error_is_asked_again(self, planted_task):
        schema = planted_task[0].schema
        lib, population, pool = self.start(schema, 2)
        chains = LruMemo(8)
        backend = _Counting(failures=self.config.retries)
        events = []
        out = self.mutate(lib, population, pool, backend, chains, events=events)
        # both individuals share the one failed ask
        assert out == population and all("model down" in e["note"] for e in events)
        assert backend.calls == {self.PREDICT: self.config.retries}
        out = self.mutate(lib, population, pool, backend, chains)
        assert out[0].key != population[0].key
        assert backend.calls == {self.PREDICT: self.config.retries + 1, self.SELECT: 1}
        # a chain that got its answer is kept for the next generation
        self.mutate(lib, population, pool, backend, chains)
        assert backend.calls == {self.PREDICT: self.config.retries + 1, self.SELECT: 1}

    @pytest.mark.parametrize("temperature, calls", [(0.7, 6), (0.0, 2)])
    def test_http_backend_memoised_only_at_temperature_zero(self, planted_task, monkeypatch, temperature, calls):
        schema = planted_task[0].schema
        lib, population, pool = self.start(schema, 3)
        stub, sent = StubBackend(), []

        def answer(body):
            sent.append(body)
            system, user = (m["content"] for m in body["messages"])
            return 200, {"choices": [{"message": {"content": stub.complete(system, user)}}]}, {}

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen(answer))
        backend = HttpChatBackend(url="http://127.0.0.1:9/", model="m", temperature=temperature)
        assert backend.deterministic == (temperature == 0)
        out = self.mutate(lib, population, pool, backend)
        assert len(sent) == calls
        assert len({ind.key for ind in out}) == 1
