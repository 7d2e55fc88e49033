"""Evolutionary search loop: evaluate, eliminate, reproduce, mutate.

A population of meta-structures evolves for a fixed number of generations.
Fitness is the validation metric from the pluggable evaluator; every
evaluated structure is recorded once in the performance pool, keyed by
canonical key, and never re-evaluated. Mutation is agent-guided: the
predictor scores each structure's one-step neighbors against a sample of the
pool, the selector picks one, and the individual is replaced by it.

A structure over the flop budget (``sparse.MatrixBlowupError``) is
rejected, seed or child alike: a rejection event names it and its reason, it
gets no pool record, and it leaves the population, so reproduction refills
the population from the survivors. Passing it through instead would need its
origin, which mutation has already replaced. The pool remembers rejected
keys: a structure chosen again within its generation is rejected again
without a product, and mutation offers none of them again. A generation whose
every structure is rejected takes the previous generation's survivors, since
the agents steer copies of one structure to one child and one rejection
would otherwise end the search; when every seed is rejected there are none,
and the search aborts, as it does on a structure that does not fit the task
(``EvaluationError``).

Everything is deterministic given the configuration seed and the stub
backend; the event log captures each evaluation, rejection, elimination,
reproduction draw, and mutation decision together with an rng-state digest.

The explainer then contrasts each of the best distinct final structures with
the pool records one mutation event links to it; it draws and evaluates
nothing, so a rerun on the saved pool and event log writes the same reports.

Mutation runs in two phases. Phase 1, on the calling thread and in index
order, draws every individual's neighbourhood and pool sample, encodes the
candidates and takes the rng digest of its mutation event. It then picks
which chains to ask. A chain's two prompts are made from the offered
candidates' canonical keys, in offer order, and the pool sample, so with a
``deterministic`` backend (see ``agents``) that pair is the chain's key: a
chain is asked only for the first individual of each key that the search's
chain memo does not hold, and every other individual of that key takes its
answer. With any other backend every chain is asked.

Phase 2 asks each chain as one task and hands the answers back through one
iterator, in the order of the individuals that first asked them. With an
``in_process`` backend (see ``agents``) the iterator is a lazy ``map`` that
asks each chain on the calling thread when its first individual's turn comes,
since such a backend never waits and threads would only contend for the
interpreter lock. With any other backend it is ``executor.map`` over one
thread per task, at most ``AGENT_WORKERS``, since those agents mostly wait on
the backend; the tasks touch neither the rng nor the pool nor the read cache
nor the memo, so nothing is locked. Each task records into its own
transcript buffer; the calling thread takes the answers in index order,
replays each buffer into the transcript and then appends the individual's
own event. So transcripts and events come out in the same order, with the
same contents, however the tasks interleave, on whichever thread they run,
and whether an answer was asked for or reused.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .agents import (
    BackendError,
    EvaluatedStructure,
    PoolSample,
    PromptLibrary,
    ScoredCandidate,
    TranscriptBuffer,
    TranscriptLog,
    explain,
    predict_candidates,
    select_candidate,
)
from .evaluator import EvaluationError
from .hin import HinGraph, LruMemo, finite_number
from .mutations import (
    CandidateSet,
    EmptyNeighborhoodError,
    build_component_library,
    one_step_neighbors,
)
from .sparse import MatrixBlowupError
from .structure import MetaStructure, canonical_key, seed_population

log = logging.getLogger(__name__)

# Threads that run agent tasks at once in ``mutate_population`` for a backend
# that is not ``in_process``; above the default population of 5, so no chain
# of a generation waits for another.
AGENT_WORKERS = 8
# Chain answers a search keeps. Of the 150 chains of each seed-0 benchmark
# search, bounds of 1/2/8/unbounded reuse 115/141/141/141 on cls-slow-agent
# and 6 at each bound on rec-demo. An entry holds the chain's prompts and
# replies; its prompts average about 39,000 characters on rec-demo.
CHAIN_MEMO_ENTRIES = 8


@dataclass(frozen=True)
class SearchConfig:
    generations: int = 30
    population_size: int = 5
    elimination_rate: float = 0.2
    candidate_cap: int = 20
    pool_sample_size: int = 30
    seed: int = 0
    max_structure_nodes: int = 10
    insertion_max_interior: int = 1
    grafting_max_nodes: int = 3
    explain_top_k: int = 3
    explain_neighbors: int = 4
    retries: int = 3
    backoff: float = 1.0

    def __post_init__(self):
        # the annotations are strings here; a bool is not a count
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not (isinstance(value, int) and not isinstance(value, bool)):
                raise ValueError(f"{f.name} must be an integer, not {value!r}")
            if f.type == "float" and not finite_number(value):
                raise ValueError(f"{f.name} must be a finite number, not {value!r}")
        if self.population_size < 2:
            raise ValueError("population size must be at least 2")
        if not (0.0 < self.elimination_rate < 1.0):
            raise ValueError("elimination rate must lie strictly between 0 and 1")
        for name in ("generations", "seed", "backoff"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        # a structure has at least 2 positions, a component at least 2, and
        # an insertion component 2 plus its interior
        lows = {
            "candidate_cap": 1, "pool_sample_size": 1, "explain_top_k": 1, "explain_neighbors": 1,
            "retries": 1, "max_structure_nodes": 2, "insertion_max_interior": 0, "grafting_max_nodes": 2,
        }
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, not {getattr(self, name)}")
        # and no component may outgrow the structures it goes into
        n = self.max_structure_nodes
        if self.insertion_max_interior + 2 > n:
            raise ValueError(
                f"insertion_max_interior plus 2 must not exceed max_structure_nodes ({n}), "
                f"not {self.insertion_max_interior}"
            )
        if self.grafting_max_nodes > n:
            raise ValueError(
                f"grafting_max_nodes must not exceed max_structure_nodes ({n}), not {self.grafting_max_nodes}"
            )


@dataclass(frozen=True)
class Individual:
    structure: MetaStructure
    key: str
    sentence: str
    fitness: float | None = None


@dataclass(frozen=True)
class PoolRecord:
    key: str
    sentence: str
    fitness: float
    generation: int
    structure: dict


class PerformancePool:
    """Insert-once record of every evaluated structure across the run, and
    the reason of every rejected one by key."""

    def __init__(self):
        self._records: dict[str, PoolRecord] = {}
        self.rejected: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> PoolRecord | None:
        return self._records.get(key)

    def insert(self, record: PoolRecord):
        if record.key in self._records:
            raise RuntimeError(f"pool already holds key {record.key}")
        self._records[record.key] = record

    def records(self) -> list[PoolRecord]:
        return list(self._records.values())

    def sample(self, rng: np.random.Generator, size: int) -> PoolSample:
        """Without replacement when the pool exceeds ``size``, else everything."""
        records = self.records()
        if len(records) > size:
            picked = rng.choice(len(records), size=size, replace=False)
            picked.sort()
            records = [records[i] for i in picked]
        return PoolSample(tuple((r.sentence, r.fitness) for r in records))


def _rng_digest(rng: np.random.Generator) -> str:
    return hashlib.sha256(repr(rng.bit_generator.state).encode()).hexdigest()[:12]


def _rank(fitness: float, n_nodes: int, n_edges: int, key: str):
    """Ordering for "best": higher fitness, then fewer nodes and edges, then by key."""
    return (-fitness, n_nodes, n_edges, key)


def _record_rank(record: PoolRecord):
    s = record.structure
    return _rank(record.fitness, len(s["nodes"]), len(s["edges"]), record.key)


def eliminate(population, rate: float):
    """Drop the floor(N * rate) weakest individuals, at least one, but never
    the last one.

    Fitness ties eliminate the larger structure (edge count) first, then the
    lexicographically smaller canonical key.
    """
    n = len(population)
    k = min(max(1, math.floor(n * rate + 1e-9)), n - 1)
    order = sorted(
        range(n),
        key=lambda i: (population[i].fitness, -population[i].structure.n_edges, population[i].key),
    )
    removed_idx = set(order[:k])
    survivors = [population[i] for i in range(n) if i not in removed_idx]
    removed = [population[i] for i in order[:k]]
    return survivors, removed


def reproduce(survivors, size: int, rng: np.random.Generator):
    """Refill to ``size`` with i.i.d. fitness-proportional duplicates.

    All survivors are retained, so the generation best always carries over.
    """
    if not survivors:
        raise ValueError("no survivors to reproduce from")
    deficit = size - len(survivors)
    fitnesses = np.asarray([ind.fitness for ind in survivors], dtype=np.float64)
    total = fitnesses.sum()
    if total > 0:
        probs = fitnesses / total
    else:
        probs = np.full(len(survivors), 1.0 / len(survivors))
    if deficit <= 0:
        return list(survivors), []
    draws = rng.choice(len(survivors), size=deficit, replace=True, p=probs)
    population = list(survivors) + [survivors[int(i)] for i in draws]
    return population, [int(i) for i in draws]


def evaluate_population(population, evaluator, graph, split, pool, generation, events, rng):
    """Fitness for each individual, via the pool cache or a fresh evaluation.

    An individual whose structure is over the flop budget, now or when first
    offered, is dropped with a rejection event.
    """
    out = []
    for ind in population:
        record = pool.get(ind.key)
        cached = record is not None
        if record is None and ind.key not in pool.rejected:
            try:
                result = evaluator.evaluate(graph, split, ind.structure)
            except MatrixBlowupError as exc:
                pool.rejected[ind.key] = str(exc)
            else:
                record = PoolRecord(
                    key=ind.key,
                    sentence=ind.sentence,
                    fitness=result.value,
                    generation=generation,
                    structure=ind.structure.to_dict(),
                )
                pool.insert(record)
        if record is None:
            events.append(
                {
                    "event": "rejection",
                    "generation": generation,
                    "key": ind.key,
                    "reason": pool.rejected[ind.key],
                    "rng": _rng_digest(rng),
                }
            )
            continue
        events.append(
            {
                "event": "evaluation",
                "generation": generation,
                "key": ind.key,
                "fitness": record.fitness,
                "cached": cached,
                "rng": _rng_digest(rng),
            }
        )
        out.append(replace(ind, fitness=record.fitness))
    return out


def _pass_through(ind, note, events, generation, digest):
    """Record a mutation that keeps the individual unchanged; returns it."""
    events.append(
        {
            "event": "mutation",
            "generation": generation,
            "origin": ind.key,
            "chosen": ind.key,
            "note": note,
            "rng": digest,
        }
    )
    return ind


@dataclass(frozen=True)
class _MutationJob:
    """One individual's phase-1 draws; ``cands`` is None for an empty neighbourhood."""

    ind: Individual
    digest: str
    cands: CandidateSet | None = None
    sentences: tuple = ()
    sample: PoolSample | None = None


def _choose(job, backend, prompts, config):
    """Phase 2 for one individual: predictor, then selector.

    Returns the task's transcript buffer and its ``SelectorDecision``, or the
    ``BackendError`` that ended it; any other exception propagates.
    """
    buffer = TranscriptBuffer()
    try:
        preds = predict_candidates(
            backend, job.sentences, job.sample, prompts,
            retries=config.retries, backoff=config.backoff, transcript=buffer,
        )
        scored = [
            ScoredCandidate(
                sentence=job.sentences[i],
                p_hat=preds[i].p_hat,
                c_hat=preds[i].c_hat,
                n_nodes=c.structure.n_nodes,
                n_edges=c.structure.n_edges,
                key=c.key,
            )
            for i, c in enumerate(job.cands.candidates)
        ]
        return buffer, select_candidate(
            backend, scored, prompts,
            retries=config.retries, backoff=config.backoff, transcript=buffer,
        )
    except BackendError as exc:
        return buffer, exc


def mutate_population(
    population, lib, backend, pool, config: SearchConfig, rng, prompts, transcript, events,
    generation, chains: LruMemo | None = None,
):
    """Replace each individual with its agent-chosen one-step neighbor.

    Phase 1 draws each individual's neighbourhood, less the structures
    ``pool`` rejected, and its pool sample in index order on this thread and
    picks the chains to ask: with a ``deterministic`` backend, one per chain
    key that ``chains`` (the search's memo of answers; a fresh one when None)
    does not hold. Phase 2
    asks them on this thread for an ``in_process`` backend, else on up to
    ``AGENT_WORKERS`` threads, and this thread consumes the answers in index
    order: it replays each answer's exchanges into ``transcript``, then
    appends the individual's mutation event. An answer
    that ended in ``BackendError`` passes its individuals through and is
    not kept in ``chains``, so a later generation asks again; any other
    answer is kept. Any other exception propagates at that individual's
    turn, after every earlier individual's exchanges and event are recorded.
    """
    jobs = []
    for ind in population:
        try:
            cands = one_step_neighbors(ind.structure, lib, rng, config.candidate_cap)
        except EmptyNeighborhoodError:
            cands = None
        else:
            offered = tuple(c for c in cands.candidates if c.key not in pool.rejected)
            cands = replace(cands, candidates=offered) if offered else None
        if cands is None:
            jobs.append(_MutationJob(ind, _rng_digest(rng)))
            continue
        sample = pool.sample(rng, config.pool_sample_size)
        sentences = tuple(lib.sentence(c.structure) for c in cands.candidates)
        jobs.append(_MutationJob(ind, _rng_digest(rng), cands, sentences, sample))

    memo = None
    if getattr(backend, "deterministic", False):
        memo = chains if chains is not None else LruMemo(CHAIN_MEMO_ENTRIES)
    # chain key of each job (its index when nothing is memoised), the answers
    # known before asking, and the first job of each key still to ask
    keys, answers, asked = [], {}, {}
    for i, job in enumerate(jobs):
        if job.cands is None:
            keys.append(None)
            continue
        key = i if memo is None else (tuple(c.key for c in job.cands.candidates), job.sample)
        keys.append(key)
        if key in answers or key in asked:
            continue
        answer = None if memo is None else memo.get(key)
        if answer is not None:
            answers[key] = answer
        else:
            asked[key] = job
    log.info(
        "generation %d: asked the backend %d agent chain(s), took %d from the memo",
        generation, len(asked), sum(key is not None for key in keys) - len(asked),
    )

    choose = functools.partial(_choose, backend=backend, prompts=prompts, config=config)
    out = []
    with ExitStack() as stack:
        if getattr(backend, "in_process", False):
            fresh = map(choose, asked.values())
        else:
            executor = stack.enter_context(
                ThreadPoolExecutor(max_workers=max(1, min(len(asked), AGENT_WORKERS)))
            )
            fresh = executor.map(choose, asked.values())
        for job, key in zip(jobs, keys):
            ind = job.ind
            if job.cands is None:
                out.append(_pass_through(ind, "empty neighborhood", events, generation, job.digest))
                continue
            if key not in answers:
                # the first individual of each key still to ask comes in
                # ``asked`` order, so the next fresh answer is this key's
                answers[key] = next(fresh)
                if memo is not None and not isinstance(answers[key][1], BackendError):
                    memo.put(key, answers[key])
            buffer, decision = answers[key]
            if transcript is not None:
                buffer.replay(transcript)
            if isinstance(decision, BackendError):
                log.warning("agents failed for %s; individual passes through: %s", ind.key, decision)
                out.append(
                    _pass_through(ind, f"agent failure: {decision}", events, generation, job.digest)
                )
                continue
            chosen = job.cands.candidates[decision.index]
            events.append(
                {
                    "event": "mutation",
                    "generation": generation,
                    "origin": ind.key,
                    "chosen": chosen.key,
                    "descriptor": chosen.descriptor,
                    "sampled": job.cands.sampled,
                    "flagged": decision.fallback,
                    "rng": job.digest,
                }
            )
            out.append(Individual(chosen.structure, chosen.key, job.sentences[decision.index]))
    return out


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_key: str
    best_fitness: float
    mean_fitness: float
    population: tuple


@dataclass
class SearchResult:
    config: SearchConfig
    generations: list
    final_best: PoolRecord | None
    pool: PerformancePool
    events: list
    explanations: list = field(default_factory=list)
    aborted: str | None = None

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "generations": [asdict(g) for g in self.generations],
            "final_best": None if self.final_best is None else asdict(self.final_best),
            "pool": [asdict(r) for r in self.pool.records()],
            "aborted": self.aborted,
        }

    def curve_rows(self):
        return [(g.generation, g.best_fitness, g.mean_fitness) for g in self.generations]


def _generation_record(generation, population) -> GenerationRecord:
    best = min(
        population, key=lambda i: _rank(i.fitness, i.structure.n_nodes, i.structure.n_edges, i.key)
    )
    mean = float(np.mean([i.fitness for i in population]))
    return GenerationRecord(
        generation=generation,
        best_key=best.key,
        best_fitness=best.fitness,
        mean_fitness=mean,
        population=tuple(i.key for i in population),
    )


def run_search(
    config: SearchConfig,
    graph: HinGraph,
    split,
    backend,
    evaluator,
    prompts: PromptLibrary | None = None,
    transcript: TranscriptLog | None = None,
) -> SearchResult:
    schema = graph.schema
    prompts = prompts or PromptLibrary()
    rng = np.random.default_rng(config.seed)
    lib = build_component_library(
        schema, config.max_structure_nodes, config.insertion_max_interior, config.grafting_max_nodes
    )
    seeds = seed_population(
        schema, *split.endpoints(schema), config.population_size, config.max_structure_nodes
    )
    population = [Individual(ms, canonical_key(ms), lib.sentence(ms)) for ms in seeds]

    pool = PerformancePool()
    chains = LruMemo(CHAIN_MEMO_ENTRIES)
    events: list[dict] = []
    gen_records: list[GenerationRecord] = []
    survivors = []
    aborted = None

    try:
        for generation in range(config.generations + 1):
            # a generation that rejections empty takes the last survivors
            population = evaluate_population(
                population, evaluator, graph, split, pool, generation, events, rng
            ) or evaluate_population(survivors, evaluator, graph, split, pool, generation, events, rng)
            if not population:
                raise EvaluationError(
                    f"every seed is over the flop budget: {next(iter(pool.rejected.values()))}"
                )
            gen_records.append(_generation_record(generation, population))
            if generation == config.generations:
                break
            survivors, removed = eliminate(population, config.elimination_rate)
            events.append(
                {
                    "event": "elimination",
                    "generation": generation,
                    "removed": [ind.key for ind in removed],
                    "rng": _rng_digest(rng),
                }
            )
            population, draws = reproduce(survivors, config.population_size, rng)
            for draw in draws:
                events.append(
                    {
                        "event": "reproduction_draw",
                        "generation": generation,
                        "survivor_index": draw,
                        "key": survivors[draw].key,
                        "rng": _rng_digest(rng),
                    }
                )
            population = mutate_population(
                population, lib, backend, pool, config, rng, prompts,
                transcript, events, generation, chains,
            )
    except EvaluationError as exc:
        log.error("search aborted by evaluator failure: %s", exc)
        aborted = str(exc)

    final_best = min(pool.records(), key=_record_rank) if len(pool) else None

    result = SearchResult(
        config=config,
        generations=gen_records,
        final_best=final_best,
        pool=pool,
        events=events,
        aborted=aborted,
    )
    if aborted is None and gen_records:
        result.explanations = explain_top_structures(
            config, backend, evaluator.metric, pool, events,
            gen_records[-1].population, prompts, transcript,
        )
    return result


def search_neighbors(events, key: str, limit: int) -> list[str]:
    """The first ``limit`` distinct keys, in event-log order, that a mutation
    event links to ``key``: its ``chosen`` where ``origin`` is ``key``, its
    ``origin`` where ``chosen`` is. A pass-through links nothing, and a key
    that a rejection event names, which has no fitness, is left out."""
    rejected = {e["key"] for e in events if e.get("event") == "rejection"}
    linked = (
        e["chosen"] if e["origin"] == key else e["origin"]
        for e in events
        if e.get("event") == "mutation" and e["origin"] != e["chosen"]
        and key in (e["origin"], e["chosen"])
    )
    return [k for k in dict.fromkeys(linked) if k not in rejected][:limit]


def explain_top_structures(
    config, backend, metric: str, pool, events, final_keys, prompts, transcript,
    strict_backend: bool = False,
):
    """Differential explanations for the top-k distinct final structures,
    each against its ``search_neighbors`` and their pool fitnesses; a target
    with none is skipped. With ``strict_backend`` a backend failure
    propagates instead of merely skipping the affected report.
    """
    records = sorted(map(pool.get, dict.fromkeys(final_keys)), key=_record_rank)
    if config.explain_top_k > len(records):
        log.warning(
            "explain_top_k=%d exceeds %d distinct final structures; explaining all",
            config.explain_top_k, len(records),
        )

    reports = []
    for record in records[: config.explain_top_k]:
        keys = search_neighbors(events, record.key, config.explain_neighbors)
        if not keys:
            log.warning("no neighbors to contrast %s against; skipping report", record.key)
            continue
        target, *neighbors = (
            EvaluatedStructure(key=r.key, sentence=r.sentence, metric=metric, value=r.fitness)
            for r in [record, *map(pool.get, keys)]
        )
        try:
            reports.append(
                explain(
                    backend, target, neighbors, prompts,
                    retries=config.retries, backoff=config.backoff, transcript=transcript,
                )
            )
        except BackendError as exc:
            if strict_backend:
                raise
            log.warning("explainer skipped %s: %s", record.key, exc)
    return reports
