"""Per-layer metrics from a traced search.

Inputs: the span dump ``tracer.Tracer.dump`` wrote, the untraced and traced
searches' reports, the traced search's output directory, and, for an HTTP
backend, the fake server's log lines for the traced search. ``busy_s`` is the
summed duration of a boundary's spans, children included; ``self_times`` gives
each boundary's time minus what its child spans cover.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict

# (name, unit) in print order; BENCHMARK.json's per_layer lists the same names.
PER_LAYER = [
    ("hin.load_s", "s"), ("hin.edges", "count"), ("splits.build_s", "s"),
    ("evaluator.calls", "count"), ("evaluator.busy_s", "s"), ("evaluator.p50_ms", "ms"),
    ("evaluator.failed", "count"), ("evaluator.metric.busy_s", "s"),
    ("sparse.matmul.calls", "count"), ("sparse.matmul.busy_s", "s"),
    ("sparse.matmul.flops", "flop"), ("sparse.matmul.bytes", "bytes-computed"),
    ("sparse.matmul.needed", "count"), ("sparse.matmul.useful_frac", "ratio"),
    ("sparse.hadamard.calls", "count"), ("sparse.hadamard.busy_s", "s"),
    ("sparse.row_normalize.busy_s", "s"), ("sparse.pick.busy_s", "s"),
    ("evolution.evaluate.busy_s", "s"), ("evolution.mutate.busy_s", "s"),
    ("evolution.explain.busy_s", "s"), ("evolution.pool_size", "count"),
    ("evolution.cached_frac", "ratio"),
    ("mutations.neighbors.calls", "count"), ("mutations.neighbors.busy_s", "s"),
    ("mutations.insertion.busy_s", "s"), ("mutations.grafting.busy_s", "s"),
    ("mutations.deletion.busy_s", "s"), ("mutations.offered", "count"),
    ("mutations.useful_frac", "ratio"),
    ("structure.validate.calls", "count"), ("structure.validate.busy_s", "s"),
    ("structure.canonical_key.calls", "count"), ("structure.canonical_key.busy_s", "s"),
    ("grammar.encode.calls", "count"), ("grammar.encode.busy_s", "s"),
    ("agents.predictor.calls", "count"), ("agents.predictor.busy_s", "s"),
    ("agents.selector.calls", "count"), ("agents.selector.busy_s", "s"),
    ("agents.explainer.calls", "count"), ("agents.explainer.busy_s", "s"),
    ("agents.backend.calls", "count"), ("agents.backend.wait_s", "s"),
    ("agents.backend.p50_ms", "ms"), ("agents.backend.p90_ms", "ms"),
    ("agents.overhead_s", "s"), ("agents.transport_s", "s"),
    ("agents.prompt_chars", "chars"), ("agents.reply_chars", "chars"),
    ("agents.retries", "count"), ("agents.fallbacks", "count"), ("agents.failed", "count"),
    ("agents.stub.jaccard_calls", "count"), ("agents.stub.busy_s", "s"),
    ("io.transcript.busy_s", "s"), ("io.transcript.bytes", "bytes"),
    ("io.artifacts.write_s", "s"), ("io.artifacts.bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
]
# A p90 is reported only over at least this many samples, so that ten lie beyond it.
P90_MIN_SAMPLES = 100

EVALUATE = ("evaluator.RecommendationEvaluator.evaluate",
            "evaluator.NodeClassificationEvaluator.evaluate")
BACKEND = ("agents.StubBackend.complete", "agents.HttpChatBackend.complete")
ARTIFACTS = ("result.json", "curve.csv", "events.jsonl", "explanations.json")


def _p90(values):
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


class Spans:
    def __init__(self, dump):
        names = dump["names"]
        self.rows = [(s[0], s[1], names[s[2]], s[3], s[4], s[5]) for s in dump["spans"]]
        self.durations = defaultdict(list)
        self.failures = defaultdict(int)
        self.last_end = {}
        for _, _, name, start, end, failed in self.rows:
            self.durations[name].append(end - start)
            self.failures[name] += failed
            self.last_end[name] = end

    def calls(self, *names):
        return sum(len(self.durations[n]) for n in names)

    def busy(self, *names):
        return sum(sum(self.durations[n]) for n in names)

    def all_durations(self, *names):
        return [d for n in names for d in self.durations[n]]


def self_times(dump) -> dict:
    """Seconds per boundary not covered by its child spans (children never overlap)."""
    spans = Spans(dump)
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans.rows:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(float)
    for sid, _, name, start, end, _ in spans.rows:
        out[name] += end - start - child_time[sid]
    return dict(out)


def per_layer(dump, untraced, traced, out_dir, server_lines) -> dict:
    """Metric name -> value for every entry of PER_LAYER, plus ``evaluator.p90_ms``
    when the evaluator ran at least P90_MIN_SAMPLES times."""
    s = Spans(dump)
    counters = dump["counters"]
    events = [json.loads(line) for line in (out_dir / "events.jsonl").read_text().splitlines()]
    evaluations = [e for e in events if e["event"] == "evaluation"]
    eval_ms = [d * 1000 for d in s.all_durations(*EVALUATE)]
    backend_ms = [d * 1000 for d in s.all_durations(*BACKEND)]
    agent_busy = s.busy("agents.predict_candidates", "agents.select_candidate", "agents.explain")
    wait = s.busy(*BACKEND)
    agent_ops = (s.calls("agents.predict_candidates") + s.calls("agents.select_candidate")
                 + 2 * s.calls("agents.explain"))
    server_s = sum(line["server_s"] for line in server_lines) if server_lines is not None else wait
    m = {
        "hin.load_s": s.busy("hin.load_schema", "hin.load_graph", "hin.load_ratings",
                             "hin.load_labels", "hin.binarize_ratings"),
        "hin.edges": counters.get("hin.edges", 0),
        "splits.build_s": s.busy("splits.make_recommendation_split", "splits.make_node_label_split"),
        "evaluator.calls": len(eval_ms),
        "evaluator.busy_s": sum(eval_ms) / 1000,
        "evaluator.p50_ms": statistics.median(eval_ms) if eval_ms else 0.0,
        "evaluator.failed": sum(s.failures[n] for n in EVALUATE),
        "evaluator.metric.busy_s": s.busy("evaluator.auc", "evaluator.macro_f1"),
        "sparse.matmul.calls": s.calls("sparse.SparseMatrix.matmul"),
        "sparse.matmul.busy_s": s.busy("sparse.SparseMatrix.matmul"),
        "sparse.matmul.flops": counters.get("sparse.matmul.flops", 0),
        "sparse.matmul.bytes": counters.get("sparse.matmul.bytes", 0),
        "sparse.matmul.needed": counters["sparse.matmul.needed"],
        "sparse.hadamard.calls": s.calls("sparse.SparseMatrix.hadamard"),
        "sparse.hadamard.busy_s": s.busy("sparse.SparseMatrix.hadamard"),
        "sparse.row_normalize.busy_s": s.busy("sparse.SparseMatrix.row_normalize"),
        "sparse.pick.busy_s": s.busy("sparse.SparseMatrix.pick"),
        "evolution.evaluate.busy_s": s.busy("evolution.evaluate_population"),
        "evolution.mutate.busy_s": s.busy("evolution.mutate_population"),
        "evolution.explain.busy_s": s.busy("evolution.explain_top_structures"),
        "evolution.pool_size": counters.get("evolution.pool_size", 0),
        "evolution.cached_frac": (sum(e["cached"] for e in evaluations) / len(evaluations)
                                  if evaluations else 0.0),
        "mutations.neighbors.calls": s.calls("mutations.one_step_neighbors"),
        "mutations.neighbors.busy_s": s.busy("mutations.one_step_neighbors"),
        "mutations.insertion.busy_s": s.busy("mutations.neighbors_insertion"),
        "mutations.grafting.busy_s": s.busy("mutations.neighbors_grafting"),
        "mutations.deletion.busy_s": s.busy("mutations.neighbors_deletion"),
        "mutations.offered": counters.get("mutations.offered", 0),
        "structure.validate.calls": s.calls("structure.validate"),
        "structure.validate.busy_s": s.busy("structure.validate"),
        "structure.canonical_key.calls": s.calls("structure.canonical_key"),
        "structure.canonical_key.busy_s": s.busy("structure.canonical_key"),
        "grammar.encode.calls": s.calls("grammar.encode_metastructure"),
        "grammar.encode.busy_s": s.busy("grammar.encode_metastructure"),
        "agents.predictor.calls": s.calls("agents.predict_candidates"),
        "agents.predictor.busy_s": s.busy("agents.predict_candidates"),
        "agents.selector.calls": s.calls("agents.select_candidate"),
        "agents.selector.busy_s": s.busy("agents.select_candidate"),
        "agents.explainer.calls": s.calls("agents.explain"),
        "agents.explainer.busy_s": s.busy("agents.explain"),
        "agents.backend.calls": len(backend_ms),
        "agents.backend.wait_s": wait,
        "agents.backend.p50_ms": statistics.median(backend_ms) if backend_ms else 0.0,
        "agents.backend.p90_ms": _p90(backend_ms) if backend_ms else 0.0,
        "agents.overhead_s": agent_busy - wait,
        "agents.transport_s": wait - server_s,
        "agents.prompt_chars": counters.get("agents.prompt_chars", 0),
        "agents.reply_chars": counters.get("agents.reply_chars", 0),
        "agents.retries": max(0, len(backend_ms) - agent_ops),
        "agents.fallbacks": counters.get("agents.fallbacks", 0),
        "agents.failed": sum(s.failures[n] for n in BACKEND),
        "agents.stub.jaccard_calls": s.calls("agents.clause_jaccard"),
        "agents.stub.busy_s": s.busy("agents.StubBackend.complete"),
        "io.transcript.busy_s": s.busy("agents.TranscriptLog.record"),
        "io.transcript.bytes": (out_dir / "transcripts.jsonl").stat().st_size,
        "io.artifacts.write_s": s.last_end["cli.cmd_search"] - s.last_end["evolution.run_search"],
        "io.artifacts.bytes": sum((out_dir / name).stat().st_size for name in ARTIFACTS),
        "trace.overhead_frac": traced["search_s"] / untraced["search_s"] - 1,
    }
    calls = m["sparse.matmul.calls"]
    m["sparse.matmul.useful_frac"] = m["sparse.matmul.needed"] / calls if calls else 1.0
    validations = m["structure.validate.calls"]
    m["mutations.useful_frac"] = m["mutations.offered"] / validations if validations else 1.0
    if len(eval_ms) >= P90_MIN_SAMPLES:
        m["evaluator.p90_ms"] = _p90(eval_ms)
    return m
