"""Span tracer that wraps hinstruct's public boundaries from outside the package.

``Tracer.install`` replaces each boundary in ``BOUNDARIES`` -- in its defining
module and in every hinstruct module that imported it by name -- with a wrapper
that records one span per call and hands arguments and results through
untouched. A span is ``[id, parent id, name, start, end, failed]``, times from
``time.perf_counter``; every span of one run shares the tracer's ``run_id``.
Observers on a few boundaries add counts where the work happens (flops, bytes,
reply sizes); they run after the span has closed. Spans stay in memory until
``dump`` writes them out. The program is single-threaded, so one stack of open
spans gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import uuid
from collections import Counter


def _nbytes(m):
    return m.indptr.nbytes + m.indices.nbytes + m.data.nbytes


def _observe_matmul(counters, args, result):
    counters["sparse.matmul.bytes"] += _nbytes(args[0]) + _nbytes(args[1]) + _nbytes(result)


def _observe_flops(counters, args, result):
    counters["sparse.matmul.flops"] += result


def _observe_evaluate(counters, args, result):
    counters.structures.append(args[3])


def _observe_neighbors(counters, args, result):
    counters["mutations.offered"] += len(result.candidates)


def _observe_complete(counters, args, result):
    counters["agents.prompt_chars"] += len(args[1]) + len(args[2])
    counters["agents.reply_chars"] += len(result)


def _observe_select(counters, args, result):
    counters["agents.fallbacks"] += int(result.fallback)


def _observe_load_graph(counters, args, result):
    counters["hin.edges"] += sum(m.nnz for m in result.adjacency.values())


def _observe_run_search(counters, args, result):
    counters["evolution.pool_size"] = len(result.pool)


# module -> {boundary: observer or None}; "Class.method" names a method.
BOUNDARIES = {
    "hinstruct.cli": {"build_task": None, "make_backend": None, "cmd_search": None},
    "hinstruct.hin": {"load_schema": None, "load_graph": _observe_load_graph,
                      "load_ratings": None, "load_labels": None, "binarize_ratings": None},
    "hinstruct.splits": {"make_recommendation_split": None, "make_node_label_split": None},
    "hinstruct.evaluator": {
        "RecommendationEvaluator.evaluate": _observe_evaluate,
        "NodeClassificationEvaluator.evaluate": _observe_evaluate,
        "structure_score_matrix": None, "path_commuting_matrix": None,
        "auc": None, "macro_f1": None,
    },
    "hinstruct.sparse": {"SparseMatrix.matmul": _observe_matmul, "SparseMatrix.hadamard": None,
                         "SparseMatrix.row_normalize": None, "SparseMatrix.pick": None},
    "hinstruct.kernels": {"spgemm_flops": _observe_flops},
    "hinstruct.evolution": {"run_search": _observe_run_search, "evaluate_population": None,
                            "mutate_population": None, "explain_top_structures": None},
    "hinstruct.mutations": {"one_step_neighbors": _observe_neighbors, "neighbors_insertion": None,
                            "neighbors_grafting": None, "neighbors_deletion": None},
    "hinstruct.structure": {"validate": None, "canonical_key": None},
    "hinstruct.grammar": {"encode_metastructure": None},
    "hinstruct.agents": {
        "predict_candidates": None, "select_candidate": _observe_select, "explain": None,
        "StubBackend.complete": _observe_complete, "HttpChatBackend.complete": _observe_complete,
        "clause_jaccard": None, "TranscriptLog.record": None,
    },
}


class Counters(Counter):
    """Named counts, plus the structures handed to the evaluator."""

    def __init__(self):
        super().__init__()
        self.structures = []


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self.stack = []
        self.counters = Counters()
        self._undo = []

    def install(self):
        """Wrap every boundary; the modules must already be imported."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hinstruct" and m is not None]
        for mod_name, names in BOUNDARIES.items():
            mod = sys.modules[mod_name]
            short = mod_name.split(".", 1)[1]
            for name, observer in names.items():
                span_name = f"{short}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, self._wrap(span_name, raw, observer))
                    continue
                fn = getattr(mod, name)
                wrapper = self._wrap(span_name, fn, observer)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._undo.append((other, attr, fn))
                            setattr(other, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn, observer):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, False]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if observer is not None:
                observer(counters, args, result)
            return result

        return wrapper

    def dump(self, path, extra_counters):
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "run_id": self.run_id,
            "names": names,
            "spans": [[s[0], s[1], index[s[2]], s[3], s[4], s[5]] for s in self.spans],
            "counters": {**self.counters, **extra_counters},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
