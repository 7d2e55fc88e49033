"""One search of a benchmark workload, in a fresh interpreter.

Runs ``hinstruct.cli.main(["search", ...])``, the entry point behind
``hinstruct search``, and writes a JSON report:

* ``setup_s``: from ``--started-at`` (the parent's clock just before it
  started this process) to the start of ``run_search``: imports, config,
  ``load_graph``, the split, the backend and the prompts;
* ``search_s``: wall time of ``run_search``, explainer included;
* ``run_s``: from ``--started-at`` until the five artifacts are on disk;
* ``peak_rss_mb``: this process's peak resident memory at that point;
* ``best_val``, ``recheck_val``, ``best_test``: the final best's val fitness
  as reported, the same structure re-evaluated on val, and its test score;
* ``exit_code`` of the search command and the kernel ``backend``.

``--setup-only`` stops where the search would start and reports ``setup_s``.
``--trace FILE`` records spans around the public boundaries listed in
``tracer.BOUNDARIES`` for the search command and writes them to FILE.

Usage: python3 bench/workload.py --config CFG --out DIR --report FILE
                                 --started-at EPOCH_S [--setup-only | --trace FILE]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


class _SetupDone(Exception):
    pass


def _needed_prefixes(structures):
    """Distinct edge-type prefixes (two or more edges) over the structures' paths.

    Each is one product a prefix-keyed path cache would compute.
    """
    from hinstruct.structure import enumerate_paths

    prefixes = set()
    for ms in structures:
        for path in enumerate_paths(ms):
            edges = path.edge_types
            prefixes.update(edges[:k] for k in range(2, len(edges) + 1))
    return len(prefixes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--started-at", type=float, required=True, dest="started_at")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true", dest="setup_only")
    mode.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from hinstruct import cli, kernels
    from hinstruct.structure import MetaStructure

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    seen = {}
    inner = cli.run_search

    def timed_run_search(*a, **kw):
        seen["search_started"] = time.time()
        seen["graph"], seen["split"], seen["evaluator"] = a[1], a[2], a[4]
        if args.setup_only:
            raise _SetupDone
        t0 = time.perf_counter()
        result = inner(*a, **kw)
        seen["search_s"] = time.perf_counter() - t0
        seen["result"] = result
        return result

    cli.run_search = timed_run_search
    report = {"backend": kernels.BACKEND}
    try:
        report["exit_code"] = cli.main(["search", "--config", args.config, "--out", args.out])
    except _SetupDone:
        report["setup_s"] = seen["search_started"] - args.started_at
        Path(args.report).write_text(json.dumps(report), encoding="utf-8")
        return 0
    report["run_s"] = time.time() - args.started_at
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()

    if "search_started" in seen:
        report["setup_s"] = seen["search_started"] - args.started_at
    if "result" in seen:
        result = seen["result"]
        report["search_s"] = seen["search_s"]
        if result.final_best is not None:
            graph, split, evaluator = seen["graph"], seen["split"], seen["evaluator"]
            best = MetaStructure.from_dict(result.final_best.structure)
            report["best_val"] = result.final_best.fitness
            report["recheck_val"] = evaluator.evaluate(graph, split, best).value
            test = dataclasses.replace(evaluator, part="test")
            report["best_test"] = test.evaluate(graph, split, best).value
    if tracer is not None:
        extra = {"sparse.matmul.needed": _needed_prefixes(tracer.counters.structures)}
        tracer.dump(args.trace, extra)
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
