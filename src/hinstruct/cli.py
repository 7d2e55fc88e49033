"""Command-line interface.

Subcommands: ``search`` (full evolutionary run), ``translate`` (structure to
sentence), ``evaluate`` (score one structure), ``neighbors`` (list one-step
neighbors), ``explain`` (re-run the differential explainer on a search's
``result.json`` and ``events.jsonl``, loading only the schema, into
``explain-explanations.json`` and ``explain-transcripts.jsonl``: names a
search never writes, so a rerun into its directory writes its reports again
and leaves its artifacts as they were).

``hinstruct neighbors S --config C [--seed N]`` lists the neighbors a search
of config C would draw for structure S: the schema comes from the dataset
directory, and the cap, the three size limits and the seed from the config's
``search``, with ``--seed`` overriding the seed as in ``search`` and
``evaluate``.

The run config (``--config``) is checked once, when it is loaded, and the
backend is built then; an http backend's settings are ``HttpChatBackend``'s.
An unknown key at the top level or in ``task``, ``search`` or ``backend`` is
rejected by name, so a misspelt setting fails the run instead of silently
taking its default.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 backend
error. Output files are written atomically (temp file plus rename); a file
that cannot be written is a data error naming it. ``search`` and ``explain``
refuse an output path that is a directory before they load anything. Log
messages go to stderr at ``--log-level`` and above (default ``warning``);
at ``info`` a search logs, per generation, how many agent chains it asked
the backend and how many it reused.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import BackendError, HttpChatBackend, PromptLibrary, StubBackend, TranscriptLog
from .evaluator import (
    EvaluationError,
    NodeClassificationEvaluator,
    RecommendationEvaluator,
    check_endpoints,
)
from .evolution import (
    PerformancePool,
    PoolRecord,
    SearchConfig,
    explain_top_structures,
    run_search,
)
from .grammar import GrammarError, encode_metastructure
from .hin import (
    DataError,
    SchemaError,
    binarize_ratings,
    finite_number,
    load_graph,
    load_labels,
    load_ratings,
    load_schema,
    read_json,
)
from .mutations import (
    EmptyNeighborhoodError,
    build_component_library,
    one_step_neighbors,
)
from .sparse import MatrixBlowupError
from .splits import SplitError, make_node_label_split, make_recommendation_split, task_endpoints
from .structure import MetaStructure, StructureError, validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

DEFAULT_API_KEY_ENV = "HINSTRUCT_API_KEY"

# the keys a config may hold at its top level, in ``task`` and in ``backend``
# (``search`` takes SearchConfig's fields); an http backend's key comes from
# the environment variable ``api_key_env``, never from the file
_TOP_LEVEL_KEYS = (
    "dataset_dir", "task", "rating_threshold", "split_ratio", "search", "backend",
    "output_dir", "prompt_dir",
)
_TASK_KEYS = ("kind", "target_relation", "target_type")
_BACKEND_KEYS = (
    {f.name for f in dataclasses.fields(HttpChatBackend)} - {"api_key"} | {"kind", "api_key_env"}
)
# the evaluator class of each task kind
_EVALUATORS = {"recommendation": RecommendationEvaluator, "classification": NodeClassificationEvaluator}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class RunConfig:
    dataset_dir: Path
    task_kind: str  # "recommendation" | "classification"
    target: str  # edge type name or node type name
    rating_threshold: int
    split_ratio: tuple
    search: SearchConfig
    backend: object  # the chat backend, from ``make_backend``
    output_dir: Path
    prompt_dir: Path | None

    @classmethod
    def load(cls, path, seed_override=None, out_override=None) -> "RunConfig":
        path = Path(path)
        payload = read_json(path, "config file")
        if not isinstance(payload, dict):
            raise DataError(
                f"config {path}: the top level must be an object, not {type(payload).__name__}"
            )
        _reject_unknown(payload, _TOP_LEVEL_KEYS, "", path)

        dataset_dir = _path(payload, "dataset_dir", path)
        if not dataset_dir.is_dir():
            raise DataError(f"config {path}: dataset directory not found: {dataset_dir}")

        task = _section(payload, "task", path)
        _reject_unknown(task, _TASK_KEYS, "task.", path)
        kind = task.get("kind")
        if kind == "recommendation":
            target_field = "target_relation"
        elif kind == "classification":
            target_field = "target_type"
        else:
            raise DataError(
                f"config {path}: task.kind must be 'recommendation' or 'classification', not {kind!r}"
            )
        target = task.get(target_field)
        if target is None:
            raise DataError(f"config {path}: task.{target_field} is missing; a {kind} task needs it")
        if not (isinstance(target, str) and target):
            raise DataError(f"config {path}: task.{target_field} must be a non-empty name, not {target!r}")

        search_payload = dict(_section(payload, "search", path))
        if seed_override is not None:
            search_payload["seed"] = seed_override
        search_keys = [f.name for f in dataclasses.fields(SearchConfig)]
        _reject_unknown(search_payload, search_keys, "search.", path)
        try:
            search = SearchConfig(**search_payload)
        except (TypeError, ValueError) as exc:
            raise DataError(f"config {path}: invalid search config: {exc}") from exc

        backend_spec = _section(payload, "backend", path) or {"kind": "stub"}
        _reject_unknown(backend_spec, _BACKEND_KEYS, "backend.", path)
        if backend_spec.get("kind") not in ("stub", "http"):
            raise DataError(f"config {path}: backend.kind must be 'stub' or 'http'")
        try:
            backend = make_backend(backend_spec)
        except TypeError as exc:  # a required setting is missing
            raise DataError(f"config {path}: backend: {exc}") from exc
        except ValueError as exc:  # the message starts with the setting's name
            raise DataError(f"config {path}: backend.{exc}") from exc

        if out_override:
            output_dir = Path(out_override)
        else:
            output_dir = _path(payload, "output_dir", path, "hinstruct-out")
        prompt_dir = None
        if payload.get("prompt_dir") is not None:
            prompt_dir = _path(payload, "prompt_dir", path)
            if not prompt_dir.is_dir():
                raise DataError(f"config {path}: prompt directory not found: {prompt_dir}")

        rating_threshold = payload.get("rating_threshold", 2)
        if type(rating_threshold) is not int:
            raise DataError(
                f"config {path}: rating_threshold must be an integer, not {rating_threshold!r}"
            )
        split_ratio = payload.get("split_ratio", [3, 1, 1])
        if not (
            isinstance(split_ratio, list) and len(split_ratio) == 3
            and all(type(r) is int and r >= 0 for r in split_ratio) and sum(split_ratio) > 0
        ):
            raise DataError(f"config {path}: split_ratio must be three integers >= 0, not all 0")

        return cls(
            dataset_dir=dataset_dir,
            task_kind=kind,
            target=target,
            rating_threshold=rating_threshold,
            split_ratio=tuple(split_ratio),
            search=search,
            backend=backend,
            output_dir=output_dir,
            prompt_dir=prompt_dir,
        )

    def target_id(self, schema) -> int:
        """The schema id of the configured target: an edge type id for a
        recommendation task, a node type id for a classification task."""
        if self.task_kind == "recommendation":
            return schema.edge_type_by_name(self.target).id
        return schema.node_type_by_name(self.target).id


def _at_least_one(text: str) -> int:
    """argparse type of a count flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _section(payload: dict, name: str, path) -> dict:
    """The config's object ``name``; empty when absent or null."""
    value = payload.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise DataError(f"config {path}: {name} must be an object, not {value!r}")
    return value


def _reject_unknown(section: dict, known, prefix: str, path):
    unknown = sorted(set(section) - set(known))
    if unknown:
        names = ", ".join(prefix + name for name in unknown)
        raise DataError(f"config {path}: unknown key(s) {names}; known: {', '.join(sorted(known))}")


def _path(payload: dict, name: str, path, default=None) -> Path:
    """The config's path ``name``, a non-empty string; ``default`` when absent."""
    value = payload.get(name, default)
    if value is None:
        raise DataError(f"config {path}: {name} is missing")
    if not (isinstance(value, str) and value):
        raise DataError(f"config {path}: {name} must be a non-empty path string, not {value!r}")
    return Path(value)


def make_backend(spec: dict):
    """The backend of a config's ``backend`` object: the stub, or an
    ``HttpChatBackend`` given the object's other keys as they are, with its
    key read from the environment variable ``api_key_env``."""
    settings = dict(spec)
    if settings.pop("kind") == "stub":
        return StubBackend()
    api_key_env = settings.pop("api_key_env", DEFAULT_API_KEY_ENV)
    if not (isinstance(api_key_env, str) and api_key_env):
        raise ValueError(f"api_key_env must be a non-empty string, not {api_key_env!r}")
    return HttpChatBackend(api_key=os.environ.get(api_key_env), **settings)


def build_task(config: RunConfig, part: str = "val"):
    """Load the dataset and construct (graph, split, evaluator)."""
    schema = load_schema(config.dataset_dir / "schema.json")
    graph = load_graph(schema, config.dataset_dir)
    target = config.target_id(schema)
    if config.task_kind == "recommendation":
        et = schema.edge_type(target)
        ratings_path = config.dataset_dir / "ratings.tsv"
        if not ratings_path.is_file():
            raise DataError(f"recommendation task needs ratings file: {ratings_path}")
        ratings = load_ratings(ratings_path, graph.count(et.src), graph.count(et.dst))
        labeled = binarize_ratings(ratings, config.rating_threshold)
        split, graph = make_recommendation_split(
            graph, target, labeled, seed=config.search.seed, ratio=config.split_ratio
        )
    else:
        labels_path = config.dataset_dir / "labels.tsv"
        if not labels_path.is_file():
            raise DataError(f"classification task needs label file: {labels_path}")
        n_nodes = graph.count(target)
        labels = load_labels(labels_path, n_nodes)
        split = make_node_label_split(
            target, labels, n_nodes, seed=config.search.seed, ratio=config.split_ratio
        )
    return graph, split, _EVALUATORS[config.task_kind](part=part)


def _output_dir(path: Path) -> Path:
    """``path``, made with its parents unless it is a directory already."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {path}: {exc.strerror or exc}") from exc
    return path


def _check_writable(out_dir: Path, names):
    """Raise, before any work, the ``DataError`` that writing a file of
    ``names`` in ``out_dir`` would raise at the end when it is a directory."""
    for name in names:
        if (out_dir / name).is_dir():
            raise DataError(f"cannot write {out_dir / name}: {os.strerror(errno.EISDIR)}")


def _atomic_write(path: Path, text: str):
    """Write ``text`` to ``path`` through a temporary file beside it. A
    failure is a ``DataError`` naming ``path`` and leaves no temporary file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_valid_structure(path, schema) -> MetaStructure | None:
    """The structure in the JSON file ``path``, or None when it is invalid
    for ``schema``; each violation is then printed to stderr. A payload that
    is not a structure is a ``StructureError`` naming the file."""
    payload = read_json(path, "structure file")
    try:
        ms = MetaStructure.from_dict(payload)
    except StructureError as exc:
        raise StructureError(f"structure file {path}: {exc}") from exc
    violations = validate(ms, schema)
    for v in violations:
        print(f"invalid structure: {v}", file=sys.stderr)
    return None if violations else ms


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_search(args) -> int:
    config = RunConfig.load(args.config, args.seed, args.out)
    _check_writable(
        config.output_dir,
        ("result.json", "curve.csv", "events.jsonl", "explanations.json", "transcripts.jsonl"),
    )
    prompts = PromptLibrary(config.prompt_dir)
    out_dir = _output_dir(config.output_dir)

    graph, split, evaluator = build_task(config, part="val")
    transcript = TranscriptLog(out_dir / "transcripts.jsonl")

    result = run_search(
        config.search, graph, split, config.backend, evaluator,
        prompts=prompts, transcript=transcript,
    )

    _atomic_write(out_dir / "result.json", json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    curve_lines = ["generation,best_fitness,mean_fitness"]
    curve_lines += [f"{g},{best:.12g},{mean:.12g}" for g, best, mean in result.curve_rows()]
    _atomic_write(out_dir / "curve.csv", "\n".join(curve_lines) + "\n")
    _atomic_write(
        out_dir / "events.jsonl",
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in result.events),
    )
    _atomic_write(
        out_dir / "explanations.json",
        json.dumps([dataclasses.asdict(r) for r in result.explanations], indent=2, sort_keys=True) + "\n",
    )

    if result.aborted is not None:
        print(f"search aborted: {result.aborted}; partial results in {out_dir}", file=sys.stderr)
        return EXIT_DATA
    best = result.final_best
    print(f"final best: {evaluator.metric}={best.fitness:.6f} key={best.key}")
    print(f"  {best.sentence}")
    print(f"results written to {out_dir}")
    return EXIT_OK


def cmd_translate(args) -> int:
    schema = load_schema(args.schema)
    ms = _load_valid_structure(args.structure, schema)
    if ms is None:
        return EXIT_DATA
    print(encode_metastructure(ms, schema))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = RunConfig.load(args.config, args.seed)
    graph, split, evaluator = build_task(config, part=args.split)
    ms = _load_valid_structure(args.structure, graph.schema)
    if ms is None:
        return EXIT_DATA
    result = evaluator.evaluate(graph, split, ms)
    print(f"{result.metric} {result.value:.6f}")
    return EXIT_OK


def cmd_neighbors(args) -> int:
    config = RunConfig.load(args.config, args.seed)
    search = config.search
    schema = load_schema(config.dataset_dir / "schema.json")
    ms = _load_valid_structure(args.structure, schema)
    if ms is None:
        return EXIT_DATA
    lib = build_component_library(
        schema, search.max_structure_nodes, search.insertion_max_interior, search.grafting_max_nodes
    )
    rng = np.random.default_rng(search.seed)
    try:
        cands = one_step_neighbors(ms, lib, rng, search.candidate_cap)
    except EmptyNeighborhoodError:
        print("neighbors=0 sampled=false")
        return EXIT_OK
    print(f"neighbors={len(cands.candidates)} sampled={str(cands.sampled).lower()}")
    for c in cands.candidates:
        print(f"{json.dumps(c.descriptor, sort_keys=True)}\t{c.key}\t{lib.sentence(c.structure)}")
    return EXIT_OK


# pool fields of a result file other than ``structure``: (check, what it must be)
_POOL_FIELDS = {
    "key": (lambda v: isinstance(v, str), "a string"),
    "sentence": (lambda v: isinstance(v, str), "a string"),
    "fitness": (lambda v: finite_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "generation": (lambda v: type(v) is int, "an integer"),
}


def _read_result(path: Path):
    """The pool, the final population's keys, and for each final key the pool
    entry's name and parsed structure, read from a search's ``result.json``.

    Every pool entry is checked field by field; a failure is a ``DataError``
    naming the file, the entry and the field.
    """
    payload = read_json(path, "result file")
    generations = payload.get("generations") if isinstance(payload, dict) else None
    if not (isinstance(generations, list) and generations):
        raise DataError(f"result file has no generations: {path}")

    pool, structures = PerformancePool(), {}
    fields = [f.name for f in dataclasses.fields(PoolRecord)]
    entries = payload.get("pool", [])
    if not isinstance(entries, list):
        raise DataError(f"result file {path}: field 'pool' must be a list")
    for i, raw in enumerate(entries):
        where = f"result file {path}: pool[{i}]"
        if not isinstance(raw, dict):
            raise DataError(f"{where} is not an object")
        missing = [name for name in fields if name not in raw]
        if missing:
            raise DataError(f"{where} lacks field {missing[0]!r}")
        for name, (ok, what) in _POOL_FIELDS.items():
            if not ok(raw[name]):
                raise DataError(f"{where} field {name!r} must be {what}, not {raw[name]!r}")
        if raw["key"] in pool:
            raise DataError(f"{where} repeats key {raw['key']!r}")
        try:
            structures[raw["key"]] = where, MetaStructure.from_dict(raw["structure"])
        except StructureError as exc:
            raise DataError(f"{where} field 'structure': {exc}") from exc
        pool.insert(PoolRecord(**{name: raw[name] for name in fields}))

    last = generations[-1]
    if not (isinstance(last, dict) and "population" in last):
        raise DataError(f"result file {path}: generations[-1] lacks field 'population'")
    final_keys = last["population"]
    if not isinstance(final_keys, list):
        raise DataError(f"result file {path}: generations[-1] field 'population' must be a list")
    for j, key in enumerate(final_keys):
        if not (isinstance(key, str) and key in pool):
            raise DataError(
                f"result file {path}: generations[-1] field 'population' lists {key!r} "
                f"at [{j}], which no pool entry has as its key"
            )
    return pool, final_keys, {key: structures[key] for key in final_keys}


def _read_events(path: Path, pool: PerformancePool) -> list:
    """The events of a search's ``events.jsonl``: one JSON object a line,
    every ``rejection`` event's ``key`` a string, and every ``mutation``
    event's ``origin`` and ``chosen`` a key of ``pool`` or of a rejection."""
    try:
        lines = path.read_bytes().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read event log {path}: {exc}") from exc
    events = []
    for lineno, line in enumerate(lines, 1):
        try:
            event = json.loads(line)
        except ValueError:  # not JSON, or not UTF-8
            event = None
        if not isinstance(event, dict):
            raise DataError(f"{path}:{lineno}: not a JSON object")
        if event.get("event") == "rejection" and not isinstance(event.get("key"), str):
            raise DataError(f"{path}:{lineno}: rejection field 'key' is {event.get('key')!r}, not a string")
        events.append(event)
    rejected = {e["key"] for e in events if e.get("event") == "rejection"}
    for lineno, event in enumerate(events, 1):
        if event.get("event") == "mutation":
            for name in ("origin", "chosen"):
                key = event.get(name)
                if not (isinstance(key, str) and (key in pool or key in rejected)):
                    raise DataError(f"{path}:{lineno}: mutation field {name!r} is {key!r}, not a pool key")
    return events


def cmd_explain(args) -> int:
    config = RunConfig.load(args.config, out_override=args.out)
    _check_writable(config.output_dir, ("explain-explanations.json", "explain-transcripts.jsonl"))
    result_path = Path(args.result)
    pool, final_keys, finals = _read_result(result_path)
    schema = load_schema(config.dataset_dir / "schema.json")
    endpoints = task_endpoints(schema, config.task_kind, config.target_id(schema))
    for where, ms in finals.values():
        violations = validate(ms, schema)
        if violations:
            raise DataError(f"{where} field 'structure' is invalid: {violations[0]}")
        try:
            check_endpoints(ms, endpoints)
        except EvaluationError as exc:
            raise DataError(f"{where} field 'structure': {exc}") from exc
    events = _read_events(result_path.parent / "events.jsonl", pool)

    search = config.search
    if args.top_k is not None:
        search = dataclasses.replace(search, explain_top_k=args.top_k)

    prompts = PromptLibrary(config.prompt_dir)
    out_dir = _output_dir(config.output_dir)
    transcript = TranscriptLog(out_dir / "explain-transcripts.jsonl")
    reports = explain_top_structures(
        search, config.backend, _EVALUATORS[config.task_kind].metric, pool, events, final_keys,
        prompts, transcript, strict_backend=True,
    )
    reports_path = out_dir / "explain-explanations.json"
    _atomic_write(
        reports_path,
        json.dumps([dataclasses.asdict(r) for r in reports], indent=2, sort_keys=True) + "\n",
    )
    print(f"wrote {len(reports)} explanation report(s) to {reports_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hinstruct", description="Meta-structure discovery for typed networks.")
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"), default="warning",
        dest="log_level", help="least severe log messages written to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("search", help="run the evolutionary search")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p.add_argument("--out", default=None, help="override the configured output directory")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("translate", help="print a structure's sentence")
    p.add_argument("structure", help="meta-structure JSON file")
    p.add_argument("--schema", required=True, help="schema JSON file")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="score one structure on the configured task")
    p.add_argument("structure", help="meta-structure JSON file")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--split", choices=("val", "test"), default="val")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("neighbors", help="list a structure's one-step neighbors")
    p.add_argument("structure", help="meta-structure JSON file")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("explain", help="re-run the explainer on a search's result and event log")
    p.add_argument("result", help="result JSON from a search run, with its events.jsonl beside it")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--top-k", type=_at_least_one, default=None, dest="top_k")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_explain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=args.log_level.upper())
    try:
        return args.func(args)
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (
        DataError,
        SchemaError,
        SplitError,
        StructureError,
        GrammarError,
        EvaluationError,
        MatrixBlowupError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
