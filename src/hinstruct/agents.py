"""Chat-backend abstraction and the three search agents.

Agents exchange plain text with a backend through ``complete(system, user)``.
Prompts are rendered from external template files with named placeholders so
wording can be swapped without code changes; responses follow a line-oriented
contract (``CANDIDATE i: p=..., c=...`` / ``CHOICE: i``) that the parsers
here recover.

Two backends ship: an HTTP client speaking the common chat-completion wire
format, and a deterministic offline stub whose rules mirror the intuitions
the live agents are prompted with (structural similarity predicts similar
scores; simpler candidates win ties). The stub makes the whole agent layer a
pure function of its inputs. The HTTP stack (``http.client``,
``urllib.request`` and, through them, ``ssl``) loads with the first
``HttpChatBackend``, so a run on the stub never imports it.

Retries: each operation (the predictor prompt, the selector prompt, one
explainer step) makes at most ``retries`` >= 1 backend calls, all in
``_call``. A ``BackendError`` costs one attempt and a sleep of ``backoff *
2**attempt``, or the error's ``retry_after`` when that is longer (an HTTP 429
with ``Retry-After``), except after the last; an unusable reply, recorded in
the transcript like every reply, costs one attempt and no sleep. Out of
attempts, an operation that got any reply falls back (missing predictions
become the pool mean with confidence 0, the selector flags
``stub_selection_rule``'s pick); one that got none raises ``BackendError``.

Threads: the search runs each individual's predictor-then-selector chain as
one task. A backend whose ``in_process`` attribute is true computes its
replies on the calling thread and never waits, so the search runs its tasks
one after another on that thread, where threads would only contend for the
interpreter lock. Any other backend gets one thread per chain it is asked in
a generation, at most ``evolution.AGENT_WORKERS``, so its ``complete`` may run
on that many threads at once. Both shipped backends allow it: the stub keeps
no state, and the HTTP backend makes one ``urlopen`` call per request and
shares no state between calls. Each task records into its own
``TranscriptBuffer``, which the search replays into the run's
``TranscriptLog`` in index order.

Determinism: a backend whose ``deterministic`` property is true gives the
same reply to the same prompt every time. The search then asks each distinct
predictor-then-selector question once and reuses the chain's exchanges and
decision for every later individual that asks it again in the same run. The
stub is always deterministic; the HTTP backend is at temperature 0, which
asks the model for its greedy answer. A backend without the property is
asked every time.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import re
import string
import threading
import time
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from .grammar import AND, REFERENT_TAG, THAT
from .hin import DataError, finite_number

log = logging.getLogger(__name__)

DEFAULT_SYSTEM = "You are an expert analyst of heterogeneous information networks."
# each agent template and the placeholders its agent fills in
PROMPT_PLACEHOLDERS = {
    "predictor": ("pool_block", "candidate_block"),
    "selector": ("candidate_block",),
    "explainer_step1": ("n_neighbors", "structure_block"),
    "explainer_step2": ("metric_block",),
}
# counts one broadcast of the stub predictor may hold (8 MB of int64)
STUB_BROADCAST_CELLS = 1 << 20
# pool record sentences whose clause counts the stub predictor keeps
RECORD_CLAUSE_ENTRIES = 1024


class BackendError(RuntimeError):
    """Transport or protocol failure talking to a chat backend.

    ``retry_after`` is the wait in seconds that a rate-limited server asked
    for, or None.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictorOutput:
    p_hat: float
    c_hat: float


@dataclass(frozen=True)
class ScoredCandidate:
    sentence: str
    p_hat: float
    c_hat: float
    n_nodes: int
    n_edges: int
    key: str


@dataclass(frozen=True)
class SelectorDecision:
    index: int
    rationale: str
    fallback: bool = False


@dataclass(frozen=True)
class EvaluatedStructure:
    key: str
    sentence: str
    metric: str
    value: float


@dataclass(frozen=True)
class ExplainerReport:
    target: EvaluatedStructure
    neighbors: tuple[EvaluatedStructure, ...]
    comprehension: str
    attribution: str


@dataclass(frozen=True)
class PoolSample:
    records: tuple  # of (sentence, value)

    @property
    def mean(self) -> float:
        if not self.records:
            return 0.5
        return sum(v for _, v in self.records) / len(self.records)


# ---------------------------------------------------------------------------
# prompt templates and blocks
# ---------------------------------------------------------------------------


class PromptLibrary:
    """Loads the four agent templates from a directory or the packaged set.

    Each template is rendered once with its agent's placeholders when it
    loads, so a file that is unreadable, not UTF-8, or uses a placeholder
    its agent does not fill is a ``DataError`` naming it, before a search
    starts.
    """

    def __init__(self, directory=None):
        self.templates = {}
        root = Path(directory) if directory is not None else resources.files("hinstruct") / "prompts"
        for name, placeholders in PROMPT_PLACEHOLDERS.items():
            path = root / f"{name}.txt"
            try:
                template = string.Template(path.read_text(encoding="utf-8"))
                template.substitute(dict.fromkeys(placeholders, ""))
            except KeyError as exc:
                raise DataError(
                    f"prompt template {path}: unknown placeholder ${exc.args[0]}; "
                    f"{name} fills {', '.join('$' + p for p in placeholders)}"
                ) from exc
            except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a bad placeholder
                raise DataError(f"prompt template {path}: {exc}") from exc
            self.templates[name] = template

    def render(self, name: str, **subs) -> str:
        return self.templates[name].substitute(**subs)


def pool_block(sample: PoolSample) -> str:
    if not sample.records:
        return "(no evaluated structures yet)"
    return "\n".join(
        f"RECORD {j}: value={value:.6f} | {sentence}"
        for j, (sentence, value) in enumerate(sample.records)
    )


def predictor_candidate_block(sentences) -> str:
    return "\n".join(f"CANDIDATE {i}: {s}" for i, s in enumerate(sentences))


def selector_candidate_block(candidates) -> str:
    return "\n".join(
        f"CANDIDATE {i}: nodes={c.n_nodes} edges={c.n_edges} "
        f"p={c.p_hat:.6f} c={c.c_hat:.6f} key={c.key} | {c.sentence}"
        for i, c in enumerate(candidates)
    )


def structure_block(entries) -> str:
    return "\n".join(f"STRUCTURE {i}: {e.sentence}" for i, e in enumerate(entries))


def metric_block(entries) -> str:
    return "\n".join(
        f"STRUCTURE {i}: metric={e.metric} value={e.value:.6f} | {e.sentence}"
        for i, e in enumerate(entries)
    )


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------


class TranscriptLog:
    """JSON-lines file of every prompt/response exchange, appended in call
    order. The file starts empty: opening a log replaces an older file."""

    def __init__(self, path):
        self.path = Path(path)
        self._write("w", "")

    def record(self, agent: str, system: str, user: str, response: str, model: str):
        entry = {
            "agent": agent,
            "model": model,
            "system": system,
            "user": user,
            "response": response,
        }
        self._write("a", json.dumps(entry, sort_keys=True) + "\n")

    def _write(self, mode: str, text: str):
        try:
            with self.path.open(mode, encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DataError(f"cannot write {self.path}: {exc.strerror or exc}") from exc


class TranscriptBuffer:
    """Exchanges held in memory, in call order, until ``replay`` writes them
    to a ``TranscriptLog``; lets concurrent tasks record without sharing one."""

    def __init__(self):
        self.exchanges = []

    def record(self, agent: str, system: str, user: str, response: str, model: str):
        self.exchanges.append((agent, system, user, response, model))

    def replay(self, transcript: TranscriptLog):
        for exchange in self.exchanges:
            transcript.record(*exchange)


# ---------------------------------------------------------------------------
# sentence similarity used by the stub predictor
# ---------------------------------------------------------------------------


def sentence_clauses(sentence: str) -> Counter:
    """Multiset of clause strings; each clause renders one edge traversal.

    Referent tags are dropped first, so a clause reads the same whether or
    not its position is shared with another sub-logic.
    """
    if "(" in sentence:
        sentence = REFERENT_TAG.sub("", sentence)
    clauses = Counter()
    for sub in sentence.split(f" {AND} "):
        for part in sub.split(f" {THAT} "):
            clauses[part] += 1
    return clauses


@functools.lru_cache(maxsize=RECORD_CLAUSE_ENTRIES)
def _record_clauses(sentence: str) -> tuple[tuple[str, int], ...]:
    """``sentence_clauses`` of a pool record as (clause, count) pairs.

    Every predictor prompt samples its records from one pool, so a record
    recurs across a search's prompts while most candidates are asked about
    once; only records are kept. The value is a tuple, safe to share between
    the threads that call the stub.
    """
    return tuple(sentence_clauses(sentence).items())


def clause_jaccard(a: str, b: str) -> float:
    """|A & B| / |A | B| over the two clause multisets; 0 when both are empty."""
    ca, cb = sentence_clauses(a), sentence_clauses(b)
    inter = sum(min(n, cb[clause]) for clause, n in ca.items() if clause in cb)
    union = ca.total() + cb.total() - inter
    return inter / union if union else 0.0


def _nearest_records(candidates, records):
    """For each candidate sentence, the index of the first record sentence of
    highest ``clause_jaccard`` similarity, and that similarity.

    Each distinct clause gets a column of two integer count matrices, one
    for candidates and one for records; a candidate's intersection with a
    record is the sum of element-wise minima over a candidates x records x
    clauses broadcast, and the union is the two totals minus it. Integer
    counts and one division per pair give the same floats as
    ``clause_jaccard``, and ``argmax`` takes the first maximum.
    """
    ids, cells = {}, []
    clause_rows = [_record_clauses(s) for s in records]
    clause_rows += [sentence_clauses(s).items() for s in candidates]
    for row, clauses in enumerate(clause_rows):
        for clause, n in clauses:
            cells.append((row, ids.setdefault(clause, len(ids)), n))
    counts = np.zeros((len(records) + len(candidates), len(ids)), dtype=np.int64)
    rows, cols, ns = zip(*cells)
    counts[rows, cols] = ns
    recs, cands = counts[: len(records)], counts[len(records) :]
    rec_totals, cand_totals = recs.sum(axis=1), cands.sum(axis=1)
    # candidates per broadcast, so that one holds at most STUB_BROADCAST_CELLS
    step = max(1, STUB_BROADCAST_CELLS // recs.size)
    nearest = []
    for lo in range(0, len(cands), step):
        inter = np.minimum(cands[lo : lo + step, None, :], recs).sum(axis=2)
        union = cand_totals[lo : lo + step, None] + rec_totals - inter
        sims = np.divide(inter, union, out=np.zeros(inter.shape), where=union > 0)
        best = sims.argmax(axis=1)
        nearest += zip(best.tolist(), sims[np.arange(len(best)), best].tolist())
    return nearest


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

_RE_RECORD = re.compile(r"^RECORD\s+(\d+):\s*value=([0-9.eE+-]+)\s*\|\s*(.*)$", re.M)
_RE_CAND_PLAIN = re.compile(r"^CANDIDATE\s+(\d+):\s*(.*)$", re.M)
_RE_CAND_SCORED = re.compile(
    r"^CANDIDATE\s+(\d+):\s*nodes=(\d+)\s+edges=(\d+)\s+p=([0-9.eE+-]+)"
    r"\s+c=([0-9.eE+-]+)\s+key=(\S+)\s*\|\s*(.*)$",
    re.M,
)
_RE_STRUCT = re.compile(r"^STRUCTURE\s+(\d+):\s*(.*)$", re.M)
_RE_METRIC = re.compile(r"^STRUCTURE\s+(\d+):\s*metric=(\S+)\s+value=([0-9.eE+-]+)\s*\|\s*(.*)$", re.M)

_RE_PRED_REPLY = re.compile(r"CANDIDATE\s+(\d+)\s*:\s*p\s*=\s*([0-9.eE+-]+)\s*,\s*c\s*=\s*([0-9.eE+-]+)")
_RE_CHOICE_REPLY = re.compile(r"CHOICE\s*:\s*(\d+)")


class StubBackend:
    """Deterministic offline stand-in for a chat model.

    Predictor rule: each candidate inherits the value of its nearest pool
    record by clause-multiset Jaccard similarity, with that similarity as the
    confidence; with an empty pool the prior is (0.5, 0.0). Selector rule:
    highest predicted score, ties to fewer edges, then the smaller canonical
    key. Explainer rule: template reports from the decomposed sentences and
    the score extremes.

    ``in_process`` is true because every reply is computed on the calling
    thread with nothing to wait for, so the search asks this backend from its
    own thread instead of from a thread pool; a subclass that does wait, for
    example on a socket, sets it false.
    """

    identity = "stub"
    deterministic = True
    in_process = True

    def complete(self, system: str, user: str) -> str:
        header = user.lstrip().splitlines()[0].strip() if user.strip() else ""
        if header == "TASK: PREDICT":
            return self._predict(user)
        if header == "TASK: SELECT":
            return self._select(user)
        if header == "TASK: EXPLAIN-STRUCTURE":
            return self._explain_structure(user)
        if header == "TASK: EXPLAIN-ATTRIBUTE":
            return self._explain_attribute(user)
        raise BackendError(f"stub backend cannot serve prompt with header {header!r}")

    def _predict(self, user: str) -> str:
        records = [(m.group(3), float(m.group(2))) for m in _RE_RECORD.finditer(user)]
        candidates = [
            m.group(2)
            for m in _RE_CAND_PLAIN.finditer(user)
            if not m.group(2).startswith(("nodes=", "p="))
        ]
        if records:
            nearest = _nearest_records(candidates, [sentence for sentence, _ in records])
            estimates = [(records[best][1], sim) for best, sim in nearest]
        else:
            estimates = [(0.5, 0.0)] * len(candidates)
        return "\n".join(
            f"CANDIDATE {i}: p={p:.6f}, c={c:.6f}" for i, (p, c) in enumerate(estimates)
        )

    def _select(self, user: str) -> str:
        rows = list(_RE_CAND_SCORED.finditer(user))
        if not rows:
            raise BackendError("stub selector found no candidates in prompt")
        candidates = [
            ScoredCandidate(m[7], float(m[4]), float(m[5]), int(m[2]), int(m[3]), m[6]) for m in rows
        ]
        chosen = rows[stub_selection_rule(candidates)].group(1)
        return (
            f"CHOICE: {chosen}\n"
            "Deterministic pick: highest predicted score, ties broken toward "
            "fewer edges, then the smaller canonical key."
        )

    def _explain_structure(self, user: str) -> str:
        lines = []
        for m in _RE_STRUCT.finditer(user):
            idx, sentence = int(m.group(1)), m.group(2)
            subs = sentence.split(f" {AND} ")
            lines.append(f"STRUCTURE {idx} decomposes into {len(subs)} sub-structure(s):")
            for j, sub in enumerate(subs, start=1):
                lines.append(f"  ({j}) {sub}")
        if not lines:
            raise BackendError("stub explainer found no structures in prompt")
        return "\n".join(lines)

    def _explain_attribute(self, user: str) -> str:
        rows = [
            (int(m.group(1)), float(m.group(3)), m.group(4)) for m in _RE_METRIC.finditer(user)
        ]
        if not rows:
            raise BackendError("stub explainer found no metrics in prompt")
        best = min(rows, key=lambda r: (-r[1], r[0]))
        worst = min(rows, key=lambda r: (r[1], r[0]))

        def unique_clauses(target):
            mine = set(sentence_clauses(target[2]))
            others = set()
            for row in rows:
                if row[0] != target[0]:
                    others |= set(sentence_clauses(row[2]))
            return sorted(mine - others)

        beneficial = unique_clauses(best) or ["none"]
        detrimental = unique_clauses(worst) or ["none"]
        return "\n".join(
            [
                f"Highest score: STRUCTURE {best[0]} (value={best[1]:.6f}); "
                f"lowest score: STRUCTURE {worst[0]} (value={worst[1]:.6f}).",
                f"Beneficial sub-structures, unique to STRUCTURE {best[0]}: "
                + "; ".join(beneficial),
                f"Detrimental sub-structures, unique to STRUCTURE {worst[0]}: "
                + "; ".join(detrimental),
            ]
        )


def _http_url(url: str) -> bool:
    """Whether ``url`` is an http or https URL with a host."""
    try:
        parts = urlsplit(url)
    except ValueError:  # a malformed IPv6 host
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


@dataclass
class HttpChatBackend:
    """Client for an HTTP chat-completion endpoint.

    Settings, each checked when the backend is made (a bad one raises a
    ``ValueError`` that names it):

    * ``url``: the endpoint, an ``http`` or ``https`` URL with a host;
      required. Other schemes that ``urlopen`` would open (``file:``,
      ``ftp:``, ``data:``) are refused.
    * ``model``: the model name sent with each request, a non-empty string;
      default ``"gpt-4"``.
    * ``api_key``: sent as a bearer token when set; default None.
    * ``temperature``: a finite number; default 0.0.
    * ``timeout``: seconds per request, a positive number at most
      ``threading.TIMEOUT_MAX`` (about 9.2e9 s, the longest wait a socket or
      ``time.sleep`` takes); default 60.0.

    Sends ``{"model", "messages": [{"role", "content"}, ...], "temperature"}``
    and reads the first choice's message content, which must be a string.
    An HTTP 429 raises a ``BackendError`` whose ``retry_after`` is the
    ``Retry-After`` header in whole seconds, capped at ``timeout``. Any other
    HTTP error, connection or timeout failure, or reply without that content
    is a ``BackendError`` with no ``retry_after``.

    Each call is one ``urllib.request.urlopen`` through the default opener,
    so proxies come from the environment (``HTTP_PROXY``, ``HTTPS_PROXY``,
    ``NO_PROXY``), and an ``https`` server is verified against the system's
    trust store (``ssl.create_default_context``). Nothing is shared between
    calls: each opens its own connection.

    At ``temperature`` 0 the model is asked for its greedy answer, so the
    backend is ``deterministic`` and a search reuses its replies to a
    question it already asked within the run; at a positive temperature
    every call samples afresh.
    """

    url: str
    model: str = "gpt-4"
    api_key: str | None = None
    temperature: float = 0.0
    timeout: float = 60.0

    def __post_init__(self):
        for name in ("url", "model"):
            value = getattr(self, name)
            if not (isinstance(value, str) and value):
                raise ValueError(f"{name} must be a non-empty string, not {value!r}")
        if not _http_url(self.url):
            raise ValueError(f"url must be an http or https URL with a host, not {self.url!r}")
        if not finite_number(self.temperature):
            raise ValueError(f"temperature must be a finite number, not {self.temperature!r}")
        if not (finite_number(self.timeout) and 0 < self.timeout <= threading.TIMEOUT_MAX):
            raise ValueError(
                f"timeout must be a positive number at most {threading.TIMEOUT_MAX}, not {self.timeout!r}"
            )
        self.temperature, self.timeout = float(self.temperature), float(self.timeout)
        # the HTTP stack (urllib.request brings http.client, urllib.error and
        # ssl) loads with the backend, at set-up, so a run without one never
        # imports it
        import urllib.request  # noqa: F401

    @property
    def identity(self) -> str:
        return self.model

    @property
    def deterministic(self) -> bool:
        return self.temperature == 0

    def complete(self, system: str, user: str) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": self.temperature,
        }
        import http.client
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            self.url, data=json.dumps(payload).encode(), headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read()
            content = json.loads(body)["choices"][0]["message"]["content"]
        except urllib.error.HTTPError as exc:  # a status >= 400; its open response is closed here
            exc.close()
            if exc.code == 429:
                raise BackendError(
                    "chat completion rate limited (HTTP 429)",
                    retry_after=self._retry_after(exc.headers.get("Retry-After")),
                ) from exc
            raise BackendError(f"chat completion failed: {exc}") from exc
        except (OSError, http.client.HTTPException, KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"chat completion failed: {exc}") from exc
        if not isinstance(content, str):
            raise BackendError(f"chat completion content is {type(content).__name__}, not a string")
        return content

    def _retry_after(self, value: str | None) -> float | None:
        """Seconds from an integer ``Retry-After``; None for a missing, negative
        or date value."""
        try:
            seconds = int(value)
        except (TypeError, ValueError):
            return None
        return float(min(seconds, self.timeout)) if seconds >= 0 else None


# ---------------------------------------------------------------------------
# agent operations
# ---------------------------------------------------------------------------


def _clamp01(value: float, what: str) -> float:
    if 0.0 <= value <= 1.0:
        return value
    log.warning("%s value %s outside [0, 1]; clamped", what, value)
    return min(1.0, max(0.0, value))


def _call(backend, agent, user, transcript, retries, backoff, parse=lambda reply: reply):
    """Returns the first non-None ``parse(reply)``, or None once the attempts
    run out after some reply; raises ``BackendError`` if none came back."""
    if retries < 1:
        raise ValueError(f"retries must be at least 1, got {retries}")
    last_error = reply = None
    for attempt in range(retries):
        try:
            reply = backend.complete(DEFAULT_SYSTEM, user)
        except BackendError as exc:
            last_error = exc
            log.warning("%s backend call failed (attempt %d): %s", agent, attempt + 1, exc)
            delay = max(math.ldexp(backoff, attempt), exc.retry_after or 0.0)
            if attempt + 1 < retries and delay > 0:
                time.sleep(delay)
            continue
        if transcript is not None:
            transcript.record(agent, DEFAULT_SYSTEM, user, reply, backend.identity)
        result = parse(reply)
        if result is not None:
            return result
        log.warning("%s reply unusable (attempt %d)", agent, attempt + 1)
    if reply is None:
        raise BackendError(f"{agent} backend failed after {retries} attempts: {last_error}")
    return None


def predict_candidates(
    backend,
    sentences,
    sample: PoolSample,
    prompts: PromptLibrary,
    retries: int,
    backoff: float,
    transcript: TranscriptLog | None = None,
) -> list[PredictorOutput]:
    """Ask the predictor for a (score, confidence) estimate per candidate.

    Entries merge across replies, the first value for each index winning;
    entries still missing when the attempts run out default to (mean of the
    pool sample, 0.0).
    """
    if not sentences:
        raise ValueError("empty candidate list")
    user = prompts.render(
        "predictor",
        pool_block=pool_block(sample),
        candidate_block=predictor_candidate_block(sentences),
    )
    parsed: dict[int, PredictorOutput] = {}

    def merge(reply):
        for m in _RE_PRED_REPLY.finditer(reply):
            idx = int(m.group(1))
            if 0 <= idx < len(sentences) and idx not in parsed:
                try:
                    p = _clamp01(float(m.group(2)), "predicted score")
                    c = _clamp01(float(m.group(3)), "confidence")
                except ValueError:
                    continue
                parsed[idx] = PredictorOutput(p, c)
        return parsed if len(parsed) == len(sentences) else None

    _call(backend, "predictor", user, transcript, retries, backoff, merge)
    default = PredictorOutput(_clamp01(sample.mean, "pool mean"), 0.0)
    return [parsed.get(i, default) for i in range(len(sentences))]


def select_candidate(
    backend,
    candidates,
    prompts: PromptLibrary,
    retries: int,
    backoff: float,
    transcript: TranscriptLog | None = None,
) -> SelectorDecision:
    """Ask the selector to pick one candidate; falls back to the stub rule
    (and flags the decision) when no parseable index comes back."""
    if not candidates:
        raise ValueError("empty candidate list")
    user = prompts.render("selector", candidate_block=selector_candidate_block(candidates))

    def choice(reply):
        m = _RE_CHOICE_REPLY.search(reply)
        if m is not None and int(m.group(1)) < len(candidates):
            return SelectorDecision(index=int(m.group(1)), rationale=reply, fallback=False)
        return None

    decision = _call(backend, "selector", user, transcript, retries, backoff, choice)
    if decision is not None:
        return decision
    return SelectorDecision(
        index=stub_selection_rule(candidates),
        rationale="fallback rule: highest predicted score, fewest edges, smallest key",
        fallback=True,
    )


def stub_selection_rule(candidates) -> int:
    return min(
        range(len(candidates)),
        key=lambda i: (-candidates[i].p_hat, candidates[i].n_edges, candidates[i].key),
    )


def explain(
    backend,
    target: EvaluatedStructure,
    neighbors,
    prompts: PromptLibrary,
    retries: int,
    backoff: float,
    transcript: TranscriptLog | None = None,
) -> ExplainerReport:
    """Two chained prompts: structural comprehension, then performance
    attribution over the neighbors, structures the search evaluated one
    mutation away from the target."""
    neighbors = tuple(neighbors)
    if not neighbors:
        raise ValueError("explainer needs at least one neighbor")
    entries = (target,) + neighbors
    step1 = prompts.render(
        "explainer_step1",
        n_neighbors=len(neighbors),
        structure_block=structure_block(entries),
    )
    comprehension = _call(backend, "explainer", step1, transcript, retries, backoff)
    step2 = prompts.render("explainer_step2", metric_block=metric_block(entries))
    attribution = _call(backend, "explainer", step2, transcript, retries, backoff)
    return ExplainerReport(
        target=target,
        neighbors=neighbors,
        comprehension=comprehension,
        attribution=attribution,
    )
