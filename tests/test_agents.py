import json
import random
import shutil
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from hinstruct import agents
from hinstruct.agents import (
    PROMPT_PLACEHOLDERS,
    BackendError,
    EvaluatedStructure,
    HttpChatBackend,
    PoolSample,
    PromptLibrary,
    ScoredCandidate,
    StubBackend,
    TranscriptLog,
    clause_jaccard,
    explain,
    pool_block,
    predict_candidates,
    predictor_candidate_block,
    select_candidate,
    selector_candidate_block,
    sentence_clauses,
    stub_selection_rule,
)
from hinstruct.evolution import SearchConfig
from hinstruct.hin import DataError

from conftest import fake_urlopen, stub_predict_reference


@pytest.fixture(scope="module")
def prompts():
    return PromptLibrary()


def predictor_prompt(prompts, sentences, sample):
    return prompts.render(
        "predictor",
        pool_block=pool_block(sample),
        candidate_block=predictor_candidate_block(sentences),
    )


class TestClauseSimilarity:
    def test_identical_sentence_full_similarity(self):
        s = "User rates Business THAT belongs to Category AND User is friend of User"
        assert clause_jaccard(s, s) == 1.0

    def test_disjoint_sentences(self):
        assert clause_jaccard("User rates Business", "City hosts Business") == 0.0

    def test_multiset_counting(self):
        a = "User rates Business AND User rates Business"
        b = "User rates Business"
        # multiset {..:2} vs {..:1}: intersection 1, union 2
        assert clause_jaccard(a, b) == 0.5

    def test_clause_split(self):
        c = sentence_clauses("User rates Business THAT belongs to Category AND User is friend of User")
        assert c == {
            "User rates Business": 1,
            "belongs to Category": 1,
            "User is friend of User": 1,
        }

    def test_referent_tags_ignored(self):
        tagged = (
            "User rates Business THAT is rated by User (a) THAT rates Business "
            "AND User is friend of User (a) THAT rates Business"
        )
        assert sentence_clauses(tagged) == sentence_clauses(tagged.replace(" (a)", ""))
        assert sentence_clauses(tagged)["is rated by User"] == 1


class TestStubPredictor:
    def test_exact_pool_match(self, prompts):
        backend = StubBackend()
        sample = PoolSample((("User rates Business", 0.7),))
        out = predict_candidates(backend, ["User rates Business"], sample, prompts, retries=3, backoff=0)
        assert out[0].p_hat == pytest.approx(0.7)
        assert out[0].c_hat == pytest.approx(1.0)

    def test_empty_pool_prior(self, prompts):
        backend = StubBackend()
        out = predict_candidates(backend, ["User rates Business"], PoolSample(()), prompts, retries=3, backoff=0)
        assert (out[0].p_hat, out[0].c_hat) == (0.5, 0.0)

    def test_partial_similarity(self, prompts):
        backend = StubBackend()
        cand = "User is friend of User THAT rates Business"
        rec = "User rates Business THAT rates Business"  # contrived: shares one clause
        sim = clause_jaccard(cand, rec)
        out = predict_candidates(backend, [cand], PoolSample(((rec, 0.6),)), prompts, retries=3, backoff=0)
        assert out[0].p_hat == pytest.approx(0.6)
        assert out[0].c_hat == pytest.approx(sim)

    def test_nearest_record_wins(self, prompts):
        backend = StubBackend()
        cand = "User is friend of User THAT rates Business"
        sample = PoolSample(
            (
                ("City hosts Business", 0.9),
                ("User is friend of User THAT rates Business", 0.4),
            )
        )
        out = predict_candidates(backend, [cand], sample, prompts, retries=3, backoff=0)
        assert out[0].p_hat == pytest.approx(0.4)

    def test_matches_pairwise_clause_jaccard(self, prompts):
        clauses = ["User rates Business", "is rated by User", "User is friend of User",
                   "belongs to Category", "City hosts Business"]

        def sentence(picks):
            return " AND ".join(" THAT ".join(clauses[i] for i in sub) for sub in picks)

        records = [
            (sentence([[0, 1, 0], [2, 0]]), 0.3),
            (sentence([[0]]), 0.8),
            (sentence([[2, 0], [2, 0]]), 0.55),
            (sentence([[4]]), 0.1),
        ]
        candidates = [sentence(p) for p in ([[0, 1, 0]], [[2, 0]], [[3]], [[2, 0], [0]], [[4], [4]])]
        reply = StubBackend().complete(
            "", predictor_prompt(prompts, candidates, PoolSample(tuple(records)))
        )
        expect = []
        for i, cand in enumerate(candidates):
            sims = [clause_jaccard(cand, rec) for rec, _ in records]
            best = max(range(len(records)), key=lambda j: (sims[j], -j))
            expect.append(f"CANDIDATE {i}: p={records[best][1]:.6f}, c={sims[best]:.6f}")
        assert reply == "\n".join(expect)

    CLAUSES = ("User rates Business", "is rated by User", "User is friend of User",
               "belongs to Category", "City hosts Business")

    def random_sentence(self, rng):
        subs = []
        for _ in range(rng.randint(1, 3)):
            parts = [rng.choice(self.CLAUSES) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:  # a shared position's referent tag
                parts[rng.randrange(len(parts))] += " (a)"
            subs.append(" THAT ".join(parts))
        return " AND ".join(subs)

    @pytest.mark.parametrize("n_records", [0, 1, 3, 30])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_pair_reference(self, prompts, seed, n_records):
        rng = random.Random(seed)
        records = [(self.random_sentence(rng), rng.choice((0.1, 0.25, 0.5, 0.9))) for _ in range(n_records)]
        if n_records > 1:
            # every record again under another value: each best ties with a
            # later copy, and the earlier record must win
            records += [(sentence, 1.0 - value) for sentence, value in records]
        candidates = [self.random_sentence(rng) for _ in range(rng.randint(1, 20))]
        user = predictor_prompt(prompts, candidates, PoolSample(tuple(records)))
        reply = StubBackend().complete("", user)
        assert reply.count("\n") == len(candidates) - 1
        assert reply == stub_predict_reference(user)

    @pytest.mark.parametrize("cells", [1, 200])
    def test_broadcast_in_blocks_matches_reference(self, prompts, monkeypatch, cells):
        """Candidates split over several broadcasts, one per block of at most
        ``cells`` counts, score as one broadcast does."""
        monkeypatch.setattr(agents, "STUB_BROADCAST_CELLS", cells)
        rng = random.Random(cells)
        records = [(self.random_sentence(rng), rng.choice((0.1, 0.25, 0.5, 0.9))) for _ in range(12)]
        candidates = [self.random_sentence(rng) for _ in range(20)]
        user = predictor_prompt(prompts, candidates, PoolSample(tuple(records)))
        assert StubBackend().complete("", user) == stub_predict_reference(user)

    def test_batched_covers_all_candidates(self, prompts):
        backend = StubBackend()
        sentences = [f"User rates Business {'THAT belongs to Category ' * i}".strip() for i in range(5)]
        out = predict_candidates(backend, sentences, PoolSample(()), prompts, retries=3, backoff=0)
        assert len(out) == 5

    def test_empty_candidates_rejected(self, prompts):
        with pytest.raises(ValueError):
            predict_candidates(StubBackend(), [], PoolSample(()), prompts, retries=3, backoff=0)


class TestStubSelector:
    def c(self, p, c_hat=0.5, edges=3, key="k", sentence="User rates Business"):
        return ScoredCandidate(sentence, p, c_hat, edges + 1, edges, key)

    def test_argmax_p(self, prompts):
        decision = select_candidate(
            StubBackend(),
            [self.c(0.8, 0.9, key="a"), self.c(0.6, 0.99, key="b")],
            prompts,
            retries=3,
            backoff=0,
        )
        assert decision.index == 0 and not decision.fallback

    def test_edge_count_tiebreak(self, prompts):
        decision = select_candidate(
            StubBackend(),
            [self.c(0.8, edges=5, key="a"), self.c(0.8, edges=3, key="b")],
            prompts,
            retries=3,
            backoff=0,
        )
        assert decision.index == 1

    def test_key_tiebreak(self, prompts):
        decision = select_candidate(
            StubBackend(),
            [self.c(0.8, edges=3, key="zz"), self.c(0.8, edges=3, key="aa")],
            prompts,
            retries=3,
            backoff=0,
        )
        assert decision.index == 1

    def test_rationale_recorded(self, prompts):
        decision = select_candidate(StubBackend(), [self.c(0.5)], prompts, retries=3, backoff=0)
        assert "CHOICE: 0" in decision.rationale


class TestStubExplainer:
    def entry(self, key, sentence, value):
        return EvaluatedStructure(key, sentence, "auc", value)

    def test_report_covers_target_plus_neighbors(self, prompts):
        target = self.entry("t", "User rates Business", 0.9)
        neighbor = self.entry("n", "User is friend of User THAT rates Business", 0.6)
        report = explain(StubBackend(), target, [neighbor], prompts, retries=3, backoff=0)
        assert report.comprehension.count("STRUCTURE") >= 2
        assert "STRUCTURE 0" in report.comprehension
        assert report.neighbors == (neighbor,)

    def test_best_unique_clauses_flagged_beneficial(self, prompts):
        target = self.entry("t", "User rates Business", 0.5)
        good = self.entry("g", "User is friend of User THAT rates Business", 0.9)
        bad = self.entry("b", "User rates Business THAT is located in City", 0.1)
        report = explain(StubBackend(), target, [good, bad], prompts, retries=3, backoff=0)
        assert "Beneficial" in report.attribution
        assert "User is friend of User" in report.attribution
        assert "Detrimental" in report.attribution
        assert "is located in City" in report.attribution

    def test_requires_neighbor(self, prompts):
        with pytest.raises(ValueError):
            explain(StubBackend(), self.entry("t", "User rates Business", 0.5), [], prompts, retries=3, backoff=0)

    def test_deterministic(self, prompts):
        target = self.entry("t", "User rates Business", 0.9)
        neighbor = self.entry("n", "User is friend of User THAT rates Business", 0.6)
        a = explain(StubBackend(), target, [neighbor], prompts, retries=3, backoff=0)
        b = explain(StubBackend(), target, [neighbor], prompts, retries=3, backoff=0)
        assert a == b


class TestStubBackendContract:
    def test_same_prompt_same_response(self, prompts):
        backend = StubBackend()
        user = predictor_prompt(prompts, ["User rates Business"], PoolSample(()))
        assert backend.complete("sys", user) == backend.complete("sys", user)

    def test_unknown_header_rejected(self):
        with pytest.raises(BackendError, match="header"):
            StubBackend().complete("sys", "hello there")

    def test_selector_index_in_range(self, prompts):
        backend = StubBackend()
        candidates = [
            ScoredCandidate(f"User rates Business {i}", 0.5, 0.5, 2, 1, f"k{i}")
            for i in range(7)
        ]
        user = prompts.render("selector", candidate_block=selector_candidate_block(candidates))
        reply = backend.complete("sys", user)
        idx = int(reply.split("CHOICE:")[1].split()[0])
        assert 0 <= idx < 7

    def test_stub_reply_matches_selection_rule(self, prompts):
        rng = random.Random(0)
        for _ in range(50):
            cands = [
                ScoredCandidate(
                    "User rates Business", rng.choice([0.25, 0.5, 0.75]), rng.random(),
                    rng.randint(2, 4), rng.randint(1, 3), rng.choice(["a", "b", "c", "d"]) + str(i),
                )
                for i in range(rng.randint(1, 8))
            ]
            user = prompts.render("selector", candidate_block=selector_candidate_block(cands))
            reply = StubBackend().complete("sys", user)
            assert reply.startswith(f"CHOICE: {stub_selection_rule(cands)}\n")


class FlakyScript:
    """Programmable chat backend for parser/retry tests."""

    identity = "scripted"

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def complete(self, system, user, temperature=0.0):
        self.calls += 1
        action = self.responses.pop(0)
        if action is BackendError:
            raise BackendError("scripted failure")
        if isinstance(action, BackendError):
            raise action
        return action


class TestParsingAndRetries:
    def test_malformed_then_default(self, prompts):
        backend = FlakyScript(["gibberish", "still gibberish", "nope"])
        sample = PoolSample((("User rates Business", 0.8), ("City hosts Business", 0.4)))
        out = predict_candidates(backend, ["User rates Business"], sample, prompts, retries=3, backoff=0)
        assert out[0].p_hat == pytest.approx(0.6)  # pool mean
        assert out[0].c_hat == 0.0

    def test_out_of_range_values_clamped(self, prompts):
        backend = FlakyScript(["CANDIDATE 0: p=1.7, c=-0.2"])
        out = predict_candidates(backend, ["User rates Business"], PoolSample(()), prompts, retries=3, backoff=0)
        assert (out[0].p_hat, out[0].c_hat) == (1.0, 0.0)

    def test_transport_retry_then_success(self, prompts):
        backend = FlakyScript([BackendError, "CANDIDATE 0: p=0.5, c=0.5"])
        out = predict_candidates(backend, ["User rates Business"], PoolSample(()), prompts, retries=3, backoff=0)
        assert out[0].p_hat == 0.5
        assert backend.calls == 2

    def test_transport_failure_exhausts(self, prompts):
        backend = FlakyScript([BackendError] * 9)
        with pytest.raises(BackendError, match="failed after"):
            predict_candidates(backend, ["User rates Business"], PoolSample(()), prompts, retries=3, backoff=0)

    def test_selector_fallback_flagged(self, prompts):
        backend = FlakyScript(["no choice here"] * 3)
        cands = [
            ScoredCandidate("User rates Business", 0.9, 0.5, 2, 1, "b"),
            ScoredCandidate("City hosts Business", 0.9, 0.5, 2, 1, "a"),
        ]
        decision = select_candidate(backend, cands, prompts, retries=3, backoff=0)
        assert decision.fallback and decision.index == 1

    def test_selector_out_of_range_choice_falls_back(self, prompts):
        backend = FlakyScript(["CHOICE: 99"] * 3)
        cands = [ScoredCandidate("User rates Business", 0.9, 0.5, 2, 1, "a")]
        decision = select_candidate(backend, cands, prompts, retries=3, backoff=0)
        assert decision.fallback and decision.index == 0


class TestOneRetryLoop:
    """Each agent operation makes at most ``retries`` backend calls."""

    sentences = ["User rates Business", "City hosts Business"]
    cands = [
        ScoredCandidate("User rates Business", 0.9, 0.5, 2, 1, "b"),
        ScoredCandidate("City hosts Business", 0.9, 0.5, 2, 1, "a"),
    ]
    sample = PoolSample((("User rates Business", 0.8), ("City hosts Business", 0.4)))

    def entries(self):
        target = EvaluatedStructure("t", "User rates Business", "auc", 0.9)
        return target, [EvaluatedStructure("n", "City hosts Business", "auc", 0.6)]

    def test_predictor_calls_bounded_by_retries(self, prompts):
        backend = FlakyScript([BackendError, BackendError, "unusable"] * 3)
        out = predict_candidates(backend, self.sentences, self.sample, prompts, retries=3, backoff=0)
        assert backend.calls == 3
        assert [(o.p_hat, o.c_hat) for o in out] == [(pytest.approx(0.6), 0.0)] * 2

    def test_selector_calls_bounded_by_retries(self, prompts):
        backend = FlakyScript([BackendError, BackendError, "unusable"] * 3)
        decision = select_candidate(backend, self.cands, prompts, retries=3, backoff=0)
        assert backend.calls == 3
        assert decision.fallback and decision.index == 1

    def test_late_transport_failure_after_reply_falls_back(self, prompts):
        backend = FlakyScript(["unusable", BackendError, BackendError])
        out = predict_candidates(backend, self.sentences, self.sample, prompts, retries=3, backoff=0)
        assert backend.calls == 3
        assert out[1].p_hat == pytest.approx(0.6) and out[1].c_hat == 0.0
        backend = FlakyScript(["unusable", BackendError, BackendError])
        decision = select_candidate(backend, self.cands, prompts, retries=3, backoff=0)
        assert backend.calls == 3
        assert decision.fallback and decision.index == 1

    def test_explainer_step_raises_after_retries(self, prompts):
        backend = FlakyScript([BackendError] * 10)
        target, neighbors = self.entries()
        with pytest.raises(BackendError, match="failed after 3 attempts"):
            explain(backend, target, neighbors, prompts, retries=3, backoff=0)
        assert backend.calls == 3

    def test_explainer_retries_each_step(self, prompts):
        backend = FlakyScript([BackendError, "analysis", BackendError, BackendError, "attribution"])
        target, neighbors = self.entries()
        report = explain(backend, target, neighbors, prompts, retries=3, backoff=0)
        assert (report.comprehension, report.attribution) == ("analysis", "attribution")
        assert backend.calls == 5

    def test_entries_merge_first_value_wins(self, prompts):
        backend = FlakyScript(
            ["CANDIDATE 0: p=0.1, c=0.2", "CANDIDATE 0: p=0.9, c=0.9\nCANDIDATE 1: p=0.3, c=0.4"]
        )
        out = predict_candidates(backend, self.sentences, self.sample, prompts, retries=3, backoff=0)
        assert [(o.p_hat, o.c_hat) for o in out] == [(0.1, 0.2), (0.3, 0.4)]
        assert backend.calls == 2

    def test_only_transport_failures_sleep(self, prompts, monkeypatch):
        slept = []
        monkeypatch.setattr("hinstruct.agents.time.sleep", slept.append)
        backend = FlakyScript([BackendError, "unusable", BackendError, "CHOICE: 0"])
        decision = select_candidate(backend, self.cands, prompts, retries=4, backoff=0.5)
        assert decision.index == 0 and not decision.fallback
        assert slept == [0.5 * 2**0, 0.5 * 2**2]

    def test_no_sleep_after_last_attempt(self, prompts, monkeypatch):
        slept = []
        monkeypatch.setattr("hinstruct.agents.time.sleep", slept.append)
        backend = FlakyScript([BackendError] * 3)
        with pytest.raises(BackendError, match="failed after 3 attempts"):
            predict_candidates(backend, self.sentences, self.sample, prompts, retries=3, backoff=1.0)
        assert slept == [1.0, 2.0]

    def test_every_reply_recorded(self, prompts, tmp_path):
        log = TranscriptLog(tmp_path / "t.jsonl")
        backend = FlakyScript(["no choice", BackendError, "CHOICE: 1"])
        select_candidate(backend, self.cands, prompts, retries=3, backoff=0, transcript=log)
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert [json.loads(line)["response"] for line in lines] == ["no choice", "CHOICE: 1"]

    def test_zero_retries_rejected(self, prompts):
        backend = FlakyScript([])
        target, neighbors = self.entries()
        with pytest.raises(ValueError, match="retries"):
            predict_candidates(backend, self.sentences, self.sample, prompts, retries=0, backoff=0)
        with pytest.raises(ValueError, match="retries"):
            select_candidate(backend, self.cands, prompts, retries=0, backoff=0)
        with pytest.raises(ValueError, match="retries"):
            explain(backend, target, neighbors, prompts, retries=0, backoff=0)
        assert backend.calls == 0

    def test_retry_after_stretches_the_sleep(self, prompts, monkeypatch):
        slept = []
        monkeypatch.setattr("hinstruct.agents.time.sleep", slept.append)
        limited = BackendError("rate limited", retry_after=3.0)
        short = BackendError("rate limited", retry_after=0.5)
        backend = FlakyScript([limited, short, BackendError, "CHOICE: 0"])
        decision = select_candidate(backend, self.cands, prompts, retries=4, backoff=0.5)
        assert decision.index == 0
        # max(backoff * 2**attempt, retry_after) per failed attempt
        assert slept == [3.0, 1.0, 2.0]

    def test_retry_after_without_backoff_and_never_after_last(self, prompts, monkeypatch):
        slept = []
        monkeypatch.setattr("hinstruct.agents.time.sleep", slept.append)
        backend = FlakyScript([BackendError("429", retry_after=4.0)] * 2)
        with pytest.raises(BackendError, match="failed after 2 attempts"):
            predict_candidates(backend, self.sentences, self.sample, prompts, retries=2, backoff=0)
        assert slept == [4.0]

    @pytest.mark.parametrize("field, value", [("retries", 0), ("backoff", -1)])
    def test_search_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})


class TestPromptConstruction:
    def test_candidates_numbered_distinctly(self):
        block = predictor_candidate_block(["User rates Business"] * 3)
        assert block.count("CANDIDATE 0:") == 1
        assert block.count("CANDIDATE 2:") == 1

    def test_selector_block_carries_all_factors(self):
        c = ScoredCandidate("User rates Business", 0.25, 0.75, 4, 3, "key123")
        block = selector_candidate_block([c])
        for token in ("nodes=4", "edges=3", "p=0.250000", "c=0.750000", "key=key123"):
            assert token in block

    def test_prompt_dir_override(self, tmp_path):
        for name, placeholders in PROMPT_PLACEHOLDERS.items():
            (tmp_path / f"{name}.txt").write_text(f"TASK: TEST-{name}\n${placeholders[0]}\n")
        lib = PromptLibrary(tmp_path)
        rendered = lib.render("predictor", pool_block="hello", candidate_block="")
        assert rendered == "TASK: TEST-predictor\nhello\n"

    @pytest.mark.parametrize(
        "name, appended, says",
        [
            ("predictor", b"\n$typo\n", "unknown placeholder $typo; predictor fills $pool_block, $candidate_block"),
            ("explainer_step2", b"\ncosts $5\n", "Invalid placeholder in string: line 12, col 7"),
            ("selector", b"\n\xff\n", "'utf-8' codec can't decode byte 0xff"),
            ("explainer_step1", None, "No such file or directory"),
        ],
        ids=["unknown", "invalid", "not-utf8", "missing"],
    )
    def test_bad_template_is_data_error_naming_the_file(self, tmp_path, name, appended, says):
        for other in PROMPT_PLACEHOLDERS:
            shutil.copy(Path(agents.__file__).parent / "prompts" / f"{other}.txt", tmp_path)
        path = tmp_path / f"{name}.txt"
        if appended is None:
            path.unlink()
        else:
            path.write_bytes(path.read_bytes() + appended)
        with pytest.raises(DataError) as info:
            PromptLibrary(tmp_path)
        assert str(info.value).startswith(f"prompt template {path}: ")
        assert says in str(info.value)


class TestTranscripts:
    def test_jsonl_appended(self, tmp_path, prompts):
        path = tmp_path / "transcripts.jsonl"
        log = TranscriptLog(path)
        backend = StubBackend()
        predict_candidates(
            backend, ["User rates Business"], PoolSample(()), prompts, retries=3, backoff=0, transcript=log
        )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["agent"] == "predictor"
        assert entry["model"] == "stub"
        assert "CANDIDATE 0" in entry["response"]


class _ChatHandler(BaseHTTPRequestHandler):
    script = None  # list of (status, payload) or (status, payload, headers) set per test
    received = None

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).received.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        status, payload, *headers = type(self).script.pop(0)
        data = json.dumps(payload).encode()
        self.send_response(status)
        for name, value in dict(*headers).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    _ChatHandler.script = []
    _ChatHandler.received = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, _ChatHandler
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def reply(self, text):
        return (200, {"choices": [{"message": {"content": text}}]})

    def test_defaults(self):
        backend = HttpChatBackend(url="http://127.0.0.1:9/")
        assert (backend.model, backend.temperature, backend.timeout) == ("gpt-4", 0.0, 60.0)
        assert backend.api_key is None and backend.deterministic

    @pytest.mark.parametrize(
        "field, value",
        [("url", 5), ("url", ["x"]), ("url", ""), ("model", [1]), ("model", ""),
         ("temperature", "hot"), ("temperature", None), ("temperature", True),
         ("temperature", float("nan")), ("timeout", 0), ("timeout", -1), ("timeout", "abc"),
         ("timeout", float("inf"))],
    )
    def test_bad_setting_named(self, field, value):
        settings = {"url": "http://127.0.0.1:9/", field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            HttpChatBackend(**settings)

    def test_integer_settings_become_floats(self):
        backend = HttpChatBackend(url="http://127.0.0.1:9/", temperature=1, timeout=30)
        assert (type(backend.temperature), type(backend.timeout)) == (float, float)

    def test_wire_format(self, chat_server):
        server, handler = chat_server
        handler.script.append(self.reply("hello back"))
        backend = HttpChatBackend(
            url=f"http://127.0.0.1:{server.server_port}/v1/chat",
            model="test-model",
            api_key="secret-key",
            temperature=0.25,
        )
        out = backend.complete("be brief", "say hello")
        assert out == "hello back"
        seen = handler.received[0]
        assert seen["auth"] == "Bearer secret-key"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["temperature"] == 0.25
        assert seen["body"]["messages"][0] == {"role": "system", "content": "be brief"}
        assert seen["body"]["messages"][1] == {"role": "user", "content": "say hello"}

    def test_http_error_wrapped(self, chat_server):
        server, handler = chat_server
        handler.script.append((500, {"error": "boom"}))
        backend = HttpChatBackend(url=f"http://127.0.0.1:{server.server_port}/", model="m")
        with pytest.raises(BackendError):
            backend.complete("s", "u")

    def test_malformed_payload_wrapped(self, chat_server):
        server, handler = chat_server
        handler.script.append((200, {"unexpected": True}))
        backend = HttpChatBackend(url=f"http://127.0.0.1:{server.server_port}/", model="m")
        with pytest.raises(BackendError):
            backend.complete("s", "u")

    def test_retry_through_agent_layer(self, chat_server, prompts):
        server, handler = chat_server
        handler.script.append((500, {}))
        handler.script.append(self.reply("CANDIDATE 0: p=0.4, c=0.9"))
        backend = HttpChatBackend(url=f"http://127.0.0.1:{server.server_port}/", model="m")
        out = predict_candidates(
            backend, ["User rates Business"], PoolSample(()), prompts, retries=3, backoff=0
        )
        assert out[0] .p_hat == pytest.approx(0.4)
        assert len(handler.received) == 2

    def test_end_to_end_selection_over_http(self, chat_server, prompts):
        server, handler = chat_server
        handler.script.append(self.reply("CHOICE: 1\nbecause it is simpler"))
        backend = HttpChatBackend(url=f"http://127.0.0.1:{server.server_port}/", model="m")
        cands = [
            ScoredCandidate("User rates Business", 0.9, 0.5, 2, 1, "a"),
            ScoredCandidate("City hosts Business", 0.1, 0.5, 2, 1, "b"),
        ]
        decision = select_candidate(backend, cands, prompts, retries=3, backoff=0)
        assert decision.index == 1 and not decision.fallback
        assert "simpler" in decision.rationale

    def test_429_from_server_carries_retry_after(self, chat_server):
        server, handler = chat_server
        handler.script.append((429, {"error": "slow down"}, {"Retry-After": "4"}))
        backend = HttpChatBackend(url=f"http://127.0.0.1:{server.server_port}/", model="m", timeout=30.0)
        with pytest.raises(BackendError, match="429") as info:
            backend.complete("s", "u")
        assert info.value.retry_after == 4.0
        assert len(handler.received) == 1

    def test_refused_connection_is_backend_error(self):
        with socket.socket() as bound:  # bound but not listening: connections are refused
            bound.bind(("127.0.0.1", 0))
            backend = HttpChatBackend(url=f"http://127.0.0.1:{bound.getsockname()[1]}/", model="m")
            with pytest.raises(BackendError, match="chat completion failed") as info:
                backend.complete("s", "u")
        assert info.value.retry_after is None

    @pytest.mark.parametrize(
        "url", ["file:///etc/passwd", "ftp://127.0.0.1/chat", "data:,hello", "http:///v1/chat"]
    )
    def test_non_http_url_refused(self, url):
        with pytest.raises(ValueError, match="^url must be an http or https URL"):
            HttpChatBackend(url=url)


class _Reply:
    """One scripted reply of ``fake_urlopen``: status, JSON payload, headers."""

    def __init__(self, status_code, payload=None, headers=None):
        self.status_code = status_code
        self.payload = payload
        self.headers = headers or {}


def _content(text):
    return _Reply(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})


class TestHttpReplyChecks:
    def patch_urlopen(self, monkeypatch, replies):
        calls = []

        def answer(body):
            calls.append(body)
            reply = replies.pop(0)
            return reply.status_code, reply.payload, reply.headers

        monkeypatch.setattr("hinstruct.agents.urlopen", fake_urlopen(answer))
        return calls

    @pytest.mark.parametrize("content", [None, 3, ["text"], {"text": "x"}])
    def test_non_string_content_is_backend_error(self, monkeypatch, content):
        self.patch_urlopen(monkeypatch, [_content(content)])
        backend = HttpChatBackend(url="http://127.0.0.1:9/", model="m")
        with pytest.raises(BackendError, match="not a string"):
            backend.complete("s", "u")

    def test_null_content_costs_one_attempt(self, monkeypatch, prompts):
        calls = self.patch_urlopen(monkeypatch, [_content(None), _content("CANDIDATE 0: p=0.4, c=0.9")])
        backend = HttpChatBackend(url="http://127.0.0.1:9/", model="m")
        out = predict_candidates(
            backend, ["User rates Business"], PoolSample(()), prompts, retries=3, backoff=0
        )
        assert len(calls) == 2
        assert (out[0].p_hat, out[0].c_hat) == (pytest.approx(0.4), pytest.approx(0.9))

    @pytest.mark.parametrize(
        "header, expected",
        [
            ({"Retry-After": "7"}, 7.0),
            ({"Retry-After": " 0 "}, 0.0),
            ({"Retry-After": "120"}, 30.0),
            ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, None),
            ({"Retry-After": "-5"}, None),
            ({"Retry-After": "1.5"}, None),
            ({}, None),
        ],
    )
    def test_429_carries_retry_after(self, monkeypatch, header, expected):
        self.patch_urlopen(monkeypatch, [_Reply(429, {"error": "slow down"}, header)])
        backend = HttpChatBackend(url="http://127.0.0.1:9/", model="m", timeout=30.0)
        with pytest.raises(BackendError, match="429") as info:
            backend.complete("s", "u")
        assert info.value.retry_after == expected

    def test_429_then_reply_through_agent_layer(self, monkeypatch, prompts):
        slept = []
        monkeypatch.setattr("hinstruct.agents.time.sleep", slept.append)
        calls = self.patch_urlopen(
            monkeypatch,
            [_Reply(429, {}, {"Retry-After": "9"}), _content("CANDIDATE 0: p=0.2, c=0.5")],
        )
        backend = HttpChatBackend(url="http://127.0.0.1:9/", model="m")
        out = predict_candidates(
            backend, ["User rates Business"], PoolSample(()), prompts, retries=3, backoff=1.0
        )
        assert len(calls) == 2
        assert slept == [9.0]
        assert out[0].p_hat == pytest.approx(0.2)

    def test_other_errors_carry_no_retry_after(self, monkeypatch):
        self.patch_urlopen(monkeypatch, [_Reply(503, {}, {"Retry-After": "9"})])
        backend = HttpChatBackend(url="http://127.0.0.1:9/", model="m")
        with pytest.raises(BackendError) as info:
            backend.complete("s", "u")
        assert info.value.retry_after is None
