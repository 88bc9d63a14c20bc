import gc
import json
import random
import sys
import threading
import weakref
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests
from hypothesis import example, given, strategies as st

from conftest import RecordingBackend, write_script_file
from rare.errors import (
    MalformedReplyError,
    ScriptMissError,
    TransportError,
    ValidationError,
)
from rare import lm
from rare.lm import (
    HttpBackend,
    LmBackend,
    LmRequest,
    ScopedBackend,
    ScriptEntry,
    ScriptedBackend,
    count_tokens,
    load_script,
    prompt_key,
    request_for,
    _retry_after_s,
)


def scripted(*entries):
    return ScriptedBackend(entries)


class TestScriptedBackend:
    def test_keyed_entry_returns_scripted_strings_and_counts_one_call(self):
        backend = scripted(
            ScriptEntry("action_gen", ("first reply", "second reply"),
                        substrings=("K1",)),
        )
        resp = backend.complete(LmRequest("prompt with K1 inside", n_samples=2,
                                          temperature=0.8))
        assert resp.completions == ("first reply", "second reply")
        ledger = backend.snapshot_costs()
        assert ledger.total_calls == 1
        assert ledger.total_completion_tokens == count_tokens("first reply") + count_tokens("second reply")

    def test_zero_samples_is_invalid_request(self):
        backend = scripted(ScriptEntry("action_gen", ("x",)))
        with pytest.raises(ValidationError, match="n_samples"):
            backend.complete(LmRequest("p", n_samples=0))

    def test_script_miss_raises(self):
        backend = scripted(ScriptEntry("rating", ("Supported",)))
        with pytest.raises(ScriptMissError,
                           match="no script entry for purpose='action_gen'"):
            backend.complete(LmRequest("p", purpose_tag="action_gen"))

    def test_first_match_wins_in_order(self):
        backend = scripted(
            ScriptEntry("action_gen", ("specific",), substrings=("alpha", "beta")),
            ScriptEntry("action_gen", ("generic",), substrings=("alpha",)),
        )
        both = backend.complete(LmRequest("alpha beta", temperature=0.0))
        only = backend.complete(LmRequest("alpha only", temperature=0.0))
        assert both.completions == ("specific",)
        assert only.completions == ("generic",)

    def test_exact_hash_match(self):
        backend = scripted(
            ScriptEntry("action_gen", ("hit",), exact_hash=prompt_key("exact prompt")),
            ScriptEntry("action_gen", ("fallback",)),
        )
        assert backend.complete(LmRequest("exact prompt")).completions == ("hit",)
        assert backend.complete(LmRequest("other prompt")).completions == ("fallback",)

    def test_temperature_zero_gives_identical_samples(self):
        backend = scripted(ScriptEntry("action_gen", ("one", "two", "three")))
        resp = backend.complete(LmRequest("p", n_samples=3, temperature=0.0))
        assert resp.completions == ("one", "one", "one")

    def test_positive_temperature_cycles_completions(self):
        backend = scripted(ScriptEntry("action_gen", ("one", "two")))
        resp = backend.complete(LmRequest("p", n_samples=5, temperature=0.8))
        assert resp.completions == ("one", "two", "one", "two", "one")

    def test_pure_function_of_inputs(self):
        def run():
            backend = scripted(ScriptEntry("action_gen", ("a", "b")))
            return backend.complete(LmRequest("p", n_samples=4, temperature=1.0))

        assert run().completions == run().completions

    def test_a_used_backend_is_freed_without_the_cycle_collector(self):
        # the line memos must not form a reference cycle with their owners
        gc.disable()
        try:
            backend = scripted(ScriptEntry("action_gen", ("x",), substrings=("K",)))
            backend.complete(LmRequest("K\np q"))
            assert backend._tokens
            owners = [weakref.ref(backend), weakref.ref(backend._index["action_gen"])]
            del backend
            assert [owner() for owner in owners] == [None, None]
        finally:
            gc.enable()

    def test_call_log_records_interactions(self):
        backend = RecordingBackend(scripted(ScriptEntry("action_gen", ("a",))))
        backend.complete(LmRequest("p1"))
        backend.complete(LmRequest("p2"))
        log = backend.call_log()
        assert [(r.purpose, r.prompt) for r in log] == [
            ("action_gen", "p1"), ("action_gen", "p2"),
        ]


SCRIPT_PURPOSES = ("action_gen", "rating")
ALPHABET = "abc\n "  # line breaks and spaces, so substrings and prompts span lines
prompts = st.text(alphabet=ALPHABET, max_size=12)


@st.composite
def dispatch_cases(draw):
    """A random script and the requests sent to it.

    Substrings are prefixes, up to 6 characters, of a few random words, so
    they often share the three-character prefix that the dispatch index
    files them under, with different lengths, and some are prefixes of
    others. A prompt is random (up to 12 characters), joined from those
    prefixes, or one entry's substrings after a prefix, so a prefix often
    occurs before a longer substring that starts with it."""
    words = draw(st.lists(st.text(alphabet=ALPHABET, min_size=4, max_size=6),
                          min_size=1, max_size=3))
    fragments = sorted({w[:k] for w in words for k in range(len(w) + 1)})
    prompt = st.one_of(prompts, st.lists(st.sampled_from(fragments + list(ALPHABET)),
                                         max_size=4).map("".join))
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(SCRIPT_PURPOSES),
            st.booleans(),  # has completions
            st.one_of(st.none(), prompt.map(prompt_key)),
            st.lists(st.sampled_from(fragments), max_size=3),
        ),
        max_size=12,
    ))
    entries = [
        ScriptEntry(purpose, (f"e{i}", f"e{i} again") if has_completions else (),
                    exact_hash=exact_hash, substrings=tuple(substrings))
        for i, (purpose, has_completions, exact_hash, substrings) in enumerate(rows)
    ]
    call = st.tuples(prompt, st.sampled_from(SCRIPT_PURPOSES + ("query_gen",)))
    if entries:
        lead = st.tuples(st.sampled_from(fragments), st.text(alphabet=ALPHABET, max_size=2))
        aimed = st.tuples(lead.map("".join), st.sampled_from(entries)).map(
            lambda pair: (pair[0] + "".join(pair[1].substrings), pair[1].purpose))
        call = st.one_of(call, aimed)
    calls = draw(st.lists(call, min_size=1, max_size=6))
    return entries, calls


def first_match(entries, req):
    """The dispatch contract: first entry in script order that matches."""
    for e in entries:
        if (e.purpose == req.purpose_tag and e.exact_hash in (None, prompt_key(req.prompt))
                and all(s in req.prompt for s in e.substrings)):
            return e
    return None


def check_dispatch(entries, calls):
    """Sends every call twice, in two rounds, to one backend, so that the
    second round is answered from the line memos, and checks each reply and
    token count against ``first_match``. Returns the backend."""
    backend = ScriptedBackend(entries)
    for prompt, purpose in calls + calls:
        req = LmRequest(prompt, n_samples=3, temperature=0.8, purpose_tag=purpose)
        expected = first_match(entries, req)
        if expected is None:
            with pytest.raises(ScriptMissError,
                               match=f"no script entry for purpose={purpose!r}"):
                backend.complete(req)
        elif not expected.completions:
            with pytest.raises(ScriptMissError,
                               match="matched script entry has no completions"):
                backend.complete(req)
        else:
            first, second = expected.completions
            resp = backend.complete(req)
            assert resp.completions == (first, second, first)
            assert resp.prompt_tokens == len(prompt.split())
    assert backend.entries == tuple(entries)
    return backend


def action_entries(*substrings):
    """One action_gen entry per tuple of substrings, in order."""
    return [ScriptEntry("action_gen", (f"e{i}", f"e{i} again"), substrings=subs)
            for i, subs in enumerate(substrings)]


class TestScriptedDispatch:
    @given(dispatch_cases())
    # "abcab" occurs only after an earlier "abc" that does not start it
    @example((action_entries(("abcab",), ()), [("abcaabcab", "action_gen")]))
    # one prefix, two lengths, and one substring a prefix of the other
    @example((action_entries(("abcab",), ("abc",)), [("abcc", "action_gen")]))
    # the only matching substring holds a line break, so no single line holds it
    @example((action_entries(("b\na",)), [("ab\nab", "action_gen"), ("ab\n", "action_gen")]))
    def test_matches_linear_first_match(self, case):
        check_dispatch(*case)

    def test_matches_linear_first_match_past_the_line_memo_bound(self, monkeypatch):
        monkeypatch.setattr(lm, "LINE_MEMO_SIZE", 2)
        entries = action_entries(("abc", "a b"), ("c\na",), ("abc",))
        prompts = ["abc\nx a b", "x\nabc", "c\na b\nabc", "y y\nz", "abc\n\na b c"]
        backend = check_dispatch(entries, [(p, "action_gen") for p in prompts])
        assert len(backend._tokens) <= 2
        assert all(len(index.seen) <= 2 for index in backend._index.values())

    def test_workers_sharing_one_backend_get_exact_replies(self, monkeypatch):
        monkeypatch.setattr(lm, "LINE_MEMO_SIZE", 3)  # memos are emptied while others read
        entries = action_entries(("abc",), ("b\nc",), ("a b",), ())
        prompts = [f"{head}\nline {i}" for i in range(30) for head in ("abc", "b\nc", "a b", "x")]
        backend = ScriptedBackend(entries)
        wrong = []

        def work():
            for prompt in prompts:
                req = LmRequest(prompt, n_samples=2, temperature=0.8)
                resp = backend.complete(req)
                if (resp.completions[0], resp.prompt_tokens) != (
                        first_match(entries, req).completions[0], len(prompt.split())):
                    wrong.append(prompt)

        threads = [threading.Thread(target=work) for _ in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert backend.snapshot_costs().total_calls == len(threads) * len(prompts)


class TestLedger:
    def test_zero_after_no_calls(self):
        ledger = scripted(ScriptEntry("action_gen", ("x",))).snapshot_costs()
        assert ledger.total_calls == 0
        assert ledger.total_completion_tokens == 0
        assert ledger.per_purpose == {}

    def test_total_calls_counts_completes(self):
        backend = scripted(ScriptEntry("action_gen", ("x",)),
                           ScriptEntry("rating", ("y",)))
        for _ in range(2):
            backend.complete(LmRequest("p", purpose_tag="action_gen"))
        backend.complete(LmRequest("p", purpose_tag="rating"))
        assert backend.snapshot_costs().total_calls == 3

    def test_snapshots_are_stable_and_equal_without_interleaving_calls(self):
        backend = scripted(ScriptEntry("action_gen", ("x y z",)))
        backend.complete(LmRequest("p"))
        first = backend.snapshot_costs()
        second = backend.snapshot_costs()
        assert first == second
        backend.complete(LmRequest("p"))
        assert backend.snapshot_costs() != first
        # the old snapshot is a frozen copy, not a live view
        assert first.total_calls == 1

    @given(st.lists(st.sampled_from(["action_gen", "query_gen", "rating", "consistency"]),
                    max_size=25))
    def test_monotone_and_partitioned(self, purposes):
        backend = ScriptedBackend([
            ScriptEntry(p, ("tok tok",)) for p in
            ("action_gen", "query_gen", "rating", "consistency")
        ])
        previous = backend.snapshot_costs()
        for purpose in purposes:
            backend.complete(LmRequest("p", purpose_tag=purpose))
            ledger = backend.snapshot_costs()
            assert ledger.total_calls >= previous.total_calls
            assert ledger.total_completion_tokens >= previous.total_completion_tokens
            assert sum(c for c, _ in ledger.per_purpose.values()) == ledger.total_calls
            assert (sum(t for _, t in ledger.per_purpose.values())
                    == ledger.total_completion_tokens)
            previous = ledger


class TestScriptFile:
    def test_load_script_round_trip(self, tmp_path):
        path = tmp_path / "script.jsonl"
        lines = [
            {"purpose": "action_gen", "match": {"substring": "K1"},
             "completions": ["one", "two"]},
            {"purpose": "action_gen", "match": {"substring": ["a", "b"]},
             "completions": ["conj"]},
            {"purpose": "rating", "completions": ["Supported"]},
        ]
        path.write_text("\n".join(json.dumps(x) for x in lines), encoding="utf-8")
        backend = load_script(str(path))
        assert backend.complete(LmRequest("has K1", n_samples=2,
                                          temperature=0.9)).completions == ("one", "two")
        assert backend.complete(LmRequest("a and b")).completions == ("conj",)
        assert backend.complete(
            LmRequest("anything", purpose_tag="rating")).completions == ("Supported",)

    def test_bad_purpose_rejected(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(json.dumps({"purpose": "nope", "completions": ["x"]}))
        with pytest.raises(ValidationError, match="purpose"):
            load_script(str(path))

    @pytest.mark.parametrize("line", [
        "[1, 2]",
        '"just a string"',
        '{"purpose": "rating", "match": "x", "completions": ["y"]}',
        '{"purpose": "rating", "match": {"exact_hash": 5}, "completions": ["y"]}',
        '{"purpose": "rating", "match": {"substring": 5}, "completions": ["y"]}',
        '{"purpose": "rating", "match": {"substring": ["a", 5]}, "completions": ["y"]}',
        '{"purpose": "rating", "match": {"substr": "a"}, "completions": ["y"]}',
    ])
    def test_malformed_line_names_its_line(self, tmp_path, line):
        path = tmp_path / "script.jsonl"
        good = json.dumps({"purpose": "rating", "completions": ["Supported"]})
        path.write_text(good + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="^script line 2: "):
            load_script(str(path))

    def test_write_and_load_keep_hash_and_substrings(self, tmp_path):
        entry = ScriptEntry("rating", ("x",), exact_hash=prompt_key("p q"),
                            substrings=("zzz",))
        path = tmp_path / "script.jsonl"
        write_script_file(path, [entry])
        assert load_script(str(path)).entries == (entry,)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_script(str(path))


class _ChatHandler(BaseHTTPRequestHandler):
    """Serves queued (status, body) pairs; repeats the last one when drained."""

    queue: list[tuple[int, str]] = []
    seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        type(self).seen.append(payload)
        status, body = (self.queue.pop(0) if len(self.queue) > 1 else self.queue[0])
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ChatHandler.queue = []
    _ChatHandler.seen = []
    yield f"http://127.0.0.1:{server.server_port}", _ChatHandler
    server.shutdown()
    thread.join()
    server.server_close()


def chat_body(*contents, prompt_tokens=11, completion_tokens=7):
    return json.dumps({
        "choices": [{"message": {"content": c}} for c in contents],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    })


class TestHttpBackend:
    def test_happy_path_reads_choices_and_usage(self, chat_server):
        url, handler = chat_server
        handler.queue = [(200, chat_body("alpha", "beta"))]
        with HttpBackend(url, model="m", api_key="k", backoff_base=0.001) as backend:
            resp = backend.complete(LmRequest("hello", n_samples=2, temperature=0.5))
        assert resp.completions == ("alpha", "beta")
        assert resp.prompt_tokens == 11
        assert resp.completion_tokens == 7
        sent = handler.seen[0]
        assert sent["model"] == "m"
        assert sent["n"] == 2
        assert sent["messages"] == [{"role": "user", "content": "hello"}]
        assert sent["max_tokens"] == 1024

    def test_malformed_body_raises(self, chat_server):
        url, handler = chat_server
        handler.queue = [(200, json.dumps({"unexpected": True}))]
        with HttpBackend(url, model="m", backoff_base=0.001) as backend:
            with pytest.raises(MalformedReplyError):
                backend.complete(LmRequest("hello"))

    def test_retries_on_server_error_then_succeeds(self, chat_server):
        url, handler = chat_server
        handler.queue = [(500, "boom"), (200, chat_body("ok"))]
        with HttpBackend(url, model="m", backoff_base=0.001) as backend:
            resp = backend.complete(LmRequest("hello"))
        assert resp.completions == ("ok",)
        assert len(handler.seen) == 2

    def test_bounded_retries_then_transport_error(self, chat_server):
        url, handler = chat_server
        handler.queue = [(500, "boom")]
        with HttpBackend(url, model="m", backoff_base=0.001, max_attempts=3) as backend:
            with pytest.raises(TransportError):
                backend.complete(LmRequest("hello"))
        assert len(handler.seen) == 3

    def test_connection_refused_is_transport_error(self):
        with HttpBackend("http://127.0.0.1:9", model="m",
                         backoff_base=0.001, max_attempts=2) as backend:
            with pytest.raises(TransportError):
                backend.complete(LmRequest("hello"))

    def test_tops_up_when_endpoint_ignores_n(self, chat_server):
        url, handler = chat_server
        handler.queue = [(200, chat_body("only-one"))]
        with HttpBackend(url, model="m", backoff_base=0.001) as backend:
            resp = backend.complete(LmRequest("hello", n_samples=3, temperature=0.7))
        assert resp.completions == ("only-one",) * 3
        assert backend.snapshot_costs().total_calls == 1

    def test_from_env_requires_base_url_and_model(self):
        with pytest.raises(ValidationError):
            HttpBackend.from_env({})
        backend = HttpBackend.from_env({
            "RARE_LM_BASE_URL": "http://x", "RARE_LM_MODEL": "m",
        })
        assert backend.base_url == "http://x"


class _FakeResponse:
    def __init__(self, body: dict, status_code: int = 200, headers: dict | None = None):
        self.status_code = status_code
        self.headers = headers or {}
        self.text = json.dumps(body)
        self._body = body

    def json(self):
        return self._body


class _FakeSession:
    """Stands in for ``requests.Session``: ``reply(payload)`` gives the body
    of each POST, a whole ``_FakeResponse``, or an exception to raise from it."""

    def __init__(self, reply):
        self.reply = reply
        self.posts: list[dict] = []

    def post(self, url, json, headers, timeout):
        self.posts.append(json)
        result = self.reply(json)
        if isinstance(result, Exception):
            raise result
        return result if isinstance(result, _FakeResponse) else _FakeResponse(result)


def fake_backend(reply, **kwargs):
    session = _FakeSession(reply)
    return HttpBackend("http://fake", model="m", backoff_base=0.001,
                       session=session, **kwargs), session


def top_of_jitter(monkeypatch, backend):
    """Make each jittered wait its upper end, the plain exponential backoff."""
    monkeypatch.setattr(backend._jitter, "uniform", lambda low, high: high)


def reply_body(content, usage=None):
    return {"choices": [{"message": {"content": content}}],
            "usage": usage or {"prompt_tokens": 3, "completion_tokens": 2}}


class TestHttpBackendFaults:
    def test_one_session_per_thread(self, monkeypatch):
        sessions = []

        class CountingSession(_FakeSession):
            def __init__(self):
                super().__init__(lambda payload: reply_body("ok"))
                sessions.append(self)

        monkeypatch.setattr("requests.Session", CountingSession)
        backend = HttpBackend("http://fake", model="m")
        errors = []

        def two_calls():
            try:
                for prompt in ("first", "second"):
                    backend.complete(LmRequest(prompt))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=two_calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert errors == []
        assert len(sessions) == 2
        assert [len(session.posts) for session in sessions] == [2, 2]
        assert backend.snapshot_costs().total_calls == 4

    def test_close_closes_every_created_session(self, monkeypatch):
        class ClosingSession(_FakeSession):
            def __init__(self):
                super().__init__(lambda payload: reply_body("ok"))
                self.closes = 0

            def close(self):
                self.closes += 1

        created = []
        monkeypatch.setattr("requests.Session",
                            lambda: created.append(ClosingSession()) or created[-1])
        backend = HttpBackend("http://fake", model="m")
        threads = [threading.Thread(target=backend.complete, args=(LmRequest("hi"),))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        backend.close()
        assert [session.closes for session in created] == [1, 1]

        injected = ClosingSession()
        with HttpBackend("http://fake", model="m", session=injected) as shared:
            shared.complete(LmRequest("hi"))
        assert injected.closes == 0
        assert len(injected.posts) == 1

    @pytest.mark.parametrize("content", [None, 42, ["text"]])
    def test_non_string_content_is_malformed(self, content):
        backend, _ = fake_backend(lambda payload: reply_body(content))
        with pytest.raises(MalformedReplyError):
            backend.complete(LmRequest("hello"))

    @pytest.mark.parametrize("usage", [
        {"prompt_tokens": "many", "completion_tokens": 2},
        {"prompt_tokens": 3, "completion_tokens": "a few"},
        {"prompt_tokens": 3, "completion_tokens": float("inf")},
        ["not", "a", "mapping"],
    ])
    def test_non_numeric_usage_is_malformed(self, usage):
        backend, _ = fake_backend(lambda payload: reply_body("ok", usage))
        with pytest.raises(MalformedReplyError):
            backend.complete(LmRequest("hello"))

    @pytest.mark.parametrize("usage", [
        {"prompt_tokens": -3, "completion_tokens": 2},
        {"prompt_tokens": 3, "completion_tokens": -100},
    ])
    def test_negative_usage_is_malformed(self, usage):
        backend, _ = fake_backend(lambda payload: reply_body("ok", usage))
        with pytest.raises(MalformedReplyError, match="negative"):
            backend.complete(LmRequest("hello"))
        assert backend.snapshot_costs().total_completion_tokens == 0

    def test_bad_usage_costs_only_its_question(self):
        from conftest import make_eval_question
        from rare.harness import run_eval
        from rare.types import SearchConfig

        def reply(payload):
            prompt = payload["messages"][0]["content"]
            usage = {"prompt_tokens": "many"} if "[q02]" in prompt else None
            return reply_body("The answer is B: beta therapy.", usage)

        backend, _ = fake_backend(reply)
        questions = [make_eval_question(f"q0{i}", "B") for i in (1, 2, 3)]
        report = run_eval(questions, "cot", backend, None,
                          SearchConfig(rng_seed=0), workers=1)
        errors = {r.question_id: r.error for r in report.records}
        assert errors["q01"] is None and errors["q03"] is None
        assert errors["q02"].startswith("MalformedReplyError")
        assert report.accuracy == 2 / 3

    def test_other_requests_errors_are_retried(self):
        failures = [requests.exceptions.ChunkedEncodingError("cut short")]

        def reply(payload):
            return failures.pop() if failures else reply_body("ok")

        backend, session = fake_backend(reply)
        assert backend.complete(LmRequest("hello")).completions == ("ok",)
        assert len(session.posts) == 2

    @pytest.mark.parametrize("status, retry_after, wait", [
        (429, "2", 2.0),             # the endpoint asks for longer than the backoff
        (503, "0.5", 0.5),
        (503, "1000", 5.0),          # capped at the timeout
        (429, None, 0.25),           # no header: the backoff
        (503, "0.1", 0.25),          # shorter than the backoff
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.25),  # a past date counts as 0
        (503, "nan", 0.25),
    ])
    def test_waits_for_numeric_retry_after(self, monkeypatch, status, retry_after, wait):
        sleeps = []
        monkeypatch.setattr("rare.lm.time.sleep", sleeps.append)
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        failures = [_FakeResponse({}, status, headers)]
        session = _FakeSession(lambda payload: failures.pop() if failures
                               else reply_body("ok"))
        backend = HttpBackend("http://fake", model="m", timeout=5.0, backoff_base=0.25,
                              session=session)
        top_of_jitter(monkeypatch, backend)
        assert backend.complete(LmRequest("hello")).completions == ("ok",)
        assert sleeps == [wait]
        assert len(session.posts) == 2

    @pytest.mark.parametrize("now_offset, wait", [
        (-2.0, 2.0),       # two seconds before the date
        (-1000.0, 5.0),    # capped at the timeout
        (-0.1, 0.25),      # shorter than the backoff
        (10.0, 0.25),      # the date has passed
    ])
    def test_waits_for_http_date_retry_after(self, monkeypatch, now_offset, wait):
        date = "Wed, 21 Oct 2015 07:28:00 GMT"  # 1445412480 s after the epoch
        sleeps = []
        monkeypatch.setattr("rare.lm.time.sleep", sleeps.append)
        monkeypatch.setattr("rare.lm.time.time", lambda: 1445412480 + now_offset)
        failures = [_FakeResponse({}, 503, {"Retry-After": date})]
        session = _FakeSession(lambda payload: failures.pop() if failures
                               else reply_body("ok"))
        backend = HttpBackend("http://fake", model="m", timeout=5.0, backoff_base=0.25,
                              session=session)
        top_of_jitter(monkeypatch, backend)
        assert backend.complete(LmRequest("hello")).completions == ("ok",)
        assert sleeps == [pytest.approx(wait)]

    @pytest.mark.parametrize("value", ["Wed, 99 Foo 2015 07:28:00 GMT", "soon", ""])
    def test_unreadable_retry_after_counts_as_zero(self, value):
        assert _retry_after_s(value) == 0.0

    def test_retry_after_holds_for_one_wait_and_backoff_doubles(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("rare.lm.time.sleep", sleeps.append)
        replies = [requests.exceptions.ConnectionError("refused")] * 2 + [
            _FakeResponse({}, 429, {"Retry-After": "3"})]
        backend, _ = fake_backend(lambda payload: replies.pop(), max_attempts=3)
        top_of_jitter(monkeypatch, backend)
        with pytest.raises(TransportError):
            backend.complete(LmRequest("hello"))
        assert sleeps == [3.0, 0.002]

    def test_backoff_is_drawn_with_full_jitter(self, monkeypatch):
        sleeps, draws = [], []
        monkeypatch.setattr("rare.lm.time.sleep", sleeps.append)
        replies = [
            reply_body("ok"),
            requests.exceptions.ConnectionError("refused"),
            _FakeResponse({}, 503, {"Retry-After": "100"}),  # capped at the timeout
            _FakeResponse({}, 429, {"Retry-After": "0.3"}),  # a floor above the draw
            requests.exceptions.ConnectionError("refused"),
        ]
        session = _FakeSession(lambda payload: replies.pop())
        backend = HttpBackend("http://fake", model="m", timeout=5.0, backoff_base=0.25,
                              max_attempts=5, session=session)

        def draw(low, high):
            draws.append((low, high))
            return high / 2

        monkeypatch.setattr(backend._jitter, "uniform", draw)
        assert backend.complete(LmRequest("hello")).completions == ("ok",)
        assert draws == [(0.0, 0.25), (0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]
        assert sleeps == [0.125, 0.3, 5.0, 1.0]

    def test_jitter_leaves_the_global_rng_alone(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("rare.lm.time.sleep", sleeps.append)
        backend, _ = fake_backend(
            lambda payload: requests.exceptions.ConnectionError("refused"), max_attempts=4)
        state = random.getstate()
        with pytest.raises(TransportError):
            backend.complete(LmRequest("hello"))
        assert random.getstate() == state
        assert len(sleeps) == 3
        assert all(0.0 <= wait <= 0.001 * 2 ** i for i, wait in enumerate(sleeps))

    def test_persistent_requests_error_becomes_transport_error(self):
        backend, session = fake_backend(
            lambda payload: requests.exceptions.ChunkedEncodingError("cut short"),
            max_attempts=3)
        with pytest.raises(TransportError):
            backend.complete(LmRequest("hello"))
        assert len(session.posts) == 3


class _TinyModelHandler(BaseHTTPRequestHandler):
    """Emulates a chat endpoint well enough to drive a whole search pass."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        prompt = payload["messages"][0]["content"]
        n = payload.get("n", 1)
        if "formulate a query" in prompt:
            reply = "Query 2.1: alpha pathway basics\nQuery 2.2: beta therapy evidence"
        elif "Reply with exactly one label" in prompt:
            reply = "Supported"
        elif "short search queries" in prompt:
            reply = "core mechanism evidence"
        elif "decompose it into sub-questions" in prompt:
            if "Answer 2.1" in prompt:
                reply = ("Question 2.2: Now we can answer the question: which?\n"
                         "Answer 2.2: The answer is B: beta therapy.")
            else:
                reply = ("Question 2.1: What mechanism applies?\n"
                         "Answer 2.1: The core mechanism governs response.")
        elif "rephrase questions" in prompt:
            reply = ("Restated: which therapy suits the presentation? "
                     "A: alpha therapy, B: beta therapy, C: gamma therapy")
        elif "46-year-old woman" in prompt:
            reply = "Step 1: The presentation points at the core mechanism."
        else:
            reply = "Considering everything, the answer is B: beta therapy."
        body = json.dumps({
            "choices": [{"message": {"content": reply}} for _ in range(n)],
            "usage": {"prompt_tokens": len(prompt.split()),
                      "completion_tokens": n * len(reply.split())},
        }).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestHttpPipelineIntegration:
    def test_full_search_and_scoring_over_http(self):
        from conftest import fixture_corpus, make_eval_question
        from rare.factuality import score_candidates
        from rare.mcts import SearchTree, run_search
        from rare.retrieval import build_index
        from rare.selection import select_rare
        from rare.types import SearchConfig

        server = HTTPServer(("127.0.0.1", 0), _TinyModelHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with HttpBackend(f"http://127.0.0.1:{server.server_port}",
                             model="tiny", backoff_base=0.001) as backend:
                question = make_eval_question("q01", "B")
                index = build_index(fixture_corpus())
                cfg = SearchConfig(rollouts=3, rng_seed=2)
                candidates = run_search(SearchTree(question, cfg), backend, index)
                scored = score_candidates(candidates, backend, index, cfg)
                chosen = select_rare(scored)
            assert chosen.final_answer == "B"
            assert chosen.factuality is not None
            assert chosen.factuality.score == 1.0
            assert backend.snapshot_costs().total_calls > 0
        finally:
            server.shutdown()
            thread.join()
            server.server_close()


class _Flaky(LmBackend):
    """Forwards to ``inner``, but raises on the calls ``fail_next`` names."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.fail_next = False
        self.attempts = 0

    def _complete(self, req):
        self.attempts += 1
        if self.fail_next:
            raise TransportError("endpoint down")
        return self.inner.complete(req)


def memo_script():
    return scripted(
        ScriptEntry("action_gen", ("a1 x", "a2 x y", "a3"), substrings=("alpha",)),
        ScriptEntry("action_gen", ("b1", "b2 z"), substrings=("beta",)),
        ScriptEntry("action_gen", ("c1 c2",)),
    )


memo_steps = st.lists(st.tuples(
    st.sampled_from(["alpha", "beta", "gamma"]),
    st.sampled_from([0.0, 0.8]),
    st.integers(min_value=1, max_value=2),
    st.sampled_from([(), ("\n",)]),
    st.booleans(),  # the inner backend fails this call
), max_size=25)


class TestScopedBackend:
    def test_scope_and_shared_ledgers_both_update(self):
        inner = scripted(ScriptEntry("action_gen", ("x y",)))
        scope_a = ScopedBackend(inner)
        scope_b = ScopedBackend(inner)
        scope_a.complete(LmRequest("p"))
        scope_a.complete(LmRequest("q"))
        scope_b.complete(LmRequest("p"))
        assert scope_a.snapshot_costs().total_calls == 2
        assert scope_b.snapshot_costs().total_calls == 1
        assert inner.snapshot_costs().total_calls == 3

    def test_repeated_greedy_request_is_not_a_call(self):
        inner = scripted(ScriptEntry("action_gen", ("x y",)))
        scope = ScopedBackend(inner)
        first = scope.complete(LmRequest("p"))
        assert scope.complete(LmRequest("p")) == first
        assert scope.snapshot_costs() == inner.snapshot_costs()
        assert inner.snapshot_costs().total_calls == 1
        # another scope, as another question gets, pays for it again
        ScopedBackend(inner).complete(LmRequest("p"))
        assert inner.snapshot_costs().total_calls == 2

    @given(memo_steps)
    def test_greedy_memo_matches_a_scope_without_it(self, steps):
        flaky = _Flaky(memo_script())
        scope = ScopedBackend(flaky)
        reference = RecordingBackend(memo_script())  # forwards every request
        completed: set[LmRequest] = set()
        attempts = calls = 0
        for prompt, temperature, n, stop, fail in steps:
            req = LmRequest(prompt, n_samples=n, temperature=temperature,
                            stop_sequences=stop)
            repeat = temperature == 0 and req in completed
            flaky.fail_next = fail
            if not repeat:
                attempts += 1
            if fail and not repeat:
                with pytest.raises(TransportError):
                    scope.complete(req)
                continue
            assert scope.complete(req) == reference.complete(req)
            if not repeat:
                calls += 1
                if temperature == 0:
                    completed.add(req)
        assert flaky.attempts == attempts
        assert flaky.snapshot_costs().total_calls == calls
        assert scope.snapshot_costs() == flaky.snapshot_costs()
        # sampled requests, plus each distinct greedy request once it succeeded
        sampled = sum(1 for p, t, n, s, f in steps if t and not f)
        assert calls == sampled + len(completed)

    def test_failed_greedy_request_is_retried(self):
        flaky = _Flaky(memo_script())
        scope = ScopedBackend(flaky)
        flaky.fail_next = True
        with pytest.raises(TransportError):
            scope.complete(LmRequest("alpha"))
        flaky.fail_next = False
        assert scope.complete(LmRequest("alpha")).completions == ("a1 x",)
        assert flaky.attempts == 2


class TestRequestFor:
    def test_rating_requests_are_greedy(self):
        assert request_for("rating", "p").temperature == 0.0
        assert request_for("action_gen", "p").temperature == 0.8
        assert request_for("consistency", "p", 4).n_samples == 4
