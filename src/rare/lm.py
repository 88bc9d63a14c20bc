"""Language-model invocation boundary.

Two interchangeable backends sit behind one ``complete()`` contract: an HTTP
client for chat-completions endpoints and a scripted backend that replays
canned completions for tests and offline runs. Both maintain a thread-safe
cost ledger counting calls and tokens per purpose. A question reaches the
shared backend through its ``rare.actions.Scope``, which keeps the
question's own ledger and answers its repeated greedy requests.

``settle_many`` sends a wave of independent requests with their round
trips overlapped on a shared pool, then checks and books every response on
the caller's thread, in request order, keeping each failure in its place.
The scripted backend serves a wave one request at a time.

``requests`` is imported only when the HTTP backend opens a session or
posts, so importing the package and running offline never load it. The wave
pool is made at import, but starts no thread until an overlapped wave.

Token counts from the scripted backend are whitespace word counts, so fixture
authors can verify ledger totals by hand.
"""

from __future__ import annotations

import math
import random
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from .errors import (
    LmBackendError,
    MalformedReplyError,
    ScriptMissError,
    TransportError,
    ValidationError,
)
from .types import read_records

if TYPE_CHECKING:
    import requests

PURPOSES = ("action_gen", "query_gen", "rating", "consistency")
MATCH_KEYS = frozenset({"substring"})
MAX_TOKENS = 1024  # completion cap that HttpBackend sends with every request
# Lines each ScriptedBackend memo keeps. A 40-question rare pass of the
# benchmark's tree-cpu workload reads 581 distinct lines; a full memo is
# emptied and refills from the lines that follow.
LINE_MEMO_SIZE = 2048
# Threads of the pool that overlaps waves (``settle_many``), shared by every
# backend and worker; a wave's first request stays on the caller's thread.
WAVE_THREADS = 8
_wave_pool = ThreadPoolExecutor(WAVE_THREADS, "rare-wave")

# The endpoint's temperature drives sampling diversity; rating is greedy.
DEFAULT_TEMPERATURES = {
    "action_gen": 0.8,
    "query_gen": 0.0,
    "rating": 0.0,
    "consistency": 0.8,
}


def count_tokens(text: str) -> int:
    return len(text.split())


@dataclass(frozen=True)
class LmRequest:
    prompt: str
    n_samples: int = 1
    temperature: float = 0.0
    stop_sequences: tuple[str, ...] = ()
    purpose_tag: str = "action_gen"

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValidationError("invalid request: n_samples must be >= 1")
        if not 0 <= self.temperature < float("inf"):  # NaN fails every comparison
            raise ValidationError("invalid request: temperature must be finite and >= 0")
        if self.purpose_tag not in PURPOSES:
            raise ValidationError(f"invalid request: unknown purpose {self.purpose_tag!r}")


@dataclass(frozen=True)
class LmResponse:
    completions: tuple[str, ...]
    prompt_tokens: int
    completion_tokens: int


@dataclass(frozen=True)
class CostLedger:
    """Point-in-time costs: purpose -> (calls, prompt tokens, completion tokens)."""

    per_purpose: dict[str, tuple[int, int, int]] = field(default_factory=dict)

    @property
    def total_calls(self) -> int:
        return sum(v[0] for v in self.per_purpose.values())

    @property
    def total_prompt_tokens(self) -> int:
        return sum(v[1] for v in self.per_purpose.values())

    @property
    def total_completion_tokens(self) -> int:
        return sum(v[2] for v in self.per_purpose.values())


class Ledger:
    """Thread-safe call and token counts per purpose, of a backend or a ``Scope``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # purpose -> [calls, prompt tokens, completion tokens]
        self._per_purpose: dict[str, list[int]] = {}

    def book(self, req: LmRequest, resp: LmResponse) -> LmResponse:
        """Check ``resp`` against ``req``, count it and return it."""
        if len(resp.completions) != req.n_samples:
            raise MalformedReplyError(
                f"backend returned {len(resp.completions)} completions for n={req.n_samples}"
            )
        with self._lock:
            bucket = self._per_purpose.setdefault(req.purpose_tag, [0, 0, 0])
            bucket[0] += 1
            bucket[1] += resp.prompt_tokens
            bucket[2] += resp.completion_tokens
        return resp

    def snapshot_costs(self) -> CostLedger:
        with self._lock:
            return CostLedger({k: tuple(v) for k, v in self._per_purpose.items()})


class LmBackend(Ledger):
    """Base class providing ledger accounting around ``_complete``."""

    serves_in_turn = False  # True: no round trip to overlap, so waves go in turn

    def complete(self, req: LmRequest, sent: Callable[[], LmResponse] | None = None,
                 ) -> LmResponse:
        """``req``'s response, checked and booked. ``sent``, when given, returns
        it in place of ``_complete``: a round trip ``settle_many`` started."""
        return self.book(req, self._complete(req) if sent is None else sent())

    def settle_many(self, reqs: Sequence[LmRequest]) -> list[LmResponse | Exception]:
        """Each request's response, or the exception it raised, in order. All
        but the first go to the wave pool at once, unless the backend serves
        in turn or this is a pool thread (whose waves would wait on a full
        pool); then ``complete`` sends the first and checks and books each
        response on this thread, in order."""
        sent: list[Callable[[], LmResponse] | None] = [None] * len(reqs)
        if not (self.serves_in_turn or threading.current_thread().name.startswith("rare-wave")):
            sent[1:] = [_wave_pool.submit(self._complete, req).result for req in reqs[1:]]
        outcomes: list[LmResponse | Exception] = []
        for req, result in zip(reqs, sent):
            try:  # the caller's own request is booked as a lone call is
                outcomes.append(self.complete(req) if result is None
                                else self.complete(req, sent=result))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    def _complete(self, req: LmRequest) -> LmResponse:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open; nothing by default."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class ScriptEntry:
    """One scripted reply. It matches a request of its purpose when every
    one of ``substrings`` occurs in the prompt; an entry without substrings
    is a catch-all for its purpose. The first matching entry in script
    order wins."""

    purpose: str
    completions: tuple[str, ...]
    substrings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.purpose not in PURPOSES:
            raise ValidationError(f"unknown purpose {self.purpose!r}")
        if not self.completions or not all(isinstance(c, str) for c in self.completions):
            raise ValidationError("completions must be one or more strings")
        if not all(isinstance(s, str) for s in self.substrings):
            raise ValidationError("substrings must be strings")


class _LineMemo(dict):
    """``memo[line]`` is ``compute(line)``, kept for up to ``LINE_MEMO_SIZE``
    lines. ``compute`` must not refer to the memo's owner, or the two form a
    reference cycle. Workers share a memo without a lock: a store is one dict
    operation of a value that depends only on the line, so racing stores
    agree, and a store lost to an emptying costs only a recomputation."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, line: str):
        value = self.compute(line)
        if len(self) >= LINE_MEMO_SIZE:
            self.clear()
        self[line] = value
        return value


def _scan_line(groups, substrings, line: str) -> tuple[str, ...]:
    """The ``substrings`` that occur in ``line``. Every occurrence of ``s``
    begins with ``s[:3]``, so scanning for each prefix of ``groups`` visits
    them all."""
    found: set[str] = set()
    for prefix, lengths in groups:
        i = line.find(prefix)
        while i >= 0:
            for n in lengths:
                s = line[i:i + n]
                if s in substrings:
                    found.add(s)
            i = line.find(prefix, i + 1)
    return tuple(found)


class _PurposeIndex:
    """One purpose's entries, indexed for presence-first dispatch.

    Every distinct non-empty substring without a line break is filed under
    its first three characters and its length. Each entry is filed under its
    substring that is rarest in the bucket, or, with none, is a candidate
    for every prompt. A request first finds which substrings occur in the
    prompt, then checks only the entries keyed by those substrings, in
    script order.

    A substring without a line break lies inside one line of the prompt, so
    the prompt holds it exactly when one of its lines does. Each line is
    scanned once and its substrings are memoized (``seen``); a prompt's are
    the union over its lines. Substrings with a line break are tested on the
    whole prompt."""

    def __init__(self, entries: Sequence[ScriptEntry]):
        self.entries = entries
        # each entry's non-empty substrings, by script position
        self.needs = needs = [tuple(s for s in e.substrings if s) if "" in e.substrings
                              else e.substrings for e in entries]
        # substring -> how many times the entries hold it
        holders = Counter(chain.from_iterable(needs))
        self.spanning = tuple(s for s in holders if "\n" in s)
        groups: dict[str, dict[int, None]] = {}
        for s in holders:
            if "\n" not in s:
                groups.setdefault(s[:3], {})[len(s)] = None
        groups = tuple((prefix, tuple(lengths)) for prefix, lengths in groups.items())
        self.seen = _LineMemo(partial(_scan_line, groups, holders))
        # Script positions, in script order.
        self.always: list[int] = []
        self.by_substring: dict[str, list[int]] = {}
        for pos, need in enumerate(needs):
            if not need:
                self.always.append(pos)
            else:
                if len(need) > 2:
                    rarest = min(need, key=holders.__getitem__)
                else:  # the usual shape; min() with a key costs more than the rest of the build
                    first, last = need[0], need[-1]
                    rarest = last if holders[last] < holders[first] else first
                self.by_substring.setdefault(rarest, []).append(pos)

    def match(self, prompt: str, lines: list[str]) -> ScriptEntry | None:
        """The first matching entry in script order, or None. ``lines`` is
        ``prompt.split("\\n")``."""
        # not set().union(*map(...)): CPython grows that argument tuple by
        # resizing, which fills its tuple free lists (+3 MB peak RSS, tree-cpu)
        present = set(chain.from_iterable(map(self.seen.__getitem__, lines)))
        present.update(s for s in self.spanning if s in prompt)
        candidates = [self.always]
        candidates.extend(self.by_substring.get(s, ()) for s in present)
        needs = self.needs
        best = len(needs)
        for positions in candidates:
            for pos in positions:
                if pos >= best:
                    break
                if present.issuperset(needs[pos]):
                    best = pos
                    break
        return self.entries[best] if best < len(needs) else None


class ScriptedBackend(LmBackend):
    """Deterministic backend: a pure function of (script, prompt, n, temperature).

    Dispatch picks the first matching entry in script order, as described on
    ``ScriptEntry``, through an index of each purpose's entries that is built
    once, at construction (``_PurposeIndex``).

    Prompts are rendered from a few templates, so most of their lines repeat
    earlier prompts. Each prompt is split once on ``"\\n"``; the substrings
    a line holds (per purpose) and its whitespace-token count are memoized
    per line, and the prompt's are the union and the sum over its lines.
    Both are exact: ``str.split()`` treats ``"\\n"`` as whitespace, so no
    token spans two lines. The token memo also counts completions, which
    are the entries' own strings.

    With temperature 0 every sample equals the entry's first completion;
    otherwise samples cycle through the entry's completion list across the
    whole request. The search's A2 request is a ``consistency`` request whose
    first ``c`` samples are the A2 children it draws; a context's vote is
    samples ``[c, c+n)`` of the request that draws it (``c`` is 0 when a
    reward draws it alone). Its multiset is an unbatched request's of ``n``,
    whatever ``c``, when the entry's completion count divides ``n``.
    """

    serves_in_turn = True

    def __init__(self, entries: Iterable[ScriptEntry]):
        super().__init__()
        self.entries = tuple(entries)
        buckets: dict[str, list[ScriptEntry]] = {}
        for entry in self.entries:
            buckets.setdefault(entry.purpose, []).append(entry)
        # Only the line memos change after construction; see _LineMemo for
        # why worker threads share them without a lock.
        self._index = {purpose: _PurposeIndex(bucket) for purpose, bucket in buckets.items()}
        self._tokens = _LineMemo(count_tokens)

    def _complete(self, req: LmRequest) -> LmResponse:
        lines = req.prompt.split("\n")
        index = self._index.get(req.purpose_tag)
        entry = index.match(req.prompt, lines) if index is not None else None
        if entry is None:
            head = req.prompt[:80].replace("\n", " ")
            raise ScriptMissError(
                f"no script entry for purpose={req.purpose_tag!r} prompt={head!r}..."
            )
        if req.temperature == 0:
            samples = (entry.completions[0],) * req.n_samples
        else:
            samples = tuple(
                entry.completions[i % len(entry.completions)]
                for i in range(req.n_samples)
            )
        tokens = self._tokens.__getitem__
        return LmResponse(
            completions=samples,
            prompt_tokens=sum(map(tokens, lines)),
            completion_tokens=sum(map(tokens, samples)),
        )


def load_script(path: str) -> ScriptedBackend:
    """Read a script file: one JSON object per line with keys
    ``purpose``, optional ``match`` ({"substring": s-or-list}) and
    ``completions``. ``ScriptEntry`` refuses an entry that breaks its rules."""
    return ScriptedBackend(read_records(path, "script ", script_entry_from_record,
                                        ValidationError))


def script_entry_from_record(record: Any) -> ScriptEntry:
    if not isinstance(record, dict):
        raise ValidationError("expected a JSON object")
    completions = record.get("completions")
    if not isinstance(completions, list):
        raise ValidationError("completions must be a list")
    match = record.get("match") or {}
    if not isinstance(match, dict):
        raise ValidationError("match must be an object")
    if not match.keys() <= MATCH_KEYS:
        raise ValidationError(f"unknown match keys {sorted(match.keys() - MATCH_KEYS)}")
    substring = match.get("substring")
    if substring is None:
        substrings: tuple[str, ...] = ()
    elif isinstance(substring, str):
        substrings = (substring,)
    elif isinstance(substring, list):
        substrings = tuple(substring)
    else:
        raise ValidationError("substring must be a string or a list of strings")
    return ScriptEntry(
        purpose=record.get("purpose"),
        completions=tuple(completions),
        substrings=substrings,
    )


class HttpBackend(LmBackend):
    """Client for a chat-completions endpoint.

    POSTs ``{base_url}/v1/chat/completions`` and reads
    ``choices[*].message.content`` plus usage token counts. Transport
    failures (any ``requests`` exception, HTTP 429 or 5xx) are retried with
    exponential backoff and full jitter: each wait is drawn uniformly from
    zero to the backoff, by a private RNG, so workers that failed together
    do not retry together and no seeded RNG is drawn from. After a 429 or
    5xx the wait is at least ``Retry-After`` (seconds, or an HTTP date; a
    past date counts as 0). Every wait is capped at ``timeout``. Other
    failures surface immediately. If the endpoint
    returns fewer choices than requested the client tops up with follow-up
    posts, still recorded as one logical call.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 120.0,
        max_attempts: int = 3,
        backoff_base: float = 0.25,
        session: requests.Session | None = None,
    ):
        super().__init__()
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._session = session
        self._local = threading.local()
        self._created: list[requests.Session] = []
        self._jitter = random.Random()

    def _thread_session(self) -> requests.Session:
        """The injected session if one was given, else one session per
        thread: ``requests.Session`` is not documented as thread-safe, and
        ``run_eval`` workers and the wave pool's threads share this backend."""
        if self._session is not None:
            return self._session
        session = getattr(self._local, "session", None)
        if session is None:
            import requests

            session = self._local.session = requests.Session()
            with self._lock:
                self._created.append(session)
        return session

    def close(self) -> None:
        """Close every session this backend created, on every thread; an
        injected session belongs to the caller and stays open. A later call
        opens new sessions."""
        with self._lock:
            created, self._created = self._created, []
            self._local = threading.local()
        for session in created:
            session.close()

    @classmethod
    def from_env(cls, environ: dict[str, str]) -> "HttpBackend":
        base_url = environ.get("RARE_LM_BASE_URL")
        model = environ.get("RARE_LM_MODEL")
        if not base_url or not model:
            raise ValidationError(
                "http backend requires RARE_LM_BASE_URL and RARE_LM_MODEL"
            )
        return cls(base_url, model, api_key=environ.get("RARE_LM_API_KEY"))

    def _complete(self, req: LmRequest) -> LmResponse:
        completions: list[str] = []
        prompt_tokens = 0
        completion_tokens = 0
        want = req.n_samples
        while len(completions) < req.n_samples:
            body = self._post_once(req, n=want)
            texts, ptok, ctok = _parse_chat_body(body)
            completions.extend(texts)
            prompt_tokens = max(prompt_tokens, ptok if ptok else count_tokens(req.prompt))
            completion_tokens += ctok if ctok else sum(count_tokens(t) for t in texts)
            want = req.n_samples - len(completions)
        return LmResponse(
            completions=tuple(completions[: req.n_samples]),
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
        )

    def _post_once(self, req: LmRequest, n: int) -> dict[str, Any]:
        import requests

        payload: dict[str, Any] = {
            "model": self.model,
            "messages": [{"role": "user", "content": req.prompt}],
            "n": n,
            "temperature": req.temperature,
            "max_tokens": MAX_TOKENS,
        }
        if req.stop_sequences:
            payload["stop"] = list(req.stop_sequences)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = f"{self.base_url}/v1/chat/completions"

        last_error: Exception | None = None
        retry_after = 0.0
        for attempt in range(self.max_attempts):
            if attempt:
                backoff = self._jitter.uniform(0.0, self.backoff_base * (2 ** (attempt - 1)))
                time.sleep(min(max(backoff, retry_after), self.timeout))
                retry_after = 0.0
            try:
                resp = self._thread_session().post(
                    url, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code in (429,) or resp.status_code >= 500:
                last_error = LmBackendError(f"HTTP {resp.status_code}")
                retry_after = _retry_after_s(resp.headers.get("Retry-After"))
                continue
            if resp.status_code != 200:
                raise MalformedReplyError(
                    f"HTTP {resp.status_code}: {resp.text[:200]}"
                )
            try:
                return resp.json()
            except ValueError:
                raise MalformedReplyError(
                    f"non-JSON reply: {resp.text[:200]}"
                ) from None
        raise TransportError(
            f"endpoint unreachable after {self.max_attempts} attempts: {last_error}"
        )


def _retry_after_s(value: str | None) -> float:
    """Seconds asked for by a ``Retry-After`` header: a number of seconds,
    or an HTTP date measured against the current time. 0 when the header is
    absent or unreadable, or the date has passed."""
    if value is None:
        return 0.0
    try:
        seconds = float(value)
    except ValueError:
        # imported here, like requests, so that scripted runs never load them
        import email.utils
        from datetime import timezone

        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return 0.0
        if when.tzinfo is None:  # a "-0000" zone: UTC
            when = when.replace(tzinfo=timezone.utc)
        seconds = when.timestamp() - time.time()
    return seconds if math.isfinite(seconds) and seconds > 0 else 0.0


def _parse_chat_body(body: dict[str, Any]) -> tuple[list[str], int, int]:
    try:
        texts = [choice["message"]["content"] for choice in body["choices"]]
        usage = body.get("usage") or {}
        prompt_tokens = int(usage.get("prompt_tokens", 0) or 0)
        completion_tokens = int(usage.get("completion_tokens", 0) or 0)
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise MalformedReplyError(f"malformed chat fields: {exc}") from None
    if prompt_tokens < 0 or completion_tokens < 0:
        raise MalformedReplyError("negative usage count")
    if not texts:
        raise MalformedReplyError("endpoint returned zero choices")
    if not all(isinstance(text, str) for text in texts):
        raise MalformedReplyError("choice content is not a string")
    return texts, prompt_tokens, completion_tokens


def request_for(purpose: str, prompt: str, n_samples: int = 1,
                stop_sequences: Sequence[str] = ()) -> LmRequest:
    """Build a request with the purpose's default temperature."""
    return LmRequest(
        prompt=prompt,
        n_samples=n_samples,
        temperature=DEFAULT_TEMPERATURES[purpose],
        stop_sequences=tuple(stop_sequences),
        purpose_tag=purpose,
    )
