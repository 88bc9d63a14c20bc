"""Language-model invocation boundary.

Two interchangeable backends sit behind one ``complete()`` contract: an HTTP
client for chat-completions endpoints and a scripted backend that replays
canned completions for tests and offline runs. Both maintain a thread-safe
cost ledger counting calls and tokens per purpose.

``requests`` is imported only when the HTTP backend opens a session or
posts, so importing the package and running offline never load it.

Token counts from the scripted backend are whitespace word counts, so fixture
authors can verify ledger totals by hand.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .errors import (
    LmBackendError,
    MalformedReplyError,
    ScriptMissError,
    TransportError,
    ValidationError,
)

if TYPE_CHECKING:
    import requests

PURPOSES = ("action_gen", "query_gen", "rating", "consistency")
MATCH_KEYS = frozenset({"exact_hash", "substring"})
MAX_TOKENS = 1024  # completion cap that HttpBackend sends with every request
# Lines each ScriptedBackend memo keeps. A 40-question rare pass of the
# benchmark's tree-cpu workload reads 581 distinct lines; a full memo is
# emptied and refills from the lines that follow.
LINE_MEMO_SIZE = 2048

# The endpoint's temperature drives sampling diversity; rating is greedy.
DEFAULT_TEMPERATURES = {
    "action_gen": 0.8,
    "query_gen": 0.0,
    "rating": 0.0,
    "consistency": 0.8,
}


def count_tokens(text: str) -> int:
    return len(text.split())


def prompt_key(prompt: str) -> str:
    """Stable hash used by script entries keyed on an exact prompt."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LmRequest:
    prompt: str
    n_samples: int = 1
    temperature: float = 0.0
    stop_sequences: tuple[str, ...] = ()
    purpose_tag: str = "action_gen"

    def validate(self) -> None:
        if self.n_samples < 1:
            raise ValidationError("invalid request: n_samples must be >= 1")
        if self.temperature < 0:
            raise ValidationError("invalid request: temperature must be >= 0")
        if self.purpose_tag not in PURPOSES:
            raise ValidationError(f"invalid request: unknown purpose {self.purpose_tag!r}")


@dataclass(frozen=True)
class LmResponse:
    completions: tuple[str, ...]
    prompt_tokens: int
    completion_tokens: int


@dataclass(frozen=True)
class CostLedger:
    """Point-in-time cost snapshot; ``per_purpose`` partitions the totals."""

    total_calls: int = 0
    total_prompt_tokens: int = 0
    total_completion_tokens: int = 0
    per_purpose: dict[str, tuple[int, int]] = field(default_factory=dict)


class LmBackend:
    """Base class providing ledger accounting around ``_complete``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls = 0
        self._prompt_tokens = 0
        self._completion_tokens = 0
        self._per_purpose: dict[str, list[int]] = {}

    def complete(self, req: LmRequest) -> LmResponse:
        req.validate()
        resp = self._complete(req)
        if len(resp.completions) != req.n_samples:
            raise MalformedReplyError(
                f"backend returned {len(resp.completions)} completions for n={req.n_samples}"
            )
        with self._lock:
            self._calls += 1
            self._prompt_tokens += resp.prompt_tokens
            self._completion_tokens += resp.completion_tokens
            bucket = self._per_purpose.setdefault(req.purpose_tag, [0, 0])
            bucket[0] += 1
            bucket[1] += resp.completion_tokens
        return resp

    def snapshot_costs(self) -> CostLedger:
        with self._lock:
            return CostLedger(
                total_calls=self._calls,
                total_prompt_tokens=self._prompt_tokens,
                total_completion_tokens=self._completion_tokens,
                per_purpose={k: (v[0], v[1]) for k, v in self._per_purpose.items()},
            )

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
    """One scripted reply. It matches a request of its purpose when the
    prompt's ``prompt_key`` equals ``exact_hash`` (if set) and every one of
    ``substrings`` occurs in the prompt; an entry without constraints is a
    catch-all for its purpose. The first matching entry in script order wins."""

    purpose: str
    completions: tuple[str, ...]
    exact_hash: str | None = None
    substrings: tuple[str, ...] = ()


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
    its first three characters and its length. Each entry is filed under one
    key: its ``exact_hash`` if it has one, else its substring that is rarest
    in the bucket, else it is a candidate for every prompt. A request first
    finds which substrings occur in the prompt, then checks only the entries
    keyed by those substrings or by the prompt's hash, in script order.

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
        self.by_hash: dict[str, list[int]] = {}
        self.by_substring: dict[str, list[int]] = {}
        for pos, entry in enumerate(entries):
            need = needs[pos]
            if entry.exact_hash is not None:
                self.by_hash.setdefault(entry.exact_hash, []).append(pos)
            elif not need:
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
        if self.by_hash:
            candidates.append(self.by_hash.get(prompt_key(prompt), ()))
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
    ``ScriptEntry``. The entries are indexed by purpose once, at
    construction (``_PurposeIndex``). A request first finds which of its
    purpose's substrings occur in the prompt, and then checks only the
    entries keyed by those substrings (or by the prompt's hash), still first
    match in script order.

    Prompts are rendered from a few templates, so most of their lines repeat
    earlier prompts. Each prompt is split once on ``"\\n"``; the substrings
    a line holds (per purpose) and its whitespace-token count are memoized
    per line, and the prompt's are the union and the sum over its lines.
    Both are exact: ``str.split()`` treats ``"\\n"`` as whitespace, so no
    token spans two lines. The token memo also counts completions, which
    are the entries' own strings.

    With temperature 0 every sample equals the entry's first completion;
    otherwise samples cycle through the entry's completion list across the
    whole request. A batched ``consistency`` request for ``n * k`` samples
    therefore gives each of its ``k`` trajectories the votes an unbatched
    request of ``n`` would, when the entry's completion count divides ``n``.
    """

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
        if not entry.completions:
            raise ScriptMissError("matched script entry has no completions")
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
    ``purpose``, optional ``match`` ({"exact_hash": h} or {"substring": s-or-list}),
    and ``completions``."""
    entries: list[ScriptEntry] = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValidationError(f"script line {line_no}: {exc}") from None
            entries.append(script_entry_from_record(record, line_no))
    return ScriptedBackend(entries)


def script_entry_from_record(record: Any, line_no: int = 0) -> ScriptEntry:
    def bad(problem: str) -> ValidationError:
        return ValidationError(f"script line {line_no}: {problem}")

    if not isinstance(record, dict):
        raise bad("expected a JSON object")
    purpose = record.get("purpose")
    if purpose not in PURPOSES:
        raise bad(f"bad purpose {purpose!r}")
    completions = record.get("completions")
    if not isinstance(completions, list) or not completions:
        raise bad("completions must be a nonempty list")
    match = record.get("match") or {}
    if not isinstance(match, dict):
        raise bad("match must be an object")
    if not match.keys() <= MATCH_KEYS:
        raise bad(f"unknown match keys {sorted(match.keys() - MATCH_KEYS)}")
    exact_hash = match.get("exact_hash")
    if exact_hash is not None and not isinstance(exact_hash, str):
        raise bad("exact_hash must be a string")
    substring = match.get("substring")
    if substring is None:
        substrings: tuple[str, ...] = ()
    elif isinstance(substring, str):
        substrings = (substring,)
    elif isinstance(substring, list) and all(isinstance(s, str) for s in substring):
        substrings = tuple(substring)
    else:
        raise bad("substring must be a string or a list of strings")
    return ScriptEntry(
        purpose=purpose,
        completions=tuple(str(c) for c in completions),
        exact_hash=exact_hash,
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
        thread: ``requests.Session`` is not documented as thread-safe and
        ``run_eval`` workers share this backend."""
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


class ScopedBackend(LmBackend):
    """Forwards to a shared backend while keeping its own ledger, so callers
    can attribute costs to one unit of work regardless of concurrency.

    A scope also memoizes greedy work: a temperature-0 request equal to one
    it already completed gets that earlier response back. Such a repeat is
    not a call: it reaches no backend and neither ledger counts it. A request
    that raised is not remembered, and sampled requests (temperature above 0)
    always go through. ``evaluate_question`` makes one scope per question, so
    nothing is remembered across questions."""

    def __init__(self, inner: LmBackend):
        super().__init__()
        self.inner = inner
        self._greedy: dict[LmRequest, LmResponse] = {}

    def complete(self, req: LmRequest) -> LmResponse:
        if req.temperature != 0:
            return super().complete(req)
        resp = self._greedy.get(req)
        if resp is None:
            resp = self._greedy[req] = super().complete(req)
        return resp

    def _complete(self, req: LmRequest) -> LmResponse:
        return self.inner.complete(req)


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
