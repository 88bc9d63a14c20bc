"""Span recording around the package's layer entry points, from outside it.

``Tracer.install`` replaces each entry point where its caller looks it up
(a module attribute) with a wrapper that records a span; ``Tracer.wrap``
does the same for a backend's ``complete`` method. A span holds a name, a
layer, start, end, parent span and question id, plus a few counts taken
from the call's arguments and result.
Spans are kept in memory; ``write_jsonl`` dumps them when the run ends.
Nesting is tracked per thread, so spans of questions running on different
workers never become each other's parents.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile, ``q`` in (0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def ratio(num: float, den: float) -> float:
    """``num / den``, reported as 0.0 when the base is empty."""
    return num / den if den else 0.0


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int
    qid: str | None
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# Counts taken at each boundary: (args, kwargs, result) -> span info.
Describe = Callable[[tuple, dict, Any], dict]


def lm_info(args, kwargs, result):
    req = args[0]
    return {"purpose": req.purpose_tag,
            "key": (req.purpose_tag, hash(req.prompt), req.n_samples, req.temperature)}


def _search_info(args, kwargs, result):
    return {"query": args[1], "top_k": args[2]}


# (module, attribute, layer, describe); the module is where the caller looks
# the name up, so ``search`` appears once per importing module.
TREE_POINTS = (
    ("rare.harness", "evaluate_question", "harness", None),
    ("rare.harness", "run_search", "mcts",
     lambda a, k, r: {"candidates": len(r)}),
    ("rare.harness", "score_candidates", "factuality",
     lambda a, k, r: {"scored": len(r),
                      "failed": sum(1 for t in r if t.factuality is None)}),
    ("rare.harness", "select_rare", "selection", None),
    ("rare.mcts", "expand", "mcts", lambda a, k, r: {"nodes": len(a[0].nodes)}),
    ("rare.mcts", "simulate", "mcts", None),
    ("rare.mcts", "terminal_reward", "mcts", None),
    ("rare.mcts", "backpropagate", "mcts", lambda a, k, r: {"reward": a[2]}),
    ("rare.mcts", "execute_action", "actions", None),
    ("rare.factuality", "split_statements", "factuality",
     lambda a, k, r: {"statements": list(r)}),
    ("rare.factuality", "generate_queries", "factuality", None),
    ("rare.factuality", "rate_statement", "factuality", None),
    ("rare.actions", "search", "retrieval", _search_info),
    ("rare.factuality", "search", "retrieval", _search_info),
)

RAG_POINTS = (
    ("rare.harness", "evaluate_question", "harness", None),
    ("rare.harness", "run_baseline", "selection", None),
    ("rare.selection", "search", "retrieval", _search_info),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.qid = None
        return local

    def wrap(self, fn, name: str, layer: str, describe: Describe | None = None,
             sets_question: bool = False):
        def traced(*args, **kwargs):
            state = self._state()
            if sets_question:
                state.qid = args[0].id
            parent = state.stack[-1] if state.stack else -1
            sid = next(self._ids)
            state.stack.append(sid)
            span = Span(sid, name, layer, 0.0, 0.0, parent, state.qid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                state.stack.pop()
                self.spans.append(span)
            if describe is not None:
                span.info.update(describe(args, kwargs, result))
            return result
        return traced

    def install(self, points, modules: dict[str, Any]) -> list[str]:
        """Patch every entry point; returns the span names in order. A name
        the module no longer has is left unpatched and so records no span."""
        names = []
        for module, attr, layer, describe in points:
            name = attr if attr != "search" else f"search@{module.split('.')[-1]}"
            names.append(name)
            original = getattr(modules[module], attr, None)
            if original is None:
                continue
            self._patched.append((modules[module], attr, original))
            setattr(modules[module], attr,
                    self.wrap(original, name, layer, describe,
                              sets_question=attr == "evaluate_question"))
        return names

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = sorted(self.spans, key=lambda s: s.sid), []
        return spans

    @staticmethod
    def write_jsonl(path: str, spans: list[Span]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                info = {k: v for k, v in s.info.items() if k != "key"}
                fh.write(json.dumps({"id": s.sid, "name": s.name, "layer": s.layer,
                                     "start": s.start, "end": s.end, "parent": s.parent,
                                     "question": s.qid, **info}))
                fh.write("\n")


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - sum(b - a for a, b in _union(children[s.sid]))
            for s in spans}


def question_counts(spans: list[Span]) -> dict[str, tuple]:
    """Per question: LM calls, searches, tree nodes and statements."""
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for s in spans:
        c = counts[s.qid]
        if s.name == "lm":
            c[0] += 1
        elif s.layer == "retrieval":
            c[1] += 1
        elif s.name == "expand":
            c[2] = max(c[2], s.info.get("nodes", 0))
        elif s.name == "split_statements":
            c[3] += len(s.info.get("statements", ()))
    return {qid: tuple(c) for qid, c in counts.items()}


def layer_metrics(spans: list[Span], n_questions: int, wall_s: float,
                  delay_s: float, df: dict[str, int], tokenize) -> dict[str, float]:
    """Per-layer metrics of one traced pass over ``n_questions`` questions."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += selfs[s.sid]
    q = n_questions
    m: dict[str, float] = {}

    lm = by_name["lm"]
    dispatch = by_name["lm.dispatch"] or lm
    question_s = sum(s.duration for s in by_name["evaluate_question"])
    seen: dict[str, set] = defaultdict(set)
    calls: dict[str, int] = defaultdict(int)
    repeats: dict[str, int] = defaultdict(int)
    per_q_lm: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in lm:
        purpose = s.info["purpose"]
        calls[purpose] += 1
        key = (s.qid, s.info["key"])
        if key in seen[purpose]:
            repeats[purpose] += 1
        seen[purpose].add(key)
        per_q_lm[s.qid].append((s.start, s.end))
    for purpose in ("action_gen", "query_gen", "rating", "consistency"):
        m[f"lm.calls_per_q.{purpose}"] = calls[purpose] / q
        m[f"lm.repeat_share.{purpose}"] = ratio(repeats[purpose], calls[purpose])
    dispatch_us = [s.duration * 1e6 for s in dispatch]
    m["lm.dispatch_us.p50"] = quantile(dispatch_us, 0.5)
    m["lm.dispatch_us.p90"] = quantile(dispatch_us, 0.9)
    waits = 0.0
    for intervals in per_q_lm.values():
        merged = _union(intervals)
        waits += (sum(b - a for a, b in merged) / delay_s) if delay_s else len(merged)
    m["lm.serial_waits_per_q"] = waits / q
    lm_s = sum(s.duration for s in lm)
    m["lm.inflight_mean"] = ratio(lm_s, wall_s)
    m["lm.time_share"] = ratio(lm_s, question_s)

    searches = [s for s in spans if s.layer == "retrieval"]
    search_ms = [s.duration * 1e3 for s in searches]
    seen_queries: set = set()
    repeated = postings = 0
    for s in searches:
        key = (s.qid, s.info["query"], s.info["top_k"])
        repeated += key in seen_queries
        seen_queries.add(key)
        postings += sum(df.get(t, 0) for t in tokenize(s.info["query"]))
    m["retrieval.searches_per_q"] = len(searches) / q
    m["retrieval.search_ms.p50"] = quantile(search_ms, 0.5)
    m["retrieval.search_ms.p90"] = quantile(search_ms, 0.9)
    m["retrieval.postings_per_search"] = ratio(postings, len(searches))
    m["retrieval.repeat_query_share"] = ratio(repeated, len(searches))
    m["retrieval.time_share"] = ratio(sum(search_ms) / 1e3, question_s)

    actions = by_name["execute_action"]
    m["actions.executions_per_q"] = len(actions) / q
    m["actions.self_us.p50"] = quantile([selfs[s.sid] * 1e6 for s in actions], 0.5)
    m["actions.no_viable_share"] = ratio(
        sum(1 for s in actions if s.info.get("error") == "NoViableChildError"),
        len(actions))

    rollouts = by_name["backpropagate"]
    nodes: dict[str, int] = defaultdict(int)
    for s in by_name["expand"]:
        nodes[s.qid] = max(nodes[s.qid], s.info["nodes"])
    m["mcts.self_us_per_rollout"] = ratio(layer_self["mcts"] * 1e6, len(rollouts))
    m["mcts.nodes_per_q"] = sum(nodes.values()) / q
    m["mcts.candidates_per_q"] = sum(s.info["candidates"] for s in by_name["run_search"]) / q
    m["mcts.zero_reward_share"] = ratio(
        sum(1 for s in rollouts if s.info["reward"] == 0), len(rollouts))

    texts: dict[str, list[str]] = defaultdict(list)
    for s in by_name["split_statements"]:
        texts[s.qid].extend(s.info["statements"])
    statements = sum(len(t) for t in texts.values())
    distinct = sum(len(set(t)) for t in texts.values())
    scored = by_name["score_candidates"]
    m["factuality.statements_per_q"] = statements / q
    m["factuality.distinct_statement_share"] = ratio(distinct, statements)
    m["factuality.split_us.p50"] = quantile(
        [s.duration * 1e6 for s in by_name["split_statements"]], 0.5)
    m["factuality.self_us_per_q"] = layer_self["factuality"] * 1e6 / q
    m["factuality.failed_report_share"] = ratio(
        sum(s.info["failed"] for s in scored), sum(s.info["scored"] for s in scored))

    m["selection.self_us_per_q"] = layer_self["selection"] * 1e6 / q
    return m

