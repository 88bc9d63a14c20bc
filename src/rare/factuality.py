"""Factuality scoring of candidate trajectories.

Four steps per trajectory: split the reasoning into sentence statements,
generate retrieval queries per statement, retrieve evidence for each query,
and rate every statement Supported or Not Supported against its evidence.
The trajectory's score is the supported proportion. Only ``select_rare``'s
winner needs an exact score, so candidates are checked best first, as in
Fagin, Lotem and Naor's threshold algorithm: checking stops once the
best-ranked candidate's upper bound is exact. Candidates from one tree share
sentences, so each distinct statement is checked at most once per question
and its result reused by every candidate that holds it.

The scorer works in the question's ``Scope``, as the search does, so it pays
for no greedy request or search that the search already made.
"""

from __future__ import annotations

import re
from dataclasses import replace

from .actions import Scope, merge_hits, parse_queries
from .lm import LmBackend, request_for
from .retrieval import search
from .selection import tie_break
from .types import (
    NOT_SUPPORTED,
    SUPPORTED,
    Statement,
    Trajectory,
    make_factuality_report,
)

QUERY_PROMPT = (
    "Write up to {n} short search queries that would retrieve evidence to"
    " verify or refute the statement below. One query per line.\n\n"
    "Statement: {statement}\n"
    "Queries:\n"
)

RATING_PROMPT = (
    "Decide whether the statement is supported by the evidence."
    " Reply with exactly one label: Supported or Not Supported.\n\n"
    "Evidence:\n{evidence}\n\n"
    "Statement: {statement}\n\n"
    "Label:"
)

_TERMINATORS = ".?!"
_TERMINATOR_RE = re.compile(r"[.?!]")
_WORD_RE = re.compile(r"[A-Za-z0-9]+")
_NEGATED_RE = re.compile(r"not[ _-]supported|unsupported")


def _is_split_point(text: str, i: int) -> bool:
    ch = text[i]
    n = len(text)
    # sentence boundaries are followed by whitespace; this also keeps
    # decimals ("2.5") and dotted acronyms intact
    if i + 1 < n and not text[i + 1].isspace():
        return False
    # single-letter abbreviation such as "E. coli"
    if ch == "." and i >= 1 and text[i - 1].isalpha():
        if i < 2 or not text[i - 2].isalnum():
            return False
    # an option label continues the sentence: "...? A: Ampicillin"
    j = i + 1
    while j < n and text[j].isspace():
        j += 1
    if j + 1 < n and text[j].isalpha() and text[j].isupper() and text[j + 1] == ":":
        return False
    return True


def _word_count(piece: str) -> int:
    return len(_WORD_RE.findall(piece))


def _standalone(piece: str) -> bool:
    return bool(piece) and piece[0].isupper() and piece[-1] in _TERMINATORS


def split_sentences(text: str) -> list[str]:
    """Segment text at sentence terminators, then fold fragments under three
    words into their neighbours unless they stand alone as sentences. One
    regex scan visits only the terminators."""
    text = " ".join(text.split())
    pieces: list[str] = []
    start = 0
    for match in _TERMINATOR_RE.finditer(text):
        i = match.start()
        if _is_split_point(text, i):
            piece = text[start: i + 1].strip()
            if piece:
                pieces.append(piece)
            start = i + 1
    tail = text[start:].strip()
    if tail:
        pieces.append(tail)

    merged: list[str] = []
    carry = ""
    for piece in pieces:
        if carry:
            piece = f"{carry} {piece}"
            carry = ""
        if _word_count(piece) < 3 and not _standalone(piece):
            if merged:
                merged[-1] = f"{merged[-1]} {piece}"
            else:
                carry = piece
        else:
            merged.append(piece)
    if carry:
        if merged:
            merged[-1] = f"{merged[-1]} {carry}"
        else:
            merged.append(carry)
    return merged


def split_statements(traj: Trajectory) -> list[str]:
    """Sentence statements from the trajectory's step outputs. Retrieved
    document text lives in prompts, never in outputs, so it is excluded."""
    text = " ".join(step.output for step in traj.steps if step.output.strip())
    return split_sentences(text)


def generate_queries(statement: str, backend: LmBackend, n: int) -> list[str]:
    """Up to ``n`` retrieval queries for a statement; falls back to the
    statement itself when the reply parses to nothing."""
    prompt = QUERY_PROMPT.format(n=n, statement=statement)
    resp = backend.complete(request_for("query_gen", prompt, 1))
    queries = parse_queries(resp.completions[0], n)
    if not queries:
        queries = [statement]
    return queries


def rate_statement(statement: str, evidence: tuple, backend: LmBackend) -> str:
    """Label a statement against evidence snippets. A negated label ("not"
    and a space, underscore or hyphen before "supported", or
    "unsupported") is checked before "supported", which each of them
    contains; an unparseable reply rates conservatively as not supported."""
    evidence_text = "\n".join(ref.snippet for ref in evidence) or "(no evidence found)"
    prompt = RATING_PROMPT.format(evidence=evidence_text, statement=statement)
    resp = backend.complete(request_for("rating", prompt, 1))
    reply = resp.completions[0].lower()
    if _NEGATED_RE.search(reply):
        return NOT_SUPPORTED
    if "supported" in reply:
        return SUPPORTED
    return NOT_SUPPORTED


def score_candidates(candidates: list[Trajectory], scope: Scope) -> list[Trajectory]:
    """Attach factuality reports to the candidates that ``select_rare`` needs
    to find its winner. A candidate's bound is (sentences rated Supported +
    sentences unchecked) / its sentence count, per occurrence; checked in
    full, it equals the report's score bit for bit. No sentences bound 0.0.
    Each round takes the candidate with the smallest ``select_rare`` key
    under its bound (first position wins a tie): a fully checked one is the
    winner; else its distinct unchecked sentences are checked in order, each
    once per call, their Statement shared by every report that holds it.
    Only fully checked candidates get a report; the rest keep
    ``factuality=None`` (score -1), which is at most their bound, so
    ``select_rare`` picks what scoring everything would pick. A backend or
    retrieval error in a check propagates and fails the question. A
    one-element list is always checked in full."""
    cfg = scope.cfg
    sentence_lists = [split_statements(traj) for traj in candidates]
    # one entry per occurrence, as make_factuality_report counts them
    holders: dict[str, list[int]] = {}
    for k, sentences in enumerate(sentence_lists):
        for sentence in sentences:
            holders.setdefault(sentence, []).append(k)
    supported = [0] * len(candidates)
    unchecked = [len(sentences) for sentences in sentence_lists]
    checked: dict[str, Statement] = {}

    def bound(k: int) -> float:
        n = len(sentence_lists[k])
        return (supported[k] + unchecked[k]) / n if n else 0.0

    # select_rare's key without the score; the position settles a tie
    static_keys = [(*tie_break(traj), k) for k, traj in enumerate(candidates)]
    while static_keys:
        k = min(static_keys, key=lambda key: (-bound(key[-1]), *key))[-1]
        if not unchecked[k]:
            break
        for sentence in dict.fromkeys(sentence_lists[k]):
            if sentence in checked:
                continue
            queries = generate_queries(sentence, scope, cfg.queries_per_call)
            hit_lists = [search(scope.index, query, cfg.retrieval_top_k, scope.hits)
                         for query in queries]
            evidence = merge_hits(hit_lists, cfg.retrieval_top_k)
            label = rate_statement(sentence, evidence, scope)
            checked[sentence] = Statement(sentence, tuple(queries), evidence, label)
            for j in holders[sentence]:
                unchecked[j] -= 1
                supported[j] += label == SUPPORTED
    return [
        replace(traj, factuality=make_factuality_report(
            checked[sentence] for sentence in sentences))
        if not unchecked[k] else traj
        for k, (traj, sentences) in enumerate(zip(candidates, sentence_lists))
    ]


def factuality_record(traj: Trajectory) -> dict:
    """Report-stream record for one scored trajectory."""
    return {
        "question_id": traj.question.id,
        "trajectory_hash": traj.content_hash(),
        "statements": [
            {
                "text": stmt.text,
                "queries": list(stmt.queries),
                "evidence_ids": [ref.doc_id for ref in stmt.evidence],
                "label": stmt.label,
            }
            for stmt in traj.factuality.statements
        ],
        "score": traj.factuality.score,
    }
