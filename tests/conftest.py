"""Shared fixtures: scripted backends, fixture corpora, and question sets.

The eval fixtures key script entries on two kinds of substrings: a phrase
unique to one template's scaffold (so the entry fires only for that action)
and a ``[qNN]`` marker embedded in the question stem (so the entry fires only
for that question). Entries are scanned first match wins, so the more
specific entries come first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterable

import pytest

from rare.errors import LmBackendError, MalformedReplyError, ScriptMissError, TransportError
from rare.lm import LmBackend, LmRequest, LmResponse, ScriptEntry, ScriptedBackend
from rare.retrieval import Document, build_index
from rare.types import Question

# scaffold phrases unique to each template file
A1_MARK = "46-year-old woman"
A2_MARK = "1-year-old boy"
A3_MARK = "decompose it into sub-questions"
A5_MARK = "rephrase questions"
A6_MARK = "formulate a query"
DOCS_MARK = "### Relevant Documents"


@pytest.fixture
def conjunctivitis_question() -> Question:
    return Question(
        id="medqa-conj",
        stem=(
            "A 35-year-old man comes to the physician because of itchy, watery eyes "
            "for the past week. He has also been sneezing multiple times a day during "
            "this period. Which of the following is the most appropriate treatment?"
        ),
        options={
            "A": "Erythromycin ointment",
            "B": "Ketotifen eye drops",
            "C": "Warm compresses",
            "D": "Fluorometholone eye drops",
        },
        gold_label="B",
        domain_tag="medical",
    )


def fixture_corpus() -> list[Document]:
    return [
        Document("doc-alpha", "Alpha pathway",
                 "The alpha pathway regulates the core mechanism behind condition "
                 "response, and alpha therapy targets it directly.", "textbook"),
        Document("doc-beta", "Beta therapy",
                 "Beta therapy evidence shows the strongest outcomes when the core "
                 "mechanism drives the presentation.", "pubmed"),
        Document("doc-gamma", "Gamma contraindications",
                 "Gamma therapy carries notable contraindications and is reserved "
                 "for refractory presentations of the condition.", "statpearls"),
        Document("doc-mechanism", "Core mechanism",
                 "The core mechanism couples condition onset with therapy response "
                 "in most clinical presentations.", "wikipedia"),
        Document("doc-keto", "Ketotifen",
                 "Ketotifen eye drops act as a mast cell stabilizer and relieve "
                 "itching in allergic conjunctivitis.", "statpearls"),
        Document("doc-antihist", "Antihistamines",
                 "Antihistamine eye drops and mast cell stabilizers are first-line "
                 "symptomatic relief for seasonal allergic conjunctivitis.", "textbook"),
        Document("doc-compress", "Compresses",
                 "Cold compresses reduce ocular itching; crust debridement uses "
                 "warmth in blepharitis rather than allergy.", "pubmed"),
        Document("doc-steroid", "Topical steroids",
                 "Topical corticosteroid eye drops such as fluorometholone are "
                 "second-line agents because of pressure and cataract risk.", "pubmed"),
    ]


@pytest.fixture
def small_index():
    return build_index(fixture_corpus())


def make_eval_question(qid: str, gold: str) -> Question:
    stem = f"Study {qid}: which therapy suits the presentation? [{qid}]"
    return Question(
        id=qid,
        stem=stem,
        options={"A": "alpha therapy", "B": "beta therapy", "C": "gamma therapy"},
        gold_label=gold,
        domain_tag="fixture",
    )


def tree_entries_for(q: Question, answer: str,
                     votes: tuple[str, ...] = ("agree", "agree", "disagree"),
                     ) -> list[ScriptEntry]:
    """Script entries driving every action for one question toward ``answer``."""
    marker = f"[{q.id}]"
    answer_text = option_text(q, answer)
    other = "C" if answer != "C" else "B"
    vote_texts = {
        "agree": f"The answer is {answer}: {answer_text}.",
        "disagree": f"The answer is {other}: {option_text(q, other)}.",
    }
    sub_answer = f"The condition relates to the core mechanism {marker}."
    return [
        ScriptEntry("action_gen", (
            f"Question 2.2: Now we can answer the question: which therapy suits the "
            f"presentation {marker}?\n"
            f"Answer 2.2: Combining the findings, the answer is {answer}: {answer_text}.",
        ), substrings=(A3_MARK, f"relates to the core mechanism {marker}")),
        ScriptEntry("action_gen", (
            f"Question 2.1: What mechanism applies to {marker}?\n"
            f"Answer 2.1: {sub_answer}",
        ), substrings=(A3_MARK, marker)),
        ScriptEntry("query_gen", (
            "Query 2.1: alpha pathway basics\n"
            "Query 2.2: beta therapy evidence\n"
            "Query 2.3: gamma therapy contraindications",
        ), substrings=(A6_MARK, marker)),
        ScriptEntry("action_gen", (
            f"From the retrieved evidence, the answer is {answer}: {answer_text}.",
        ), substrings=(DOCS_MARK, marker)),
        ScriptEntry("action_gen", (
            f"Step 1: The condition described in {marker} responds to targeted therapy.",
        ), substrings=(A1_MARK, marker)),
        ScriptEntry("action_gen", (
            f"Weighing the evidence on the core mechanism, the answer is {answer}: "
            f"{answer_text}.",
        ), substrings=(A2_MARK, marker)),
        ScriptEntry("action_gen", (
            f"Rephrased presentation {marker}: which therapy is most suitable? "
            f"A: alpha therapy, B: beta therapy, C: gamma therapy",
        ), substrings=(A5_MARK, marker)),
        ScriptEntry("consistency", tuple(vote_texts[v] for v in votes),
                    substrings=(marker,)),
    ]


def rafs_generic_entries() -> list[ScriptEntry]:
    return [
        ScriptEntry("query_gen", ("core mechanism therapy evidence",)),
        ScriptEntry("rating", ("Supported",)),
    ]


# Texts for the factuality worked examples. The first splits into 5 sentences
# rated (S, S, S, N, N) for a 0.6 score; the second into 8 rated 5-of-8 for
# 0.625; the third into 10 all supported for 1.0.
REASONING_SCORE_06 = (
    "Given the patient's symptoms of itchy, watery eyes, sneezing, and "
    "conjunctival injection, along with a history of similar episodes around "
    "springtime, this case is most consistent with seasonal allergic "
    "conjunctivitis. The best treatment for mild allergic conjunctivitis "
    "involves avoiding triggers when possible, using lubricating artificial "
    "tears regularly, and applying a cold compress. Warm compresses are often "
    "recommended to help loosen crusts and debris, improving comfort. "
    "Therefore, warm compresses would be the most appropriate treatment for "
    "this patient. The answer is C: Warm compresses."
)

REASONING_SCORE_0625 = (
    "Based on the patient's symptoms of itchy, watery eyes, sneezing, and "
    "physical examination findings of bilateral conjunctival injection with "
    "watery discharge, the diagnosis is allergic conjunctivitis. Considering "
    "the timing of the episode and the patient's profession, the most likely "
    "causative agent is seasonal pollen. Treatment should focus on reducing "
    "symptoms rather than eliminating the allergen source. Fluorometholone "
    "eye drops are corticosteroid drops that reduce inflammation and can "
    "provide relief from itching and redness. Other options like erythromycin "
    "or ketotifen may have some effect but would be less effective in "
    "addressing this presentation. Warm compresses might help with discharge, "
    "but again, would be less effective compared to the impact of "
    "corticosteroids. Therefore, the most appropriate treatment is "
    "fluorometholone eye drops. The answer is D: Fluorometholone eye drops."
)

REASONING_SCORE_10 = (
    "Let's think step by step. "
    "The patient reports itchy, watery eyes and repeated sneezing. "
    "A similar episode occurred one year ago around springtime. "
    "Bilateral conjunctival injection with watery discharge points to an "
    "allergic cause. "
    "The seasonal pattern makes pollen the most likely trigger. "
    "These findings are consistent with seasonal allergic conjunctivitis. "
    "Antihistamine eye drops or mast cell stabilizers provide symptomatic "
    "relief for allergic conjunctivitis. "
    "Ketotifen eye drops act as a mast cell stabilizer. "
    "Among the options provided, ketotifen eye drops are an appropriate "
    "choice. "
    "The answer is B: Ketotifen eye drops."
)


def rafs_rating_entries() -> list[ScriptEntry]:
    """Rating script for the worked examples: specific Not Supported verdicts
    first, then a catch-all Supported."""
    not_supported = (
        "would be the most appropriate treatment for this patient",
        "The answer is C: Warm compresses",
        "Other options like erythromycin or ketotifen",
        "the most appropriate treatment is fluorometholone",
        "The answer is D: Fluorometholone",
    )
    entries = [
        ScriptEntry("rating", ("Not Supported",), substrings=(phrase,))
        for phrase in not_supported
    ]
    entries.append(ScriptEntry("rating", ("Supported",)))
    entries.append(ScriptEntry("query_gen", ("allergic conjunctivitis treatment",)))
    return entries


def make_reasoning_trajectory(question: Question, text: str, answer: str):
    from rare.types import ActionKind, ActionStep, Trajectory

    step = ActionStep(ActionKind.A2, text)
    return Trajectory(question, (step,), final_answer=answer)


def build_eval_fixture(n_questions: int, n_correct: int,
                       ) -> tuple[list[Question], ScriptedBackend]:
    """Questions plus a scripted backend steering exactly ``n_correct`` of
    them to their gold answer."""
    golds = ["A", "B", "C"]
    questions = []
    entries: list[ScriptEntry] = []
    for i in range(n_questions):
        qid = f"q{i + 1:02d}"
        gold = golds[i % 3]
        q = make_eval_question(qid, gold)
        answer = gold if i < n_correct else golds[(i + 1) % 3]
        questions.append(q)
        entries.extend(tree_entries_for(q, answer))
    entries.extend(rafs_generic_entries())
    return questions, ScriptedBackend(entries)


@dataclass(frozen=True)
class CallRecord:
    """One completed interaction, as ``RecordingBackend`` saw it."""

    purpose: str
    prompt: str
    n_samples: int
    completions: tuple[str, ...]


class RecordingBackend(LmBackend):
    """Forwards to ``inner`` and records every completed call in the order
    the caller issued it, so a test can check the prompts sent and the costs
    against the ledger. A wave's round trips run on pool threads in no fixed
    order, so calls are recorded at ``complete``, on the caller's thread."""

    def __init__(self, inner: LmBackend):
        super().__init__()
        self.inner = inner
        self._records: list[CallRecord] = []

    def complete(self, req: LmRequest, sent=None) -> LmResponse:
        resp = super().complete(req, sent)
        with self._lock:
            self._records.append(
                CallRecord(req.purpose_tag, req.prompt, req.n_samples, resp.completions))
        return resp

    def _complete(self, req: LmRequest) -> LmResponse:
        return self.inner.complete(req)

    def call_log(self) -> tuple[CallRecord, ...]:
        with self._lock:
            return tuple(self._records)


FaultRule = Callable[[LmRequest], type[LmBackendError] | None]


class FaultBackend(LmBackend):
    """Forwards to ``inner``, except that a request for which ``fault``
    returns an error type raises that error instead of being sent."""

    def __init__(self, inner: LmBackend, fault: FaultRule):
        super().__init__()
        self.inner = inner
        self.fault = fault

    def _complete(self, req: LmRequest) -> LmResponse:
        error = self.fault(req)
        if error is not None:
            raise error(f"injected fault on a {req.purpose_tag} request")
        return self.inner.complete(req)


def first_call_fault(purpose: str, error: type[LmBackendError] = TransportError,
                     ) -> FaultRule:
    """Fails the first request of ``purpose`` and no other request."""
    fired = False

    def fault(req: LmRequest) -> type[LmBackendError] | None:
        nonlocal fired
        if fired or req.purpose_tag != purpose:
            return None
        fired = True
        return error

    return fault


def marker_fault(markers: Iterable[tuple[str, str]],
                 error: type[LmBackendError] = ScriptMissError) -> FaultRule:
    """Fails every request whose purpose and prompt hold one of the
    ``(purpose, marker)`` pairs."""
    markers = tuple(markers)

    def fault(req: LmRequest) -> type[LmBackendError] | None:
        hit = any(req.purpose_tag == purpose and marker in req.prompt
                  for purpose, marker in markers)
        return error if hit else None

    return fault


def hashed_fault(rate: float) -> FaultRule:
    """Fails a share ``rate`` of requests, chosen by a hash of (purpose,
    prompt, n), so a request fails the same way every time it is sent. Half
    of the failures are ``TransportError``, half ``MalformedReplyError``."""

    def fault(req: LmRequest) -> type[LmBackendError] | None:
        key = json.dumps([req.purpose_tag, req.prompt, req.n_samples]).encode("utf-8")
        draw = int.from_bytes(hashlib.sha256(key).digest()[:8], "big") / 2 ** 64
        if draw < rate / 2:
            return TransportError
        return MalformedReplyError if draw < rate else None

    return fault


def script_entry_to_record(entry: ScriptEntry) -> dict:
    record: dict = {"purpose": entry.purpose, "completions": list(entry.completions)}
    if entry.substrings:
        subs = list(entry.substrings)
        record["match"] = {"substring": subs[0] if len(subs) == 1 else subs}
    return record


def write_script_file(path, entries: list[ScriptEntry]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(script_entry_to_record(entry)) + "\n")


def option_text(q: Question, label: str) -> str:
    return dict(q.options)[label]


def question_to_record(q: Question) -> dict:
    """Encode a question as one dataset line, the inverse of
    ``rare.types.question_from_record``."""
    record = {"id": q.id, "question": q.stem, "options": dict(q.options)}
    if q.gold_label is not None:
        record["answer"] = q.gold_label
    if q.domain_tag:
        record["domain"] = q.domain_tag
    return record


def write_dataset_file(path, questions: list[Question]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps(question_to_record(q)) + "\n")


def write_corpus_file(path, docs: list[Document]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps({
                "id": doc.doc_id, "title": doc.title,
                "text": doc.body, "source": doc.source,
            }) + "\n")
