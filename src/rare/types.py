"""Core domain types: questions, actions, reasoning steps, trajectories, config.

Everything here is an immutable value object, safe to share across worker
threads, that checks its invariants when it is built: an invalid question,
config, step or report raises ``ValidationError`` from its constructor, and
from ``dataclasses.replace``, so no caller checks one again. A value that is
read again and again (a question's labels, a trajectory's hash and question
text) is computed once per instance, on first use. The ``*_to_record``
encoders write the JSON records of reports and trajectory files; only
questions, which arrive from dataset files, have a ``question_from_record``
decoder.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import logging
import unicodedata
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .errors import ValidationError

logger = logging.getLogger(__name__)

LABELS = "ABCDE"
SUPPORTED = "supported"
NOT_SUPPORTED = "not_supported"


class ActionKind(str, enum.Enum):
    """The seven reasoning actions available to the search."""

    A1 = "A1"  # propose one next reasoning step
    A2 = "A2"  # propose all remaining steps and a final answer
    A3 = "A3"  # generate the next sub-question and answer it
    A4 = "A4"  # re-answer the pending sub-question
    A5 = "A5"  # rephrase the question
    A6 = "A6"  # generate search queries, retrieve, answer with evidence
    A7 = "A7"  # retrieve for the pending sub-question and re-answer it

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value


RETRIEVAL_ACTIONS = frozenset({ActionKind.A6, ActionKind.A7})
SUBQUESTION_ACTIONS = frozenset({ActionKind.A3, ActionKind.A4, ActionKind.A7})
ALL_ACTIONS = frozenset(ActionKind)
BASE_ACTIONS = frozenset(
    {ActionKind.A1, ActionKind.A2, ActionKind.A3, ActionKind.A4, ActionKind.A5}
)


def _per_instance(method):
    """Keep a no-argument method's value in the instance's ``__dict__``: no
    dataclass field, so equality, hashing, ``repr`` and ``replace`` never see
    it. No lock: the value depends only on the instance."""
    key = "_memo_" + method.__name__

    @functools.wraps(method)
    def memoized(self):
        try:
            return self.__dict__[key]
        except KeyError:
            value = self.__dict__[key] = method(self)
            return value
    return memoized


@dataclass(frozen=True)
class Question:
    """One multiple-choice question.

    ``options`` is an ordered sequence of (label, text) pairs; labels must be
    unique and contiguous from "A", 2-5 of them. ``gold_label`` is optional
    so the engine can run inference-only.
    """

    id: str
    stem: str
    options: tuple[tuple[str, str], ...]
    gold_label: str | None = None
    domain_tag: str = ""

    def __post_init__(self) -> None:
        # accept a mapping or any iterable of pairs, store canonical tuples
        opts = self.options
        if isinstance(opts, Mapping):
            opts = opts.items()
        # a string value, the usual case, skips the call
        pairs = tuple([(str(k), v if type(v) is str else text_of(v, "option text"))
                       for k, v in opts])
        object.__setattr__(self, "options", pairs)
        if not self.stem.strip():
            raise ValidationError(f"question {self.id!r}: empty stem")
        if not pairs:
            raise ValidationError(f"question {self.id!r}: empty options")
        labels = self.labels
        if len(set(labels)) != len(labels):
            raise ValidationError(f"question {self.id!r}: duplicate label")
        if not 2 <= len(labels) <= len(LABELS):
            raise ValidationError(
                f"question {self.id!r}: expected 2-{len(LABELS)} options, got {len(labels)}"
            )
        expected = tuple(LABELS[: len(labels)])
        if labels != expected:
            raise ValidationError(
                f"question {self.id!r}: labels {labels} not contiguous from 'A'"
            )
        if self.gold_label is not None and self.gold_label not in labels:
            raise ValidationError(
                f"question {self.id!r}: gold label {self.gold_label!r} not among options"
            )

    @property
    @_per_instance
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.options)

    def render(self, rephrased_stem: str | None = None) -> str:
        """Inline question text with options, e.g. ``...? A: foo, B: bar``.

        A rephrased stem is used verbatim because rephrasing already restates
        the options.
        """
        if rephrased_stem:
            return rephrased_stem
        opts = ", ".join(f"{label}: {text}" for label, text in self.options)
        return f"{self.stem} {opts}"


@dataclass(frozen=True)
class DocumentRef:
    """A retrieved passage as embedded in a reasoning step. ``title`` is its
    document's title, which prompts show, so records keep it."""

    doc_id: str
    score: float
    snippet: str
    title: str = ""


@dataclass(frozen=True)
class ActionStep:
    """One executed reasoning step: what it produced, not its prompt, which
    ``action_request`` derives from the question and the earlier steps.

    ``retrieved`` is nonempty only for A6/A7 steps; ``sub_question`` is
    present only for A3/A4/A7 steps.
    """

    kind: ActionKind
    output: str
    sub_question: str | None = None
    retrieved: tuple[DocumentRef, ...] = ()
    queries: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.retrieved and self.kind not in RETRIEVAL_ACTIONS:
            raise ValidationError(f"{self.kind} step cannot carry retrieved documents")
        if self.sub_question is not None and self.kind not in SUBQUESTION_ACTIONS:
            raise ValidationError(f"{self.kind} step cannot carry a sub-question")


@dataclass(frozen=True)
class Trajectory:
    """A reasoning path for one question: the search state before the next
    action and, once a step has ended it with ``final_answer``, a candidate.
    What the next prompt needs (``pending_sub_question``, ``question_text``)
    is derived from the steps. ``question_text()`` and ``content_hash()``
    are computed once per instance, on first use."""

    question: Question
    steps: tuple[ActionStep, ...] = ()
    final_answer: str | None = None
    terminal_reward: float = 0.0
    factuality: "FactualityReport | None" = None

    def extend(self, step: ActionStep, answer: str | None = None) -> "Trajectory":
        """This path plus ``step``; ``answer`` is set when the step ends it."""
        return Trajectory(self.question, self.steps + (step,), answer)

    @property
    def pending_sub_question(self) -> str | None:
        """The sub-question of an unanswered A3 last step, which A4 and A7 act on."""
        if self.final_answer is None and self.steps and self.steps[-1].kind == ActionKind.A3:
            return self.steps[-1].sub_question
        return None

    @_per_instance
    def question_text(self) -> str:
        """The question as prompts show it, rephrased by the latest A5 step."""
        return self.question.render(next(
            (step.output for step in reversed(self.steps) if step.kind == ActionKind.A5), None))

    def action_sequence(self) -> tuple[ActionKind, ...]:
        return tuple(step.kind for step in self.steps)

    @_per_instance
    def content_hash(self) -> str:
        """Hash of the step outputs, used to deduplicate candidates."""
        h = hashlib.sha256()
        for step in self.steps:
            h.update(step.output.encode("utf-8"))
            h.update(b"\x1e")
        return h.hexdigest()[:16]

    def factuality_score(self) -> float:
        """Score for ranking; -1.0 marks a missing report."""
        return self.factuality.score if self.factuality is not None else -1.0


@dataclass(frozen=True)
class Statement:
    """One sentence of a trajectory, with its evidence and verdict."""

    text: str
    queries: tuple[str, ...] = ()
    evidence: tuple[DocumentRef, ...] = ()
    label: str | None = None  # SUPPORTED | NOT_SUPPORTED, set after rating


@dataclass(frozen=True)
class FactualityReport:
    """Per-statement support labels plus the aggregate score."""

    statements: tuple[Statement, ...]
    supported_count: int
    not_supported_count: int
    score: float

    def __post_init__(self) -> None:
        if self.supported_count + self.not_supported_count != len(self.statements):
            raise ValidationError("statement counts do not partition the report")


def make_factuality_report(statements: Iterable[Statement]) -> FactualityReport:
    """Aggregate rated statements; score is supported / total, division last."""
    stmts = tuple(statements)
    supported = sum(1 for s in stmts if s.label == SUPPORTED)
    not_supported = len(stmts) - supported
    score = supported / len(stmts) if stmts else 0.0
    return FactualityReport(stmts, supported, not_supported, score)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for one search run; an invalid value is refused when built."""

    exploration_c: float = 1.0
    rollouts: int = 4
    max_depth: int = 8
    children_per_action: int = 1
    n_consistency_samples: int = 3
    enabled_actions: frozenset[ActionKind] = ALL_ACTIONS
    rafs_enabled: bool = True
    retrieval_top_k: int = 5
    queries_per_call: int = 3
    rng_seed: int = 0
    max_subquestion_chain: int = 6

    def __post_init__(self) -> None:
        if not 0 < self.exploration_c < float("inf"):  # NaN fails every comparison
            raise ValidationError("exploration_c must be finite and > 0")
        for name in ("rollouts", "max_depth", "children_per_action",
                     "n_consistency_samples", "retrieval_top_k", "queries_per_call"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        extra = self.enabled_actions - ALL_ACTIONS
        if extra:
            raise ValidationError(f"unknown actions enabled: {extra}")
        if ActionKind.A4 in self.enabled_actions and ActionKind.A3 not in self.enabled_actions:
            raise ValidationError("A4 enabled requires A3 enabled")
        if ActionKind.A7 in self.enabled_actions and ActionKind.A3 not in self.enabled_actions:
            raise ValidationError("A7 enabled requires A3 enabled")


def derive_seed(base_seed: int, key: str) -> int:
    """Stable per-question seed, independent of scheduling order."""
    digest = hashlib.sha256(f"{base_seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# --- record codecs -----------------------------------------------------------

def text_of(value: Any, what: str, optional: bool = False) -> str:
    """A record's text field: a string, or a number written as one. An
    ``optional`` field that is absent or null is empty text."""
    if isinstance(value, (str, int, float)):
        return str(value)
    if value is None and optional:
        return ""
    raise ValidationError(f"{what} must be a string or a number, not {type(value).__name__}")


T = TypeVar("T")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object that names no key twice; ``dict`` builds it in C."""
    record = dict(pairs)
    if len(record) != len(pairs):
        keys = [k for k, _ in pairs]
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValidationError(f"duplicate key: {dupes}")
    return record


def read_records(path: str, prefix: str, decode: Callable[[Any], T],
                 error: type[ValidationError], strict: bool = True) -> Iterator[T]:
    """Decode each nonblank line of a UTF-8 JSON-lines file. An object
    with a repeated key, at any depth, is refused. A line that is not
    UTF-8, not JSON or not accepted by ``decode`` raises ``error`` naming
    it (``<prefix>line N: ...``), or with ``strict`` off is logged and
    skipped. A file that cannot be opened always raises ``error``."""
    decoder = json.JSONDecoder(object_pairs_hook=_unique_keys)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                if line.startswith("\ufeff"):  # json.loads's check, which decode skips
                    raise json.JSONDecodeError(
                        "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
                record = decode(decoder.decode(line))
            # the C scanner raises RecursionError on a deeply nested line, and
            # ValueError (as UnicodeDecodeError and JSONDecodeError are) on an
            # integer of more digits than int() converts
            except (ValueError, RecursionError, ValidationError) as exc:
                if strict:
                    raise error(f"{prefix}line {line_no}: {exc}") from None
                logger.warning("%s: skipping %sline %d: %s", path, prefix, line_no, exc)
                continue
            yield record


def _number(decimal: str) -> tuple[int, str]:
    """A decimal string's number, in any script and at any length, as a key."""
    digits = "".join(str(unicodedata.decimal(c)) for c in decimal).lstrip("0")
    return len(digits), digits


def question_from_record(record: Mapping[str, Any]) -> Question:
    """Decode one dataset record. Normalizes numeric option keys and yes/no
    answers into the contiguous letter-label form; ``Question`` refuses the
    result if it breaks an invariant."""
    if not isinstance(record, Mapping):
        raise ValidationError("record is not a JSON object")
    if "id" not in record or "question" not in record:
        raise ValidationError("record missing 'id' or 'question'")
    raw_options = record.get("options") or {}
    if isinstance(raw_options, Mapping):
        raw_options = raw_options.items()
    elif not isinstance(raw_options, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in raw_options):
        raise ValidationError(f"record {record.get('id')!r}: options must be an object "
                              "or a list of [label, text] pairs")
    pairs = [(str(k), v) for k, v in raw_options]
    answer = record.get("answer")
    answer = None if answer is None else str(answer)

    if not pairs and answer is not None and answer.strip().lower() in (
        "yes", "no", "true", "false",
    ):
        pairs = [("A", "yes"), ("B", "no")]
        answer = "A" if answer.strip().lower() in ("yes", "true") else "B"
    elif pairs:
        keys = [k.strip() for k, _ in pairs]
        numeric = all(k.isdecimal() for k in keys)
        # keys that name one number or one letter are one label
        names = [_number(k) if numeric else k.upper() for k in keys]
        if len(set(names)) != len(names):
            raise ValidationError(f"record {record.get('id')!r}: duplicate label")
        if numeric:  # numbers become letters in their order, "A" for the least
            letter = {name: chr(ord("A") + rank) for rank, name in enumerate(sorted(names))}
            names = [letter[name] for name in names]
            if answer is not None and answer.strip().isdecimal():
                answer = letter.get(_number(answer.strip()), answer)
        pairs = [(name, text) for name, (_, text) in zip(names, pairs)]
        if numeric:
            pairs.sort(key=lambda pair: pair[0])
        if answer is not None:
            answer = answer.strip().upper()

    return Question(
        id=text_of(record["id"], "'id'"),
        stem=text_of(record["question"], "'question'"),
        options=pairs,
        gold_label=answer,
        domain_tag=text_of(record.get("domain"), "'domain'", optional=True),
    )


def document_ref_to_record(ref: DocumentRef) -> dict[str, Any]:
    return {"doc_id": ref.doc_id, "score": ref.score, "snippet": ref.snippet,
            "title": ref.title}


def action_step_to_record(step: ActionStep) -> dict[str, Any]:
    return {
        "kind": step.kind.value,
        "output": step.output,
        "sub_question": step.sub_question,
        "retrieved": [document_ref_to_record(r) for r in step.retrieved],
        "queries": list(step.queries),
    }


def trajectory_to_record(traj: Trajectory) -> dict[str, Any]:
    return {
        "question_id": traj.question.id,
        "actions": [k.value for k in traj.action_sequence()],
        "steps": [action_step_to_record(s) for s in traj.steps],
        "final_answer": traj.final_answer,
        "terminal_reward": traj.terminal_reward,
        "factuality_score": traj.factuality.score if traj.factuality else None,
        "trajectory_hash": traj.content_hash(),
    }


def config_to_record(cfg: SearchConfig) -> dict[str, Any]:
    """Every config field, in field order; the enabled actions sorted."""
    record = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    record["enabled_actions"] = sorted(k.value for k in cfg.enabled_actions)
    return record
