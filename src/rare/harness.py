"""Dataset loading, batch evaluation, cost accounting, trajectory statistics.

Questions are evaluated independently on a bounded thread pool, each in its
own ``Scope``. The scope seeds the question's config from its id, so results
never depend on pool size or scheduling order; it keeps the question's cost
ledger; and it answers the question's repeated greedy requests and searches
without paying for them again.
"""

from __future__ import annotations

import json
import logging
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, TextIO

from .actions import PromptLibrary, Scope
from .errors import DatasetError, RareError, ValidationError
from .factuality import factuality_record, score_candidates
from .lm import LmBackend
from .mcts import SearchTree, run_search
from .retrieval import RetrievalIndex
from .selection import BASELINE_METHODS, run_baseline, select_majority, select_rare
from .types import (
    ActionKind,
    BASE_ACTIONS,
    ALL_ACTIONS,
    RETRIEVAL_ACTIONS,
    Question,
    SearchConfig,
    Trajectory,
    config_to_record,
    question_from_record,
    read_records,
    trajectory_to_record,
)

logger = logging.getLogger(__name__)

# One preset per ablation row: which retrieval actions exist and whether the
# factuality scorer (instead of majority voting) picks the answer.
ABLATION_PRESETS: dict[str, tuple[frozenset[ActionKind], bool]] = {
    "rstar": (BASE_ACTIONS, False),
    "rstar+rafs": (BASE_ACTIONS, True),
    "rstar+a6": (BASE_ACTIONS | {ActionKind.A6}, False),
    "rstar+a7": (BASE_ACTIONS | {ActionKind.A7}, False),
    "rstar+a6+a7": (ALL_ACTIONS, False),
    "rare": (ALL_ACTIONS, True),
}

EVAL_METHODS = BASELINE_METHODS + ("rstar", "rare")


def apply_preset(cfg: SearchConfig, preset: str) -> SearchConfig:
    if preset not in ABLATION_PRESETS:
        raise ValidationError(
            f"unknown ablation preset {preset!r}; choose from {sorted(ABLATION_PRESETS)}"
        )
    enabled, rafs = ABLATION_PRESETS[preset]
    return replace(cfg, enabled_actions=enabled, rafs_enabled=rafs)


@dataclass(frozen=True)
class EvalRecord:
    question_id: str
    method: str
    predicted: str | None
    gold: str | None
    correct: bool
    candidate_count: int
    calls_used: int
    tokens_used: int
    action_sequence: tuple[ActionKind, ...]
    error: str | None = None
    internal_error: bool = False  # not written to the report


@dataclass(frozen=True)
class RunReport:
    config: dict[str, Any]
    records: tuple[EvalRecord, ...]
    accuracy: float
    avg_calls: float
    avg_tokens: float
    trajectory_histogram: dict[str, int]


def load_dataset(path: str, strict: bool = True) -> list[Question]:
    """Read a line-delimited question file. Malformed lines are fatal unless
    ``strict`` is off, in which case they are reported and skipped."""
    return list(read_records(path, "", question_from_record, DatasetError, strict))


def sequence_key(sequence: tuple[ActionKind, ...]) -> str:
    """An action sequence as the report's histogram keys it: ``A1->A2``."""
    return "->".join(kind.value for kind in sequence)


def evaluate_question(question: Question, method: str, backend: LmBackend,
                      index: RetrievalIndex | None, cfg: SearchConfig,
                      prompts: PromptLibrary | None = None,
                      ) -> tuple[EvalRecord, list[Trajectory]]:
    """Run one method on one question; any failure becomes an incorrect
    record whose ``error`` names the exception type. An exception that is not
    a ``RareError`` is a fault in the program: its traceback is logged and the
    record is marked ``internal_error``. The question runs in its own
    ``Scope``."""
    scope = Scope(question, cfg, backend, index, prompts)
    chosen: Trajectory | None = None
    candidates: list[Trajectory] = []
    error: str | None = None
    internal_error = False
    try:
        if method in BASELINE_METHODS:
            candidates = run_baseline(method, scope)
            chosen = select_majority(candidates)
        else:
            candidates = run_search(SearchTree(scope))
            if cfg.rafs_enabled:
                candidates = score_candidates(candidates, scope)
                chosen = select_rare(candidates)
            else:
                chosen = select_majority(candidates)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        internal_error = not isinstance(exc, RareError)
        if internal_error:
            logger.exception("question %r failed", question.id)

    ledger = scope.snapshot_costs()
    if chosen is not None:
        predicted = chosen.final_answer
        sequence = chosen.action_sequence()
    else:
        predicted, sequence, candidates = None, (), []
    record = EvalRecord(
        question_id=question.id,
        method=method,
        predicted=predicted,
        gold=question.gold_label,
        correct=predicted is not None and predicted == question.gold_label,
        candidate_count=len(candidates),
        calls_used=ledger.total_calls,
        tokens_used=ledger.total_completion_tokens,
        action_sequence=sequence,
        error=error,
        internal_error=internal_error,
    )
    if method in BASELINE_METHODS and chosen is not None:
        # a baseline hands on only the trajectory it answered with
        candidates = [chosen]
    return record, candidates


def run_eval(questions: list[Question], method: str, backend: LmBackend,
             index: RetrievalIndex | None, cfg: SearchConfig,
             workers: int | None = None,
             prompts: PromptLibrary | None = None,
             on_candidates: Callable[[Question, list[Trajectory]], None] | None = None,
             ) -> RunReport:
    """Evaluate every question and aggregate accuracy, cost means, and the
    action-sequence histogram of chosen trajectories.

    Only each question's ``EvalRecord`` is kept. Its candidate trajectories
    go to ``on_candidates`` in question order, as soon as that question's
    turn comes, and are dropped afterwards; with no callback they are
    dropped as soon as the question ends. If ``on_candidates`` raises or the
    run is interrupted, no queued question is started.

    A run that needs an index (``rag``, or a tree method with RAFS, A6 or A7)
    and has none is refused before the first question."""
    if method not in EVAL_METHODS:
        raise ValidationError(f"unknown method {method!r}; choose from {EVAL_METHODS}")
    if index is None and (method == "rag" or method not in BASELINE_METHODS and (
            cfg.rafs_enabled or cfg.enabled_actions & RETRIEVAL_ACTIONS)):
        raise ValidationError(f"method {method!r} with this configuration needs an index")
    if not questions:
        raise ValidationError("no questions to evaluate")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValidationError("workers must be >= 1")

    def work(question: Question) -> tuple[Question, EvalRecord, list[Trajectory] | None]:
        record, candidates = evaluate_question(question, method, backend, index, cfg, prompts)
        return question, record, candidates if on_candidates is not None else None

    records: list[EvalRecord] = []
    # the pool starts no thread until it is used; both maps are lazy and in
    # question order, so nothing holds a question's candidates after its turn
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = map(work, questions) if workers == 1 else pool.map(work, questions)
        try:
            for question, record, candidates in outcomes:
                records.append(record)
                if on_candidates is not None:
                    on_candidates(question, candidates)
                del candidates
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise

    histogram = Counter(
        sequence_key(record.action_sequence)
        for record in records
        if record.action_sequence
    )
    # tree methods pick by factuality when the scorer is on, else by majority
    # vote; the vote is also what approximates the original verifier setup
    if method not in BASELINE_METHODS:
        selection_rule = "factuality" if cfg.rafs_enabled else "majority_vote"
    elif method == "sc":
        selection_rule = "majority_vote"
    else:
        selection_rule = "single_completion"
    n = len(records)
    return RunReport(
        config={"method": method, "selection_rule": selection_rule,
                **config_to_record(cfg)},
        records=tuple(records),
        accuracy=sum(1 for r in records if r.correct) / n,
        avg_calls=sum(r.calls_used for r in records) / n,
        avg_tokens=sum(r.tokens_used for r in records) / n,
        trajectory_histogram=dict(sorted(histogram.items())),
    )


def trajectory_stats(report: RunReport, top_n: int = 10,
                     ) -> list[tuple[tuple[ActionKind, ...], int]]:
    """Most common action sequences among correctly answered questions,
    ranked by count descending then lexicographically."""
    counter = Counter(
        record.action_sequence
        for record in report.records
        if record.correct and record.action_sequence
    )
    ranked = sorted(
        counter.items(),
        key=lambda item: (-item[1], tuple(kind.value for kind in item[0])),
    )
    return ranked[:top_n]


def eval_record_to_record(record: EvalRecord) -> dict[str, Any]:
    """Every field but ``internal_error``, in field order."""
    out = {f.name: getattr(record, f.name) for f in fields(record)
           if f.name != "internal_error"}
    out["action_sequence"] = [kind.value for kind in record.action_sequence]
    return out


def report_to_record(report: RunReport) -> dict[str, Any]:
    return {
        "config": dict(report.config),
        "num_questions": len(report.records),
        "accuracy": report.accuracy,
        "avg_calls": report.avg_calls,
        "avg_tokens": report.avg_tokens,
        "trajectory_histogram": dict(report.trajectory_histogram),
        "records": [eval_record_to_record(r) for r in report.records],
    }


def dump_trajectories(fh: TextIO, candidates: list[Trajectory]) -> None:
    """Append one question's candidate trajectories to an open text file, one
    JSON object per line, and flush. A candidate that carries a factuality
    report is followed by its statement-level record; ``score_candidates``
    reports only the candidates it checked in full, which include the
    chosen one."""
    for traj in candidates:
        fh.write(json.dumps(trajectory_to_record(traj), sort_keys=True))
        fh.write("\n")
        if traj.factuality is not None:
            fh.write(json.dumps(factuality_record(traj), sort_keys=True))
            fh.write("\n")
    fh.flush()
