"""One bad reply costs at most its question and never silently changes it.

A backend that fails chosen requests runs the golden fixture: the three
baselines and every ablation preset under both tree methods, at rollouts 4,
8 and 16. Each question's record must equal its fault-free record field for
field, or be a failed question: no prediction, an error of an injected type,
and no internal error. The tests hold for any order in which a question's
requests are sent, so a change that runs them concurrently keeps them.
"""

from __future__ import annotations

import pytest

from conftest import (
    FaultBackend,
    build_eval_fixture,
    first_call_fault,
    fixture_corpus,
    hashed_fault,
)
from rare.harness import EvalRecord, evaluate_question, run_eval
from rare.lm import PURPOSES
from rare.retrieval import build_index
from rare.types import SearchConfig
from test_golden import _runs

INDEX = build_index(fixture_corpus())


@pytest.fixture(scope="module")
def fault_free() -> list[list[EvalRecord]]:
    """Each golden run's records, one question at a time, with no fault."""
    questions, scripted = build_eval_fixture(6, 4)
    return [[evaluate_question(q, method, scripted, INDEX, cfg)[0] for q in questions]
            for method, cfg in _runs()]


def silent_changes(method: str, cfg: SearchConfig, records: list[EvalRecord],
                   clean: list[EvalRecord], injected: tuple[str, ...]) -> list[tuple]:
    """The records that differ from their fault-free record without failing
    with an injected error type, each named by its run and question."""
    run = (method, cfg.rollouts, sorted(k.value for k in cfg.enabled_actions),
           cfg.rafs_enabled)
    return [
        (*run, record.question_id) for record, want in zip(records, clean, strict=True)
        if record != want and not (
            record.predicted is None and not record.internal_error
            and record.error is not None and record.error.startswith(injected))
    ]


@pytest.mark.parametrize("purpose", PURPOSES)
def test_a_first_call_fault_fails_only_its_question(purpose, fault_free):
    questions, scripted = build_eval_fixture(6, 4)
    silent, failed = [], 0
    for (method, cfg), clean in zip(_runs(), fault_free, strict=True):
        records = [
            evaluate_question(q, method, FaultBackend(scripted, first_call_fault(purpose)),
                              INDEX, cfg)[0]
            for q in questions
        ]
        silent += silent_changes(method, cfg, records, clean, ("TransportError: ",))
        failed += sum(record.error is not None for record in records)
    assert silent == []
    # every purpose is asked for by some run, so some question did fail
    assert failed


@pytest.mark.parametrize("rate", [0.02, 0.1])
def test_hash_keyed_faults_fail_only_their_questions(rate, fault_free):
    questions, scripted = build_eval_fixture(6, 4)
    injected = ("TransportError: ", "MalformedReplyError: ")
    silent, failed = [], 0
    for (method, cfg), clean in zip(_runs(), fault_free, strict=True):
        report = run_eval(questions, method, FaultBackend(scripted, hashed_fault(rate)),
                          INDEX, cfg, workers=1)
        silent += silent_changes(method, cfg, list(report.records), clean, injected)
        failed += sum(record.error is not None for record in report.records)
    assert silent == []
    assert failed
