"""Pinned digests of every LM request, report and candidate record over the
scripted fixture, and a check that every step's prompt follows from its record.

Runs ``run_eval`` on the 6-question fixture, one worker, at rollouts 4, 8 and
16, for the three baselines and for every ablation preset under both tree
methods, plus both tree methods at rollouts 16 with ``max_depth=2``, where
nodes reach the depth cap and are marked terminal-failed: 47 runs. Three digests each take a header per run (method and
config) and then, in order:

- ``requests``: every LM request (purpose, prompt, sample count,
  temperature, stop sequences), in call order;
- ``reports``: the run's report;
- ``records``: each candidate's trajectory and factuality records.

Script entries match prompts on substrings only, so the request digest is
what catches a prompt that drifts by one byte or a request that moves; the
other two catch an output that changes. Update ``GOLDEN_DIGESTS`` only for
an intended behaviour change, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import rare.mcts

from conftest import build_eval_fixture, fixture_corpus
from rare.actions import action_request, default_prompts, render_documents
from rare.factuality import factuality_record
from rare.harness import ABLATION_PRESETS, apply_preset, report_to_record, run_eval
from rare.lm import LmBackend
from rare.retrieval import build_index
from rare.types import (ActionKind, ActionStep, DocumentRef, SearchConfig, Trajectory,
                        config_to_record, trajectory_to_record)

GOLDEN_DIGESTS = {
    "requests": "b3fd609abe6a4b33a5b4ac97baf4add3ecf80e88b2ea309a8539d4b2b9cef250",
    "reports": "67283ebf59cb707cd033941b1466318bcba68883d5b4daffea6ff9dfa95d0fc7",
    "records": "b15f2f5928e9b76cbf5ad282eb6ca78cd4a3796d6362b0647f5d48ba41096740",
}


class _RecordingBackend(LmBackend):
    """Keeps each request, in the order the caller issued it, before
    forwarding it. A wave's round trips run on pool threads in no fixed
    order, so requests are kept at ``complete``, on the caller's thread."""

    def __init__(self, inner: LmBackend):
        super().__init__()
        self.inner = inner
        self.requests = []

    def complete(self, req, sent=None):
        self.requests.append(req)
        return super().complete(req, sent)

    def _complete(self, req):
        return self.inner.complete(req)


def _feed(digest, obj) -> None:
    digest.update(json.dumps(obj, sort_keys=True).encode("utf-8"))
    digest.update(b"\n")


def _runs():
    for rollouts in (4, 8, 16):
        cfg = SearchConfig(rollouts=rollouts)
        for method in ("cot", "sc", "rag"):
            yield method, cfg
        for method in ("rstar", "rare"):
            for preset in ABLATION_PRESETS:
                yield method, apply_preset(cfg, preset)
    for method in DEPTH_CAPPED:
        yield method, apply_preset(SearchConfig(rollouts=16, max_depth=2), method)


DEPTH_CAPPED = ("rstar", "rare")


def _recorded_runs():
    """Per run: its header, questions, requests, report and candidates."""
    index = build_index(fixture_corpus())
    for method, cfg in _runs():
        questions, scripted = build_eval_fixture(6, 4)
        backend = _RecordingBackend(scripted)
        candidates = []
        report = run_eval(questions, method, backend, index, cfg, workers=1,
                          on_candidates=lambda q, cands: candidates.extend(cands))
        header = ["run", method, config_to_record(cfg)]
        yield header, questions, backend.requests, report, candidates


def golden_digests() -> dict[str, str]:
    digests = {name: hashlib.sha256() for name in GOLDEN_DIGESTS}
    for header, _, requests, report, candidates in _recorded_runs():
        for digest in digests.values():
            _feed(digest, header)
        for req in requests:
            _feed(digests["requests"], ["request", req.purpose_tag, req.prompt,
                                        req.n_samples, req.temperature,
                                        list(req.stop_sequences)])
        _feed(digests["reports"], report_to_record(report))
        for traj in candidates:
            _feed(digests["records"], trajectory_to_record(traj))
            if traj.factuality is not None:
                _feed(digests["records"], factuality_record(traj))
    return {name: digest.hexdigest() for name, digest in digests.items()}


def test_requests_and_records_match_pinned_digest():
    assert golden_digests() == GOLDEN_DIGESTS


def test_depth_capped_runs_reach_terminal_failed_nodes(monkeypatch):
    """The ``max_depth=2`` runs cover what the others never reach: an
    expansion at the depth cap, which marks its node terminal-failed."""
    failed = []
    real = rare.mcts.expand

    def expand(tree, node):
        children = real(tree, node)
        if node.terminal_failed:
            failed.append((tree.scope.cfg.max_depth, len(node.ctx.steps)))
        return children

    monkeypatch.setattr(rare.mcts, "expand", expand)
    index = build_index(fixture_corpus())
    for method, cfg in _runs():
        questions, scripted = build_eval_fixture(6, 4)
        run_eval(questions, method, scripted, index, cfg, workers=1)
    assert failed
    assert {depth for depth, _ in failed} == {2}
    assert all(steps == 2 for _, steps in failed)


def _step_from_record(record: dict) -> ActionStep:
    return ActionStep(ActionKind(record["kind"]), record["output"],
                      sub_question=record["sub_question"],
                      retrieved=tuple(DocumentRef(**hit) for hit in record["retrieved"]),
                      queries=tuple(record["queries"]))


def test_every_step_prompt_rerenders_from_its_record():
    """A step's prompt is derived, not lost: rebuilt from the step's JSON
    record, the earlier steps, the question and the packaged templates, it
    equals byte for byte a prompt the backend received in that run."""
    prompts = default_prompts()
    checked = 0
    missed = []
    for header, questions, requests, _, candidates in _recorded_runs():
        by_id = {q.id: q for q in questions}
        received = {req.prompt for req in requests}
        for traj in candidates:
            record = json.loads(json.dumps(trajectory_to_record(traj)))
            steps = tuple(_step_from_record(step) for step in record["steps"])
            question = by_id[record["question_id"]]
            for i, step in enumerate(steps):
                prompt = action_request(step.kind, Trajectory(question, steps[:i]), prompts,
                                        "action_gen", 1,
                                        render_documents(step.retrieved)).prompt
                checked += 1
                if prompt not in received:
                    missed.append((header[1], record["question_id"], i, step.kind.value))
    assert checked > 5000
    assert missed == []
