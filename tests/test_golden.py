"""Pinned digest of every LM request and output over the scripted fixture.

Runs ``run_eval`` on the 6-question fixture, one worker, at rollouts 4, 8 and
16, for the three baselines and for every ablation preset under both tree
methods. It hashes, in call order, every LM request (purpose, prompt, sample
count, temperature, stop sequences), each report, and each candidate's
trajectory and factuality records. Script entries match prompts on
substrings only, so this digest is what catches a prompt that drifts by one
byte, a request that moves, or an output that changes. Update
``GOLDEN_DIGEST`` only for an intended behaviour change, and say why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

from conftest import build_eval_fixture, fixture_corpus
from rare.factuality import factuality_record
from rare.harness import ABLATION_PRESETS, apply_preset, report_to_record, run_eval
from rare.lm import LmBackend
from rare.retrieval import build_index
from rare.types import SearchConfig, trajectory_to_record

GOLDEN_DIGEST = "687b07c17467d24c4cad57dab419875465ac0f32919d40b118c57c5d6303bcd6"


class _RecordingBackend(LmBackend):
    """Feeds each request into a hash before forwarding it."""

    def __init__(self, inner: LmBackend, digest):
        super().__init__()
        self.inner = inner
        self.digest = digest

    def _complete(self, req):
        _feed(self.digest, ["request", req.purpose_tag, req.prompt, req.n_samples,
                            req.temperature, list(req.stop_sequences)])
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


def golden_digest() -> str:
    digest = hashlib.sha256()
    index = build_index(fixture_corpus())
    for method, cfg in _runs():
        questions, scripted = build_eval_fixture(6, 4)
        candidates = []
        report = run_eval(questions, method, _RecordingBackend(scripted, digest), index,
                          cfg, workers=1,
                          on_candidates=lambda q, cands: candidates.extend(cands))
        _feed(digest, report_to_record(report))
        for traj in candidates:
            _feed(digest, trajectory_to_record(traj))
            if traj.factuality is not None:
                _feed(digest, factuality_record(traj))
    return digest.hexdigest()


def test_requests_and_records_match_pinned_digest():
    assert golden_digest() == GOLDEN_DIGEST
