"""The program's own calls keep the contracts its phase functions rely on.

A value is checked where it enters: its constructor, the loaders,
``run_eval`` and the CLI. The phase functions of the search, the selectors
and the scorer do not check their arguments again, because their callers
only ever pass what they accept. This test runs the 47 golden runs with each
such function wrapped through the module global its caller looks up, and
checks the contract before every call. Only two golden runs reach the depth
cap, so the 12 tree configurations at rollouts 16 run once more at
``max_depth=1``, where nodes are marked terminal-failed and selected again.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import replace

import rare.factuality
import rare.harness
import rare.mcts
import rare.selection
from conftest import build_eval_fixture, fixture_corpus
from rare.actions import ACTION_SPECS
from rare.harness import dump_trajectories, run_eval
from rare.retrieval import build_index
from rare.selection import BASELINE_METHODS
from rare.types import RETRIEVAL_ACTIONS
from test_golden import _runs


def _action_contract(kind, ctx, scope, *_, **__) -> bool:
    """A retrieval action has an index; A4 and A7 have a pending sub-question."""
    return (kind not in RETRIEVAL_ACTIONS or scope.index is not None) and (
        not ACTION_SPECS[kind].pending or bool(ctx.pending_sub_question))


CONTRACTS = {
    (rare.mcts, "uct_score"): lambda q, visits, parent_visits, c: c > 0 and (
        visits == 0 or parent_visits >= 1),
    (rare.mcts, "expand"): lambda tree, node: not node.is_terminal() and not node.expanded,
    (rare.mcts, "simulate"): lambda tree, node: not node.terminal_failed,
    (rare.mcts, "terminal_reward"): lambda traj, scope: traj.final_answer is not None,
    (rare.mcts, "execute_action"): _action_contract,
    (rare.selection, "execute_action"): _action_contract,
    (rare.harness, "select_rare"): lambda candidates: bool(candidates),
    (rare.harness, "select_majority"): lambda candidates: bool(candidates),
    (rare.harness, "run_baseline"): lambda method, scope: method in BASELINE_METHODS and (
        method != "rag" or scope.index is not None),
    (rare.harness, "factuality_record"): lambda traj: traj.factuality is not None,
    (rare.factuality, "split_statements"): lambda traj: bool(traj.steps),
}


def _checked(fn, name: str, contract, calls: Counter, broken: Counter):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        if not contract(*args, **kwargs):
            broken[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_every_phase_call_meets_its_contract(monkeypatch):
    calls: Counter = Counter()
    broken: Counter = Counter()
    for (module, name), contract in CONTRACTS.items():
        key = f"{module.__name__}.{name}"
        monkeypatch.setattr(module, name,
                            _checked(getattr(module, name), key, contract, calls, broken))
    index = build_index(fixture_corpus())
    runs = list(_runs())
    runs += dict.fromkeys((method, replace(cfg, max_depth=1)) for method, cfg in runs
                          if method not in BASELINE_METHODS and cfg.rollouts == 16)
    for method, cfg in runs:
        questions, backend = build_eval_fixture(6, 4)
        report = run_eval(questions, method, backend, index, cfg, workers=1,
                          on_candidates=lambda q, cands: dump_trajectories(io.StringIO(), cands))
        # trajectory_stats' contract: run_eval refuses an empty question list
        assert report.records
    assert broken == Counter()
    assert set(calls) == {f"{module.__name__}.{name}" for module, name in CONTRACTS}
