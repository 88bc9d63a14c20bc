"""Turning candidate trajectories into one final answer.

Each selector returns the chosen trajectory: factuality ranking for rare,
majority voting for rstar and the baselines. ``run_baseline`` returns the
candidates of the single-shot methods: chain-of-thought, self-consistency,
and plain retrieval-augmented answering.
"""

from __future__ import annotations

from .actions import Scope, action_request, children_of, execute_action, render_documents
from .errors import AbstainError, NoViableChildError
from .retrieval import search
from .types import ActionKind, Trajectory

BASELINE_METHODS = ("cot", "sc", "rag")


def tie_break(traj: Trajectory) -> tuple[float, int, str]:
    """``select_rare``'s order among equal factuality scores: higher reward,
    then fewer steps, then trajectory hash."""
    return -traj.terminal_reward, len(traj.steps), traj.content_hash()


def select_rare(candidates: list[Trajectory]) -> Trajectory:
    """The non-empty list's candidate with the highest factuality score, ties
    broken by ``tie_break`` and then by list position. Candidates with no
    report (not needed to find the winner) score -1 and rank last."""
    return min(candidates, key=lambda t: (-t.factuality_score(), *tie_break(t)))


def select_majority(candidates: list[Trajectory]) -> Trajectory:
    """Plurality vote over final answers. Ties between answers break by
    higher summed reward, then label order; within the winning answer the
    highest-reward trajectory is returned."""
    groups: dict[str, list[Trajectory]] = {}
    for traj in candidates:
        if traj.final_answer is None:
            continue
        groups.setdefault(traj.final_answer, []).append(traj)
    if not groups:
        raise AbstainError("no candidate carries a final answer")
    _, group = min(
        groups.items(),
        key=lambda kv: (-len(kv[1]), -sum(t.terminal_reward for t in kv[1]), kv[0]),
    )
    return min(group, key=lambda t: (-t.terminal_reward, t.content_hash()))


def run_baseline(method: str, scope: Scope) -> list[Trajectory]:
    """Single-pass baselines; returns the answered candidates, which the
    caller votes over with ``select_majority``.

    cot: one A2 action at the root. sc: the same action with
    ``n_consistency_samples`` outcomes, requested as ``consistency``. rag:
    one retrieval round on the question stem, then one completion of A6's
    request with those documents, made a step by ``children_of`` as A6's
    are: as in A6, the whole question is answered from the documents.
    A run with no parseable answer raises AbstainError and is recorded as
    incorrect by the harness.
    """
    q, cfg = scope.question, scope.cfg
    root = Trajectory(q)

    if method != "rag":
        try:
            return execute_action(
                ActionKind.A2, root, scope,
                n_outcomes=1 if method == "cot" else cfg.n_consistency_samples,
                purpose="action_gen" if method == "cot" else "consistency")
        except NoViableChildError:
            raise AbstainError(f"{method} produced no parseable answer for {q.id!r}") from None

    # rag
    hits = tuple(search(scope.index, q.stem, cfg.retrieval_top_k, scope.hits))
    resp = scope.complete(action_request(ActionKind.A6, root, scope.prompts, "action_gen", 1,
                                         render_documents(hits)))
    children = children_of(ActionKind.A6, root, resp.completions, hits, (q.stem,))
    if not children:
        raise AbstainError(f"rag produced no parseable answer for {q.id!r}")
    return children
