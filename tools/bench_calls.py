"""LM calls and tokens per question, by purpose, for every method, at a
parent revision and in the working tree.

Run from the repository root:

    python3 tools/bench_calls.py --topic one_reward_path --parent HEAD --seed 5

For the inputs of the ``tree-cpu`` and ``tree-wait`` workloads of
``perfbench/run.py`` (generated at ``--seed`` by ``perfbench/inputs.generate``,
with the question pool, evaluated subset and corpus size of ``WORKLOADS``)
it evaluates the subset with ``rare.harness.run_eval`` on one worker, with
no LM wait: ``cot``, ``sc`` and ``rag`` once, and ``rstar`` and ``rare``
(each under its ablation preset) at rollouts 4, 8 and 16. Each row counts,
per evaluated question, the calls, prompt tokens and completion tokens the
scripted backend received, in total and by purpose; the waits a live
endpoint would cost (``waits``: one per single request and one per wave
that reaches the backend); the vote samples drawn
(``votes_drawn``: every sample ``Scope.keep_vote`` keeps); the votes left
in ``scope.votes`` when the question ended under an A2 prompt that no
reward looked up (``unread_votes``); and the step samples expansions took
from those simulations had drawn instead of requesting them
(``reused_steps``: the samples ``scope.steps`` loses during ``expand``,
which only takes from it). Each side runs in its own process on the
parent exported with ``git archive`` and on the working tree.

``BENCH_<topic>.json`` (``--topic``, default ``vote_fold``) gets the rows
under ``calls``; other keys of the file, such as those
``tools/bench_pairs.py`` writes, are kept. The exit code is 1, after the
file is written, when the two sides predict different labels for any
question of any row.
"""

from __future__ import annotations

import sys
from pathlib import Path

from bench_pairs import ROOT, bench_doc, measure_sides, workload_inputs, write_doc

ROWS = (("cot", None), ("sc", None), ("rag", None),
        *((method, rollouts) for method in ("rstar", "rare") for rollouts in (4, 8, 16)))


def measure(tree: Path, workload: str, seed: int) -> dict:
    """Every row's costs per question on ``workload``'s inputs, using the
    package in ``tree``."""
    _, data, records = workload_inputs(tree, workload, seed)
    import rare.harness
    import rare.mcts
    from rare.harness import apply_preset, run_eval
    from rare.lm import ScriptedBackend, script_entry_from_record
    from rare.retrieval import build_index, document_from_record
    from rare.selection import BASELINE_METHODS
    from rare.types import ActionKind, SearchConfig, Trajectory, question_from_record

    questions = [question_from_record(r) for r in records]
    entries = [script_entry_from_record(r) for r in data.script]
    index = build_index([document_from_record(r) for r in data.corpus])

    scopes = []
    drawn, reused, waits = [0], [0], [0]
    looked_up: set[tuple[int, str]] = set()  # (scope id, A2 prompt) a reward looked up

    class KeptScope(rare.harness.Scope):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            scopes.append(self)

        def keep_vote(self, prompt, samples):
            drawn[0] += len(samples)
            return super().keep_vote(prompt, samples)

    class CountingBackend(ScriptedBackend):
        in_wave = False

        def complete(self, req, *args, **kwargs):
            waits[0] += not self.in_wave
            return super().complete(req, *args, **kwargs)

        def settle_many(self, reqs):  # how a question's scope sends a wave
            waits[0] += 1
            self.in_wave = True
            try:
                return super().settle_many(reqs)
            finally:
                self.in_wave = False

    expand, terminal_reward = rare.mcts.expand, rare.mcts.terminal_reward

    def held_steps(scope) -> int:
        return sum(len(v) for v in scope.steps.values())

    def counted(tree, node):
        before = held_steps(tree.scope)
        try:
            return expand(tree, node)
        finally:  # an expansion only takes steps
            reused[0] += before - held_steps(tree.scope)

    def rewarded(traj, scope):
        context = Trajectory(traj.question, traj.steps[:-1])
        looked_up.add((id(scope), rare.mcts.action_request(
            ActionKind.A2, context, scope.prompts, "consistency", 1).prompt))
        return terminal_reward(traj, scope)

    rare.harness.Scope = KeptScope
    rare.mcts.expand = counted
    rare.mcts.terminal_reward = rewarded
    rows = {}
    for method, rollouts in ROWS:
        scopes.clear()
        looked_up.clear()
        drawn[0] = reused[0] = waits[0] = 0
        cfg = SearchConfig(rollouts=rollouts or 8)
        if method not in BASELINE_METHODS:
            cfg = apply_preset(cfg, method)
        backend = CountingBackend(entries)
        report = run_eval(questions, method, backend, index, cfg, workers=1)
        errors = [r.error for r in report.records if r.error is not None]
        if errors:
            raise SystemExit(f"{method} failed on {workload}: {errors[0]}")
        n = len(questions)
        costs = backend.snapshot_costs()
        unread = sum(len(votes) for scope in scopes for prompt, votes in scope.votes.items()
                     if (id(scope), prompt) not in looked_up)
        rows[method if rollouts is None else f"{method}@{rollouts}"] = {
            "lm_calls_per_q": costs.total_calls / n,
            "prompt_tokens_per_q": costs.total_prompt_tokens / n,
            "completion_tokens_per_q": costs.total_completion_tokens / n,
            "by_purpose": {purpose: {"calls": calls / n, "prompt_tokens": prompt / n,
                                     "completion_tokens": completion / n}
                           for purpose, (calls, prompt, completion)
                           in sorted(costs.per_purpose.items())},
            "waits_per_q": waits[0] / n,
            "votes_drawn_per_q": drawn[0] / n,
            "unread_votes_per_q": unread / n,
            "reused_steps_per_q": reused[0] / n,
            "accuracy": report.accuracy,
            "predicted": {r.question_id: r.predicted for r in report.records},
        }
    return {"questions": len(questions), "rows": rows}


def relative(parent: float, change: float) -> float | None:
    return (change - parent) / parent if parent else None


def main(argv: list[str] | None = None) -> int:
    compared = measure_sides(__file__, __doc__.split("\n\n")[0], measure, argv,
                             topic="vote_fold")
    if compared is None:
        return 0
    args, sha, sides = compared
    results = {}
    same = True
    for workload, side in sides.items():
        parent, change = side["parent"], side["change"]
        rows = {}
        for name, p in parent["rows"].items():
            c = change["rows"][name]
            same_labels = p.pop("predicted") == c.pop("predicted")
            same = same and same_labels
            rows[name] = {
                "same_labels": same_labels,
                "relative_change": {
                    key: relative(p[key], c[key]) for key in
                    ("lm_calls_per_q", "waits_per_q", "prompt_tokens_per_q",
                     "completion_tokens_per_q")},
                "unread_share_of_drawn": (c["unread_votes_per_q"] / c["votes_drawn_per_q"]
                                          if c["votes_drawn_per_q"] else 0.0),
                "parent": p,
                "change": c,
            }
            print(f"{workload} {name}: {p['lm_calls_per_q']:.3f} -> "
                  f"{c['lm_calls_per_q']:.3f} calls, {p['waits_per_q']:.3f} -> "
                  f"{c['waits_per_q']:.3f} waits and {p['votes_drawn_per_q']:.3f} -> "
                  f"{c['votes_drawn_per_q']:.3f} votes drawn per question, "
                  f"{c['unread_votes_per_q']:.3f} unread", file=sys.stderr)
        results[workload] = {"questions": change["questions"], "rows": rows}

    out = ROOT / f"BENCH_{args.topic}.json"
    doc = bench_doc(out, args.topic, sha)
    doc["calls"] = {
        "command": f"python3 tools/bench_calls.py --topic {args.topic} "
                   f"--parent {args.parent} --seed {args.seed}",
        "what": "per evaluated question, one worker, the workload's inputs without its LM "
                "wait: LM calls, waits (one per single request or wave that reaches the "
                "backend), prompt and completion tokens (total and by purpose), vote "
                "samples drawn, vote samples under an A2 prompt no reward looked up, and "
                "step samples expansions took from simulations; baselines do not depend on "
                "the rollout count",
        "workloads": results,
    }
    write_doc(out, doc)
    print(f"wrote {out.name}", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
