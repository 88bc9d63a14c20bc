"""LM calls and tokens per question, by purpose, for every method, at a
parent revision and in the working tree.

Run from the repository root:

    python3 tools/bench_calls.py --topic sim_reuse --parent HEAD --seed 5

For the inputs of the ``tree-cpu`` and ``tree-wait`` workloads of
``perfbench/run.py`` (generated at ``--seed`` by ``perfbench/inputs.generate``,
with the question pool, evaluated subset and corpus size of ``WORKLOADS``)
it evaluates the subset with ``rare.harness.run_eval`` on one worker, with
no LM wait: ``cot``, ``sc`` and ``rag`` once, and ``rstar`` and ``rare``
(each under its ablation preset) at rollouts 4, 8 and 16. Each row counts,
per evaluated question, the calls, prompt tokens and completion tokens the
scripted backend received, in total and by purpose; the votes that action
requests drew with their steps (``folded_votes``) and those left unused
when the question ended (``unused_votes``); and the step samples
expansions took from those simulations had drawn instead of requesting
them (``reused_steps``). A revision without folded votes or kept steps
reports 0 for them. Each side runs in its own process on the parent
exported with ``git archive`` and on the working tree.

``BENCH_<topic>.json`` (``--topic``, default ``vote_fold``) gets the rows
under ``calls``; other keys of the file, such as those
``tools/bench_pairs.py`` writes, are kept. The exit code is 1, after the
file is written, when the two sides predict different labels for any
question of any row.
"""

from __future__ import annotations

import inspect
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
    from rare.types import SearchConfig, question_from_record

    questions = [question_from_record(r) for r in records]
    entries = [script_entry_from_record(r) for r in data.script]
    index = build_index([document_from_record(r) for r in data.corpus])

    scopes = []
    folded, reused = [0], [0]

    class KeptScope(rare.harness.Scope):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            scopes.append(self)

    execute_action = rare.mcts.execute_action
    signature = inspect.signature(execute_action)

    def spare(scope, name: str) -> int:
        return sum(len(v) for v in getattr(scope, name, {}).values())

    def counted(*args, **kwargs):
        scope = signature.bind(*args, **kwargs).arguments["scope"]
        votes, steps = spare(scope, "votes"), spare(scope, "steps")
        try:
            return execute_action(*args, **kwargs)
        finally:  # a call draws votes and either takes steps or keeps them
            folded[0] += spare(scope, "votes") - votes
            reused[0] += max(0, steps - spare(scope, "steps"))

    rare.harness.Scope = KeptScope
    rare.mcts.execute_action = counted
    rows = {}
    for method, rollouts in ROWS:
        scopes.clear()
        folded[0] = reused[0] = 0
        cfg = SearchConfig(rollouts=rollouts or 8)
        if method not in BASELINE_METHODS:
            cfg = apply_preset(cfg, method)
        backend = ScriptedBackend(entries)
        report = run_eval(questions, method, backend, index, cfg, workers=1)
        errors = [r.error for r in report.records if r.error is not None]
        if errors:
            raise SystemExit(f"{method} failed on {workload}: {errors[0]}")
        n = len(questions)
        costs = backend.snapshot_costs()
        unused = sum(spare(scope, "votes") for scope in scopes)
        rows[method if rollouts is None else f"{method}@{rollouts}"] = {
            "lm_calls_per_q": costs.total_calls / n,
            "prompt_tokens_per_q": costs.total_prompt_tokens / n,
            "completion_tokens_per_q": costs.total_completion_tokens / n,
            "by_purpose": {purpose: {"calls": calls / n, "prompt_tokens": prompt / n,
                                     "completion_tokens": completion / n}
                           for purpose, (calls, prompt, completion)
                           in sorted(costs.per_purpose.items())},
            "folded_votes_per_q": folded[0] / n,
            "unused_votes_per_q": unused / n,
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
                    ("lm_calls_per_q", "prompt_tokens_per_q", "completion_tokens_per_q")},
                "unused_share_of_folded": (c["unused_votes_per_q"] / c["folded_votes_per_q"]
                                           if c["folded_votes_per_q"] else 0.0),
                "parent": p,
                "change": c,
            }
            print(f"{workload} {name}: {p['lm_calls_per_q']:.3f} -> "
                  f"{c['lm_calls_per_q']:.3f} calls per question, "
                  f"{c['reused_steps_per_q']:.3f} reused steps, "
                  f"{c['unused_votes_per_q']:.3f} unused votes", file=sys.stderr)
        results[workload] = {"questions": change["questions"], "rows": rows}

    out = ROOT / f"BENCH_{args.topic}.json"
    doc = bench_doc(out, args.topic, sha)
    doc["calls"] = {
        "command": f"python3 tools/bench_calls.py --topic {args.topic} "
                   f"--parent {args.parent} --seed {args.seed}",
        "what": "per evaluated question, one worker, the workload's inputs without its LM "
                "wait: LM calls, prompt and completion tokens (total and by purpose), votes "
                "drawn with action steps, votes left unused, and step samples expansions "
                "took from simulations; baselines do not depend on the rollout count",
        "workloads": results,
    }
    write_doc(out, doc)
    print(f"wrote {out.name}", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
