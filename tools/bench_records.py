"""Bytes per question of the candidate trajectory file, at a parent revision
and in the working tree.

Run from the repository root:

    python3 tools/bench_records.py --parent HEAD --seed 5

For the ``tree-cpu`` and ``tree-wait`` workloads of ``perfbench/run.py`` it
generates the inputs at ``--seed`` with ``perfbench/inputs.generate`` and
takes the method, rollouts, question pool, evaluated subset and corpus size
from ``WORKLOADS``. It then builds the index and runs ``rare eval --backend
script --workers 1 --trajectories F`` over the evaluated questions, once
with the parent revision (exported with ``git archive``) and once with the
working tree, each in its own process. The LM wait of ``tree-wait`` is left
out: it changes no byte. ``BENCH_trajectory_records.json`` gets, under
``trajectory_bytes`` and per workload, each side's bytes of F per question
and the relative change; other keys of the file, such as those
``tools/bench_pairs.py`` writes, are kept. The exit code is 1, after the
file is written, when the two sides predict different labels for any
question.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, bench_doc, measure_sides, workload_inputs, write_doc

OUT = ROOT / "BENCH_trajectory_records.json"


def measure(tree: Path, workload: str, seed: int) -> dict:
    """Trajectory-file bytes and predicted labels of one pass of
    ``workload``, using the package in ``tree``."""
    w, data, questions = workload_inputs(tree, workload, seed)
    import inputs
    from rare.cli import main

    with tempfile.TemporaryDirectory(prefix="bench-records-") as tmp:
        files = {key: os.path.join(tmp, name) for key, name in (
            ("dataset", "dataset.jsonl"), ("script", "script.jsonl"),
            ("corpus", "corpus.jsonl"), ("index", "index.bin"),
            ("report", "report.json"), ("trajectories", "trajectories.jsonl"))}
        inputs.write_jsonl(files["dataset"], questions)
        inputs.write_jsonl(files["script"], data.script)
        inputs.write_jsonl(files["corpus"], data.corpus)
        codes = [main(["index", "build", "--corpus", files["corpus"], "--out", files["index"]]),
                 main(["eval", "--dataset", files["dataset"], "--method", w.method,
                       "--index", files["index"], "--backend", "script",
                       "--script", files["script"], "--rollouts", str(w.rollouts),
                       "--workers", "1", "--out", files["report"],
                       "--trajectories", files["trajectories"]])]
        if any(codes):
            raise SystemExit(f"rare exited {codes} on {workload}")
        size = os.path.getsize(files["trajectories"])
        with open(files["report"], encoding="utf-8") as fh:
            report = json.load(fh)
    return {"questions": len(questions), "trajectory_bytes": size,
            "bytes_per_question": size / len(questions),
            "predicted": {r["question_id"]: r["predicted"] for r in report["records"]}}


def main(argv: list[str] | None = None) -> int:
    compared = measure_sides(__file__, __doc__.split("\n\n")[0], measure, argv)
    if compared is None:
        return 0
    args, sha, sides = compared
    results = {}
    for workload, side in sides.items():
        parent, change = (side[s]["bytes_per_question"] for s in ("parent", "change"))
        results[workload] = {
            "same_labels": side["parent"]["predicted"] == side["change"]["predicted"],
            "bytes_per_question": {"parent": parent, "change": change},
            "relative_change": (change - parent) / parent,
            **side,
        }
        print(f"{workload}: {parent / 1e3:.1f} -> {change / 1e3:.1f} KB per question",
              file=sys.stderr)

    doc = bench_doc(OUT, "trajectory_records", sha)
    doc["trajectory_bytes"] = {
        "command": f"python3 tools/bench_records.py --parent {args.parent} --seed {args.seed}",
        "what": "bytes that rare eval --trajectories writes per evaluated question, "
                "one worker, the workload's inputs and shape without its LM wait",
        "workloads": results,
    }
    write_doc(OUT, doc)
    print(f"wrote {OUT.name}", file=sys.stderr)
    return 0 if all(r["same_labels"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
