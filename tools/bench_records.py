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

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_revision

WORKLOADS = ("tree-cpu", "tree-wait")
OUT = ROOT / "BENCH_trajectory_records.json"


def measure(tree: Path, workload: str, seed: int) -> dict:
    """Trajectory-file bytes and predicted labels of one pass of
    ``workload``, using the package in ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import inputs
    import rare
    from rare.cli import main
    from run import WORKLOADS as SHAPES

    if tree / "src" not in Path(rare.__file__).resolve().parents:
        raise SystemExit(f"rare was imported from {rare.__file__}, not from {tree / 'src'}")
    w = SHAPES[workload]
    data = inputs.generate(seed, w.docs, w.questions)
    questions = data.questions[::len(data.questions) // w.evaluated][:w.evaluated]
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
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)  # one side, in a child
    parser.add_argument("--workload", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.workload, args.seed)))
        return 0

    def run_side(tree: Path, workload: str) -> dict:
        proc = subprocess.run(
            [sys.executable, __file__, "--measure", str(tree), "--workload", workload,
             "--seed", str(args.seed)],
            cwd=tree, capture_output=True, text=True)
        if proc.returncode:
            raise SystemExit(f"measuring {workload} in {tree} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    results = {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        sha = export_revision(args.parent, parent_tree)
        for workload in WORKLOADS:
            sides = {side: run_side(tree, workload)
                     for side, tree in (("parent", parent_tree), ("change", ROOT))}
            parent, change = (sides[s]["bytes_per_question"] for s in ("parent", "change"))
            results[workload] = {
                "same_labels": sides["parent"]["predicted"] == sides["change"]["predicted"],
                "bytes_per_question": {"parent": parent, "change": change},
                "relative_change": (change - parent) / parent,
                **sides,
            }
            print(f"{workload}: {parent / 1e3:.1f} -> {change / 1e3:.1f} KB per question",
                  file=sys.stderr)

    doc = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    doc.update({"topic": "trajectory_records", "parent_commit": sha,
                "host": f"{platform.system()} {platform.machine()}, "
                        f"{len(os.sched_getaffinity(0))} CPUs usable"})
    doc["trajectory_bytes"] = {
        "command": f"python3 tools/bench_records.py --parent {args.parent} --seed {args.seed}",
        "what": "bytes that rare eval --trajectories writes per evaluated question, "
                "one worker, the workload's inputs and shape without its LM wait",
        "workloads": results,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT.name}", file=sys.stderr)
    return 0 if all(r["same_labels"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
