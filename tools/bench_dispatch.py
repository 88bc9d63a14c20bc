"""Per-call time of scripted dispatch on the benchmark's own request stream.

Run from the repository root:

    python3 tools/bench_dispatch.py --topic line_memo --parent HEAD --seed 5

For the ``tree-cpu`` workload of ``perfbench/run.py`` it generates the
inputs at ``--seed``, evaluates one pass of the workload's questions on one
worker, and records every request that reaches ``ScriptedBackend._complete``.
It then times ``_complete`` per call over that stream in two ways: as
recorded, and with a counter appended to every line so that no line of the
stream repeats. The counter keeps every script substring in its line, so
each request gets the same entry. Each way is timed as the benchmark runs a
pass: a new backend per pass, so its line memos start empty; the result is
the median over ``--passes`` passes.

The parent revision (exported with ``git archive``) and the working tree are
timed in their own processes, ``--rounds`` times, alternating which side
runs first. Both record the stream with their own code; the exit code is 1,
after the file is written, when the two streams differ.

It also counts, for ``tree-cpu`` and ``tree-wait``, the line reads of one
pass and the share of them that repeat a line read earlier in the pass.
``BENCH_<topic>.json`` gets the times under ``dispatch`` and the counts under
``line_repeats``; other keys of the file, such as those
``tools/bench_pairs.py`` writes, are kept.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, export_revision, quartiles

TIMED_WORKLOAD = "tree-cpu"
LINE_WORKLOADS = ("tree-cpu", "tree-wait")


def record_stream(tree: Path, workload: str, seed: int):
    """The script entries of ``workload`` at ``seed`` and the requests one
    pass sends to the scripted backend, using the package in ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import inputs
    import rare
    from rare.harness import apply_preset, run_eval
    from rare.lm import ScriptedBackend
    from rare.types import SearchConfig
    from run import WORKLOADS, setup

    if tree / "src" not in Path(rare.__file__).resolve().parents:
        raise SystemExit(f"rare was imported from {rare.__file__}, not from {tree / 'src'}")
    w = dataclasses.replace(WORKLOADS[workload], setup_reps=1)
    data = inputs.generate(seed, w.docs, w.questions)
    with tempfile.TemporaryDirectory(prefix="bench-dispatch-") as tmp:
        files = {key: os.path.join(tmp, f"{key}.jsonl") for key in ("dataset", "script", "corpus")}
        files["index"] = os.path.join(tmp, "index.bin")
        inputs.write_jsonl(files["dataset"], data.questions)
        inputs.write_jsonl(files["script"], data.script)
        inputs.write_jsonl(files["corpus"], data.corpus)
        questions, entries, index, _ = setup(w, files)
    questions = questions[::len(questions) // w.evaluated][:w.evaluated]  # as run.py picks them
    cfg = SearchConfig(rollouts=w.rollouts)
    if w.method == "rare":
        cfg = apply_preset(cfg, "rare")
    backend = ScriptedBackend(entries)
    stream = []
    complete = backend._complete

    def recording(req):
        stream.append(req)
        return complete(req)

    backend._complete = recording
    run_eval(questions, w.method, backend, index, cfg, workers=1)
    return entries, stream


def unique_lines(stream):
    """The stream with `` ~k~`` appended to every line, ``k`` counting lines."""
    counter = iter(range(sum(req.prompt.count("\n") + 1 for req in stream)))
    return [dataclasses.replace(req, prompt="\n".join(
        f"{line} ~{next(counter)}~" for line in req.prompt.split("\n"))) for req in stream]


def us_per_call(entries, stream, passes: int) -> float:
    from rare.lm import ScriptedBackend

    times = []
    for _ in range(passes):
        backend = ScriptedBackend(entries)
        t0 = time.perf_counter()
        for req in stream:
            backend._complete(req)
        times.append((time.perf_counter() - t0) / len(stream))
    return statistics.median(times) * 1e6


def measure(tree: Path, seed: int, passes: int) -> dict:
    entries, stream = record_stream(tree, TIMED_WORKLOAD, seed)
    from rare.lm import ScriptedBackend  # from tree, now on the path

    unique = unique_lines(stream)
    backend = ScriptedBackend(entries)
    replies = [backend._complete(req).completions for req in stream]
    if replies != [backend._complete(req).completions for req in unique]:
        raise SystemExit("a request with unique lines got another reply")
    digest = hashlib.sha256("\0".join(req.prompt for req in stream).encode()).hexdigest()
    return {"calls": len(stream), "stream_sha256": digest,
            "as_recorded_us": us_per_call(entries, stream, passes),
            "unique_lines_us": us_per_call(entries, unique, passes)}


def line_repeats(workload: str, seed: int) -> dict:
    _, stream = record_stream(ROOT, workload, seed)
    lines = [line for req in stream for line in req.prompt.split("\n")]
    distinct = len(set(lines))
    return {"calls": len(stream), "line_reads": len(lines), "distinct_lines": distinct,
            "repeat_share": 1 - distinct / len(lines)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--topic", default="line_memo", help="the file is BENCH_<topic>.json")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)  # one side, in a child
    args = parser.parse_args(argv)
    if args.passes < 1 or args.rounds < 1:
        parser.error("--passes and --rounds must be >= 1")
    if args.measure:
        print(json.dumps(measure(args.measure, args.seed, args.passes)))
        return 0

    def run_side(tree: Path) -> dict:
        proc = subprocess.run(
            [sys.executable, __file__, "--measure", str(tree), "--seed", str(args.seed),
             "--passes", str(args.passes)],
            cwd=tree, capture_output=True, text=True)
        if proc.returncode:
            raise SystemExit(f"measuring {tree} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout)

    rounds = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        sha = export_revision(args.parent, parent_tree)
        for i in range(1, args.rounds + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            result = {"round": i, "first": order[0]}
            for side in order:
                result[side] = run_side(parent_tree if side == "parent" else ROOT)
            rounds.append(result)
            print(f"round {i}: parent {result['parent']['as_recorded_us']:.1f} us, "
                  f"change {result['change']['as_recorded_us']:.1f} us", file=sys.stderr)
    digests = {r[side]["stream_sha256"] for r in rounds for side in ("parent", "change")}
    summary = {way: {side: quartiles([r[side][way] for r in rounds])
                     for side in ("parent", "change")}
               for way in ("as_recorded_us", "unique_lines_us")}

    out = ROOT / f"BENCH_{args.topic}.json"
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("dispatch", {})[f"{TIMED_WORKLOAD} seed {args.seed}"] = {
        "parent_commit": sha,
        "host": f"{platform.system()} {platform.machine()}, "
                f"{len(os.sched_getaffinity(0))} CPUs usable",
        "command": f"python3 tools/bench_dispatch.py --topic {args.topic} --parent "
                   f"{args.parent} --seed {args.seed} "
                   f"--passes {args.passes} --rounds {args.rounds}",
        "what": "microseconds per ScriptedBackend._complete call, median pass of a new "
                "backend, over the requests one pass sends; unique_lines_us appends a "
                "counter to every line so that no line repeats",
        "same_stream_on_both_sides": len(digests) == 1,
        "summary": summary,
        "rounds": rounds,
    }
    doc.setdefault("line_repeats", {})[f"seed {args.seed}"] = {
        name: line_repeats(name, args.seed) for name in LINE_WORKLOADS}
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0 if len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
