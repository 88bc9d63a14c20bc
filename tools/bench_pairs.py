"""Alternating benchmark pairs of a parent revision and the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --topic question_memo --parent HEAD \
        --workload tree-wait --seed 31 --seconds 45 --trace 0 --pairs 6

It exports ``--parent`` with ``git archive`` into a temporary directory, then
runs ``perfbench/run.py`` there and in the working tree, ``--pairs`` times,
alternating which side runs first (odd pairs run the parent first). Each
run's last output line is its result. ``BENCH_<topic>.json`` gets one entry
per (workload, seed, trace) setting with every run's result, and for every
metric both sides' quartiles and the number of pairs the change won, by the
direction BENCHMARK.json gives the metric. Each end-to-end metric with a
bound in BENCHMARK.json also gets a no-regression verdict (see ``verdict``).
Running again with another setting adds its entry to the same file; the
same setting is replaced.
The exit code is 1, after the file is written, when any run failed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tree-cpu", "tree-wait")  # the gated workloads of BENCHMARK.json


def export_revision(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` into ``dest``; returns its hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def workload_inputs(tree: Path, workload: str, seed: int):
    """The shape ``perfbench/run.py`` gives ``workload``, its inputs at
    ``seed`` from ``perfbench/inputs.generate``, and the records of the
    questions one pass evaluates, with ``tree``'s package and benchmark put
    first on the import path."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import inputs
    import rare
    from run import WORKLOADS as SHAPES

    if tree / "src" not in Path(rare.__file__).resolve().parents:
        raise SystemExit(f"rare was imported from {rare.__file__}, not from {tree / 'src'}")
    w = SHAPES[workload]
    data = inputs.generate(seed, w.docs, w.questions)
    return w, data, data.questions[::len(data.questions) // w.evaluated][:w.evaluated]


def measure_sides(script: str, description: str, measure, argv: list[str] | None,
                  topic: str | None = None):
    """The command line of a tool that measures each gated workload once
    on a parent revision and once in the working tree, each side in its own
    process: ``script --parent REV --seed S``, plus ``--topic`` (default
    ``topic``) when a ``topic`` is given.

    In the child (``--measure TREE --workload W``, hidden options) it prints
    ``measure(TREE, W, S)`` as JSON and returns None. Otherwise it returns
    the parsed options, the parent's hash and, per workload, both sides'
    results under ``parent`` and ``change``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--seed", type=int, required=True)
    if topic is not None:
        parser.add_argument("--topic", default=topic, help="the file is BENCH_<topic>.json")
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--workload", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.workload, args.seed)))
        return None

    def run_side(tree: Path, workload: str) -> dict:
        proc = subprocess.run(
            [sys.executable, script, "--measure", str(tree), "--workload", workload,
             "--seed", str(args.seed)],
            cwd=tree, capture_output=True, text=True)
        if proc.returncode:
            raise SystemExit(f"measuring {workload} in {tree} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        sha = export_revision(args.parent, parent_tree)
        sides = {workload: {side: run_side(tree, workload)
                            for side, tree in (("parent", parent_tree), ("change", ROOT))}
                 for workload in WORKLOADS}
    return args, sha, sides


def bench_doc(out: Path, topic: str, sha: str) -> dict:
    """The BENCH file ``out`` as it stands (empty when there is none), its
    topic, parent commit and host set."""
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.update({"topic": topic, "parent_commit": sha,
                "host": f"{platform.system()} {platform.machine()}, "
                        f"{len(os.sched_getaffinity(0))} CPUs usable"})
    return doc


def write_doc(out: Path, doc: dict) -> None:
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def run_once(tree: Path, args: list[str]) -> dict:
    """One benchmark run in ``tree``: its result line plus its exit code."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tree,
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    result["exit_code"] = proc.returncode
    return result


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Whether the change is no worse than the parent on a metric with a
    relative ``bound``:

    - ``worse_beyond_bound``: the change's median is worse than the
      parent's by more than ``bound`` times the parent's median;
    - ``unresolved``: otherwise, when the parent's interquartile range is
      wider than ``bound`` times its median, unless every run of the change
      is better than every run of the parent;
    - ``no_worse``: otherwise."""
    sign = 1 if better == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    scale = bound * abs(p["median"])
    if sign * (p["median"] - c["median"]) > scale:
        return "worse_beyond_bound"
    if p["q3"] - p["q1"] > scale and not all(
            sign * (c_run - p_run) > 0 for c_run in change for p_run in parent):
        return "unresolved"
    return "no_worse"


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: each side's quartiles, the pairs the change won (ties
    count for neither side), and whether the change's median is better than
    the parent's by more than the parent's interquartile range. A metric
    with no direction in ``better`` gets quartiles only; one with a bound in
    ``bounds`` also gets its ``verdict``."""
    runs = [run for pair in pairs for run in (pair["parent"], pair["change"])]
    names = [name for name in pairs[0]["parent"]["metrics"]
             if all(name in run["metrics"] for run in runs)]
    metrics = {}
    for name in names:
        parent = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        entry = {"parent": quartiles(parent), "change": quartiles(change)}
        direction = better.get(name)
        if direction is not None:
            sign = 1 if direction == "higher" else -1
            entry["change_wins"] = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
            entry["parent_wins"] = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
            gap = sign * (entry["change"]["median"] - entry["parent"]["median"])
            spread = entry["parent"]["q3"] - entry["parent"]["q1"]
            entry["gain_beyond_parent_iqr"] = gap > spread
        if len(set(parent + change)) == 1:
            entry = {"identical": parent[0]}
        if direction is not None and name in (bounds or {}):
            entry["verdict"] = verdict(parent, change, direction, bounds[name])
        metrics[name] = entry
    return {
        "pairs": len(pairs),
        "every_run_passed_its_checks": all(
            run.get("correct") and run["exit_code"] == 0 for run in runs),
        "metrics": metrics,
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_directions() -> dict[str, str]:
    spec = benchmark_spec()
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def metric_bounds() -> dict[str, float]:
    """The relative bound of each end-to-end metric that has one."""
    return {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"] if "bound" in m}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--topic", required=True, help="the file is BENCH_<topic>.json")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        sha = export_revision(args.parent, parent_tree)
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_once(parent_tree if side == "parent" else ROOT, bench_args)
            pairs.append(pair)
            print(f"pair {i}: parent {pair['parent']['exit_code']}, "
                  f"change {pair['change']['exit_code']}", file=sys.stderr)

    out = ROOT / f"BENCH_{args.topic}.json"
    doc = bench_doc(out, args.topic, sha)
    key = f"{args.workload} seed {args.seed} trace {args.trace}"
    summary = summarize(pairs, metric_directions(), metric_bounds())
    doc.setdefault("settings", {})[key] = {
        "command": "python3 perfbench/run.py " + " ".join(bench_args),
        "order": "alternating: odd pairs run the parent first, even pairs the change first",
        "summary": summary,
        "runs": pairs,
    }
    write_doc(out, doc)
    print(f"wrote {out.name}: {key}", file=sys.stderr)
    if not summary["every_run_passed_its_checks"]:
        print("some runs failed their checks; see their exit codes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
