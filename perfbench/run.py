"""Benchmark of the rare package on seeded, fully offline workloads.

Run from the repository root:

    python3 perfbench/run.py --workload tree-cpu --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Each workload generates its inputs from ``--seed`` (a Zipf corpus, a pool of
questions and a reply script, see ``inputs.py``) and sets up the program
through its public file-loading API several times. It then evaluates a fixed,
evenly spaced subset of the pool through ``rare.harness.run_eval`` in a closed
loop of whole passes: one untimed warm-up pass, then timed passes until
``--seconds`` have passed. Question times are each question's median over
the timed passes, and throughput is the median over the passes, so a pass
slowed by the machine does not move them. ``--workload all`` runs every
workload in its own process; BENCHMARK.json lists the ones that are gated.

With ``--trace 0`` it reports the end-to-end metrics listed in
BENCHMARK.json, timing each ``evaluate_question`` call and nothing else.
With ``--trace 1`` it runs every chunk of the subset once untraced and once
with spans around every layer entry point (``spans.py``), and reports the
per-layer metrics.

A run fails (exit 1) when any prediction differs from the label the script
steers its question to, when any record carries an error, when the counts of
one question differ between repeats or worker counts, or, traced, when an
entry point recorded no span or the spans disagree with the backend ledger.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import inputs
import spans as tracing

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"

CHECK_QUESTIONS = 4   # questions re-run on one worker to compare counts
CHUNK = 10            # questions per untraced/traced pair in the traced run
MIN_PASSES = 3        # timed passes per run, so that medians can drop a slow one


@dataclass(frozen=True)
class Workload:
    method: str
    rollouts: int
    questions: int     # fixed pool; the script grows with it, and so does dispatch cost
    evaluated: int     # evenly spaced questions of the pool evaluated in each pass
    docs: int
    delay_s: float     # fixed wait added to every LM call
    workers: int       # run_eval clients, capped at the CPU count
    setup_reps: int


# BENCHMARK.json gates tree-cpu and tree-wait. rag-retrieval runs by name or
# with ``--workload all``: its time is nearly all pure-Python BM25, which drifts
# with the shared host's speed by more than the gate's bound between runs.
WORKLOADS = {
    # The engine's CPU path (scripted dispatch, UCT bookkeeping, action
    # parsing, sentence splitting, RAFS) with no LM wait and a small corpus.
    # The script keeps all 200 questions, so every call pays the full scan;
    # every fifth question is evaluated, so passes are short and many.
    "tree-cpu": Workload("rare", 8, 200, 40, 100, 0.0, 1, 25),
    # What a live-endpoint user pays: each call waits about eight times its
    # median scripted dispatch time, two clients; 16 rollouts repeat the most
    # calls.
    "tree-wait": Workload("rare", 16, 100, 20, 100, 0.004, 2, 25),
    # BM25 over 20k documents does the per-question work; index build, save
    # and load do the set-up work. No tree search or factuality scoring.
    "rag-retrieval": Workload("rag", 8, 100, 20, 20000, 0.0, 1, 3),
}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def make_backend(entries, delay_s: float):
    from rare.lm import LmBackend, ScriptedBackend

    scripted = ScriptedBackend(entries)
    if not delay_s:
        return scripted, None

    class DelayedBackend(LmBackend):
        """Waits a fixed time before each scripted reply, as an endpoint's
        round trip would; the ledger counts the same calls and tokens."""

        def __init__(self, inner):
            super().__init__()
            self.inner = inner

        def _complete(self, req):
            time.sleep(delay_s)
            return self.inner.complete(req)

    return DelayedBackend(scripted), scripted


def signature(record) -> tuple:
    return (record.calls_used, record.tokens_used, record.predicted,
            record.candidate_count, record.action_sequence, record.error)


class Checker:
    """Collects records and fails on wrong answers, errors and any count that
    differs between two evaluations of one question."""

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.signatures: dict[str, tuple] = {}
        self.predicted: dict[str, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.errors = 0
        self.problems: list[str] = []

    def add(self, records, what: str) -> None:
        for r in records:
            self.attempted += 1
            self.predicted[r.question_id] = r.predicted
            if r.error is not None:
                self.errors += 1
            if r.error is not None or r.predicted != self.expected[r.question_id]:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(
                        f"{r.question_id}: predicted {r.predicted!r}, script steers to "
                        f"{self.expected[r.question_id]!r}, error {r.error!r}")
            self.same(r.question_id, signature(r), what)

    def same(self, key, value, what: str) -> None:
        first = self.signatures.setdefault(key, value)
        if first != value:
            self.problems.append(f"{what}: {key} gave {value}, earlier {first}")

    def ok(self) -> bool:
        return not self.problems


def setup(w: Workload, files: dict[str, str]):
    """Load questions, script and corpus, then build, save and reload the
    index, ``setup_reps`` times; returns the last objects and step times."""
    from rare.harness import load_dataset
    from rare.lm import load_script
    from rare.retrieval import build_index, load_corpus, load_index, save_index

    steps: dict[str, list[float]] = defaultdict(list)
    for _ in range(w.setup_reps):
        questions = entries = index = None  # one set of loaded objects at a time
        t0 = time.perf_counter()
        questions = load_dataset(files["dataset"])
        t1 = time.perf_counter()
        entries = load_script(files["script"]).entries
        t2 = time.perf_counter()
        docs = load_corpus(files["corpus"])
        t3 = time.perf_counter()
        built = build_index(docs)
        t4 = time.perf_counter()
        save_index(built, files["index"])
        t5 = time.perf_counter()
        del built, docs
        t6 = time.perf_counter()
        index = load_index(files["index"])
        t7 = time.perf_counter()
        for name, seconds in (("dataset_load_s", t1 - t0), ("corpus_load_s", t3 - t2),
                              ("build_s", t4 - t3),
                              ("save_s", t5 - t4), ("load_s", t7 - t6),
                              ("setup_s", (t5 - t0) + (t7 - t6))):
            steps[name].append(seconds)
    medians = {name: statistics.median(values) for name, values in steps.items()}
    medians["index_bytes"] = os.path.getsize(files["index"])
    return questions, entries, index, medians


def timed_loop(w, questions, entries, index, cfg, seconds, checker, workers):
    """Closed loop of whole passes over ``questions``: one untimed warm-up
    pass, then timed passes until ``seconds`` of evaluation have passed and
    at least ``MIN_PASSES`` were timed. Whole passes keep the mix of
    questions, and so every per-question count, independent of speed.
    Returns each question's times, each timed pass's wall time and the
    ledger of one pass."""
    from rare import harness

    durations: dict[str, list[float]] = defaultdict(list)
    original = harness.evaluate_question
    timing = False

    def timed(question, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(question, *args, **kwargs)
        finally:
            if timing:
                durations[question.id].append(time.perf_counter() - t0)

    walls: list[float] = []
    passes = 0
    harness.evaluate_question = timed
    try:
        while len(walls) < MIN_PASSES or sum(walls) < seconds:
            backend, _ = make_backend(entries, w.delay_s)
            t0 = time.perf_counter()
            report = harness.run_eval(questions, w.method, backend, index, cfg,
                                      workers=workers)
            if timing:
                walls.append(time.perf_counter() - t0)
            timing = True
            passes += 1
            checker.add(report.records, f"pass {passes}")
            ledger = backend.snapshot_costs()
            checker.same("ledger", ledger, f"ledger of pass {passes}")
    finally:
        harness.evaluate_question = original
    return durations, walls, ledger


def check_one_worker(w, questions, entries, index, cfg, checker, workers) -> None:
    """Counts of the first questions must not depend on the worker count."""
    from rare.harness import run_eval

    if workers == 1:
        return
    backend, _ = make_backend(entries, w.delay_s)
    report = run_eval(questions[:CHECK_QUESTIONS], w.method, backend, index, cfg, workers=1)
    checker.add(report.records, "one worker")


def end_to_end(w, questions, entries, index, cfg, seconds, checker, workers, setup_medians):
    durations, walls, ledger = timed_loop(w, questions, entries, index, cfg, seconds,
                                          checker, workers)
    check_one_worker(w, questions, entries, index, cfg, checker, workers)
    n = len(questions)
    # each question's median over the timed passes, so that a pass slowed by
    # the machine does not move the quantiles
    ms = [statistics.median(times) * 1e3 for times in durations.values()]
    correct = sum(1 for q in questions if checker.predicted[q.id] == q.gold_label)
    return {
        "questions_per_s": statistics.median(n / wall for wall in walls),
        "question_ms.p50": tracing.quantile(ms, 0.5),
        "question_ms.p90": tracing.quantile(ms, 0.9),
        "lm_calls_per_q": ledger.total_calls / n,
        "prompt_tokens_per_q": ledger.total_prompt_tokens / n,
        "completion_tokens_per_q": ledger.total_completion_tokens / n,
        "accuracy": correct / n,
        "setup_s": setup_medians["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(w, name, seed, questions, entries, index, cfg, checker, workers,
              setup_medians, corpus_records):
    """After an untraced warm-up chunk, one pass over the questions in
    chunks, each chunk run untraced and traced in alternating order, so that
    drift in machine speed cancels out of the tracing overhead. Then the
    first questions run traced on one worker."""
    from rare.harness import run_eval
    from rare.retrieval import tokenize

    modules = {m: importlib.import_module(m) for m in
               ("rare.harness", "rare.mcts", "rare.factuality", "rare.actions",
                "rare.selection")}
    points = tracing.RAG_POINTS if w.method == "rag" else tracing.TREE_POINTS
    tracer = tracing.Tracer()

    def traced_backend():
        outer, inner = make_backend(entries, w.delay_s)
        outer.complete = tracer.wrap(outer.complete, "lm", "lm", tracing.lm_info)
        if inner is not None:
            inner.complete = tracer.wrap(inner.complete, "lm.dispatch", "lm")
        return outer

    def evaluate(chunk, backend, traced, n_workers, what):
        names = tracer.install(points, modules) if traced else []
        try:
            t0 = time.perf_counter()
            report = run_eval(chunk, w.method, backend, index, cfg, workers=n_workers)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        checker.add(report.records, what)
        return wall, names

    n = len(questions)
    evaluate(questions[:CHUNK], make_backend(entries, w.delay_s)[0], False, workers,
             "warm-up pass")
    plain, _ = make_backend(entries, w.delay_s)
    backend = traced_backend()
    wall_plain = wall_traced = 0.0
    for i, start in enumerate(range(0, n, CHUNK)):
        chunk = questions[start: start + CHUNK]
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                wall, names = evaluate(chunk, backend, True, workers, "traced pass")
                wall_traced += wall
            else:
                wall_plain += evaluate(chunk, plain, False, workers, "untraced pass")[0]
    spans = tracer.take()
    evaluate(questions[:CHECK_QUESTIONS], traced_backend(), True, 1, "traced, one worker")
    check_spans = tracer.take()

    recorded = {s.name for s in spans}
    expected_names = names + ["lm"] + (["lm.dispatch"] if w.delay_s else [])
    for missing in [nm for nm in expected_names if nm not in recorded]:
        checker.problems.append(f"entry point {missing} recorded no span")
    lm_spans = sum(1 for s in spans if s.name == "lm")
    ledger = backend.snapshot_costs()
    if lm_spans != ledger.total_calls:
        checker.problems.append(
            f"{lm_spans} LM spans but the backend ledger counts {ledger.total_calls} calls")
    full_counts = tracing.question_counts(spans)
    for qid, counts in tracing.question_counts(check_spans).items():
        checker.same(("spans", qid), full_counts.get(qid), "span counts")
        checker.same(("spans", qid), counts, "span counts on one worker")

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    tracing.Tracer.write_jsonl(str(WORK_DIR / f"spans-{name}-s{seed}.jsonl"), spans)

    df = inputs.document_frequencies(corpus_records, tokenize)
    m = tracing.layer_metrics(spans, n, wall_traced, w.delay_s, df, tokenize)
    for key in ("corpus_load_s", "build_s", "save_s", "load_s", "index_bytes"):
        m[f"retrieval.{key}"] = setup_medians[key]
    m["harness.dataset_load_s"] = setup_medians["dataset_load_s"]
    m["trace.overhead_share"] = 1.0 - wall_plain / wall_traced
    return m


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rare
        from rare.harness import apply_preset
        from rare.retrieval import tokenize
        from rare.types import SearchConfig
    except ImportError as exc:
        print(f"cannot import the rare package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(rare.__file__).resolve().parents:
        print(f"rare was imported from {rare.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = WORKLOADS[args.workload]
    workers = max(1, min(w.workers, os.cpu_count() or 1))
    data = inputs.generate(args.seed, w.docs, w.questions)
    run_dir = WORK_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        files = {key: str(run_dir / f"{key}.jsonl") for key in ("dataset", "script", "corpus")}
        files["index"] = str(run_dir / "index.bin")
        inputs.write_jsonl(files["dataset"], data.questions)
        inputs.write_jsonl(files["script"], data.script)
        inputs.write_jsonl(files["corpus"], data.corpus)
        questions, entries, index, setup_medians = setup(w, files)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    cfg = SearchConfig(rollouts=w.rollouts)
    if w.method == "rare":
        cfg = apply_preset(cfg, "rare")
    checker = Checker(data.expected)
    pool = len(questions)
    questions = questions[::pool // w.evaluated][:w.evaluated]
    print(f"workload {args.workload}: {w.method}, rollouts={w.rollouts}, "
          f"{len(questions)} of {pool} questions, {len(entries)} script entries, "
          f"{w.docs} docs, {inputs.mean_stem_tokens(data.questions, tokenize):.1f} "
          f"stem tokens, delay {w.delay_s * 1e3:g} ms, {workers} worker(s)")
    if args.trace:
        metrics = per_layer(w, args.workload, args.seed, questions, entries, index, cfg,
                            checker, workers, setup_medians, data.corpus)
    else:
        metrics = end_to_end(w, questions, entries, index, cfg, args.seconds, checker,
                             workers, setup_medians)
        print(f"{'error_rate':34s} {checker.errors / checker.attempted:.6g} share")

    for problem in checker.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for name in missing:
        print(f"FAILED: metric {name} not measured", file=sys.stderr)
    result = {
        "correct": checker.ok() and not missing,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
