"""Command-line entry points: corpus indexing, index queries, evaluation runs."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

from .actions import PromptLibrary
from .errors import RareError
from .harness import (
    ABLATION_PRESETS,
    EVAL_METHODS,
    apply_preset,
    dump_trajectories,
    load_dataset,
    report_to_record,
    run_eval,
    sequence_key,
    trajectory_stats,
)
from .lm import HttpBackend, load_script
from .retrieval import build_index, load_corpus, load_index, save_index, search
from .selection import BASELINE_METHODS
from .types import SearchConfig, document_ref_to_record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rare",
        description="Tree-search reasoning over a retrieval-augmented action space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    index_cmd = sub.add_parser("index", help="build or query a retrieval index")
    index_sub = index_cmd.add_subparsers(dest="index_command", required=True)

    build_cmd = index_sub.add_parser("build", help="build an index from a JSONL corpus")
    build_cmd.add_argument("--corpus", required=True)
    build_cmd.add_argument("--out", required=True)
    build_cmd.add_argument("--k1", type=float, default=1.2)
    build_cmd.add_argument("--b", type=float, default=0.75)

    query_cmd = index_sub.add_parser("query", help="query a saved index")
    query_cmd.add_argument("--index", required=True)
    query_cmd.add_argument("--q", required=True)
    query_cmd.add_argument("--k", type=int, default=5)

    eval_cmd = sub.add_parser("eval", help="evaluate a method over a dataset")
    eval_cmd.add_argument("--dataset", required=True)
    eval_cmd.add_argument("--method", required=True, choices=EVAL_METHODS)
    eval_cmd.add_argument("--ablation", choices=sorted(ABLATION_PRESETS),
                          help="rstar or rare preset; defaults to the method name")
    eval_cmd.add_argument("--index")
    eval_cmd.add_argument("--backend", choices=("http", "script"), default="http")
    eval_cmd.add_argument("--script", help="script file for --backend script")
    eval_cmd.add_argument("--rollouts", type=int, default=SearchConfig.rollouts)
    eval_cmd.add_argument("--seed", type=int, default=SearchConfig.rng_seed)
    eval_cmd.add_argument("--exploration-c", type=float, default=SearchConfig.exploration_c)
    eval_cmd.add_argument("--max-depth", type=int, default=SearchConfig.max_depth)
    eval_cmd.add_argument("--consistency-samples", type=int,
                          default=SearchConfig.n_consistency_samples)
    eval_cmd.add_argument("--top-k", type=int, default=SearchConfig.retrieval_top_k)
    eval_cmd.add_argument("--queries-per-call", type=int, default=SearchConfig.queries_per_call)
    eval_cmd.add_argument("--workers", type=int, default=None)
    eval_cmd.add_argument("--templates", help="directory of prompt template files")
    eval_cmd.add_argument("--lenient", action="store_true",
                          help="skip malformed dataset lines instead of failing")
    eval_cmd.add_argument("--out", help="report JSON path (default: stdout)")
    eval_cmd.add_argument("--trajectories", help="candidate trajectory JSONL path")
    eval_cmd.add_argument("--base-url", help="override RARE_LM_BASE_URL")
    eval_cmd.add_argument("--model", help="override RARE_LM_MODEL")
    eval_cmd.add_argument("--api-key", help="override RARE_LM_API_KEY")
    return parser


def _cmd_index_build(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    index = build_index(corpus, k1=args.k1, b=args.b)
    save_index(index, args.out)
    print(f"indexed {len(index.documents)} documents "
          f"({index.vocabulary_size()} terms) -> {args.out}")
    return 0


def _cmd_index_query(args: argparse.Namespace) -> int:
    if args.k < 1:  # before the load, which can take seconds
        raise RareError("--k must be >= 1")
    index = load_index(args.index)
    for hit in search(index, args.q, args.k):
        print(json.dumps(document_ref_to_record(hit), sort_keys=True))
    return 0


def _make_backend(args: argparse.Namespace):
    if args.backend == "script":
        if not args.script:
            raise RareError("--backend script requires --script")
        return load_script(args.script)
    env = dict(os.environ)
    if args.base_url:
        env["RARE_LM_BASE_URL"] = args.base_url
    if args.model:
        env["RARE_LM_MODEL"] = args.model
    if args.api_key:
        env["RARE_LM_API_KEY"] = args.api_key
    return HttpBackend.from_env(env)


@contextlib.contextmanager
def _replacing(path: str):
    """A text file that replaces ``path`` when the block ends without an
    exception. It is created beside ``path`` at once, so a bad directory
    fails the run before any LM call, and a run that is refused or crashes
    leaves an earlier file at ``path`` as it was."""
    if os.path.isdir(path):  # else the rename would fail only after the run
        raise IsADirectoryError(f"is a directory: {path!r}")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=f".{os.path.basename(path)}.", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # the mode open(path, "w") gives a new file
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.ablation and args.method in BASELINE_METHODS:
        raise RareError(f"--ablation applies to rstar and rare only, not {args.method!r}")
    if (args.out and args.trajectories
            and os.path.realpath(args.out) == os.path.realpath(args.trajectories)):
        raise RareError("--out and --trajectories name the same file")
    if args.workers is not None and args.workers < 1:  # before the index loads
        raise RareError("--workers must be >= 1")
    questions = load_dataset(args.dataset, strict=not args.lenient)
    backend = _make_backend(args)
    prompts = PromptLibrary.from_dir(args.templates)

    cfg = SearchConfig(
        exploration_c=args.exploration_c,
        rollouts=args.rollouts,
        max_depth=args.max_depth,
        n_consistency_samples=args.consistency_samples,
        retrieval_top_k=args.top_k,
        queries_per_call=args.queries_per_call,
        rng_seed=args.seed,
    )
    preset = args.ablation
    if args.method not in BASELINE_METHODS:
        preset = preset or args.method
        cfg = apply_preset(cfg, preset)
    index = load_index(args.index) if args.index else None

    with contextlib.ExitStack() as stack:
        stack.enter_context(backend)
        out = sys.stdout
        if args.out:
            out = stack.enter_context(_replacing(args.out))
        if args.trajectories:
            sink = stack.enter_context(_replacing(args.trajectories))
        # each question's candidates are written as soon as its turn comes
        report = run_eval(
            questions, args.method, backend, index, cfg,
            workers=args.workers, prompts=prompts,
            on_candidates=(lambda _, candidates: dump_trajectories(sink, candidates))
            if args.trajectories else None,
        )
        record = report_to_record(report)
        if preset:
            record["config"]["ablation"] = preset
        out.write(json.dumps(record, sort_keys=True, indent=2) + "\n")

    print(
        f"method={args.method} questions={len(report.records)} "
        f"accuracy={report.accuracy:.4f} avg_calls={report.avg_calls:.2f} "
        f"avg_tokens={report.avg_tokens:.1f}",
        file=sys.stderr,
    )
    stats = trajectory_stats(report)
    if stats:
        print("top action sequences of correct answers:", file=sys.stderr)
        for sequence, count in stats:
            print(f"  {count:4d}  {sequence_key(sequence)}", file=sys.stderr)
    internal = sum(1 for r in report.records if r.internal_error)
    if internal:
        print(f"error: {internal} question(s) failed with an internal error; "
              "see the logged tracebacks", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "index":
            if args.index_command == "build":
                return _cmd_index_build(args)
            return _cmd_index_query(args)
        return _cmd_eval(args)
    except (RareError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
