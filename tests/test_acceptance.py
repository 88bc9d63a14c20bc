"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import os
import random
import time
from contextlib import contextmanager

import pytest

from conftest import (
    REASONING_SCORE_06,
    REASONING_SCORE_0625,
    REASONING_SCORE_10,
    RecordingBackend,
    build_eval_fixture,
    fixture_corpus,
    make_eval_question,
    make_reasoning_trajectory,
    rafs_rating_entries,
    write_corpus_file,
    write_dataset_file,
    write_script_file,
)
from test_retrieval import brute_force_bm25, synthetic_corpus, synthetic_queries

from rare.actions import Scope
from rare.cli import main
from rare.factuality import score_candidates
from rare.harness import ABLATION_PRESETS, apply_preset, run_eval
from rare.lm import HttpBackend, ScriptedBackend
from rare.mcts import SearchTree, backpropagate, run_search, select, uct_score
from rare.retrieval import build_index, search
from rare.selection import select_rare
from rare.types import ActionKind, SearchConfig

A = ActionKind


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture
def index():
    return build_index(fixture_corpus())


def test_acceptance_01_factuality_worked_examples(conjunctivitis_question, index):
    with criterion("factuality worked examples (0.6 / 1.0 / 0.625)"):
        started = time.perf_counter()
        q = conjunctivitis_question
        scope = Scope(q, SearchConfig(), ScriptedBackend(rafs_rating_entries()), index)

        report = score_candidates(
            [make_reasoning_trajectory(q, REASONING_SCORE_06, "C")],
            scope)[0].factuality
        assert [s.label for s in report.statements] == [
            "supported", "supported", "supported",
            "not_supported", "not_supported"]
        assert report.supported_count == 3
        assert report.not_supported_count == 2
        assert report.score == 0.6

        full = score_candidates(
            [make_reasoning_trajectory(q, REASONING_SCORE_10, "B")],
            scope)[0].factuality
        assert len(full.statements) == 10
        assert full.supported_count == 10
        assert full.score == 1.0

        partial = score_candidates(
            [make_reasoning_trajectory(q, REASONING_SCORE_0625, "D")],
            scope)[0].factuality
        assert len(partial.statements) == 8
        assert partial.supported_count == 5
        assert partial.score == 0.625

        assert time.perf_counter() - started < 1.0


def test_acceptance_02_uct_matches_direct_evaluation():
    with criterion("UCT agrees with direct formula on 1000 random tuples"):
        rng = random.Random(20240117)
        for _ in range(1000):
            q = rng.uniform(0.0, 20.0)
            n_j = rng.randint(1, 64)
            n = rng.randint(1, 4096)
            c = rng.uniform(1e-6, 4.0)
            expected = q / n_j + c * math.sqrt(2.0 * math.log(n) / n_j)
            assert abs(uct_score(q, n_j, n, c) - expected) <= 1e-12

    with criterion("unvisited children always precede visited siblings"):
        rng = random.Random(7)
        question = make_eval_question("q01", "B")
        for _ in range(100):
            tree = SearchTree(Scope(question, SearchConfig(), None))
            tree.root.expanded = True
            visits = [rng.choice([0, 0, 1, 3, 9]) for _ in range(rng.randint(2, 6))]
            if not any(v == 0 for v in visits):
                visits[0] = 0
            children = []
            for v in visits:
                node = tree.add_node(tree.root, tree.root.ctx)
                node.visits = v
                node.q_value = rng.random() * max(v, 1)
                children.append(node)
            tree.root.visits = max(1, sum(visits))
            assert select(tree).visits == 0


def test_acceptance_03_backpropagation_replay_exact():
    with criterion("backpropagation replay on a 500-node random tree"):
        rng = random.Random(99)
        question = make_eval_question("q01", "B")
        tree = SearchTree(Scope(question, SearchConfig(), None))
        nodes = [tree.root]
        for _ in range(499):
            node = tree.add_node(rng.choice(nodes), tree.root.ctx)
            nodes.append(node)
        updates = [(rng.choice(nodes), rng.random()) for _ in range(300)]
        for leaf, reward in updates:
            backpropagate(tree, leaf, reward)

        paths = {node.node_id: {n.node_id for n in node.path_from_root()}
                 for node in nodes}
        for node in nodes:
            expected_q = 0.0
            expected_visits = 0
            for leaf, reward in updates:
                if node.node_id in paths[leaf.node_id]:
                    expected_q += reward
                    expected_visits += 1
            assert node.q_value == expected_q
            assert node.visits == expected_visits


def test_acceptance_04_bm25_matches_exhaustive_oracle():
    with criterion("BM25 equals the exhaustive scorer on 100 docs x 20 queries"):
        started = time.perf_counter()
        docs = synthetic_corpus(n_docs=100, seed=13)
        index = build_index(docs)
        queries = synthetic_queries()
        assert len(queries) == 20
        for query in queries:
            expected = brute_force_bm25(docs, query, 1.2, 0.75, 100)
            got = search(index, query, 100)
            assert [h.doc_id for h in got] == [d for d, _ in expected]
            for hit, (_, score) in zip(got, expected):
                assert abs(hit.score - score) <= 1e-9
        assert time.perf_counter() - started < 5.0


def test_acceptance_05_end_to_end_determinism(tmp_path):
    with criterion("eval CLI is byte-identical across 3 scripted runs"):
        questions, backend = build_eval_fixture(10, 7)
        corpus = tmp_path / "corpus.jsonl"
        dataset = tmp_path / "dataset.jsonl"
        script = tmp_path / "script.jsonl"
        index_path = tmp_path / "index.bin"
        write_corpus_file(corpus, fixture_corpus())
        write_dataset_file(dataset, questions)
        write_script_file(script, list(backend.entries))
        assert main(["index", "build", "--corpus", str(corpus),
                     "--out", str(index_path)]) == 0

        payloads = []
        for i in range(3):
            out = tmp_path / f"report{i}.json"
            rc = main([
                "eval",
                "--dataset", str(dataset),
                "--method", "rare",
                "--index", str(index_path),
                "--backend", "script", "--script", str(script),
                "--rollouts", "4", "--seed", "0",
                "--out", str(out),
            ])
            assert rc == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]
        report = json.loads(payloads[0])
        assert report["num_questions"] == 10
        assert report["config"]["rollouts"] == 4


def test_acceptance_06_selection_rule_and_monotonicity(conjunctivitis_question,
                                                       index):
    with criterion("highest factuality candidate selected; raising flips it"):
        q = conjunctivitis_question
        backend = ScriptedBackend(rafs_rating_entries())
        cfg = SearchConfig()
        unscored = [
            make_reasoning_trajectory(q, REASONING_SCORE_10, "B"),
            make_reasoning_trajectory(q, REASONING_SCORE_0625, "D"),
            make_reasoning_trajectory(q, REASONING_SCORE_06, "C"),
        ]
        # each candidate scored alone carries its full report
        candidates = [score_candidates([t], Scope(q, cfg, backend, index))[0]
                      for t in unscored]
        assert sorted(t.factuality.score for t in candidates) == [0.6, 0.625, 1.0]
        assert select_rare(candidates).final_answer == "B"
        # scored together, only what decides the winner is checked
        joint = score_candidates(unscored, Scope(q, cfg, backend, index))
        assert select_rare(joint).final_answer == "B"

        # monotonicity: push any other candidate above the maximum
        from dataclasses import replace

        for loser in ("D", "C"):
            boosted = [
                replace(t, factuality=replace(t.factuality, score=1.1))
                if t.final_answer == loser else t
                for t in candidates
            ]
            assert select_rare(boosted).final_answer == loser


def test_acceptance_07_ablation_structure(index):
    with criterion("no ablation run uses a disabled action"):
        for preset in sorted(ABLATION_PRESETS):
            questions, backend = build_eval_fixture(20, 20)
            cfg = apply_preset(SearchConfig(rollouts=4, rng_seed=0), preset)
            collected: list = []
            run_eval(questions, "rare" if cfg.rafs_enabled else "rstar",
                     backend, index, cfg, workers=4,
                     on_candidates=lambda q, cands: collected.append(cands))
            for candidates in collected:
                for traj in candidates:
                    assert set(traj.action_sequence()) <= cfg.enabled_actions, preset

    with criterion("the full preset exercises both retrieval actions"):
        questions, backend = build_eval_fixture(20, 20)
        cfg = apply_preset(SearchConfig(rollouts=4, rng_seed=0), "rare")
        collected = []
        run_eval(questions, "rare", backend, index, cfg, workers=4,
                 on_candidates=lambda q, cands: collected.append(cands))
        kinds = {k for cands in collected for t in cands
                 for k in t.action_sequence()}
        assert A.A6 in kinds
        assert A.A7 in kinds


def test_acceptance_08_cost_ledger_matches_interaction_log(index):
    with criterion("report cost means equal hand-computed script-log totals"):
        questions, scripted = build_eval_fixture(10, 10)
        backend = RecordingBackend(scripted)
        cfg = SearchConfig(rng_seed=0)
        report = run_eval(questions, "cot", backend, None, cfg, workers=1)

        log = backend.call_log()
        expected_calls = len(log)
        expected_tokens = sum(
            len(completion.split())
            for record in log
            for completion in record.completions
        )
        assert report.avg_calls == expected_calls / len(questions)
        assert report.avg_tokens == expected_tokens / len(questions)
        assert report.avg_calls == 1.0  # cot is exactly one call per question

        # batched self-consistency still counts one logical call per question
        questions, scripted = build_eval_fixture(10, 10)
        backend = RecordingBackend(scripted)
        report = run_eval(questions, "sc", backend, None, cfg, workers=1)
        log = backend.call_log()
        expected_tokens = sum(
            len(completion.split())
            for record in log
            for completion in record.completions
        )
        assert report.avg_calls == len(log) / len(questions) == 1.0
        assert report.avg_tokens == expected_tokens / len(questions)


def test_acceptance_09_trajectory_statistics_exact():
    with criterion("trajectory histogram reproduces known chosen sequences"):
        from rare.harness import EvalRecord, RunReport, trajectory_stats

        def record(qid, sequence, correct=True):
            return EvalRecord(qid, "rare", "A" if correct else "B", "A",
                              correct, 1, 1, 1, tuple(sequence))

        records = (
            [record(f"a{i}", (A.A1, A.A2)) for i in range(3)]
            + [record(f"b{i}", (A.A3, A.A2)) for i in range(2)]
            + [record(f"c{i}", (A.A1, A.A6)) for i in range(2)]
            + [record("d0", (A.A3, A.A7, A.A3))]
            + [record("w0", (A.A2,), correct=False)]
        )
        report = RunReport(config={}, records=tuple(records),
                           accuracy=8 / 9, avg_calls=1.0, avg_tokens=1.0,
                           trajectory_histogram={})
        stats = trajectory_stats(report, top_n=10)
        assert stats == [
            ((A.A1, A.A2), 3),
            ((A.A1, A.A6), 2),
            ((A.A3, A.A2), 2),
            ((A.A3, A.A7, A.A3), 1),
        ]


LIVE_ENABLED = os.environ.get("RARE_LIVE_SMOKE") == "1"


@pytest.mark.skipif(
    not LIVE_ENABLED,
    reason="live smoke test runs only with RARE_LIVE_SMOKE=1 and RARE_LM_* set",
)
def test_acceptance_10_live_backend_smoke(conjunctivitis_question, index):
    with criterion("live endpoint completes a full scored pass"):
        started = time.perf_counter()
        backend = HttpBackend.from_env(dict(os.environ))
        q = conjunctivitis_question
        cfg = SearchConfig(rollouts=2, n_consistency_samples=2, rng_seed=0)
        scope = Scope(q, cfg, backend, index)
        scored = score_candidates(run_search(SearchTree(scope)), scope)
        chosen = select_rare(scored)
        assert chosen.final_answer in dict(q.options)
        assert any(t.factuality is not None for t in scored)
        assert time.perf_counter() - started < 600.0
