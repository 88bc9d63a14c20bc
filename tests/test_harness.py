import gc
import json
import threading
import time
import weakref
from dataclasses import replace

import pytest

from conftest import (
    RecordingBackend,
    build_eval_fixture,
    fixture_corpus,
    make_eval_question,
    rafs_generic_entries,
    tree_entries_for,
    write_dataset_file,
)
from rare import factuality, harness
from rare.errors import CorpusError, DatasetError, ValidationError
from rare.harness import (
    ABLATION_PRESETS,
    EvalRecord,
    RunReport,
    apply_preset,
    eval_record_to_record,
    load_dataset,
    report_to_record,
    run_eval,
    trajectory_stats,
)
from rare.lm import LmBackend, ScriptedBackend
from rare.retrieval import build_index
from rare.types import ActionKind, SearchConfig

A = ActionKind


@pytest.fixture
def index():
    return build_index(fixture_corpus())


class TestLoadDataset:
    def test_250_question_fixture_loads_fully(self, tmp_path):
        questions = [make_eval_question(f"q{i:03d}", "ABC"[i % 3]) for i in range(250)]
        path = tmp_path / "dataset.jsonl"
        write_dataset_file(path, questions)
        loaded = load_dataset(str(path))
        assert len(loaded) == 250
        assert loaded[0] == questions[0]

    def test_missing_options_fatal_in_strict_mode(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "question": "no options"}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(str(path))

    def test_lenient_mode_skips_and_reports(self, tmp_path, caplog):
        path = tmp_path / "mixed.jsonl"
        good = ('{"id": "ok", "question": "pick", '
                '"options": {"A": "x", "B": "y"}, "answer": "A"}')
        path.write_text('{"id": "bad", "question": "no options"}\n' + good + "\n",
                        encoding="utf-8")
        with caplog.at_level("WARNING"):
            loaded = load_dataset(str(path), strict=False)
        assert [q.id for q in loaded] == ["ok"]
        assert any("line 1" in message for message in caplog.messages)

    def test_yes_no_record_normalized(self, tmp_path):
        path = tmp_path / "strategy.jsonl"
        path.write_text('{"id": "s", "question": "Is it so?", "answer": "yes"}\n',
                        encoding="utf-8")
        (q,) = load_dataset(str(path))
        assert q.options == (("A", "yes"), ("B", "no"))
        assert q.gold_label == "A"

    def test_duplicate_option_keys_fatal(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"id": "d", "question": "q", "options": {"A": "x", "A": "y"}}\n',
            encoding="utf-8")
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(str(path))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(str(tmp_path / "absent.jsonl"))


class TestRunEval:
    def test_accuracy_on_seven_of_ten_fixture(self, index):
        questions, backend = build_eval_fixture(10, 7)
        cfg = apply_preset(SearchConfig(rollouts=4, rng_seed=0), "rare")
        report = run_eval(questions, "rare", backend, index, cfg, workers=2)
        assert report.accuracy == 0.7
        assert len(report.records) == 10
        assert sum(1 for r in report.records if r.correct) == 7

    def test_avg_calls_equals_ledger_total_over_question_count(self, index):
        questions, backend = build_eval_fixture(6, 6)
        cfg = apply_preset(SearchConfig(rollouts=2, rng_seed=1), "rstar")
        report = run_eval(questions, "rstar", backend, index, cfg, workers=1)
        ledger = backend.snapshot_costs()
        assert report.avg_calls == ledger.total_calls / len(questions)
        assert report.avg_tokens == ledger.total_completion_tokens / len(questions)
        assert sum(r.calls_used for r in report.records) == ledger.total_calls

    def test_worker_pool_size_never_changes_records(self, index):
        def run(workers):
            questions, backend = build_eval_fixture(6, 4)
            cfg = apply_preset(SearchConfig(rollouts=3, rng_seed=5), "rare")
            return run_eval(questions, "rare", backend, index, cfg,
                            workers=workers).records

        assert run(1) == run(4)

    def test_accuracy_is_permutation_invariant(self, index):
        questions, backend = build_eval_fixture(6, 3)
        cfg = apply_preset(SearchConfig(rollouts=2, rng_seed=2), "rstar")
        forward = run_eval(questions, "rstar", backend, index, cfg, workers=1)
        questions2, backend2 = build_eval_fixture(6, 3)
        backward = run_eval(list(reversed(questions2)), "rstar", backend2, index,
                            cfg, workers=1)
        assert forward.accuracy == backward.accuracy

    def test_failed_question_recorded_incorrect_and_run_continues(self, index):
        q_ok = make_eval_question("q01", "B")
        q_bad = make_eval_question("q99", "A")  # no script entries at all
        backend = ScriptedBackend(tree_entries_for(q_ok, "B") + rafs_generic_entries())
        cfg = apply_preset(SearchConfig(rollouts=2, rng_seed=0), "rare")
        report = run_eval([q_ok, q_bad], "rare", backend, index, cfg, workers=1)
        ok_record, bad_record = report.records
        assert ok_record.correct
        assert not bad_record.correct
        assert bad_record.predicted is None
        assert bad_record.error
        assert report.accuracy == 0.5

    def test_cot_and_sc_methods_work_without_index(self):
        questions, backend = build_eval_fixture(4, 4)
        cfg = SearchConfig(rng_seed=0)
        report = run_eval(questions, "cot", backend, None, cfg, workers=1)
        assert report.accuracy == 1.0
        assert all(r.action_sequence == (A.A2,) for r in report.records)

    def test_histogram_counts_chosen_trajectories(self, index):
        questions, backend = build_eval_fixture(5, 5)
        cfg = SearchConfig(rng_seed=0)
        report = run_eval(questions, "cot", backend, None, cfg, workers=1)
        assert report.trajectory_histogram == {"A2": 5}
        assert sum(report.trajectory_histogram.values()) == 5

    def test_unknown_method_rejected(self, index):
        questions, backend = build_eval_fixture(2, 2)
        with pytest.raises(ValidationError):
            run_eval(questions, "zen", backend, index, SearchConfig())

    def test_empty_question_list_rejected(self, index):
        # so no report is empty: trajectory_stats relies on it
        _, backend = build_eval_fixture(2, 2)
        with pytest.raises(ValidationError, match="no questions"):
            run_eval([], "rare", backend, index, SearchConfig())

    def test_unexpected_exception_costs_only_its_question(self, monkeypatch, caplog):
        questions, backend = build_eval_fixture(3, 3)
        select_majority = harness.select_majority

        def fails_on_second(candidates):
            if candidates[0].question.id == questions[1].id:
                raise KeyError("stray")
            return select_majority(candidates)

        monkeypatch.setattr(harness, "select_majority", fails_on_second)
        with caplog.at_level("ERROR"):
            report = run_eval(questions, "cot", backend, None, SearchConfig(), workers=1)
        first, bad, last = report.records
        assert first.correct and last.correct
        assert not first.internal_error and not last.internal_error
        assert bad.error == "KeyError: 'stray'"
        assert bad.internal_error
        assert bad.predicted is None and not bad.correct
        assert report.accuracy == 2 / 3
        (logged,) = [r for r in caplog.records if r.exc_info]
        assert questions[1].id in logged.getMessage()
        assert logged.exc_info[0] is KeyError

    def test_rare_error_is_not_an_internal_error(self, index):
        q_bad = make_eval_question("q99", "A")  # no script entries at all
        cfg = apply_preset(SearchConfig(rollouts=2, rng_seed=0), "rare")
        report = run_eval([q_bad], "rare", ScriptedBackend(rafs_generic_entries()),
                          index, cfg, workers=1)
        assert report.records[0].error.startswith("ScriptMissError: ")
        assert not report.records[0].internal_error

    @pytest.mark.parametrize("method,preset", [
        ("rag", None), ("rare", "rare"), ("rstar", "rstar+rafs"), ("rstar", "rstar+a6"),
        ("rstar", "rstar+a7"),
    ])
    def test_run_that_needs_an_index_is_refused_without_one(self, method, preset):
        questions, backend = build_eval_fixture(2, 2)
        cfg = SearchConfig(rng_seed=0)
        if preset:
            cfg = apply_preset(cfg, preset)
        backend = RecordingBackend(backend)
        with pytest.raises(ValidationError, match="needs an index"):
            run_eval(questions, method, backend, None, cfg, workers=1)
        assert not backend.call_log()

    def test_rstar_without_retrieval_runs_without_index(self):
        questions, backend = build_eval_fixture(2, 2)
        cfg = apply_preset(SearchConfig(rollouts=2, rng_seed=0), "rstar")
        report = run_eval(questions, "rstar", backend, None, cfg, workers=1)
        assert [r.error for r in report.records] == [None, None]

    def test_retrieval_failure_in_a_check_fails_the_question(self, index, monkeypatch):
        def fails(*args, **kwargs):
            raise CorpusError("index unreadable")

        monkeypatch.setattr(factuality, "search", fails)
        questions, backend = build_eval_fixture(3, 3)
        cfg = apply_preset(SearchConfig(rollouts=3, rng_seed=0), "rare")
        report = run_eval(questions, "rare", backend, index, cfg, workers=1)
        for record in report.records:
            assert record.error == "CorpusError: index unreadable"
            assert record.predicted is None and not record.internal_error

    def test_no_memo_crosses_questions(self, index):
        # same stem and options, so the same greedy prompts and searches
        first = make_eval_question("q01", "B")
        twin = replace(first, id="q01-twin")
        entries = tree_entries_for(first, "B") + rafs_generic_entries()
        cfg = apply_preset(SearchConfig(rollouts=4, rng_seed=0), "rare")

        def records(questions):
            report = run_eval(questions, "rare", ScriptedBackend(entries), index, cfg,
                              workers=1)
            assert [r.error for r in report.records] == [None] * len(questions)
            return [(r.calls_used, r.tokens_used) for r in report.records]

        together = records([first, twin])
        assert together == records([first]) + records([twin])
        assert all(calls > 0 for calls, _ in together)


class SlowFirstQuestion(LmBackend):
    """Delays every call of the first question, so with several workers the
    other questions finish before it."""

    def __init__(self, inner, marker):
        super().__init__()
        self.inner = inner
        self.marker = marker

    def _complete(self, req):
        if self.marker in req.prompt:
            time.sleep(0.002)
        return self.inner.complete(req)


def track_questions(monkeypatch):
    """Wraps ``evaluate_question``: logs ("start", id) as each question
    begins and keeps a weak reference to every candidate it returns."""
    events, refs = [], []
    original = harness.evaluate_question

    def tracked(question, *args, **kwargs):
        events.append(("start", question.id))
        record, candidates = original(question, *args, **kwargs)
        refs.append([weakref.ref(traj) for traj in candidates])
        return record, candidates

    monkeypatch.setattr(harness, "evaluate_question", tracked)
    return events, refs


class TestCandidateStreaming:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_callback_once_per_question_in_question_order(self, index, monkeypatch,
                                                          workers):
        questions, scripted = build_eval_fixture(6, 4)
        backend = SlowFirstQuestion(scripted, f"[{questions[0].id}]")
        events, _ = track_questions(monkeypatch)
        cfg = apply_preset(SearchConfig(rollouts=3, rng_seed=5), "rare")
        seen = []

        def on_candidates(question, candidates):
            events.append(("candidates", question.id))
            seen.append((question, len(candidates)))

        report = run_eval(questions, "rare", backend, index, cfg, workers=workers,
                          on_candidates=on_candidates)
        assert [q for q, _ in seen] == questions
        assert [n for _, n in seen] == [r.candidate_count for r in report.records]
        assert all(n > 0 for _, n in seen)
        if workers == 1:
            # each question's candidates are handed over before the next starts
            assert events == [(kind, q.id) for q in questions
                              for kind in ("start", "candidates")]

    @pytest.mark.parametrize("with_callback", [False, True])
    def test_candidates_gone_before_the_next_question(self, index, monkeypatch,
                                                      with_callback):
        questions, backend = build_eval_fixture(6, 4)
        _, refs = track_questions(monkeypatch)
        alive_at_start = []
        original = harness.evaluate_question

        def check_then_run(question, *args, **kwargs):
            gc.collect()
            alive_at_start.append(sum(ref() is not None for batch in refs for ref in batch))
            return original(question, *args, **kwargs)

        monkeypatch.setattr(harness, "evaluate_question", check_then_run)
        cfg = apply_preset(SearchConfig(rollouts=3, rng_seed=5), "rare")
        run_eval(questions, "rare", backend, index, cfg, workers=1,
                 on_candidates=(lambda q, cands: None) if with_callback else None)
        assert all(batch for batch in refs)
        assert alive_at_start == [0] * len(questions)


class TestAblationStructure:
    @pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
    def test_no_disabled_action_in_any_trajectory(self, preset, index):
        questions, backend = build_eval_fixture(8, 8)
        cfg = apply_preset(SearchConfig(rollouts=4, rng_seed=0), preset)
        seen: list = []
        report = run_eval(questions, "rare" if cfg.rafs_enabled else "rstar",
                          backend, index, cfg, workers=2,
                          on_candidates=lambda q, cands: seen.append((q, cands)))
        enabled = cfg.enabled_actions
        for _, candidates in seen:
            for traj in candidates:
                assert set(traj.action_sequence()) <= enabled
        for record in report.records:
            assert set(record.action_sequence) <= enabled

    def test_rare_preset_reaches_both_retrieval_actions(self, index):
        questions, backend = build_eval_fixture(20, 20)
        cfg = apply_preset(SearchConfig(rollouts=4, rng_seed=0), "rare")
        seen: list = []
        run_eval(questions, "rare", backend, index, cfg, workers=2,
                 on_candidates=lambda q, cands: seen.append((q, cands)))
        kinds = {
            kind
            for _, candidates in seen
            for traj in candidates
            for kind in traj.action_sequence()
        }
        assert A.A6 in kinds
        assert A.A7 in kinds

    @pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
    def test_observed_kinds_equal_enabled_kinds(self, preset, index):
        # strong form on the 20-question fixture: every enabled (and
        # reachable) action shows up in some candidate trajectory
        questions, backend = build_eval_fixture(20, 20)
        cfg = apply_preset(SearchConfig(rollouts=4, rng_seed=0), preset)
        seen: list = []
        run_eval(questions, "rare" if cfg.rafs_enabled else "rstar",
                 backend, index, cfg, workers=4,
                 on_candidates=lambda q, cands: seen.append(cands))
        kinds = {k for cands in seen for t in cands for k in t.action_sequence()}
        assert kinds == cfg.enabled_actions

    def test_presets_match_declared_rows(self):
        base = SearchConfig()
        assert apply_preset(base, "rstar").enabled_actions == frozenset(
            {A.A1, A.A2, A.A3, A.A4, A.A5})
        assert not apply_preset(base, "rstar").rafs_enabled
        assert apply_preset(base, "rstar+rafs").rafs_enabled
        assert A.A6 in apply_preset(base, "rstar+a6").enabled_actions
        assert A.A7 not in apply_preset(base, "rstar+a6").enabled_actions
        assert A.A7 in apply_preset(base, "rstar+a7").enabled_actions
        assert apply_preset(base, "rare").rafs_enabled
        assert apply_preset(base, "rare").enabled_actions == frozenset(ActionKind)
        with pytest.raises(ValidationError):
            apply_preset(base, "nope")


def make_record(qid, sequence, correct=True):
    return EvalRecord(
        question_id=qid, method="rare",
        predicted="A" if correct else "B", gold="A", correct=correct,
        candidate_count=1, calls_used=1, tokens_used=2,
        action_sequence=tuple(sequence),
    )


def make_report(records):
    n = len(records)
    return RunReport(
        config={}, records=tuple(records),
        accuracy=sum(r.correct for r in records) / n,
        avg_calls=1.0, avg_tokens=2.0, trajectory_histogram={},
    )


class TestTrajectoryStats:
    def test_counts_ranked_descending(self):
        records = (
            [make_record(f"a{i}", (A.A1, A.A2)) for i in range(3)]
            + [make_record(f"b{i}", (A.A3, A.A2)) for i in range(2)]
        )
        report = make_report(records)
        assert trajectory_stats(report) == [
            ((A.A1, A.A2), 3), ((A.A3, A.A2), 2)]

    def test_only_correct_records_counted(self):
        records = [
            make_record("a", (A.A1, A.A2), correct=True),
            make_record("b", (A.A3, A.A2), correct=False),
        ]
        assert trajectory_stats(make_report(records)) == [((A.A1, A.A2), 1)]

    def test_empty_correct_set_gives_empty_list(self):
        records = [make_record("a", (A.A1, A.A2), correct=False)]
        assert trajectory_stats(make_report(records)) == []

    def test_ties_break_lexicographically(self):
        records = [
            make_record("a", (A.A3, A.A2)),
            make_record("b", (A.A1, A.A2)),
            make_record("c", (A.A1, A.A6)),
            make_record("d", (A.A3, A.A2)),
            make_record("e", (A.A1, A.A2)),
        ]
        stats = trajectory_stats(make_report(records))
        assert stats == [((A.A1, A.A2), 2), ((A.A3, A.A2), 2), ((A.A1, A.A6), 1)]

    def test_top_n_limits_output(self):
        records = [make_record(str(i), (A.A1,) * (i + 1)) for i in range(5)]
        assert len(trajectory_stats(make_report(records), top_n=2)) == 2


class TestReportSerialization:
    def test_record_shape_and_stability(self, index):
        questions, backend = build_eval_fixture(3, 2)
        cfg = apply_preset(SearchConfig(rollouts=2, rng_seed=0), "rstar")
        report = run_eval(questions, "rstar", backend, index, cfg, workers=1)
        record = report_to_record(report)
        assert set(record) == {
            "config", "num_questions", "accuracy", "avg_calls", "avg_tokens",
            "trajectory_histogram", "records",
        }
        assert record["num_questions"] == 3
        assert json.dumps(record, sort_keys=True) == json.dumps(
            report_to_record(report), sort_keys=True)
        first = record["records"][0]
        assert set(first) == set(eval_record_to_record(report.records[0]))


class TestRunFailure:
    def test_no_question_starts_after_the_callback_fails(self, monkeypatch):
        questions, backend = build_eval_fixture(8, 8)
        events = []
        original = harness.evaluate_question
        # the second and third questions hold both workers from before the
        # first question's callback raises until well after
        both_busy = threading.Barrier(3, timeout=10)

        def hold_two(question, *args, **kwargs):
            events.append(("start", question.id))
            if question in questions[1:3]:
                both_busy.wait()
                time.sleep(0.2)
            return original(question, *args, **kwargs)

        def on_candidates(question, candidates):
            both_busy.wait()
            events.append(("raised", question.id))
            raise OSError("No space left on device")

        monkeypatch.setattr(harness, "evaluate_question", hold_two)
        with pytest.raises(OSError, match="No space left"):
            run_eval(questions, "cot", backend, None, SearchConfig(), workers=2,
                     on_candidates=on_candidates)
        raised = events.index(("raised", questions[0].id))
        assert [event for event in events[raised:] if event[0] == "start"] == []
        assert sorted(events[:raised]) == [("start", q.id) for q in questions[:3]]
