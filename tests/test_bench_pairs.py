"""``tools/bench_pairs.py`` on canned results: the summary step and ``main``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(qps, calls, ms, correct=True, exit_code=0):
    return {"correct": correct, "exit_code": exit_code, "metrics": {
        "questions_per_s": {"value": qps, "unit": "1/s"},
        "lm_calls_per_q": {"value": calls, "unit": "count"},
        "question_ms.p50": {"value": ms, "unit": "ms"},
        "setup_s": {"value": 0.03, "unit": "s"},
    }}


BETTER = {"questions_per_s": "higher", "lm_calls_per_q": "lower",
          "question_ms.p50": "lower", "setup_s": "lower"}


def pairs_of(parent_qps, change_qps, parent_ms=None, change_ms=None):
    parent_ms = parent_ms or [300.0] * len(parent_qps)
    change_ms = change_ms or [300.0] * len(change_qps)
    return [{"pair": i + 1, "first": "parent" if i % 2 == 0 else "change",
             "parent": result(p, 68.3, pm), "change": result(c, 65.35, cm)}
            for i, (p, c, pm, cm) in enumerate(zip(parent_qps, change_qps,
                                                   parent_ms, change_ms))]


class TestSummarize:
    def test_wins_quartiles_and_gain(self):
        pairs = pairs_of([6.0, 6.2, 6.1, 6.3, 6.25], [6.5, 6.6, 6.0, 6.7, 6.55],
                         [310, 300, 305, 320, 315], [300, 290, 305, 300, 310])
        summary = bench_pairs.summarize(pairs, BETTER)
        assert summary["pairs"] == 5
        assert summary["every_run_passed_its_checks"]
        qps = summary["metrics"]["questions_per_s"]
        assert qps["parent"] == {"q1": 6.1, "median": 6.2, "q3": 6.25}
        assert qps["change"]["median"] == 6.55
        assert (qps["change_wins"], qps["parent_wins"]) == (4, 1)
        assert qps["gain_beyond_parent_iqr"]  # 0.35 > 0.15
        ms = summary["metrics"]["question_ms.p50"]
        # lower is better; pair 3 is a tie and counts for neither side
        assert (ms["change_wins"], ms["parent_wins"]) == (4, 0)
        assert not ms["gain_beyond_parent_iqr"]  # 5 ms against a 10 ms spread
        calls = summary["metrics"]["lm_calls_per_q"]
        assert calls["change_wins"] == 5
        assert calls["gain_beyond_parent_iqr"]

    def test_metric_equal_in_every_run_is_reported_once(self):
        summary = bench_pairs.summarize(pairs_of([6.0, 6.1], [6.2, 6.3]), BETTER)
        assert summary["metrics"]["setup_s"] == {"identical": 0.03}

    def test_failed_run_is_flagged(self):
        pairs = pairs_of([6.0, 6.1], [6.2, 6.3])
        pairs[1]["change"]["exit_code"] = 1
        assert not bench_pairs.summarize(pairs, BETTER)["every_run_passed_its_checks"]

    def test_metric_missing_from_a_run_is_left_out(self):
        pairs = pairs_of([6.0, 6.1], [6.2, 6.3])
        del pairs[0]["change"]["metrics"]["setup_s"]
        assert "setup_s" not in bench_pairs.summarize(pairs, BETTER)["metrics"]

    def test_single_pair_quartiles_are_its_value(self):
        summary = bench_pairs.summarize(pairs_of([6.0], [6.4]), BETTER)
        assert summary["metrics"]["questions_per_s"]["parent"] == {
            "q1": 6.0, "median": 6.0, "q3": 6.0}

    def test_directions_come_from_the_benchmark_spec(self):
        better = bench_pairs.metric_directions()
        assert better["questions_per_s"] == "higher"
        assert better["lm_calls_per_q"] == "lower"
        assert better["lm.inflight_mean"] == "higher"


class TestVerdict:
    """The no-regression verdict of a metric with a relative bound."""

    @pytest.mark.parametrize("parent, change, better, expected", [
        # a tight parent and a change within the bound
        ([10.0, 10.1, 10.2, 10.3], [9.5, 9.6, 9.7, 9.8], "higher", "no_worse"),
        # the change's median is 30% below the parent's, past a 25% bound
        ([10.0, 10.1, 10.2, 10.3], [7.0, 7.1, 7.2, 7.3], "higher", "worse_beyond_bound"),
        # lower is better: 30% slower is worse; 30% faster is no worse
        ([20.0, 20.0, 20.0, 20.0], [26.0, 26.0, 26.0, 26.0], "lower", "worse_beyond_bound"),
        ([20.0, 20.0, 20.0, 20.0], [14.0, 14.0, 14.0, 14.0], "lower", "no_worse"),
        # exactly at the bound is not beyond it
        ([20.0, 20.0, 20.0, 20.0], [25.0, 25.0, 25.0, 25.0], "lower", "no_worse"),
        # the parent's IQR (22-31 ms around 28) is wider than the bound (7 ms)
        ([16.0, 22.0, 32.0, 31.0, 28.0], [27.0, 22.0, 33.0, 29.0, 30.0], "lower",
         "unresolved"),
        # ... unless every change run beats every parent run
        ([16.0, 22.0, 32.0, 31.0, 28.0], [12.0, 11.0, 15.0, 14.0, 13.0], "lower",
         "no_worse"),
        # a wide parent spread does not hide a median worse beyond the bound
        ([16.0, 22.0, 32.0, 31.0, 28.0], [40.0, 41.0, 45.0, 39.0, 42.0], "lower",
         "worse_beyond_bound"),
    ])
    def test_verdicts(self, parent, change, better, expected):
        assert bench_pairs.verdict(parent, change, better, 0.25) == expected

    def test_summary_gives_bounded_metrics_a_verdict(self):
        pairs = pairs_of([6.0, 6.1, 6.2], [3.0, 3.1, 3.2])
        for pair, setup in zip(pairs, [0.02, 0.03, 0.04]):
            pair["parent"]["metrics"]["setup_s"]["value"] = setup
        summary = bench_pairs.summarize(pairs, BETTER, {"questions_per_s": 0.25,
                                                        "lm_calls_per_q": 0.02,
                                                        "setup_s": 0.25})
        metrics = summary["metrics"]
        assert metrics["questions_per_s"]["verdict"] == "worse_beyond_bound"
        # 68.3 -> 65.35 calls in every pair: identical per side, and better
        assert metrics["lm_calls_per_q"]["verdict"] == "no_worse"
        assert metrics["setup_s"]["verdict"] == "unresolved"
        assert "verdict" not in metrics["question_ms.p50"]  # no bound given

    def test_metric_equal_in_every_run_is_no_worse(self):
        summary = bench_pairs.summarize(pairs_of([6.0, 6.1], [6.2, 6.3]), BETTER,
                                        {"setup_s": 0.25})
        assert summary["metrics"]["setup_s"] == {"identical": 0.03, "verdict": "no_worse"}

    def test_bounds_come_from_the_benchmark_spec(self):
        bounds = bench_pairs.metric_bounds()
        assert bounds["setup_s"] == 0.25
        assert bounds["lm_calls_per_q"] == 0.02
        assert "lm.inflight_mean" not in bounds  # per-layer metrics have none


@pytest.mark.parametrize("values, expected", [
    ([1.0, 2.0, 3.0, 4.0, 5.0], {"q1": 2.0, "median": 3.0, "q3": 4.0}),
    ([2.0, 4.0], {"q1": 2.5, "median": 3.0, "q3": 3.5}),
])
def test_quartiles(values, expected):
    assert bench_pairs.quartiles(values) == expected


class TestMain:
    """``main`` with the export and the benchmark runs replaced by fakes."""

    @pytest.fixture
    def fake_runs(self, tmp_path, monkeypatch):
        """Records each run's arguments; ``exit_codes`` gives the runs'
        exit codes in order (0 once it is empty)."""
        fake = {"args": [], "exit_codes": []}

        def run_once(tree, args):
            fake["args"].append(args)
            run = result(6.0 if tree != tmp_path else 6.5, 65.35, 300.0)
            if fake["exit_codes"]:
                run["exit_code"] = fake["exit_codes"].pop(0)
            return run

        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        monkeypatch.setattr(bench_pairs, "export_revision", lambda rev, dest: "abc123")
        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        monkeypatch.setattr(bench_pairs, "metric_directions", lambda: BETTER)
        monkeypatch.setattr(bench_pairs, "metric_bounds", lambda: {"questions_per_s": 0.25})
        return fake

    ARGS = ["--topic", "t", "--workload", "tree-cpu", "--seed", "3", "--pairs", "2"]

    def test_seconds_are_forwarded_as_an_int(self, fake_runs, tmp_path):
        assert bench_pairs.main(self.ARGS + ["--seconds", "30"]) == 0
        assert len(fake_runs["args"]) == 4
        assert all(args[args.index("--seconds") + 1] == "30" for args in fake_runs["args"])
        doc = json.loads((tmp_path / "BENCH_t.json").read_text())
        metrics = doc["settings"]["tree-cpu seed 3 trace 0"]["summary"]["metrics"]
        assert metrics["questions_per_s"]["verdict"] == "no_worse"

    def test_fractional_seconds_are_refused_before_any_run(self, fake_runs, tmp_path):
        # perfbench/run.py takes whole seconds; 2.5 used to reach every run
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(self.ARGS + ["--seconds", "2.5"])
        assert exc.value.code == 2
        assert fake_runs["args"] == []
        assert not (tmp_path / "BENCH_t.json").exists()

    def test_failed_run_exits_1_after_writing_the_file(self, fake_runs, tmp_path):
        fake_runs["exit_codes"] = [0, 0, 1, 0]
        assert bench_pairs.main(self.ARGS) == 1
        doc = json.loads((tmp_path / "BENCH_t.json").read_text())
        summary = doc["settings"]["tree-cpu seed 3 trace 0"]["summary"]
        assert not summary["every_run_passed_its_checks"]
