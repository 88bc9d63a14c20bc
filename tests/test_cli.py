import json
import os
import pickle
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    build_eval_fixture,
    fixture_corpus,
    write_corpus_file,
    write_dataset_file,
    write_script_file,
)
import rare
from rare.cli import main
from rare.types import ActionKind, SearchConfig, config_to_record


@pytest.fixture
def workspace(tmp_path):
    """Corpus, index, dataset, and script files for a 4-question eval."""
    return make_workspace(tmp_path, 4, 3)


def make_workspace(tmp_path, n_questions, n_correct):
    questions, backend = build_eval_fixture(n_questions, n_correct)
    corpus = tmp_path / "corpus.jsonl"
    dataset = tmp_path / "dataset.jsonl"
    script = tmp_path / "script.jsonl"
    index = tmp_path / "index.bin"
    write_corpus_file(corpus, fixture_corpus())
    write_dataset_file(dataset, questions)
    write_script_file(script, list(backend.entries))
    rc = main(["index", "build", "--corpus", str(corpus), "--out", str(index)])
    assert rc == 0
    return {
        "corpus": corpus, "dataset": dataset, "script": script,
        "index": index, "dir": tmp_path,
    }


class TestIndexCommands:
    def test_build_then_query(self, workspace, capsys):
        rc = main(["index", "query", "--index", str(workspace["index"]),
                   "--q", "beta therapy evidence", "--k", "3"])
        assert rc == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert lines
        assert lines[0]["doc_id"] == "doc-beta"
        assert all(set(entry) == {"doc_id", "score", "snippet", "title"} for entry in lines)

    def test_query_with_k_0_exits_2_before_the_index_loads(self, workspace, capsys,
                                                          monkeypatch):
        monkeypatch.setattr("rare.cli.load_index", lambda path: pytest.fail("index loaded"))
        rc = main(["index", "query", "--index", str(workspace["index"]),
                   "--q", "beta", "--k", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: --k must be >= 1\n"

    @pytest.mark.parametrize("k1", ["nan", "inf"])
    def test_build_with_a_non_finite_k1_exits_2(self, workspace, capsys, k1):
        out = workspace["dir"] / "out.bin"
        rc = main(["index", "build", "--corpus", str(workspace["corpus"]),
                   "--out", str(out), "--k1", k1])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: k1 must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("which", ["empty", "corpus", "not_an_index"])
    def test_query_on_a_file_that_is_not_an_index_exits_2(self, workspace, capsys,
                                                          which):
        path = workspace["dir"] / "bad.bin"
        if which == "empty":
            path.write_bytes(b"")
        elif which == "not_an_index":
            # the right envelope around something that is not an index
            path.write_bytes(pickle.dumps({"format": 1, "corpus_hash": "x", "index": 5}))
        else:
            path = workspace["corpus"]  # a JSONL corpus given as the index
        rc = main(["index", "query", "--index", str(path), "--q", "beta"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_build_on_a_non_object_corpus_line_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "text": "body"}\n5\n', encoding="utf-8")
        rc = main(["index", "build", "--corpus", str(corpus),
                   "--out", str(tmp_path / "out.bin")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: corpus line 2:")

    def test_build_on_a_corpus_line_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b'{"id": "a", "text": "body"}\n{"id": "b", "text": "\xff"}\n')
        rc = main(["index", "build", "--corpus", str(corpus),
                   "--out", str(tmp_path / "out.bin")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: corpus line 2:")

    def test_build_on_a_null_corpus_text_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "text": "body"}\n{"id": "b", "text": null}\n',
                          encoding="utf-8")
        rc = main(["index", "build", "--corpus", str(corpus),
                   "--out", str(tmp_path / "out.bin")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: corpus line 2: 'text'")
        assert not (tmp_path / "out.bin").exists()

    def test_build_missing_corpus_exits_2(self, tmp_path):
        rc = main(["index", "build", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "out.bin")])
        assert rc == 2


class TestEvalCommand:
    def test_full_scripted_run_writes_report_and_trajectories(self, workspace):
        report_path = workspace["dir"] / "report.json"
        traj_path = workspace["dir"] / "trajectories.jsonl"
        rc = main([
            "eval",
            "--dataset", str(workspace["dataset"]),
            "--method", "rare",
            "--index", str(workspace["index"]),
            "--backend", "script", "--script", str(workspace["script"]),
            "--rollouts", "4", "--seed", "0",
            "--out", str(report_path),
            "--trajectories", str(traj_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["num_questions"] == 4
        assert report["accuracy"] == 0.75
        assert report["config"]["method"] == "rare"
        assert report["config"]["ablation"] == "rare"
        assert report["config"]["rafs_enabled"] is True
        lines = [json.loads(line) for line in traj_path.read_text().splitlines()]
        trajectories = [x for x in lines if "actions" in x]
        reports = [x for x in lines if "statements" in x]
        assert trajectories
        assert {"question_id", "actions", "steps", "final_answer",
                "terminal_reward", "factuality_score"} <= set(trajectories[0])
        # every factuality record follows the scored trajectory it names
        for before, after in zip(lines, lines[1:]):
            if "statements" in after:
                assert before["trajectory_hash"] == after["trajectory_hash"]
                assert before["question_id"] == after["question_id"]
                assert before["factuality_score"] is not None
                assert before["factuality_score"] == after["score"]
        # and every scored trajectory is followed by one
        assert len(reports) == sum(x["factuality_score"] is not None for x in trajectories)
        # each question's chosen path is among the scored ones
        scored = {(x["question_id"], x["final_answer"], tuple(x["actions"]))
                  for x, after in zip(lines, lines[1:]) if "statements" in after}
        for record in report["records"]:
            assert (record["question_id"], record["predicted"],
                    tuple(record["action_sequence"])) in scored
        assert {"question_id", "trajectory_hash", "statements",
                "score"} == set(reports[0])
        assert {"text", "queries", "evidence_ids", "label"} == set(
            reports[0]["statements"][0])

    def test_trajectories_are_written_while_the_run_goes_on(self, workspace, monkeypatch):
        from rare import harness

        traj_path = workspace["dir"] / "trajectories.jsonl"
        evaluate_question = harness.evaluate_question
        seen = {}

        def peek(question, *args, **kwargs):
            # candidates go to a temporary file beside the target until the run ends
            partial = list(workspace["dir"].glob(".trajectories.jsonl.*.tmp"))
            seen[question.id] = partial[0].read_text() if len(partial) == 1 else None
            return evaluate_question(question, *args, **kwargs)

        monkeypatch.setattr(harness, "evaluate_question", peek)
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]), "--method", "rare",
            "--index", str(workspace["index"]),
            "--backend", "script", "--script", str(workspace["script"]),
            "--workers", "1", "--trajectories", str(traj_path),
        ])
        assert rc == 0
        first, second = list(seen)[:2]
        assert seen[first] == ""
        written = [json.loads(line) for line in seen[second].splitlines()]
        assert written and {x["question_id"] for x in written} == {first}
        # the final file goes on from what was there while question 2 ran
        assert traj_path.read_text().startswith(seen[second])

    def test_internal_error_is_reported_then_exits_1(self, workspace, monkeypatch, capsys):
        from rare import harness

        questions = [json.loads(line)["id"]
                     for line in workspace["dataset"].read_text().splitlines()]
        select_majority = harness.select_majority

        def fails_on_first(candidates):
            if candidates[0].question.id == questions[0]:
                raise KeyError("stray")
            return select_majority(candidates)

        monkeypatch.setattr(harness, "select_majority", fails_on_first)
        report_path = workspace["dir"] / "report.json"
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]), "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
            "--out", str(report_path),
        ])
        assert rc == 1
        records = json.loads(report_path.read_text())["records"]
        assert [r["error"] for r in records] == ["KeyError: 'stray'"] + [None] * 3
        assert "1 question(s) failed with an internal error" in capsys.readouterr().err

    def test_ablation_preset_flag(self, workspace):
        report_path = workspace["dir"] / "rstar_a6.json"
        rc = main([
            "eval",
            "--dataset", str(workspace["dataset"]),
            "--method", "rstar", "--ablation", "rstar+a6",
            "--index", str(workspace["index"]),
            "--backend", "script", "--script", str(workspace["script"]),
            "--seed", "0", "--out", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["ablation"] == "rstar+a6"
        assert "A7" not in set(report["config"]["enabled_actions"])
        for record in report["records"]:
            assert "A7" not in record["action_sequence"]

    def test_cot_runs_without_index(self, workspace, capsys):
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["avg_calls"] == 1.0

    def test_flag_defaults_are_the_search_config_defaults(self, workspace, capsys):
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]), "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
        ])
        assert rc == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert {k: v for k, v in config.items()
                if k not in ("method", "selection_rule")} == config_to_record(SearchConfig())

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_non_finite_exploration_c_exits_2(self, workspace, capsys, c):
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]), "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
            "--exploration-c", c,
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: exploration_c must be finite")

    def test_eval_prints_top_sequences_after_the_summary(self, workspace, capsys):
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]), "--method", "rare",
            "--index", str(workspace["index"]),
            "--backend", "script", "--script", str(workspace["script"]),
            "--rollouts", "4", "--seed", "0",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        summary, header, *rows = captured.err.splitlines()
        assert summary.startswith("method=rare questions=4 ")
        assert header == "top action sequences of correct answers:"
        counts = Counter("->".join(record["action_sequence"])
                         for record in report["records"] if record["correct"])
        assert sorted((int(count), key) for count, key in map(str.split, rows)) == sorted(
            (count, key) for key, count in counts.items())

    def test_eval_closes_its_backend(self, workspace, monkeypatch):
        from rare.lm import ScriptedBackend

        closed = []
        monkeypatch.setattr(ScriptedBackend, "close", lambda self: closed.append(self))
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
        ])
        assert rc == 0
        assert len(closed) == 1

    def test_missing_dataset_exits_2(self, workspace):
        rc = main([
            "eval", "--dataset", str(workspace["dir"] / "absent.jsonl"),
            "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
        ])
        assert rc == 2

    def test_unrenderable_templates_exit_2(self, workspace, capsys):
        templates = workspace["dir"] / "templates"
        templates.mkdir()
        for kind in ActionKind:
            (templates / f"{kind.value.lower()}.txt").write_text(
                "scaffold {question}", encoding="utf-8")
        (templates / "a2.txt").write_text('Reply as {"json": 1}\n{question}',
                                          encoding="utf-8")
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", "cot", "--templates", str(templates),
            "--backend", "script", "--script", str(workspace["script"]),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_template_that_is_not_utf8_exits_2(self, workspace, capsys):
        templates = workspace["dir"] / "templates"
        templates.mkdir()
        for kind in ActionKind:
            (templates / f"{kind.value.lower()}.txt").write_text(
                "scaffold {question}", encoding="utf-8")
        (templates / "a2.txt").write_bytes(b"scaffold \xff {question}")
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", "cot", "--templates", str(templates),
            "--backend", "script", "--script", str(workspace["script"]),
        ])
        assert rc == 2
        assert "a2.txt is not UTF-8" in capsys.readouterr().err

    def test_out_in_a_missing_directory_exits_2_before_the_first_question(
            self, workspace, monkeypatch):
        from rare import cli

        calls = []
        monkeypatch.setattr(cli, "run_eval", lambda *a, **k: calls.append(a))
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]), "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
            "--out", str(workspace["dir"] / "missing" / "report.json"),
        ])
        assert rc == 2
        assert calls == []

    @pytest.mark.parametrize("flag", ["--out", "--trajectories"])
    def test_output_path_that_is_a_directory_exits_2_before_the_first_question(
            self, workspace, monkeypatch, flag):
        from rare import cli

        calls = []
        monkeypatch.setattr(cli, "run_eval", lambda *a, **k: calls.append(a))
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]), "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
            flag, str(workspace["dir"]),
        ])
        assert rc == 2
        assert calls == []

    @pytest.mark.parametrize("spelling", ["same.json", "./sub/../same.json", "link.json"])
    def test_out_and_trajectories_naming_one_file_exit_2_before_the_first_question(
            self, workspace, monkeypatch, capsys, spelling):
        from rare import cli

        same = workspace["dir"] / "same.json"
        same.write_text("OLD REPORT\n", encoding="utf-8")
        (workspace["dir"] / "sub").mkdir()
        (workspace["dir"] / "link.json").symlink_to(same)
        calls = []
        monkeypatch.setattr(cli, "run_eval", lambda *a, **k: calls.append(a))
        monkeypatch.chdir(workspace["dir"])
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]), "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
            "--out", "same.json", "--trajectories", spelling,
        ])
        assert rc == 2
        assert "name the same file" in capsys.readouterr().err
        assert calls == []
        assert same.read_text(encoding="utf-8") == "OLD REPORT\n"

    @pytest.mark.parametrize("flag", ["--out", "--trajectories"])
    def test_refused_run_leaves_an_earlier_output_file_as_it_was(self, workspace, flag):
        earlier = workspace["dir"] / "earlier.json"
        earlier.write_text("OLD REPORT\n", encoding="utf-8")
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]), "--method", "rare",
            "--backend", "script", "--script", str(workspace["script"]),
            flag, str(earlier),
        ])  # no --index, which run_eval refuses
        assert rc == 2
        assert earlier.read_text(encoding="utf-8") == "OLD REPORT\n"
        assert sorted(p.name for p in workspace["dir"].iterdir()
                      if p.name.startswith(".")) == []

    def test_output_files_get_the_mode_of_a_new_file(self, workspace):
        out = workspace["dir"] / "report.json"
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]), "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
            "--out", str(out),
        ])
        assert rc == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert json.loads(out.read_text(encoding="utf-8"))["avg_calls"] == 1.0

    def test_zero_workers_exits_2(self, workspace, capsys):
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", "cot", "--workers", "0",
            "--backend", "script", "--script", str(workspace["script"]),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["cot", "rare"])
    @pytest.mark.parametrize("flag", [["--exploration-c", "-1"], ["--rollouts", "0"],
                                      ["--workers", "0"]])
    def test_a_bad_search_flag_exits_2_before_the_index_loads(self, workspace, capsys,
                                                              monkeypatch, method, flag):
        monkeypatch.setattr("rare.cli.load_index", lambda path: pytest.fail("index loaded"))
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]), "--method", method,
            "--index", str(workspace["index"]), *flag,
            "--backend", "script", "--script", str(workspace["script"]),
        ])
        assert rc == 2
        assert "must be" in capsys.readouterr().err

    def test_rare_without_index_exits_2(self, workspace):
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", "rare",
            "--backend", "script", "--script", str(workspace["script"]),
        ])
        assert rc == 2

    def test_malformed_script_line_exits_2(self, workspace, capsys):
        script = workspace["dir"] / "bad_script.jsonl"
        script.write_text("[1, 2]\n", encoding="utf-8")
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", "cot",
            "--backend", "script", "--script", str(script),
        ])
        assert rc == 2
        assert "error: script line 1" in capsys.readouterr().err

    def test_script_line_that_is_not_utf8_exits_2(self, workspace, capsys):
        script = workspace["dir"] / "bad_script.jsonl"
        script.write_bytes(workspace["script"].read_bytes() + b'{"purpose": "\xff"}\n')
        lines = len(workspace["script"].read_bytes().splitlines())
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", "cot",
            "--backend", "script", "--script", str(script),
        ])
        assert rc == 2
        assert f"error: script line {lines + 1}:" in capsys.readouterr().err

    def test_script_backend_requires_script_path(self, workspace):
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", "cot", "--backend", "script",
        ])
        assert rc == 2

    def test_http_backend_requires_endpoint_config(self, workspace, monkeypatch):
        monkeypatch.delenv("RARE_LM_BASE_URL", raising=False)
        monkeypatch.delenv("RARE_LM_MODEL", raising=False)
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", "cot", "--backend", "http",
        ])
        assert rc == 2

    def test_strict_dataset_failure_vs_lenient(self, workspace):
        bad = workspace["dir"] / "bad.jsonl"
        good_line = workspace["dataset"].read_text().splitlines()[0]
        args = [
            "eval", "--dataset", str(bad), "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
            "--out", str(workspace["dir"] / "lenient.json"),
        ]
        # a missing field, and keys that name one letter or one number twice
        for line in ('{"id": "broken"}',
                     '{"id": "x", "question": "q?", "options": {"a": "x", "A": "y"}}',
                     '{"id": "x", "question": "q?", "options": {"1": "x", " 1": "y"}, '
                     '"answer": 1}',
                     '{"id": "x", "question": "q?", "options": {"1": "x", "01": "y"}, '
                     '"answer": "01"}',
                     # a digit that is not a decimal digit names no number
                     '{"id": "x", "question": "q?", "options": {"\u00b2": "x", "\u00b3": "y"}, '
                     '"answer": "\u00b2"}'):
            bad.write_text(line + "\n" + good_line + "\n", encoding="utf-8")
            assert main(args) == 2
            assert main(args + ["--lenient"]) == 0
            report = json.loads((workspace["dir"] / "lenient.json").read_text())
            assert report["num_questions"] == 1

    def test_zero_padded_keys_take_a_numeric_answer(self, workspace):
        dataset = workspace["dir"] / "padded.jsonl"
        good_line = workspace["dataset"].read_text().splitlines()[0]
        for answer, gold in (('"1"', "A"), ("2", "B"), ('" 02 "', "B")):
            dataset.write_text(good_line + '\n{"id": "x", "question": "q?", "options": '
                               '{"01": "x", "02": "y"}, "answer": ' + answer + "}\n",
                               encoding="utf-8")
            for lenient in ([], ["--lenient"]):
                out = workspace["dir"] / "report.json"
                assert main(["eval", "--dataset", str(dataset), "--method", "cot",
                             "--backend", "script", "--script", str(workspace["script"]),
                             "--out", str(out)] + lenient) == 0
                records = json.loads(out.read_text())["records"]
                assert [(r["question_id"], r["gold"]) for r in records][1:] == [("x", gold)]

    # "\udcff" is written as the byte 0xff, which is not UTF-8
    @pytest.mark.parametrize("line", ["7", '["id", "question"]',
                                      pytest.param('{"id": "\udcff"}', id="not_utf8"),
                                      pytest.param("[" * 200_000, id="too_deep"),
                                      # more digits than int() converts from a string
                                      pytest.param('{"id": ' + "9" * 5000 + "}",
                                                   id="huge_integer")])
    def test_non_object_dataset_line_fails_or_is_skipped(self, workspace, capsys, line):
        bad = workspace["dir"] / "bad.jsonl"
        good_line = workspace["dataset"].read_text().splitlines()[0]
        bad.write_text(good_line + "\n" + line + "\n", encoding="utf-8",
                       errors="surrogateescape")
        args = [
            "eval", "--dataset", str(bad), "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
            "--out", str(workspace["dir"] / "lenient.json"),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: line 2:")
        assert main(args + ["--lenient"]) == 0
        report = json.loads((workspace["dir"] / "lenient.json").read_text())
        assert report["num_questions"] == 1

    @pytest.mark.parametrize("options", ["[1, 2]", "5"])
    def test_options_not_pairs_fail_or_are_skipped(self, workspace, capsys, options):
        bad = workspace["dir"] / "bad.jsonl"
        good_line = workspace["dataset"].read_text().splitlines()[0]
        bad.write_text(good_line + "\n"
                       + f'{{"id": "x", "question": "q?", "options": {options}, "answer": "A"}}\n',
                       encoding="utf-8")
        args = [
            "eval", "--dataset", str(bad), "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
            "--out", str(workspace["dir"] / "lenient.json"),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: line 2:")
        assert main(args + ["--lenient"]) == 0
        report = json.loads((workspace["dir"] / "lenient.json").read_text())
        assert report["num_questions"] == 1

    @pytest.mark.parametrize("record", [
        '{"id": null, "question": "q?", "options": {"A": "x", "B": "y"}}',
        '{"id": "x", "question": null, "options": {"A": "x", "B": "y"}}',
        '{"id": "x", "question": "q?", "options": {"A": null, "B": "y"}}',
        '{"id": "x", "question": {"text": "q?"}, "options": {"A": "x", "B": "y"}}',
        '{"id": "x", "question": "q?", "options": {"A": "x", "B": "y"}, "domain": {"x": 1}}',
        '{"id": "x", "question": "q?", "options": {"A": "x", "B": "y"}, "domain": ["x"]}',
    ], ids=["null_id", "null_question", "null_option", "object_question", "object_domain",
            "array_domain"])
    def test_null_or_structured_text_fails_or_is_skipped(self, workspace, capsys, record):
        bad = workspace["dir"] / "bad.jsonl"
        good_line = workspace["dataset"].read_text().splitlines()[0]
        bad.write_text(good_line + "\n" + record + "\n", encoding="utf-8")
        args = [
            "eval", "--dataset", str(bad), "--method", "cot",
            "--backend", "script", "--script", str(workspace["script"]),
            "--out", str(workspace["dir"] / "lenient.json"),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: line 2:")
        assert main(args + ["--lenient"]) == 0
        report = json.loads((workspace["dir"] / "lenient.json").read_text())
        assert [r["question_id"] for r in report["records"]] == ["q01"]

    def test_non_string_script_completion_exits_2(self, workspace, capsys):
        script = workspace["dir"] / "bad_script.jsonl"
        script.write_text(workspace["script"].read_text()
                          + '{"purpose": "rating", "completions": [null]}\n',
                          encoding="utf-8")
        lines = len(workspace["script"].read_text().splitlines())
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", "cot",
            "--backend", "script", "--script", str(script),
        ])
        assert rc == 2
        assert f"error: script line {lines + 1}: completions must be" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("method", ["cot", "sc", "rag"])
    def test_ablation_on_a_baseline_exits_2(self, workspace, capsys, method):
        out = workspace["dir"] / "report.json"
        rc = main([
            "eval", "--dataset", str(workspace["dataset"]),
            "--method", method, "--ablation", "rare", "--index", str(workspace["index"]),
            "--backend", "script", "--script", str(workspace["script"]),
            "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


# runs in a fresh interpreter, so nothing the test process imported counts
_OFFLINE_RUN = """
import json, sys
import rare, rare.cli
after_import = "requests" in sys.modules
rc = rare.cli.main(sys.argv[1:])
print(json.dumps([after_import, rc, "requests" in sys.modules]))
"""


def test_offline_run_never_loads_the_http_client(tmp_path):
    workspace = make_workspace(tmp_path, 6, 4)
    src = str(Path(rare.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _OFFLINE_RUN, "eval",
         "--dataset", str(workspace["dataset"]), "--method", "rare",
         "--index", str(workspace["index"]),
         "--backend", "script", "--script", str(workspace["script"]),
         "--rollouts", "2", "--out", str(tmp_path / "report.json")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, rc, after_run = json.loads(proc.stdout.splitlines()[-1])
    assert (after_import, rc, after_run) == (False, 0, False)
    assert json.loads((tmp_path / "report.json").read_text())["num_questions"] == 6
