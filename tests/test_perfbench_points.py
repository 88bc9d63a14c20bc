"""The benchmark's tracer still sees what it needs in the package.

``perfbench/spans.py`` patches package functions by module and name, and a
name it no longer finds records no span, which fails only the traced
benchmark run. These tests load that file unchanged, check each name, and
repeat the traced run's per-question span check on fixture questions.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import build_eval_fixture
from rare.harness import apply_preset, run_eval
from rare.types import SearchConfig

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _PATH)
spans = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses need it
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module, attr", sorted(
    {(module, attr) for module, attr, _, _ in spans.TREE_POINTS + spans.RAG_POINTS}))
def test_traced_entry_point_exists_and_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_every_span_carries_its_question_on_any_worker_count(small_index):
    """The traced benchmark fails when a span has no question id or when a
    question's span counts depend on the worker count. The tracer keeps the
    question id per thread, so this holds only while every LM call, search
    and step of a question runs on that question's thread."""
    cfg = apply_preset(SearchConfig(rollouts=4, rng_seed=0), "rare")
    modules = {module: importlib.import_module(module) for module, *_ in spans.TREE_POINTS}
    counts = []
    for workers in (2, 1):
        questions, backend = build_eval_fixture(4, 3)
        tracer = spans.Tracer()
        backend.complete = tracer.wrap(backend.complete, "lm", "lm", spans.lm_info)
        tracer.install(spans.TREE_POINTS, modules)
        try:
            report = run_eval(questions, "rare", backend, small_index, cfg, workers=workers)
        finally:
            tracer.uninstall()
        assert [r.error for r in report.records] == [None] * len(questions)
        taken = tracer.take()
        assert [s.name for s in taken if s.qid is None] == []
        counts.append(spans.question_counts(taken))
    assert sorted(counts[0]) == [q.id for q in questions]
    assert all(lm_calls > 0 for lm_calls, *_ in counts[0].values())
    assert counts[0] == counts[1]
